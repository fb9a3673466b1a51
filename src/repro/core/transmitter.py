"""The transmitting module (TM) of Appendix A.

Figure 2 of the scanned technical report (the transmitter's code) is
missing from the surviving text, so this module reconstructs it from the
protocol overview (Section 3), the receiver's code (Figure 5), and the
facts the analysis relies on:

* the OK test is a *prefix* test on τ — Theorem 3's proof bounds
  ``P(prefix(τ_0, τ_0^R))``, which is only meaningful if a poll whose τ
  extends τ^T triggers OK;
* the transmitter answers a poll only when its retry counter exceeds the
  last one seen — Theorem 9's proof says "the transmitter replies each time
  i_j > i^T";
* same-length mismatches of τ are counted and trigger nonce extension, the
  dual of the receiver's ρ machinery (Lemma 2^T / Lemma 6);
* every τ^T begins with ``τ'_crash`` so that the receiver's post-crash
  sentinel ``τ_crash`` is never a prefix of a live nonce (Figure 3's note);
* all counters reset on OK and on crash — the paper's storage argument
  (Section 1) is that state depends only on faults during the *current*
  message.

The class is a pure state machine: inputs arrive via :meth:`send_msg`,
:meth:`on_receive_pkt` and :meth:`crash`; outputs are returned as
:class:`~repro.core.events.StationOutput` lists.  It performs no I/O and
holds no clock, which is what lets the simulator drive it under arbitrary
adversarial schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.bitstrings import BitString, TAU_PRIME_CRASH
from repro.core.events import EMIT_OK, StationOutput, make_emit_packet
from repro.core.exceptions import ProtocolError
from repro.core.packets import PollPacket, make_data_packet
from repro.core.params import ProtocolParams
from repro.core.random_source import RandomSource

__all__ = ["Transmitter", "TransmitterStats"]


@dataclass
class TransmitterStats:
    """Counters exposed for the metrics pipeline (not protocol state)."""

    packets_sent: int = 0
    oks: int = 0
    crashes: int = 0
    corruptions: int = 0
    errors_counted: int = 0
    extensions: int = 0
    polls_ignored: int = 0
    max_tau_bits: int = 0

    def observe_tau(self, tau: BitString) -> None:
        self.max_tau_bits = max(self.max_tau_bits, len(tau))


class Transmitter:
    """The TM automaton: accepts messages from the higher layer and runs
    the transmitter side of the randomized handshake.

    Parameters
    ----------
    params:
        Shared protocol parameters (ε and the size/bound policy).
    rng:
        The station's private random tape.  Survives crashes (a crash
        erases memory, not the entropy source).
    """

    def __init__(self, params: ProtocolParams, rng: RandomSource) -> None:
        self._params = params
        self._rng = rng
        self.stats = TransmitterStats()
        self._reset_memory()
        # _reset_memory counts itself as a crash; the initial reset is not one.
        self.stats.crashes = 0

    # -- state inspection -------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while a message is in flight (between send_msg and OK)."""
        return self._busy

    @property
    def tau(self) -> BitString:
        """The current transmitter nonce τ^T."""
        return self._tau

    @property
    def generation(self) -> int:
        """t^T: how many times τ^T has been extended for this message."""
        return self._t

    @property
    def error_count(self) -> int:
        """num^T: same-length τ mismatches seen at the current generation."""
        return self._num

    @property
    def last_retry_seen(self) -> int:
        """i^T: the largest receiver retry counter answered so far."""
        return self._i_seen

    @property
    def pending_message(self) -> Optional[bytes]:
        """The in-flight message, or None when idle."""
        return self._message if self._busy else None

    @property
    def storage_bits(self) -> int:
        """Current volatile-state footprint attributable to nonces."""
        return len(self._tau) + (len(self._prev_tau) if self._prev_tau else 0)

    # -- input actions ------------------------------------------------------------

    #: Volatile fields an arbitrary-state fault may scramble, in the fixed
    #: order :meth:`corrupt` processes them (order is part of the replay
    #: contract: the scramble tape is consumed field by field).
    CORRUPTIBLE_FIELDS: Tuple[str, ...] = (
        "busy", "tau", "prev_tau", "t", "num", "i_seen", "rho_next",
    )

    def crash(self) -> None:
        """``crash^T``: erase the entire memory (back to the initial value)."""
        self._reset_memory()

    def corrupt(
        self, rng: RandomSource, fields: Optional[Sequence[str]] = None
    ) -> Tuple[str, ...]:
        """Scramble volatile state in place (the arbitrary-state fault).

        Unlike :meth:`crash`, which resets to the known blank configuration,
        this leaves the automaton in a random-but-coherent configuration:
        nonces are XOR-masked to uniform strings of their current length,
        counters are redrawn, and an in-flight message may be dropped (the
        ``busy``/``_message`` pair stays coherent — a corrupted TM never
        claims to be busy with no message).  ``rng`` is the *pinned* scramble
        tape, not the station's entropy source, so the same seed over the
        same pre-fault state reproduces the same post-fault state.  Returns
        the names of the fields actually scrambled.
        """
        wanted = self.CORRUPTIBLE_FIELDS if fields is None else tuple(fields)
        for name in wanted:
            if name not in self.CORRUPTIBLE_FIELDS:
                raise ValueError(
                    f"unknown transmitter field {name!r} "
                    f"(corruptible: {', '.join(self.CORRUPTIBLE_FIELDS)})"
                )
        scrambled = []
        for name in self.CORRUPTIBLE_FIELDS:
            if name not in wanted:
                continue
            if name == "busy":
                # Only True -> False is reachable: an idle automaton holds no
                # message to turn busy *with*, and inventing one would be a
                # stronger fault than memory corruption.
                if self._busy and rng.bernoulli(0.5):
                    self._busy = False
                    self._message = None
                    scrambled.append(name)
            elif name == "tau":
                self._tau = rng.scramble_bits(self._tau)
                self.stats.observe_tau(self._tau)
                scrambled.append(name)
            elif name == "prev_tau":
                if self._prev_tau is not None:
                    self._prev_tau = rng.scramble_bits(self._prev_tau)
                    scrambled.append(name)
            elif name == "t":
                self._t = rng.randint(1, max(self._t, 1) + 4)
                scrambled.append(name)
            elif name == "num":
                self._num = rng.randint(0, max(self._num, 1) + 4)
                scrambled.append(name)
            elif name == "i_seen":
                self._i_seen = rng.randint(0, self._i_seen + 8)
                scrambled.append(name)
            elif name == "rho_next":
                if self._rho_next is not None:
                    self._rho_next = rng.scramble_bits(self._rho_next)
                    scrambled.append(name)
        self.stats.corruptions += 1
        return tuple(scrambled)

    def send_msg(self, message: bytes) -> List[StationOutput]:
        """``send_msg(m)``: accept the next message from the higher layer.

        Axiom 1 forbids a second send_msg before OK or a crash; violating it
        raises :class:`ProtocolError` rather than silently corrupting state.
        """
        if self._busy:
            raise ProtocolError(
                "send_msg while busy violates Axiom 1: wait for OK or crash"
            )
        if not isinstance(message, bytes):
            raise TypeError("messages must be bytes")
        self._busy = True
        self._message = message
        self._prev_tau = self._tau
        self._tau = self._fresh_tau()
        self._t = 1
        self._num = 0
        self.stats.observe_tau(self._tau)
        if self._rho_next is None:
            # Nothing heard from the receiver yet (e.g. right after a
            # crash); stay silent and let the receiver's polls drive us.
            return []
        packet = make_data_packet(message, self._rho_next, self._tau)
        self.stats.packets_sent += 1
        return [make_emit_packet(packet)]

    def on_receive_pkt(self, packet: PollPacket) -> List[StationOutput]:
        """``receive_pkt^{R→T}(ρ, τ, i)``: react to a receiver poll/ack."""
        if not isinstance(packet, PollPacket):
            raise ProtocolError(
                f"transmitter received a {type(packet).__name__}; only "
                f"PollPacket travels on C^(R->T)"
            )
        if self._busy:
            return self._on_poll_while_busy(packet)
        return self._on_poll_while_idle(packet)

    # -- internals ------------------------------------------------------------------

    def _on_poll_while_busy(self, packet: PollPacket) -> List[StationOutput]:
        if self._tau.is_prefix_of(packet.tau):
            # The receiver acknowledged our nonce: the message was delivered.
            self._busy = False
            self._message = None
            self._rho_next = packet.rho
            self._i_seen = 0
            self._t = 1
            self._num = 0
            self.stats.oks += 1
            return [EMIT_OK]

        self._count_tau_error(packet.tau)

        if packet.retry > self._i_seen:
            self._i_seen = packet.retry
            assert self._message is not None
            reply = make_data_packet(self._message, packet.rho, self._tau)
            self.stats.packets_sent += 1
            return [make_emit_packet(reply)]
        self.stats.polls_ignored += 1
        return []

    def _on_poll_while_idle(self, packet: PollPacket) -> List[StationOutput]:
        # Remember the freshest challenge so the next send_msg can open
        # with a data packet instead of waiting a full poll round-trip.
        if self._tau.is_prefix_of(packet.tau) and packet.retry > self._i_seen:
            self._rho_next = packet.rho
            self._i_seen = packet.retry
        else:
            self.stats.polls_ignored += 1
        return []

    def _count_tau_error(self, tau: BitString) -> None:
        """num^T bookkeeping: only same-length mismatches burn budget.

        Packets whose τ is shorter than τ^T are necessarily old (the nonce
        only grows within a handshake) and are not treated as errors — this
        is what lets τ^T stabilise in the liveness proof.  Replays of the
        previous handshake's nonce are likewise benign.
        """
        if len(tau) != len(self._tau):
            return
        if self._prev_tau is not None and tau == self._prev_tau:
            return
        self._num += 1
        self.stats.errors_counted += 1
        if self._num >= self._params.bound(self._t):
            self._t += 1
            self._num = 0
            self._tau = self._tau.concat(self._rng.random_bits(self._params.size(self._t)))
            self.stats.extensions += 1
            self.stats.observe_tau(self._tau)

    def _fresh_tau(self) -> BitString:
        """Draw a new nonce prefixed by τ'_crash (never extends τ_crash)."""
        return TAU_PRIME_CRASH.concat(self._rng.random_bits(self._params.size(1)))

    def _reset_memory(self) -> None:
        self._busy = False
        self._message: Optional[bytes] = None
        self._tau = self._fresh_tau()
        self._prev_tau: Optional[BitString] = None
        self._t = 1
        self._num = 0
        self._i_seen = 0
        self._rho_next: Optional[BitString] = None
        self.stats.crashes += 1
        self.stats.observe_tau(self._tau)

    def __repr__(self) -> str:
        state = "busy" if self._busy else "idle"
        return (
            f"Transmitter({state}, t={self._t}, num={self._num}, "
            f"|tau|={len(self._tau)}, i_seen={self._i_seen})"
        )
