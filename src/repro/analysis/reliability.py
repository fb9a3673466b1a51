"""Exact source–destination reliability of a relay network.

R(G, p) is the probability that the source and the destination of a
:class:`~repro.transport.network.Network` are joined by a path of up
links when every link is up independently with probability p.  It is the
connectivity yardstick of the relay fabric (PROTOCOL.md §16): in the
stationary state of its links' two-state Markov chains each link is up
with probability r/(f+r), so a stream can make progress on a fraction R
of the ticks at best, and ticks to completion are judged against
fault-free ticks ÷ R.  Kündgen–Patno (arXiv:1705.06473) compute exactly
such reliabilities for relaying over failing edges.

The count is exact: every up-set of the network's links is enumerated
once and tested for a source→destination path with
:meth:`Network.route`, the fabric's own in-repo search.  That costs
2^|E| searches, so networks with more than :data:`MAX_LINKS` links are
refused.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.exceptions import ConfigurationError

if TYPE_CHECKING:
    from repro.transport.network import Network

__all__ = [
    "MAX_LINKS",
    "connected_up_sets",
    "reliability",
    "stationary_up_probability",
]

#: The most links whose 2^|E| up-sets are enumerated (65,536 searches).
MAX_LINKS = 16


def connected_up_sets(network: "Network") -> List[int]:
    """``counts[k]``: the up-sets of exactly k up links that join the source
    to the destination, for k = 0..|E| (the reliability polynomial's
    coefficients).

    The network's link flags are set to each up-set in turn and restored
    afterwards; the routes searched along the way stay in its memo.
    """
    states = [network.link(a, b) for a, b in network.edges]
    links = len(states)
    if links > MAX_LINKS:
        raise ConfigurationError(
            f"exact reliability enumerates 2^|E| up-sets; {links} links "
            f"exceed the limit of {MAX_LINKS}"
        )
    source, destination = network.source, network.destination
    counts = [0] * (links + 1)
    saved = [state.up for state in states]
    try:
        for mask in range(2 ** links):
            for i, state in enumerate(states):
                state.up = bool(mask >> i & 1)
            if network.route(source, destination) is not None:
                counts[bin(mask).count("1")] += 1
    finally:
        for state, up in zip(states, saved):
            state.up = up
    return counts


def reliability(network: "Network", p: float) -> float:
    """R(G, p): the chance that the source reaches the destination over up
    links when each link is up independently with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1], got {p!r}")
    counts = connected_up_sets(network)
    links = len(counts) - 1
    return sum(
        n * p ** k * (1.0 - p) ** (links - k) for k, n in enumerate(counts) if n
    )


def stationary_up_probability(fail_rate: float, repair_rate: float) -> float:
    """The fraction of ticks a link is up in its Markov chain's stationary
    state, r/(f+r); a link that never fails is always up."""
    if not fail_rate:
        return 1.0
    return repair_rate / (fail_rate + repair_rate)
