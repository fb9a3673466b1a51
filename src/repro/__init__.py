"""repro: Goldreich-Herzberg-Mansour (PODC 1989) reproduction.

A randomized, crash-resilient data-link protocol over channels that may
lose, reorder and duplicate packets, together with the full experimental
apparatus of the paper's model: adversarial channels, correctness-condition
checkers, baselines, a transport-layer substrate, and analytic bounds.

Quickstart
----------
>>> from repro import make_data_link, Simulator, SequentialWorkload
>>> from repro.adversary import RandomFaultAdversary, FaultProfile
>>> link = make_data_link(epsilon=2**-16, seed=1)
>>> adversary = RandomFaultAdversary(FaultProfile(loss=0.2, duplicate=0.2))
>>> sim = Simulator(link, adversary, SequentialWorkload(10), seed=1)
>>> result = sim.run()
>>> result.all_messages_ok
True
"""

from repro.core import (
    AggressivePolicy,
    BitString,
    DataLink,
    DataPacket,
    FixedPolicy,
    PollPacket,
    PrintedPaperPolicy,
    ProtocolParams,
    RandomSource,
    Receiver,
    ReproError,
    SizeBoundPolicy,
    SoundPolicy,
    Transmitter,
    make_data_link,
)
from repro.checkers import (
    SafetyReport,
    Trace,
    check_all_safety,
    check_liveness,
    progress_gaps,
)
from repro.sim import RunSpec, SequentialWorkload, SimulationResult, Simulator

__version__ = "1.0.0"

__all__ = [
    "AggressivePolicy",
    "BitString",
    "DataLink",
    "DataPacket",
    "FixedPolicy",
    "PollPacket",
    "PrintedPaperPolicy",
    "ProtocolParams",
    "RandomSource",
    "Receiver",
    "ReproError",
    "RunSpec",
    "SafetyReport",
    "SequentialWorkload",
    "SimulationResult",
    "Simulator",
    "SizeBoundPolicy",
    "SoundPolicy",
    "Trace",
    "Transmitter",
    "check_all_safety",
    "check_liveness",
    "make_data_link",
    "progress_gaps",
    "__version__",
]
