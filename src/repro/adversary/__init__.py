"""Adversaries (Section 2.4): worst-case and randomized fault schedules."""

from repro.adversary.base import (
    Adversary,
    Corrupt,
    CrashReceiver,
    CrashTransmitter,
    Deliver,
    Move,
    Pass,
    TriggerRetry,
)
from repro.adversary.benign import DelayedFifoAdversary, ReliableAdversary
from repro.adversary.composite import MixtureAdversary, PhasedAdversary
from repro.adversary.corruption import StateCorruptionAdversary
from repro.adversary.crash import CrashStormAdversary
from repro.adversary.fairness import FairnessEnforcer, StallingAdversary
from repro.adversary.random_faults import (
    DuplicateFloodAdversary,
    FaultProfile,
    RandomFaultAdversary,
    ReorderAdversary,
)
from repro.adversary.replay import AttackPhase, ReplayAttacker

__all__ = [
    "Adversary",
    "AttackPhase",
    "Corrupt",
    "CrashReceiver",
    "CrashStormAdversary",
    "CrashTransmitter",
    "DelayedFifoAdversary",
    "Deliver",
    "DuplicateFloodAdversary",
    "FairnessEnforcer",
    "FaultProfile",
    "MixtureAdversary",
    "Move",
    "Pass",
    "PhasedAdversary",
    "RandomFaultAdversary",
    "ReliableAdversary",
    "ReorderAdversary",
    "ReplayAttacker",
    "StallingAdversary",
    "StateCorruptionAdversary",
    "TriggerRetry",
]
