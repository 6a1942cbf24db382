"""Quantum memories for the two friends: record then exact uncompute, and the
decoherence alternative where records are kept.

The memory is modeled logically: a run holds only the joint state it
leaves, which every caller reads through its context tables.  Erasing
uncomputes a record exactly, so an erased run returns the input state
untouched and every context table stays pristine.  Keeping a record (or
destroying it into an environment, which is the same thing here) dephases
the recorded system in the recording basis.
"""

from __future__ import annotations

from enum import Enum

from .hardy import ALL_CONTEXTS
from .qcore import (
    Basis,
    DensityOperator,
    Frozen,
    OutcomeDistribution,
    StateVector,
    born_distribution,
)


class Friend(str, Enum):
    """The two in-lab observers; FBAR records system 0, F records system 1."""

    FBAR = "Fbar"
    F = "F"

    @property
    def system(self) -> int:
        return 0 if self is Friend.FBAR else 1


class ProtocolRun(Frozen):
    """Outcome of one record-then-erase or record-and-keep protocol: the
    joint state it leaves, which is the input state after an erasure and the
    dephased density after keeping records."""

    __slots__ = ("final_state",)
    final_state: StateVector | DensityOperator

    def tables(self) -> dict[str, OutcomeDistribution]:
        """Context tables of the final state, when it is a coin/spin pair."""
        out = {}
        for ctx in ALL_CONTEXTS:
            try:
                out[ctx.name] = born_distribution(self.final_state, ctx.bases)
            except ValueError:
                return {}
        return out


def _check_recording_basis(state: StateVector, agent: Friend, basis: Basis) -> None:
    current = state.bases[agent.system]
    if basis != current:
        raise ValueError(
            f"{agent.value} records system {agent.system} in {current.name}, not {basis.name}"
        )


def record_and_erase(state: StateVector, agent: Friend, basis: Basis) -> ProtocolRun:
    """Record one agent's outcome, then uncompute the record exactly.

    The joint state is returned unchanged (record followed by exact inverse),
    so the run stays coherent.
    """
    _check_recording_basis(state, agent, basis)
    return ProtocolRun(state)


def record_and_keep(state: StateVector, agents) -> ProtocolRun:
    """Record without erasure: each recording agent's system decoheres in its
    recording basis, and the run's final state is the dephased density.

    Each agent records in its system's current basis, so the density is
    |psi><psi| with the coherences of every recorded system zeroed, built in
    one pass and checked once."""
    systems = {agent.system for agent in agents}
    if not systems:
        raise ValueError("no agents")
    n = state.num_systems
    if max(systems) >= n:
        raise ValueError("system index out of range")
    # Entry (r, c) is a coherence of a recorded system when r and c differ in
    # that system's bit of the first-system-major index.
    recorded = sum(1 << (n - k - 1) for k in systems)
    v = state.vec
    vc = [y.conjugate() for y in v]
    rows = [
        [x * y if (r ^ c) & recorded == 0 else 0j for c, y in enumerate(vc)]
        for r, x in enumerate(v)
    ]
    return ProtocolRun(DensityOperator(state.bases, rows))

