"""Quantum memories for the two friends: record, exact uncompute (keeping at
most a one-bit "definite outcome occurred" flag), and the decoherence
alternative where records are kept.

The memory is modeled logically: a register's content plus the resulting
joint state.  Recording copies the measured label into the register branch by
branch; erasing uncomputes it exactly, so a fully erased run returns the
input state untouched and every context table stays pristine.  Keeping a
record (or destroying it into an environment, which is the same thing here)
dephases the recorded system in the recording basis.
"""

from __future__ import annotations

from enum import Enum

from .hardy import ALL_CONTEXTS
from .qcore import (
    Basis,
    DensityOperator,
    Frozen,
    FrozenValue,
    OutcomeDistribution,
    StateVector,
    born_distribution,
    density_from_state,
    dephase,
)

EMPTY = "∅"
DEFINITE_OUTCOME = "definite-outcome"


class Friend(str, Enum):
    """The two in-lab observers; FBAR records system 0, F records system 1."""

    FBAR = "Fbar"
    F = "F"

    @property
    def system(self) -> int:
        return 0 if self is Friend.FBAR else 1


class MemoryRegister:
    """One branch of an agent's memory.

    Content moves only along EMPTY -> outcome label -> (EMPTY or
    DEFINITE_OUTCOME); any other transition raises.
    """

    def __init__(self, agent: Friend) -> None:
        self.agent = agent
        self.content = EMPTY

    def record(self, outcome: str) -> None:
        if self.content != EMPTY:
            raise ValueError(f"cannot record over {self.content!r}")
        if outcome in (EMPTY, DEFINITE_OUTCOME):
            raise ValueError(f"not an outcome label: {outcome!r}")
        self.content = outcome

    def erase(self, keep_flag: bool = True) -> None:
        if self.content in (EMPTY, DEFINITE_OUTCOME):
            raise ValueError("nothing recorded to erase")
        self.content = DEFINITE_OUTCOME if keep_flag else EMPTY


class DefiniteOutcomeFlag(FrozenValue):
    """The one retained bit: a definite outcome occurred.

    Carries no which-outcome information; the run's final state is the same
    whichever outcome was recorded.
    """

    __slots__ = ("agent",)
    agent: Friend

    def __init__(self, agent: Friend) -> None:
        object.__setattr__(self, "agent", agent)


class ProtocolRun(Frozen):
    """Outcome of one record-then-erase or record-and-keep protocol."""

    __slots__ = ("agents", "erased", "final_state", "registers")
    agents: tuple[Friend, ...]
    erased: bool
    final_state: StateVector | DensityOperator
    registers: tuple[MemoryRegister, ...]

    def __init__(
        self,
        agents: tuple[Friend, ...],
        erased: bool,
        final_state: StateVector | DensityOperator,
        registers: tuple[MemoryRegister, ...] = (),
    ) -> None:
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "erased", erased)
        object.__setattr__(self, "final_state", final_state)
        object.__setattr__(self, "registers", registers)

    @property
    def coherent(self) -> bool:
        return self.erased

    def tables(self) -> dict[str, OutcomeDistribution]:
        """Context tables of the final state, when it is a coin/spin pair."""
        out = {}
        for ctx in ALL_CONTEXTS:
            try:
                out[ctx.name] = born_distribution(self.final_state, ctx.bases)
            except ValueError:
                return {}
        return out

    def to_json_dict(self) -> dict:
        return {
            "agents": [a.value for a in self.agents],
            "erased": self.erased,
            "status": "coherent" if self.erased else "decohered",
            "tables": {
                name: {",".join(k): f"{p:.17g}" for k, p in table.items()}
                for name, table in self.tables().items()
            },
        }


def _check_recording_basis(state: StateVector, agent: Friend, basis: Basis) -> None:
    current = state.bases[agent.system]
    if basis != current:
        raise ValueError(
            f"{agent.value} records system {agent.system} in {current.name}, not {basis.name}"
        )


def record_and_erase(state: StateVector, agent: Friend, basis: Basis) -> ProtocolRun:
    """Record one agent's outcome, then uncompute the record exactly.

    The joint state is returned unchanged (record followed by exact inverse),
    so the run stays coherent.  The register walks EMPTY -> label -> flag for
    every branch with support, and ends in the same flag state regardless of
    the branch, which is what makes the retained bit outcome-blind.
    """
    _check_recording_basis(state, agent, basis)
    dist = born_distribution(state, state.bases)
    registers = []
    for label in basis.label_names:
        marginal = sum(p for key, p in dist.items() if key[agent.system] == label)
        if marginal <= 0.0:
            continue
        reg = MemoryRegister(agent)
        reg.record(label)
        reg.erase(keep_flag=True)
        registers.append(reg)
    assert registers and all(r.content == DEFINITE_OUTCOME for r in registers)
    return ProtocolRun((agent,), True, state, tuple(registers))


def record_and_keep(state: StateVector, agents) -> ProtocolRun:
    """Record without erasure: each recording agent's system decoheres in its
    recording basis, and the run's final state is the dephased density."""
    agents = tuple(sorted(set(agents), key=lambda a: a.system))
    if not agents:
        raise ValueError("no agents")
    rho = density_from_state(state)
    for agent in agents:
        rho = dephase(rho, agent.system, state.bases[agent.system])
    return ProtocolRun(agents, False, rho)


def definite_outcome_flag(run: ProtocolRun) -> DefiniteOutcomeFlag:
    """The flag retained by an erased run; undefined for decohered runs."""
    if not run.erased:
        raise ValueError("flag requires erasure")
    return DefiniteOutcomeFlag(run.agents[0])
