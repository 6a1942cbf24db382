"""Replay of the four agents' reasoning about the coin/spin experiment.

Each statement an agent makes carries the context actually realized and is
backed by the rules of ``hardy.okbar_to_fail_chain`` it leans on.  The
context its reasoning assumed is not stated beside them but read from them:
it is the context of the last rule, the one the conclusion is drawn in, or
the realized context when no rule backs the statement.  A statement is
context-valid exactly when the two coincide, and counterfactual otherwise.
That verdict is structural, not probabilistic: the table entry each rule
excludes is attached as evidence, not as the verdict.

The trace engine replays the statements under a choice of axioms: (Q) the
shared quantum state is a valid basis for predictions, (C) agents may adopt
one another's certainties, (S) an agent's certainties must be consistent with
that agent's own outcomes.  Admitting any counterfactual statement into the
trace yields a prediction ("fail is certain") that the measured table refutes
with positive probability, witnessed by the chain's own certificate; refusing
counterfactual composition leaves nothing to contradict.  A
:class:`TraceReport` holds what the replay derived; the statements it ran
over are :func:`builtin_statements`, and the axioms are the caller's.

The story never changes, so what a replay reads of it is built once, at
import: the statements by id, each statement's transitive parents and its
counterfactual flag, and the chain's certificate.  A call of
:func:`run_trace` computes only what depends on its inputs: which statements
are active, and which of the active counterfactual ones are minimal.
"""

from __future__ import annotations

from enum import Enum

from .hardy import (
    CTX_WBAR_W,
    CTX_ZBAR_Z,
    ContradictionCertificate,
    InferenceRule,
    MeasurementContext,
    chain_prediction,
    context_table,
    okbar_to_fail_chain,
)
from .qcore import FrozenValue


class Agent(str, Enum):
    F = "F"
    FBAR = "Fbar"
    W = "W"
    WBAR = "Wbar"


class EpistemicStatement(FrozenValue):
    """One agent's statement as the trace checks it: its author, the context
    realized when it is made, the statements it is derived from, the axioms
    it needs and the rules that back it.  What it claims is not stored; a
    comment above each built-in statement says it in words."""

    __slots__ = (
        "id",
        "author",
        "actual_context",
        "derived_from",
        "axioms_used",
        "backing",
        "_assumed",
        "_counterfactual",
    )
    id: str
    author: Agent
    actual_context: MeasurementContext
    derived_from: tuple[str, ...]
    axioms_used: frozenset[str]
    backing: tuple[InferenceRule, ...]

    def __init__(
        self,
        id: str,
        author: Agent,
        actual_context: MeasurementContext,
        derived_from: tuple[str, ...] = (),
        axioms_used: frozenset[str] = frozenset({"Q"}),
        backing: tuple[InferenceRule, ...] = (),
    ) -> None:
        if not (isinstance(derived_from, tuple) and all(isinstance(p, str) for p in derived_from)):
            raise TypeError(f"derived_from must be a tuple of statement ids, got {derived_from!r}")
        FrozenValue.__init__(self, id, author, actual_context, derived_from, axioms_used, backing)
        # Not fields: copy and pickle rebuild them from the fields.
        assumed = backing[-1].context if backing else actual_context
        object.__setattr__(self, "_assumed", assumed)
        object.__setattr__(self, "_counterfactual", assumed != actual_context)

    @property
    def assumed_context(self) -> MeasurementContext:
        """The context the reasoning assumed: that of the last rule it rests
        on, or the realized one when no rule backs it."""
        return self._assumed

    @property
    def counterfactual(self) -> bool:
        """True iff the reasoning assumed a context other than the realized one."""
        return self._counterfactual

    @property
    def verdict(self) -> str:
        if not self.counterfactual:
            return "ContextValid"
        return "Counterfactual-derived" if self.derived_from else "Counterfactual"


def backing_probabilities(statement: EpistemicStatement) -> dict[tuple[str, str, str], float]:
    """The measured probability of the outcome each backing rule excludes."""
    return {
        (rule.context.name, *rule.forbidden): context_table(rule.context)[rule.forbidden]
        for rule in statement.backing
    }


_OKBAR_UP, _UP_T, _T_FAIL = okbar_to_fail_chain()

# The statements are frozen and hold only tuples and frozensets, so they are
# built once and shared by every caller.
_STATEMENTS = (
    # Fbar (n:02): w = fail at n:31 is certain, from the recorded coin value t.
    EpistemicStatement(
        "Fbar_n02",
        Agent.FBAR,
        CTX_WBAR_W,
        axioms_used=frozenset({"Q"}),
        backing=(_T_FAIL,),
    ),
    # F (n:12): Fbar is certain that z = up at n:02, a deduction about a
    # fellow agent within the unchanged context.
    EpistemicStatement(
        "F_n12",
        Agent.F,
        CTX_ZBAR_Z,
        axioms_used=frozenset({"Q", "C"}),
        backing=(_UP_T,),
    ),
    # F (n:13): Fbar is certain that w = fail at n:31.
    EpistemicStatement(
        "F_n13",
        Agent.F,
        CTX_WBAR_W,
        derived_from=("Fbar_n02", "F_n12"),
        axioms_used=frozenset({"Q", "C"}),
        backing=(_UP_T, _T_FAIL),
    ),
    # F (n:14): w = fail at n:31 is certain.
    EpistemicStatement(
        "F_n14",
        Agent.F,
        CTX_WBAR_W,
        derived_from=("F_n13",),
        axioms_used=frozenset({"Q", "C"}),
        backing=(_UP_T, _T_FAIL),
    ),
    # Wbar (n:22): F is certain that z = up at n:11, from the observed okbar,
    # applied outside the realized context.
    EpistemicStatement(
        "Wbar_n22",
        Agent.WBAR,
        CTX_WBAR_W,
        axioms_used=frozenset({"Q"}),
        backing=(_OKBAR_UP,),
    ),
    # Wbar (n:23): F is certain that w = fail at n:31.
    EpistemicStatement(
        "Wbar_n23",
        Agent.WBAR,
        CTX_WBAR_W,
        derived_from=("Wbar_n22", "F_n14"),
        axioms_used=frozenset({"Q", "C"}),
        backing=(_OKBAR_UP, _UP_T, _T_FAIL),
    ),
    # Wbar (n:24): w = fail at n:31 is certain, the okbar->up->t->fail chain
    # in one statement.
    EpistemicStatement(
        "Wbar_n24",
        Agent.WBAR,
        CTX_WBAR_W,
        derived_from=("Wbar_n23",),
        axioms_used=frozenset({"Q", "C"}),
        backing=(_OKBAR_UP, _UP_T, _T_FAIL),
    ),
    # W (n:26): wbar = okbar at n:21 is certain, an announced result shared
    # at the same observer level.
    EpistemicStatement(
        "W_n26",
        Agent.W,
        CTX_WBAR_W,
        axioms_used=frozenset({"C"}),
        backing=(),
    ),
    # W (n:27): Wbar is certain that w = fail at n:31.
    EpistemicStatement(
        "W_n27",
        Agent.W,
        CTX_WBAR_W,
        derived_from=("W_n26", "Wbar_n24"),
        axioms_used=frozenset({"Q", "C"}),
        backing=(_OKBAR_UP, _UP_T, _T_FAIL),
    ),
    # W (n:28): w = fail at n:31 is certain, the same claim as Wbar_n24.
    EpistemicStatement(
        "W_n28",
        Agent.W,
        CTX_WBAR_W,
        derived_from=("W_n27",),
        axioms_used=frozenset({"Q", "C", "S"}),
        backing=(_OKBAR_UP, _UP_T, _T_FAIL),
    ),
)


def builtin_statements() -> tuple[EpistemicStatement, ...]:
    """The ten statements of the experiment's story, with their provenance."""
    return _STATEMENTS


# Built once: the story and the Hardy tables are fixed.  The story lists a
# statement's parents before it, so its ancestors are already known.
_BY_ID = {s.id: s for s in _STATEMENTS}
_ANCESTORS: dict[str, frozenset[str]] = {}
for _s in _STATEMENTS:
    _ANCESTORS[_s.id] = frozenset(_s.derived_from).union(*(_ANCESTORS[p] for p in _s.derived_from))
del _s
_WITNESS = chain_prediction((_OKBAR_UP, _UP_T, _T_FAIL))


class AxiomSet(FrozenValue):
    __slots__ = ("Q", "C", "S")
    Q: bool
    C: bool
    S: bool

    def __init__(self, Q: bool = True, C: bool = True, S: bool = True) -> None:
        FrozenValue.__init__(self, Q, C, S)

    @property
    def enabled(self) -> frozenset[str]:
        return frozenset(name for name, on in (("Q", self.Q), ("C", self.C), ("S", self.S)) if on)


class TraceReport(FrozenValue):
    """What a replay derived: the ids of the statements it admitted, in the
    story's order, whether they contradict the measured table, the chain's
    certificate when they do, and the counterfactual statements the
    contradiction rests on."""

    __slots__ = ("active", "contradiction", "witness", "minimal_counterfactual")
    active: tuple[str, ...]
    contradiction: bool
    witness: ContradictionCertificate | None
    minimal_counterfactual: tuple[str, ...]


def run_trace(
    axioms: AxiomSet = AxiomSet(),
    *,
    allow_counterfactual: bool = True,
    admitted=None,
) -> TraceReport:
    """Replay the statements under the given axioms.

    With counterfactual composition allowed and all axioms on, the trace
    carries "fail at n:31 is certain" while the realized context assigns the
    forbidden outcome probability 1/12: a contradiction, rooted in the
    minimal set of counterfactual statements it rests on.  Forbidding
    counterfactual composition removes every such statement and with it the
    contradiction; dropping (Q) removes all derivations outright.

    ``admitted`` is an iterable of statement ids, read once; None admits all
    ten.  A bare string is a ``TypeError`` and an unknown id a
    ``ValueError``.  The story's graph and the certificate are built at
    import; a call only filters the ten statements by its own inputs and
    picks out the active counterfactual statements with no active
    counterfactual ancestor.
    """
    if admitted is None:
        chosen = _BY_ID.keys()
    else:
        if isinstance(admitted, str):
            raise TypeError(f"admitted must be an iterable of statement ids, got the string {admitted!r}")
        given = tuple(admitted)
        unknown = [sid for sid in given if sid not in _BY_ID]
        if unknown:
            raise ValueError(f"unknown statement ids: {unknown}")
        chosen = set(given)

    if not axioms.Q:
        return TraceReport((), False, None, ())

    enabled = axioms.enabled
    active = tuple(
        s.id
        for s in _STATEMENTS
        if s.id in chosen
        and s.axioms_used <= enabled
        and (allow_counterfactual or not s._counterfactual)
    )
    counterfactual = {sid for sid in active if _BY_ID[sid]._counterfactual}
    if not counterfactual:
        return TraceReport(active, False, None, ())
    minimal = tuple(
        sid for sid in active if sid in counterfactual and _ANCESTORS[sid].isdisjoint(counterfactual)
    )
    return TraceReport(active, True, _WITNESS, minimal)
