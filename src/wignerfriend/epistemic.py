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
counterfactual composition leaves nothing to contradict.
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


class OutcomeClaim(FrozenValue):
    """'Measurement <quantity> gives <outcome> at <time>' asserted as certain."""

    __slots__ = ("quantity", "outcome", "time")
    quantity: str  # "w", "wbar", or "z"
    outcome: str
    time: str


class CertainThat(FrozenValue):
    """One agent's certainty about another agent's claim.

    Only a single wrapping level is representable; nesting a CertainThat
    inside a CertainThat is rejected.
    """

    __slots__ = ("agent", "inner")
    agent: Agent
    inner: OutcomeClaim

    def __init__(self, agent: Agent, inner: OutcomeClaim) -> None:
        if not isinstance(inner, OutcomeClaim):
            raise ValueError("certainty nesting deeper than one wrapper is rejected")
        FrozenValue.__init__(self, agent, inner)


Proposition = OutcomeClaim | CertainThat


class EpistemicStatement(FrozenValue):
    __slots__ = (
        "id",
        "author",
        "proposition",
        "actual_context",
        "derived_from",
        "axioms_used",
        "backing",
        "note",
        "_assumed",
    )
    id: str
    author: Agent
    proposition: Proposition
    actual_context: MeasurementContext
    derived_from: tuple[str, ...]
    axioms_used: frozenset[str]
    backing: tuple[InferenceRule, ...]
    note: str

    def __init__(
        self,
        id: str,
        author: Agent,
        proposition: Proposition,
        actual_context: MeasurementContext,
        derived_from: tuple[str, ...] = (),
        axioms_used: frozenset[str] = frozenset({"Q"}),
        backing: tuple[InferenceRule, ...] = (),
        note: str = "",
    ) -> None:
        if not (isinstance(derived_from, tuple) and all(isinstance(p, str) for p in derived_from)):
            raise TypeError(f"derived_from must be a tuple of statement ids, got {derived_from!r}")
        FrozenValue.__init__(
            self, id, author, proposition, actual_context,
            derived_from, axioms_used, backing, note,
        )
        # Not a field: copy and pickle rebuild it from the fields.
        object.__setattr__(self, "_assumed", backing[-1].context if backing else actual_context)

    @property
    def assumed_context(self) -> MeasurementContext:
        """The context the reasoning assumed: that of the last rule it rests
        on, or the realized one when no rule backs it."""
        return self._assumed

    @property
    def counterfactual(self) -> bool:
        """True iff the reasoning assumed a context other than the realized one."""
        return self._assumed != self.actual_context

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
_FAIL_AT_31 = OutcomeClaim("w", "fail", "n:31")

# The statements are frozen and hold only tuples and frozensets, so they are
# built once and shared by every caller.
_STATEMENTS = (
    EpistemicStatement(
        "Fbar_n02",
        Agent.FBAR,
        _FAIL_AT_31,
        CTX_WBAR_W,
        axioms_used=frozenset({"Q"}),
        backing=(_T_FAIL,),
        note="from the recorded coin value t",
    ),
    EpistemicStatement(
        "F_n12",
        Agent.F,
        CertainThat(Agent.FBAR, OutcomeClaim("z", "up", "n:02")),
        CTX_ZBAR_Z,
        axioms_used=frozenset({"Q", "C"}),
        backing=(_UP_T,),
        note="deduction about a fellow agent within the unchanged context",
    ),
    EpistemicStatement(
        "F_n13",
        Agent.F,
        CertainThat(Agent.FBAR, _FAIL_AT_31),
        CTX_WBAR_W,
        derived_from=("Fbar_n02", "F_n12"),
        axioms_used=frozenset({"Q", "C"}),
        backing=(_UP_T, _T_FAIL),
    ),
    EpistemicStatement(
        "F_n14",
        Agent.F,
        _FAIL_AT_31,
        CTX_WBAR_W,
        derived_from=("F_n13",),
        axioms_used=frozenset({"Q", "C"}),
        backing=(_UP_T, _T_FAIL),
    ),
    EpistemicStatement(
        "Wbar_n22",
        Agent.WBAR,
        CertainThat(Agent.F, OutcomeClaim("z", "up", "n:11")),
        CTX_WBAR_W,
        axioms_used=frozenset({"Q"}),
        backing=(_OKBAR_UP,),
        note="from the observed okbar, applied outside the realized context",
    ),
    EpistemicStatement(
        "Wbar_n23",
        Agent.WBAR,
        CertainThat(Agent.F, _FAIL_AT_31),
        CTX_WBAR_W,
        derived_from=("Wbar_n22", "F_n14"),
        axioms_used=frozenset({"Q", "C"}),
        backing=(_OKBAR_UP, _UP_T, _T_FAIL),
    ),
    EpistemicStatement(
        "Wbar_n24",
        Agent.WBAR,
        _FAIL_AT_31,
        CTX_WBAR_W,
        derived_from=("Wbar_n23",),
        axioms_used=frozenset({"Q", "C"}),
        backing=(_OKBAR_UP, _UP_T, _T_FAIL),
        note="the okbar->up->t->fail chain in one statement",
    ),
    EpistemicStatement(
        "W_n26",
        Agent.W,
        OutcomeClaim("wbar", "okbar", "n:21"),
        CTX_WBAR_W,
        axioms_used=frozenset({"C"}),
        backing=(),
        note="announced result, shared at the same observer level",
    ),
    EpistemicStatement(
        "W_n27",
        Agent.W,
        CertainThat(Agent.WBAR, _FAIL_AT_31),
        CTX_WBAR_W,
        derived_from=("W_n26", "Wbar_n24"),
        axioms_used=frozenset({"Q", "C"}),
        backing=(_OKBAR_UP, _UP_T, _T_FAIL),
    ),
    EpistemicStatement(
        "W_n28",
        Agent.W,
        _FAIL_AT_31,
        CTX_WBAR_W,
        derived_from=("W_n27",),
        axioms_used=frozenset({"Q", "C", "S"}),
        backing=(_OKBAR_UP, _UP_T, _T_FAIL),
        note="equivalent to Wbar_n24",
    ),
)


def builtin_statements() -> tuple[EpistemicStatement, ...]:
    """The ten statements of the experiment's story, with their provenance."""
    return _STATEMENTS


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
    __slots__ = (
        "axioms",
        "allow_counterfactual",
        "statements",
        "admitted",
        "active",
        "edges",
        "contradiction",
        "witness",
        "minimal_counterfactual",
    )
    axioms: AxiomSet
    allow_counterfactual: bool
    statements: tuple[EpistemicStatement, ...]
    admitted: tuple[str, ...]
    active: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    contradiction: bool
    witness: ContradictionCertificate | None
    minimal_counterfactual: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "axioms": {"Q": self.axioms.Q, "C": self.axioms.C, "S": self.axioms.S},
            "allow_counterfactual": self.allow_counterfactual,
            "statements": [
                {
                    "id": s.id,
                    "author": s.author.value,
                    "assumed_context": s.assumed_context.name,
                    "actual_context": s.actual_context.name,
                    "classification": s.verdict,
                    "active": s.id in self.active,
                    "derived_from": list(s.derived_from),
                    "backing": {
                        ",".join(key): f"{p:.17g}"
                        for key, p in backing_probabilities(s).items()
                    },
                }
                for s in self.statements
            ],
            "edges": [list(e) for e in self.edges],
            "contradiction": self.contradiction,
            "witness": None
            if self.witness is None
            else {
                "context": self.witness.context.name,
                "outcome": list(self.witness.outcome),
                "composed": self.witness.composed,
                "actual": f"{self.witness.actual:.17g}",
            },
            "minimal_counterfactual": list(self.minimal_counterfactual),
        }


def _ancestors(statement_map: dict[str, EpistemicStatement], sid: str) -> set[str]:
    seen: set[str] = set()
    stack = list(statement_map[sid].derived_from)
    while stack:
        parent = stack.pop()
        if parent in seen:
            continue
        seen.add(parent)
        stack.extend(statement_map[parent].derived_from)
    return seen


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
    """
    statements = builtin_statements()
    by_id = {s.id: s for s in statements}
    if admitted is None:
        admitted_ids = tuple(by_id)
    else:
        admitted_ids = tuple(admitted)
        unknown = [sid for sid in admitted_ids if sid not in by_id]
        if unknown:
            raise ValueError(f"unknown statement ids: {unknown}")
    edges = tuple((parent, s.id) for s in statements for parent in s.derived_from)

    if not axioms.Q:
        return TraceReport(
            axioms, allow_counterfactual, statements, admitted_ids, (), edges, False, None, ()
        )

    active = tuple(
        s.id
        for s in statements
        if s.id in admitted_ids
        and s.axioms_used <= axioms.enabled
        and (allow_counterfactual or not s.counterfactual)
    )
    active_counterfactual = [sid for sid in active if by_id[sid].counterfactual]
    contradiction = bool(active_counterfactual)

    witness = None
    minimal: tuple[str, ...] = ()
    if contradiction:
        witness = chain_prediction(okbar_to_fail_chain())
        active_cf = set(active_counterfactual)
        minimal = tuple(
            sid
            for sid in active_counterfactual
            if not (_ancestors(by_id, sid) & active_cf)
        )
    return TraceReport(
        axioms,
        allow_counterfactual,
        statements,
        admitted_ids,
        active,
        edges,
        contradiction,
        witness,
        minimal,
    )
