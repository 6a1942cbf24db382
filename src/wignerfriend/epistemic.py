"""Replay of the four agents' reasoning about the coin/spin experiment.

Each statement an agent makes carries the context its reasoning assumed and
the context actually realized; a statement is context-valid exactly when the
two coincide, and counterfactual otherwise.  Classification is structural,
not probabilistic: the zero-probability table entries each statement leans on
are attached as evidence, not as the verdict.

The trace engine replays the statements under a choice of axioms: (Q) the
shared quantum state is a valid basis for predictions, (C) agents may adopt
one another's certainties, (S) an agent's certainties must be consistent with
that agent's own outcomes.  Admitting any counterfactual statement into the
trace yields a prediction ("fail is certain") that the measured table refutes
with positive probability; refusing counterfactual composition leaves nothing
to contradict.
"""

from __future__ import annotations

from enum import Enum

from .hardy import (
    CTX_WBAR_W,
    CTX_WBAR_Z,
    CTX_ZBAR_W,
    CTX_ZBAR_Z,
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

    def __init__(self, quantity: str, outcome: str, time: str) -> None:
        object.__setattr__(self, "quantity", quantity)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "time", time)


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
        object.__setattr__(self, "agent", agent)
        object.__setattr__(self, "inner", inner)


Proposition = OutcomeClaim | CertainThat


class Classification(str, Enum):
    CONTEXT_VALID = "ContextValid"
    COUNTERFACTUAL = "Counterfactual"


class ZeroBacking(FrozenValue):
    """A table entry that must vanish for the statement's reasoning to work."""

    __slots__ = ("context", "outcome")
    context: MeasurementContext
    outcome: tuple[str, str]

    def __init__(self, context: MeasurementContext, outcome: tuple[str, str]) -> None:
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "outcome", outcome)


class EpistemicStatement(FrozenValue):
    __slots__ = (
        "id",
        "author",
        "proposition",
        "assumed_context",
        "actual_context",
        "derived_from",
        "axioms_used",
        "backing",
        "note",
    )
    id: str
    author: Agent
    proposition: Proposition
    assumed_context: MeasurementContext
    actual_context: MeasurementContext
    derived_from: tuple[str, ...]
    axioms_used: frozenset[str]
    backing: tuple[ZeroBacking, ...]
    note: str

    def __init__(
        self,
        id: str,
        author: Agent,
        proposition: Proposition,
        assumed_context: MeasurementContext,
        actual_context: MeasurementContext,
        derived_from: tuple[str, ...] = (),
        axioms_used: frozenset[str] = frozenset({"Q"}),
        backing: tuple[ZeroBacking, ...] = (),
        note: str = "",
    ) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "author", author)
        object.__setattr__(self, "proposition", proposition)
        object.__setattr__(self, "assumed_context", assumed_context)
        object.__setattr__(self, "actual_context", actual_context)
        object.__setattr__(self, "derived_from", derived_from)
        object.__setattr__(self, "axioms_used", axioms_used)
        object.__setattr__(self, "backing", backing)
        object.__setattr__(self, "note", note)

    @property
    def classification(self) -> Classification:
        return classify(self)

    @property
    def verdict(self) -> str:
        if self.classification is Classification.CONTEXT_VALID:
            return "ContextValid"
        return "Counterfactual-derived" if self.derived_from else "Counterfactual"


def classify(statement: EpistemicStatement) -> Classification:
    """Context-valid iff the assumed and actual contexts coincide."""
    if statement.assumed_context == statement.actual_context:
        return Classification.CONTEXT_VALID
    return Classification.COUNTERFACTUAL


def backing_probabilities(statement: EpistemicStatement) -> dict[tuple[str, str, str], float]:
    """The measured probability of every table entry the statement relies on."""
    return {
        (b.context.name, *b.outcome): context_table(b.context)[b.outcome]
        for b in statement.backing
    }


_Z_TOK = ZeroBacking(CTX_ZBAR_W, ("t", "ok"))
_Z_HUP = ZeroBacking(CTX_ZBAR_Z, ("h", "up"))
_Z_OKBARDOWN = ZeroBacking(CTX_WBAR_Z, ("okbar", "down"))
_FAIL_AT_31 = OutcomeClaim("w", "fail", "n:31")

# The statements are frozen and hold only tuples and frozensets, so they are
# built once and shared by every caller.
_STATEMENTS = (
    EpistemicStatement(
        "Fbar_n02",
        Agent.FBAR,
        _FAIL_AT_31,
        CTX_ZBAR_W,
        CTX_WBAR_W,
        axioms_used=frozenset({"Q"}),
        backing=(_Z_TOK,),
        note="from the recorded coin value t",
    ),
    EpistemicStatement(
        "F_n12",
        Agent.F,
        CertainThat(Agent.FBAR, OutcomeClaim("z", "up", "n:02")),
        CTX_ZBAR_Z,
        CTX_ZBAR_Z,
        axioms_used=frozenset({"Q", "C"}),
        backing=(_Z_HUP,),
        note="deduction about a fellow agent within the unchanged context",
    ),
    EpistemicStatement(
        "F_n13",
        Agent.F,
        CertainThat(Agent.FBAR, _FAIL_AT_31),
        CTX_ZBAR_W,
        CTX_WBAR_W,
        derived_from=("Fbar_n02", "F_n12"),
        axioms_used=frozenset({"Q", "C"}),
        backing=(_Z_HUP, _Z_TOK),
    ),
    EpistemicStatement(
        "F_n14",
        Agent.F,
        _FAIL_AT_31,
        CTX_ZBAR_W,
        CTX_WBAR_W,
        derived_from=("F_n13",),
        axioms_used=frozenset({"Q", "C"}),
        backing=(_Z_HUP, _Z_TOK),
    ),
    EpistemicStatement(
        "Wbar_n22",
        Agent.WBAR,
        CertainThat(Agent.F, OutcomeClaim("z", "up", "n:11")),
        CTX_WBAR_Z,
        CTX_WBAR_W,
        axioms_used=frozenset({"Q"}),
        backing=(_Z_OKBARDOWN,),
        note="from the observed okbar, applied outside the realized context",
    ),
    EpistemicStatement(
        "Wbar_n23",
        Agent.WBAR,
        CertainThat(Agent.F, _FAIL_AT_31),
        CTX_ZBAR_W,
        CTX_WBAR_W,
        derived_from=("Wbar_n22", "F_n14"),
        axioms_used=frozenset({"Q", "C"}),
        backing=(_Z_OKBARDOWN, _Z_HUP, _Z_TOK),
    ),
    EpistemicStatement(
        "Wbar_n24",
        Agent.WBAR,
        _FAIL_AT_31,
        CTX_ZBAR_W,
        CTX_WBAR_W,
        derived_from=("Wbar_n23",),
        axioms_used=frozenset({"Q", "C"}),
        backing=(_Z_OKBARDOWN, _Z_HUP, _Z_TOK),
        note="the okbar->up->t->fail chain in one statement",
    ),
    EpistemicStatement(
        "W_n26",
        Agent.W,
        OutcomeClaim("wbar", "okbar", "n:21"),
        CTX_WBAR_W,
        CTX_WBAR_W,
        axioms_used=frozenset({"C"}),
        backing=(),
        note="announced result, shared at the same observer level",
    ),
    EpistemicStatement(
        "W_n27",
        Agent.W,
        CertainThat(Agent.WBAR, _FAIL_AT_31),
        CTX_ZBAR_W,
        CTX_WBAR_W,
        derived_from=("W_n26", "Wbar_n24"),
        axioms_used=frozenset({"Q", "C"}),
        backing=(_Z_OKBARDOWN, _Z_HUP, _Z_TOK),
    ),
    EpistemicStatement(
        "W_n28",
        Agent.W,
        _FAIL_AT_31,
        CTX_ZBAR_W,
        CTX_WBAR_W,
        derived_from=("W_n27",),
        axioms_used=frozenset({"Q", "C", "S"}),
        backing=(_Z_OKBARDOWN, _Z_HUP, _Z_TOK),
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
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "S", S)

    @property
    def enabled(self) -> frozenset[str]:
        return frozenset(name for name, on in (("Q", self.Q), ("C", self.C), ("S", self.S)) if on)


class Witness(FrozenValue):
    """The chained prediction against the measured value it contradicts."""

    __slots__ = ("context", "outcome", "composed", "actual")
    context: str
    outcome: tuple[str, str]
    composed: float
    actual: float

    def __init__(
        self, context: str, outcome: tuple[str, str], composed: float, actual: float
    ) -> None:
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "composed", composed)
        object.__setattr__(self, "actual", actual)


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
    witness: Witness | None
    minimal_counterfactual: tuple[str, ...]

    def __init__(
        self,
        axioms: AxiomSet,
        allow_counterfactual: bool,
        statements: tuple[EpistemicStatement, ...],
        admitted: tuple[str, ...],
        active: tuple[str, ...],
        edges: tuple[tuple[str, str], ...],
        contradiction: bool,
        witness: Witness | None,
        minimal_counterfactual: tuple[str, ...],
    ) -> None:
        object.__setattr__(self, "axioms", axioms)
        object.__setattr__(self, "allow_counterfactual", allow_counterfactual)
        object.__setattr__(self, "statements", statements)
        object.__setattr__(self, "admitted", admitted)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "contradiction", contradiction)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "minimal_counterfactual", minimal_counterfactual)

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
                "context": self.witness.context,
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
        and (allow_counterfactual or s.classification is Classification.CONTEXT_VALID)
    )
    active_counterfactual = [
        sid for sid in active if by_id[sid].classification is Classification.COUNTERFACTUAL
    ]
    contradiction = bool(active_counterfactual)

    witness = None
    minimal: tuple[str, ...] = ()
    if contradiction:
        certificate = chain_prediction(okbar_to_fail_chain())
        witness = Witness(
            certificate.context.name,
            certificate.outcome,
            certificate.composed_prediction,
            certificate.actual,
        )
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
