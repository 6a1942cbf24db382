"""The two-qubit coin/spin experiment: its four measurement contexts, their
exact outcome tables, single-context inference rules, and the certificate
showing what goes wrong when rules from incompatible contexts are chained.

An inference rule is valid purely as a zero-probability statement inside one
context.  Chaining rules across contexts is a distinct, explicitly labeled
operation (:func:`chain_prediction`); the resulting certificate records the
gap between the chained prediction and the actually measured table.

Outcome pairs are always keyed (coin label, spin label).
"""

from __future__ import annotations

from functools import lru_cache

from .qcore import (
    COIN_WBAR,
    COIN_ZBAR,
    SPIN_W,
    SPIN_Z,
    Basis,
    FrozenValue,
    OutcomeDistribution,
    StateVector,
    born_distribution,
    make_state,
)

INFERENCE_TOL = 1e-12

_SQRT3 = 3.0 ** 0.5


class MeasurementContext(FrozenValue):
    """An ordered pair (coin basis, spin basis) naming one experiment.

    Only Zbar/Wbar are allowed on the coin and Z/W on the spin, so exactly
    four distinct contexts exist; equality is structural.
    """

    __slots__ = ("coin_basis", "spin_basis", "_hash")
    coin_basis: Basis
    spin_basis: Basis

    def __init__(self, coin_basis: Basis, spin_basis: Basis) -> None:
        if coin_basis not in (COIN_ZBAR, COIN_WBAR):
            raise ValueError(f"outcome not in context: coin basis {coin_basis.name}")
        if spin_basis not in (SPIN_Z, SPIN_W):
            raise ValueError(f"outcome not in context: spin basis {spin_basis.name}")
        FrozenValue.__init__(self, coin_basis, spin_basis)
        object.__setattr__(self, "_hash", hash((coin_basis, spin_basis)))

    def __hash__(self) -> int:
        # Computed once: every context_table lookup hashes its context.
        return self._hash

    @property
    def bases(self) -> tuple[Basis, Basis]:
        return (self.coin_basis, self.spin_basis)

    @property
    def name(self) -> str:
        return f"{self.coin_basis.name},{self.spin_basis.name}"


CTX_ZBAR_Z = MeasurementContext(COIN_ZBAR, SPIN_Z)
CTX_ZBAR_W = MeasurementContext(COIN_ZBAR, SPIN_W)
CTX_WBAR_Z = MeasurementContext(COIN_WBAR, SPIN_Z)
CTX_WBAR_W = MeasurementContext(COIN_WBAR, SPIN_W)
ALL_CONTEXTS = (CTX_ZBAR_Z, CTX_ZBAR_W, CTX_WBAR_Z, CTX_WBAR_W)


def hardy_state() -> StateVector:
    """The shared state (|h,down> + |t,down> + |t,up>)/sqrt3."""
    return make_state([1.0 / _SQRT3, 0.0, 1.0 / _SQRT3, 1.0 / _SQRT3], (COIN_ZBAR, SPIN_Z))


@lru_cache(maxsize=None)
def context_table(context: MeasurementContext) -> OutcomeDistribution:
    """Exact outcome probabilities of the shared state in one context."""
    return born_distribution(hardy_state(), context.bases)


def _locate(context: MeasurementContext, label: str) -> int:
    """Which system (0=coin, 1=spin) a label belongs to in this context."""
    for k, b in enumerate(context.bases):
        if label in b.label_names:
            return k
    raise ValueError(f"outcome not in context: {label!r}")


def _other_label(basis: Basis, label: str) -> str:
    names = basis.label_names
    return names[1] if names[0] == label else names[0]


class InferenceRule(FrozenValue):
    """'If the premise outcome occurs, the conclusion outcome is certain',
    asserted within a single context.

    Premise and conclusion must label different systems of the context.
    """

    __slots__ = ("context", "premise", "conclusion")
    context: MeasurementContext
    premise: str
    conclusion: str

    def __init__(self, context: MeasurementContext, premise: str, conclusion: str) -> None:
        if _locate(context, premise) == _locate(context, conclusion):
            raise ValueError("outcome not in context: premise and conclusion share a system")
        FrozenValue.__init__(self, context, premise, conclusion)


def check_inference(rule: InferenceRule) -> bool:
    """True iff P(premise and not-conclusion) vanishes in the rule's context."""
    table = context_table(rule.context)
    p_sys = _locate(rule.context, rule.premise)
    c_sys = 1 - p_sys
    mass = sum(
        p
        for key, p in table.items()
        if key[p_sys] == rule.premise and key[c_sys] != rule.conclusion
    )
    return mass < INFERENCE_TOL


class ContradictionCertificate(FrozenValue):
    """The outcome a chained prediction forbids, with its measured probability.

    The chain is contradicted when it predicts probability zero while the
    actual table assigns the outcome a probability above INFERENCE_TOL.
    """

    __slots__ = ("chain", "context", "outcome", "composed_prediction", "actual")
    chain: tuple[InferenceRule, ...]
    context: MeasurementContext
    outcome: tuple[str, str]
    composed_prediction: float
    actual: float


def okbar_to_fail_chain() -> tuple[InferenceRule, ...]:
    """The three-link chain okbar -> up -> t -> fail.

    The middle link is the contrapositive of the missing (h, up) branch in
    the (Zbar, Z) context; each link is a checkable zero in its own context.
    """
    return (
        InferenceRule(CTX_WBAR_Z, "okbar", "up"),
        InferenceRule(CTX_ZBAR_Z, "up", "t"),
        InferenceRule(CTX_ZBAR_W, "t", "fail"),
    )


def chain_prediction(chain) -> ContradictionCertificate:
    """Chain single-context rules as if contexts did not matter.

    The chain must be nonempty, every link valid in its own context, each
    link's conclusion the next link's premise, and the first premise and the
    negated final conclusion must land on different systems; otherwise
    ValueError("broken chain").  The certificate compares the chained
    prediction (zero, by construction) against the actual probability of
    (first premise, not final conclusion) in the context that measures both.
    """
    chain = tuple(chain)
    if not chain:
        raise ValueError("broken chain")
    for rule in chain:
        if not check_inference(rule):
            raise ValueError("broken chain")
    for first, second in zip(chain, chain[1:]):
        if first.conclusion != second.premise:
            raise ValueError("broken chain")

    head, tail = chain[0], chain[-1]
    head_sys = _locate(head.context, head.premise)
    tail_sys = _locate(tail.context, tail.conclusion)
    if head_sys == tail_sys:
        raise ValueError("broken chain")
    head_basis = head.context.bases[head_sys]
    tail_basis = tail.context.bases[tail_sys]
    negated = _other_label(tail_basis, tail.conclusion)

    if head_sys == 0:
        context = MeasurementContext(head_basis, tail_basis)
        outcome = (head.premise, negated)
    else:
        context = MeasurementContext(tail_basis, head_basis)
        outcome = (negated, head.premise)
    actual = context_table(context)[outcome]
    return ContradictionCertificate(chain, context, outcome, 0.0, actual)
