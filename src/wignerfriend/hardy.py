"""The two-qubit coin/spin experiment: its measurement contexts, their
exact outcome tables, single-context inference rules, and the certificate
showing what goes wrong when rules from incompatible contexts are chained.

An inference rule is valid purely as a zero-probability statement inside one
context: it excludes one outcome, and holds when that entry vanishes.  The
rules of :func:`okbar_to_fail_chain` state the story's three zeros, and
``epistemic``'s statements are backed by them.  Chaining rules across
contexts is a distinct, explicitly labeled operation (:func:`chain_prediction`);
the resulting certificate records the gap between the chained prediction and
the actually measured table.

Outcome pairs are always keyed (coin label, spin label).
"""

from __future__ import annotations

from functools import lru_cache

from .qcore import (
    BASIS_CHANGE_CACHE,
    COIN_WBAR,
    COIN_ZBAR,
    SPIN_W,
    SPIN_Z,
    Basis,
    FrozenValue,
    OutcomeDistribution,
    StateVector,
    System,
    born_distribution,
    make_state,
)

INFERENCE_TOL = 1e-12

_SQRT3 = 3.0 ** 0.5


class MeasurementContext(FrozenValue):
    """An ordered pair (coin basis, spin basis) naming one experiment.

    Any coin basis with any spin basis is a context, provided no label name
    belongs to both, so that a name identifies its system (which
    :class:`InferenceRule` relies on).  The experiment's four are
    ``ALL_CONTEXTS``; equality is structural.
    """

    __slots__ = ("coin_basis", "spin_basis")
    coin_basis: Basis
    spin_basis: Basis

    def __init__(self, coin_basis: Basis, spin_basis: Basis) -> None:
        if coin_basis.system is not System.COIN:
            raise ValueError(f"outcome not in context: {coin_basis.name} is not a coin basis")
        if spin_basis.system is not System.SPIN:
            raise ValueError(f"outcome not in context: {spin_basis.name} is not a spin basis")
        shared = sorted(set(coin_basis.labels) & set(spin_basis.labels))
        if shared:
            raise ValueError(f"outcome not in context: {shared[0]!r} labels both systems")
        FrozenValue.__init__(self, coin_basis, spin_basis)

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


@lru_cache(maxsize=BASIS_CHANGE_CACHE)
def context_table(context: MeasurementContext) -> OutcomeDistribution:
    """Exact outcome probabilities of the shared state in one context.

    Memoized: equal contexts return the same (immutable) table; the least
    recently used of BASIS_CHANGE_CACHE contexts is evicted first.
    """
    return born_distribution(hardy_state(), context.bases)


def _locate(context: MeasurementContext, label: str) -> int:
    """Which system (0=coin, 1=spin) a label belongs to in this context."""
    for k, b in enumerate(context.bases):
        if label in b.labels:
            return k
    raise ValueError(f"outcome not in context: {label!r}")


def _outcome(context: MeasurementContext, label: str) -> tuple[Basis, str]:
    """A label of this context as an outcome: its basis and its name."""
    return context.bases[_locate(context, label)], label


class InferenceRule(FrozenValue):
    """'If the premise outcome occurs, the conclusion outcome is certain',
    asserted within a single context.

    Premise and conclusion must label different systems of the context.
    Each system has two labels, so the rule excludes exactly one outcome,
    :attr:`forbidden`.
    """

    __slots__ = ("context", "premise", "conclusion", "_forbidden")
    context: MeasurementContext
    premise: str
    conclusion: str

    def __init__(self, context: MeasurementContext, premise: str, conclusion: str) -> None:
        premise_sys = _locate(context, premise)
        conclusion_sys = _locate(context, conclusion)
        if premise_sys == conclusion_sys:
            raise ValueError("outcome not in context: premise and conclusion share a system")
        FrozenValue.__init__(self, context, premise, conclusion)
        a, b = context.bases[conclusion_sys].labels
        negated = b if a == conclusion else a
        forbidden = (premise, negated) if premise_sys == 0 else (negated, premise)
        # Not a field: copy and pickle rebuild it from the three fields.
        object.__setattr__(self, "_forbidden", forbidden)

    @property
    def forbidden(self) -> tuple[str, str]:
        """The (coin, spin) outcome the rule excludes: the premise paired
        with the conclusion's other label."""
        return self._forbidden


def check_inference(rule: InferenceRule) -> bool:
    """True iff the rule's forbidden outcome has probability below
    INFERENCE_TOL in the rule's context."""
    return context_table(rule.context)[rule.forbidden] < INFERENCE_TOL


class ContradictionCertificate(FrozenValue):
    """The outcome a chained prediction forbids, in the context that measures
    it, with the probability the chain composes (zero) and the measured one.

    The chain is contradicted when it predicts probability zero while the
    actual table assigns the outcome a probability above INFERENCE_TOL.  The
    certificate does not hold the chain: the caller of
    :func:`chain_prediction` passed it in.
    """

    __slots__ = ("context", "outcome", "composed", "actual")
    context: MeasurementContext
    outcome: tuple[str, str]
    composed: float
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
    link's conclusion the next link's premise (the same name in the same
    basis, since a name labels an outcome only within its basis), and the
    first premise and the negated final conclusion must land on different
    systems; otherwise
    ValueError("broken chain").  The chain then reads as one rule, first
    premise => final conclusion, in the context that measures both; the
    certificate compares its prediction (zero, by construction) against the
    actual probability of that rule's forbidden outcome.
    """
    chain = tuple(chain)
    if not chain:
        raise ValueError("broken chain")
    for rule in chain:
        if not check_inference(rule):
            raise ValueError("broken chain")
    for first, second in zip(chain, chain[1:]):
        if _outcome(first.context, first.conclusion) != _outcome(second.context, second.premise):
            raise ValueError("broken chain")

    head, tail = chain[0], chain[-1]
    head_sys = _locate(head.context, head.premise)
    tail_sys = _locate(tail.context, tail.conclusion)
    if head_sys == tail_sys:
        raise ValueError("broken chain")
    bases = {head_sys: head.context.bases[head_sys], tail_sys: tail.context.bases[tail_sys]}
    joint = InferenceRule(MeasurementContext(bases[0], bases[1]), head.premise, tail.conclusion)
    actual = context_table(joint.context)[joint.forbidden]
    return ContradictionCertificate(joint.context, joint.forbidden, 0.0, actual)
