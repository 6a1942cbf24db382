"""Discrete pilot-wave hidden-variable engine for the coin/spin experiment.

Hidden-variable dynamics is sequential conditional collapse: at each
beam-splitter event the active system's outcome distribution is its
conditional wave, given the partner's current hidden branch, pushed through
the beam splitter.  The residual freedom of matching input branches to output
ports (e.g. a 50/50 split fed by a single packet) is resolved by a
:class:`TransportCoupling`; the default monotone coupling is the unique
no-crossing transport between the two ranked marginals, the discrete analogue
of non-crossing trajectories.  Everything is enumerated exactly; the sampler
exists only for Monte-Carlo consistency checks and demo output.

When both beam splitters fire, the two events are space-like separated, so
the dynamics needs a global ordering of them: a :class:`Foliation`.  Each
event is named by the basis its detection measures in, one of the two bases
of ``hardy.CTX_WBAR_W``, the context every path ends in.  The two
orderings generate different trajectory sets with identical final-outcome
marginals (equivariance) but different origins for the same outcome.
"""

from __future__ import annotations

import math
import operator
import random
from enum import Enum
from functools import lru_cache

from .hardy import CTX_WBAR_W, CTX_ZBAR_Z, context_table, hardy_state
from .qcore import (
    COIN_WBAR,
    SPIN_W,
    Basis,
    FrozenValue,
    InvariantViolation,
    StateVector,
    apply_local,
    basis_change,
    project,
)

WEIGHT_TOL = 1e-12
_ADVANCE_TOL = 1e-15


class Foliation(FrozenValue):
    """A global ordering of the two space-like-separated detections: the two
    bases of ``CTX_WBAR_W``, in the order they are measured."""

    __slots__ = ("name", "ordering")
    name: str
    ordering: tuple[Basis, Basis]

    def __init__(self, name: str, ordering: tuple[Basis, Basis]) -> None:
        bases = CTX_WBAR_W.bases
        if ordering not in (bases, bases[::-1]):
            raise ValueError("ordering must permute the two measurement events")
        FrozenValue.__init__(self, name, ordering)


FOLIATION_F = Foliation("F", (SPIN_W, COIN_WBAR))
FOLIATION_FPRIME = Foliation("Fprime", (COIN_WBAR, SPIN_W))


class CouplingKind(str, Enum):
    MONOTONE = "monotone"
    INDEPENDENT = "independent"


# Rank 0 is drawn "above" rank 1 when matching cumulative masses.
BRANCH_RANK: dict[str, int] = {
    "h": 0,
    "t": 1,
    "up": 0,
    "down": 1,
    "okbar": 0,
    "failbar": 1,
    "ok": 0,
    "fail": 1,
}


class TransportCoupling(FrozenValue):
    """A joint law over (input branch, output port) with prescribed marginals.

    Monotone pairs the two distributions by matching cumulative mass in rank
    order (no crossing); independent couples them as a product.  Either way
    both marginals are reproduced exactly.
    """

    __slots__ = ("kind",)
    kind: CouplingKind

    def joint(
        self, input_dist: dict[str, float], output_dist: dict[str, float]
    ) -> dict[tuple[str, str], float]:
        # Negated comparisons, so that a NaN mass fails too.
        if not all(abs(sum(d.values()) - 1.0) <= 1e-9 for d in (input_dist, output_dist)):
            raise InvariantViolation("coupling marginals must each sum to 1")
        if self.kind is CouplingKind.INDEPENDENT:
            joint = {
                (i, o): pi * po
                for i, pi in input_dist.items()
                for o, po in output_dist.items()
                if pi * po > _ADVANCE_TOL
            }
        else:
            joint = self._monotone(input_dist, output_dist)
        self._check_marginals(joint, input_dist, output_dist)
        return joint

    def _monotone(
        self, input_dist: dict[str, float], output_dist: dict[str, float]
    ) -> dict[tuple[str, str], float]:
        ins = sorted(
            ((lab, p) for lab, p in input_dist.items() if p > _ADVANCE_TOL),
            key=lambda kv: BRANCH_RANK[kv[0]],
        )
        outs = sorted(
            ((lab, p) for lab, p in output_dist.items() if p > _ADVANCE_TOL),
            key=lambda kv: BRANCH_RANK[kv[0]],
        )
        joint: dict[tuple[str, str], float] = {}
        i = j = 0
        left_i = ins[0][1] if ins else 0.0
        left_j = outs[0][1] if outs else 0.0
        while i < len(ins) and j < len(outs):
            take = min(left_i, left_j)
            if take > _ADVANCE_TOL:
                key = (ins[i][0], outs[j][0])
                joint[key] = joint.get(key, 0.0) + take
            left_i -= take
            left_j -= take
            if left_i <= _ADVANCE_TOL:
                i += 1
                left_i = ins[i][1] if i < len(ins) else 0.0
            if left_j <= _ADVANCE_TOL:
                j += 1
                left_j = outs[j][1] if j < len(outs) else 0.0
        return joint

    @staticmethod
    def _check_marginals(joint, input_dist, output_dist) -> None:
        for lab, p in input_dist.items():
            got = sum(v for (i, _), v in joint.items() if i == lab)
            if not abs(got - p) <= WEIGHT_TOL:
                raise InvariantViolation(f"input marginal broken at {lab}: {got} != {p}")
        for lab, p in output_dist.items():
            got = sum(v for (_, o), v in joint.items() if o == lab)
            if not abs(got - p) <= WEIGHT_TOL:
                raise InvariantViolation(f"output marginal broken at {lab}: {got} != {p}")


MONOTONE = TransportCoupling(CouplingKind.MONOTONE)
INDEPENDENT = TransportCoupling(CouplingKind.INDEPENDENT)


class HiddenConfig(FrozenValue):
    """The pair of hidden branch labels, in the pilot state's current bases."""

    __slots__ = ("coin", "spin", "_hash")
    coin: str
    spin: str

    def __init__(self, coin: str, spin: str) -> None:
        FrozenValue.__init__(self, coin, spin)
        object.__setattr__(self, "_hash", hash((coin, spin)))

    def __hash__(self) -> int:
        # Computed once: configurations key the dicts that origin_of and
        # initial_distribution build.
        return self._hash

    def label(self, system: int) -> str:
        return self.coin if system == 0 else self.spin

    def with_label(self, system: int, label: str) -> "HiddenConfig":
        return HiddenConfig(label, self.spin) if system == 0 else HiddenConfig(self.coin, label)


class Transition(FrozenValue):
    __slots__ = ("system", "source", "target")
    system: str  # "coin" or "spin"
    source: str
    target: str


class TrajectoryPath(FrozenValue):
    __slots__ = ("initial", "events", "final", "weight")
    initial: HiddenConfig
    events: tuple[Transition, ...]
    final: tuple[str, str]  # (coin label, spin label)
    weight: float

    @property
    def signature(self) -> tuple:
        return (self.initial, self.events, self.final)


class TrajectorySet(FrozenValue):
    """All weighted hidden-variable paths of one experiment."""

    __slots__ = ("foliation", "coupling", "paths")
    foliation: Foliation
    coupling: TransportCoupling
    paths: tuple[TrajectoryPath, ...]

    def __init__(
        self,
        foliation: Foliation,
        coupling: TransportCoupling,
        paths: tuple[TrajectoryPath, ...],
    ) -> None:
        total = 0.0
        for p in paths:
            # Written as "not ok" so that a NaN weight fails too.
            if not p.weight >= -WEIGHT_TOL:
                raise InvariantViolation(f"negative or NaN path weight {p.weight}")
            total += p.weight
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise InvariantViolation(f"path weights sum to {total}")
        FrozenValue.__init__(self, foliation, coupling, paths)

    def final_marginal(self) -> dict[tuple[str, str], float]:
        out: dict[tuple[str, str], float] = {}
        for p in self.paths:
            out[p.final] = out.get(p.final, 0.0) + p.weight
        return out

    def to_json_dict(self) -> dict:
        return {
            "foliation": self.foliation.name,
            "context": [basis.name for basis in CTX_WBAR_W.bases],
            "coupling": self.coupling.kind.value,
            "paths": [
                {
                    "initial": {"coin": p.initial.coin, "spin": p.initial.spin},
                    "events": [
                        {"system": t.system, "from": t.source, "to": t.target}
                        for t in p.events
                    ],
                    "final": list(p.final),
                    "weight": f"{p.weight:.17g}",
                }
                for p in self.paths
            ],
        }


def initial_distribution() -> dict[HiddenConfig, float]:
    """Hidden configurations distributed by the shared state's (Zbar, Z) table."""
    return {HiddenConfig(*pair): p for pair, p in context_table(CTX_ZBAR_Z).items()}


def conditional_wave(state: StateVector, fixed_system: int, fixed_branch: str) -> StateVector:
    """The other system's normalized state given the partner's hidden branch."""
    if not 0 <= fixed_system < state.num_systems:
        raise ValueError("system index out of range")
    i = state.bases[fixed_system].index(fixed_branch)
    # The entries whose label on the fixed system is i, in flat order.
    shift = state.num_systems - fixed_system - 1
    vec = [z for index, z in enumerate(state.vec) if (index >> shift) & 1 == i]
    norm = math.sqrt(sum(z.real * z.real + z.imag * z.imag for z in vec))
    if norm < 1e-12:
        raise ValueError("empty conditional")
    other_bases = tuple(b for k, b in enumerate(state.bases) if k != fixed_system)
    return StateVector(other_bases, [z / norm for z in vec])


def _born_1q(state: StateVector) -> dict[str, float]:
    names = state.bases[0].label_names
    return {name: abs(z) ** 2 for name, z in zip(names, state.vec)}


def _walk(
    pilot: StateVector,
    initial: HiddenConfig,
    config: HiddenConfig,
    weight: float,
    events: tuple[Basis, ...],
    transitions: tuple[Transition, ...],
    coupling: TransportCoupling,
    out: list[TrajectoryPath],
) -> None:
    if not events:
        out.append(TrajectoryPath(initial, transitions, (config.coin, config.spin), weight))
        return
    target, rest = events[0], events[1:]
    active = CTX_WBAR_W.bases.index(target)
    partner = 1 - active
    cond = conditional_wave(pilot, partner, config.label(partner))
    out_wave = apply_local(cond, basis_change(0, cond.bases[0], target))
    input_dist = _born_1q(cond)
    output_dist = _born_1q(out_wave)
    joint = coupling.joint(input_dist, output_dist)

    branch = config.label(active)
    in_mass = input_dist[branch]
    if in_mass <= WEIGHT_TOL:
        raise InvariantViolation(
            f"hidden branch {branch!r} has weight {weight} but zero conditional mass"
        )
    pilot_bs = apply_local(pilot, basis_change(active, pilot.bases[active], target))
    for out_name in target.label_names:
        p = joint.get((branch, out_name), 0.0) / in_mass
        if p <= WEIGHT_TOL:
            continue
        collapsed, _ = project(pilot_bs, active, out_name)
        _walk(
            collapsed,
            initial,
            config.with_label(active, out_name),
            weight * p,
            rest,
            transitions + (Transition(target.system.value, branch, out_name),),
            coupling,
            out,
        )


# Two foliations times two couplings, each reachable positionally, by keyword
# or by default, which lru_cache keys apart.
@lru_cache(maxsize=16)
def evolve(foliation: Foliation, coupling: TransportCoupling = MONOTONE) -> TrajectorySet:
    """Enumerate every weighted path of the two-beam-splitter experiment.

    The input is always the Hardy state, so the result depends on the
    arguments alone and is memoized; the returned set is frozen and shared.
    """
    paths: list[TrajectoryPath] = []
    for config, w in initial_distribution().items():
        if w <= WEIGHT_TOL:
            continue
        _walk(hardy_state(), config, config, w, foliation.ordering, (), coupling, paths)
    return TrajectorySet(foliation, coupling, tuple(paths))


def origin_of(
    trajectories: TrajectorySet, final_outcome: tuple[str, str]
) -> dict[HiddenConfig, float]:
    """Conditional distribution over initial hidden configs given a final outcome."""
    hits = [p for p in trajectories.paths if p.final == tuple(final_outcome)]
    total = sum(p.weight for p in hits)
    if total <= WEIGHT_TOL:
        raise ValueError("unreached outcome")
    out: dict[HiddenConfig, float] = {}
    for p in hits:
        out[p.initial] = out.get(p.initial, 0.0) + p.weight
    return {k: v / total for k, v in out.items()}


def _dicts_differ(a: dict, b: dict, tol: float = WEIGHT_TOL) -> bool:
    keys = set(a) | set(b)
    return any(abs(a.get(k, 0.0) - b.get(k, 0.0)) > tol for k in keys)


class FoliationReport(FrozenValue):
    """Per-outcome origin comparison between the two event orderings."""

    __slots__ = (
        "origins_f",
        "origins_fprime",
        "origin_differs",
        "marginals_identical",
        "born_identical",
    )
    origins_f: dict[tuple[str, str], dict[HiddenConfig, float]]
    origins_fprime: dict[tuple[str, str], dict[HiddenConfig, float]]
    origin_differs: dict[tuple[str, str], bool]
    marginals_identical: bool
    born_identical: bool


def compare_foliations(coupling: TransportCoupling = MONOTONE) -> FoliationReport:
    """Evolve under both orderings and report where the origins disagree."""
    ts_f = evolve(FOLIATION_F, coupling)
    ts_fp = evolve(FOLIATION_FPRIME, coupling)
    marg_f = ts_f.final_marginal()
    marg_fp = ts_fp.final_marginal()
    outcomes = sorted(set(marg_f) | set(marg_fp))
    origins_f = {o: origin_of(ts_f, o) for o in outcomes}
    origins_fp = {o: origin_of(ts_fp, o) for o in outcomes}
    differs = {o: _dicts_differ(origins_f[o], origins_fp[o]) for o in outcomes}
    born = context_table(CTX_WBAR_W)
    born_identical = not _dicts_differ(marg_f, dict(born.items())) and not _dicts_differ(
        marg_fp, dict(born.items())
    )
    return FoliationReport(
        origins_f,
        origins_fp,
        differs,
        not _dicts_differ(marg_f, marg_fp),
        born_identical,
    )


_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_tail(k: int) -> float:
    """log k! minus Stirling's (k + 1/2) log(k + 1) - (k + 1) + log(2 pi)/2.

    Below 30 from lgamma directly; from 30 on by the asymptotic series in
    1/(k + 1), whose first omitted term is below 4e-17 there.
    """
    if k < 30:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k + 1.0) + (k + 1.0) - _HALF_LOG_TWO_PI
    x = 1.0 / (k + 1)
    x2 = x * x
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - x2 / 1680.0) * x2) * x2) * x


def _binomial_inversion(rng: random.Random, n: int, p: float) -> int:
    """Binomial(n, p) by counting successes: the trials up to and including
    the next success are Geometric(p), drawn by inversion of one uniform, and
    the count stops when they overrun the n trials.  About n*p + 1 uniforms."""
    log_q = math.log1p(-p)
    count = 0
    left = n
    while True:
        # The next success is floor(gap) + 1 trials away; it falls within the
        # trials left exactly when gap < left.
        gap = math.log(1.0 - rng.random()) / log_q
        if gap >= left:
            return count
        left -= math.floor(gap) + 1
        count += 1


def _binomial_btrs(rng: random.Random, n: int, p: float) -> int:
    """Binomial(n, p) for n*p >= 10 and p <= 1/2 by BTRS, the transformed
    rejection with squeeze of Hormann, J. Stat. Comput. Simul. 46, 101 (1993).

    About 1.15 pairs of uniforms per draw.  The mode m = floor((n + 1) p) and
    every ratio in the acceptance test log f(k)/f(m) come from p's exact
    binary value in integer arithmetic, and the test is the Stirling form with
    log1p of those ratios, so it keeps double precision for n up to 2**63.
    """
    num, den = p.as_integer_ratio()  # p = num/den and q = 1 - p = rest/den
    rest = den - num
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    alpha = (2.83 + 5.1 / b) * spq
    v_r = 0.92 - 4.2 / b
    m = (n + 1) * num // den
    c = (n * num - m * den) / den + 0.5  # n p + 1/2 - m
    nm = n - m + 1
    h = (
        (m + 0.5) * math.log1p(((m + 1) * rest - num * nm) / (num * nm))
        + _stirling_tail(m)
        + _stirling_tail(n - m)
    )
    while True:
        u = rng.random() - 0.5
        v = 1.0 - rng.random()
        us = 0.5 - abs(u)
        if us == 0.0:  # u = -1/2 lies outside the open interval
            continue
        k = m + math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        if us >= 0.07 and v <= v_r:
            return k
        nk = n - k + 1
        log_ratio = (
            h
            + (n + 1) * math.log1p((k - m) / nk)
            + (k + 0.5) * math.log1p((num * nk - rest * (k + 1)) / (rest * (k + 1)))
            - _stirling_tail(k)
            - _stirling_tail(n - k)
        )
        if math.log(v * alpha / (a / (us * us) + b)) <= log_ratio:
            return k


def _count(value, name: str) -> int:
    """``value`` as a Python int, read with ``operator.index``.  A bool, or
    anything that is not an integer, raises TypeError naming ``name``."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not a bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}") from None


def binomial(rng: random.Random, n: int, p: float) -> int:
    """One exact Binomial(n, p) draw from ``rng``.

    Geometric-gap inversion when n*p < 10, BTRS otherwise, and p > 1/2 as
    n minus a draw at 1 - p (exact in floating point there).  ``n`` is read
    as :func:`sample_paths` reads its count.  ValueError for a negative n or
    a p outside [0, 1].
    """
    n = _count(n, "n")
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError(f"binomial needs n >= 0 and 0 <= p <= 1, got n={n}, p={p}")
    if p > 0.5:
        return n - binomial(rng, n, 1.0 - p)
    if n == 0 or p == 0.0:
        return 0
    if n * p < 10.0:
        return _binomial_inversion(rng, n, p)
    return _binomial_btrs(rng, n, p)


def branches(group: list[TrajectoryPath], depth: int) -> dict[object, list[TrajectoryPath]]:
    """The paths of ``group``, which agree before ``depth``, bucketed by their
    initial configuration (depth 0) or their transition at ``depth``, in
    order of first appearance."""
    buckets: dict[object, list[TrajectoryPath]] = {}
    for p in group:
        key = p.initial if depth == 0 else p.events[depth - 1]
        buckets.setdefault(key, []).append(p)
    return buckets


def _split(group: list[TrajectoryPath], depth: int):
    """The split tree of ``group``, paths that agree before ``depth``: the
    signature of a single path, or else a list of ``(p, child)``, one per
    bucket of :func:`branches`, where p is the branch's mass over the mass of
    that branch and every later one."""
    if len(group) == 1:
        return group[0].signature
    buckets = branches(group, depth)
    masses = [sum(q.weight for q in bucket) for bucket in buckets.values()]
    # Path weights are positive, so mass_i <= the sum and p <= 1.
    return [
        (masses[i] / sum(masses[i:]), _split(bucket, depth + 1))
        for i, bucket in enumerate(buckets.values())
    ]


# Keyed like evolve, whose frozen paths each tree splits.
@lru_cache(maxsize=16)
def _split_tree(foliation: Foliation, coupling: TransportCoupling):
    return _split(list(evolve(foliation, coupling).paths), 0)


def sample_paths(
    foliation: Foliation,
    coupling: TransportCoupling = MONOTONE,
    samples: int = 10**6,
    seed: int = 0,
) -> dict[tuple, int]:
    """Sample the trajectory dynamics stage by stage with a seeded generator.

    At each branching node the count is split among the branches by
    sequential conditional binomial draws (:func:`binomial`): branch i gets
    Binomial(count left, mass_i / mass of branches i and after), and the last
    branch the rest, without a draw.  That is a multinomial draw, so it is
    distribution-identical to simulating each run independently.  The nodes
    and their ratios depend on the experiment alone, so they are computed
    once per (foliation, coupling) from :func:`evolve`'s paths and kept;
    each call only walks them, drawing nothing below a count of zero.  The
    generator is ``random.Random(seed)``, so counts are deterministic given
    the seed; they differ from version 0.1.0's, which drew them with numpy.
    Returns counts, Python ints, keyed by path signature.

    ``samples`` is read with ``operator.index`` before any draw: a bool or a
    non-integer raises TypeError and a negative count ValueError.
    """
    samples = _count(samples, "samples")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    rng = random.Random(seed)
    counts: dict[tuple, int] = {}

    def assign(count: int, node) -> None:
        if count == 0:
            return
        if type(node) is not list:
            counts[node] = count
            return
        last = len(node) - 1
        for i, (p, child) in enumerate(node):
            got = count if i == last else binomial(rng, count, p)
            assign(got, child)
            count -= got

    assign(samples, _split_tree(foliation, coupling))
    return counts
