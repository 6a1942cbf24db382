"""Singlet-pair statistics: quantum correlations from the Born rule, the
observer-independent-facts hidden-variable model, and the CHSH comparison
(local models at most 2, the singlet at 2*sqrt2).

Measurement directions are restricted to one Bloch great circle (real
amplitudes), so a setting is a single angle and the hidden-variable responses
are the familiar cos^2(angle/2) laws.  Outcome +1 means the "plus" port.
Correlations are bilinear on that circle, so ``chsh_scan`` solves in closed form.

Correlations broadcast like numpy ufuncs: settings may be arrays of angles,
and a correlation returns one value per broadcast pair of settings (a Python
float for scalar settings).  A ``CorrelationFn`` or ``LHVModel.response``
given to this module must broadcast the same way, because ``chsh_scan`` and
``erased_vs_kept_chsh`` evaluate whole grids of settings in one call.
Scalar settings run on the exact kernel of :mod:`qcore` and never import
numpy.  Array settings read the state's correlation block, four scalar
Born-rule correlations computed once per state.  They, ``chsh_scan`` and
``erased_vs_kept_chsh`` import numpy when called.

``erased_vs_kept_chsh`` checks its kept-records maximum against the Born
rule at the scan's argmax (``born_rule_residual``), as ``chsh --scan`` checks
the singlet's.  Grid sizes must be integers of at least 1, checked before
anything is computed.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

from .qcore import (
    UP,
    DOWN,
    Basis,
    DensityOperator,
    Frozen,
    FrozenValue,
    InvariantViolation,
    StateVector,
    System,
    born_distribution,
    direction_basis,
    make_state,
)

if TYPE_CHECKING:
    import numpy as np

_TWO_PI = 2.0 * math.pi
# Largest |E - n(a)^T T n(b)| that chsh_scan accepts on its check grid.
BILINEAR_TOL = 1e-12
# Distinct states whose correlation block is kept.  A CHSH solve reads its
# state's block twice, and erased_vs_kept_chsh reads the kept density's three
# times; the least recently used block is evicted first.
CORRELATION_CACHE = 64

# z basis for either particle of the pair, ordered (up, down).
PAIR_Z = Basis("Z", (UP, DOWN), ((1, 0), (0, 1)))

# Outcome product x*y over the joint outcomes (plus, plus), (plus, minus),
# (minus, plus), (minus, minus): the first-system-major order of
# born_distribution.
_OUTCOME_PRODUCT = (1.0, -1.0, -1.0, 1.0)


def singlet() -> StateVector:
    """The pair state (|up,down> - |down,up>)/sqrt2."""
    inv = 1.0 / math.sqrt(2.0)
    return make_state([0.0, inv, -inv, 0.0], (PAIR_Z, PAIR_Z))


# States are immutable, so the default pair is built and checked once.
_SINGLET = singlet()


def _is_scalar(setting) -> bool:
    """Whether a setting is one Python number (np.float64 is a float); arrays,
    0-d ones included, are not."""
    return isinstance(setting, (int, float))


def _scalar_or_array(x):
    """A float for a scalar or 0-d result, as for scalar settings; else the
    array."""
    return x if getattr(x, "ndim", 0) else float(x)


def _born_correlation(obj, alpha: float, beta: float) -> float:
    """E(alpha, beta) from one Born distribution in two direction bases."""
    dist = born_distribution(obj, (direction_basis(alpha), direction_basis(beta)))
    return sum(x * p for x, p in zip(_OUTCOME_PRODUCT, dist.probs.values()))


@lru_cache(maxsize=CORRELATION_CACHE)
def _correlation_block(obj) -> tuple[float, float, float, float]:
    """T = (E(0, 0), E(0, pi/2), E(pi/2, 0), E(pi/2, pi/2)) of a checked
    two-spin state: the z/x block of Tr(rho sigma_i (x) sigma_j), so that
    E(a, b) = n(a)^T T n(b) with n(a) = (cos a, sin a).  Memoized per state
    object (states compare by identity)."""
    quarter = math.pi / 2.0
    return tuple(_born_correlation(obj, a, b) for a in (0.0, quarter) for b in (0.0, quarter))


def quantum_correlation(alpha, beta, state=None):
    """Expectation of the +-1 outcome product at settings (alpha, beta).

    Computed from Born probabilities of the state (default: the singlet,
    where the closed form is -cos(alpha - beta)); accepts a density operator
    as well.  Two scalar settings take one :func:`qcore.born_distribution`
    in two :func:`qcore.direction_basis` bases and give a float.  Otherwise
    ``alpha`` and ``beta`` broadcast like a ufunc's arguments, and every pair
    is n(alpha)^T T n(beta) on the state's correlation block T, which four
    such Born-rule calls give once per state.  A non-finite setting raises
    ValueError "not unitary", as direction_basis does.  The state must hold
    two spin systems: ValueError "dimension mismatch" otherwise, and "basis
    mismatch" for a coin system.
    """
    obj = _SINGLET if state is None else state
    if not isinstance(obj, (StateVector, DensityOperator)):
        raise TypeError(f"cannot take Born distribution of {type(obj).__name__}")
    if obj.num_systems != 2:
        raise ValueError("dimension mismatch")
    if any(b.system is not System.SPIN for b in obj.bases):
        raise ValueError("basis mismatch: correlations are defined on two spin systems")
    if _is_scalar(alpha) and _is_scalar(beta):
        return _born_correlation(obj, alpha, beta)
    import numpy as np

    a, b = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("not unitary")
    # Reduced mod 2*pi, as direction_basis reduces a scalar setting.
    a, b = np.mod(a, _TWO_PI), np.mod(b, _TWO_PI)
    t00, t01, t10, t11 = _correlation_block(obj)
    cb, sb = np.cos(b), np.sin(b)
    return _scalar_or_array(np.cos(a) * (t00 * cb + t01 * sb) + np.sin(a) * (t10 * cb + t11 * sb))


class LHVModel(Frozen):
    """A finite local hidden-variable model: a prior over pair configurations
    and per-side response probabilities depending only on the local component.

    The joint it induces is a convex combination of products, so it is local
    and causal by construction.
    """

    __slots__ = ("lambda_space", "prior", "response")
    lambda_space: tuple[tuple[str, str], ...]
    prior: tuple[float, ...]
    #: response(side, angle, component) -> {+1: P(+1), -1: P(-1)}; it must
    #: broadcast over an array ``angle``, returning arrays of its shape.
    response: Callable[[int, float, str], dict[int, float]]

    def __init__(
        self,
        lambda_space: tuple[tuple[str, str], ...],
        prior: tuple[float, ...],
        response: Callable[[int, float, str], dict[int, float]],
    ) -> None:
        if len(prior) != len(lambda_space):
            raise ValueError("dimension mismatch")
        # Negated comparisons, so that a NaN weight or a non-finite sum fails.
        if any(not p >= 0 for p in prior) or not abs(sum(prior) - 1.0) <= 1e-12:
            raise ValueError("prior must be a probability distribution")
        Frozen.__init__(self, lambda_space, prior, response)


def observer_independent_facts_model() -> LHVModel:
    """The model induced by treating both friends' z records as facts:
    perfectly anticorrelated z values, cos^2(angle/2) readout on each side."""

    def response(side: int, angle: float, component: str) -> dict[int, float]:
        if _is_scalar(angle):
            trig = math
        else:
            import numpy as trig
        half = angle / 2.0
        p_plus = trig.cos(half) ** 2 if component == "up" else trig.sin(half) ** 2
        return {1: p_plus, -1: 1.0 - p_plus}

    return LHVModel(
        lambda_space=(("up", "down"), ("down", "up"), ("up", "up"), ("down", "down")),
        prior=(0.5, 0.5, 0.0, 0.0),
        response=response,
    )


def lhv_joint(model: LHVModel, alpha, beta) -> dict[tuple[int, int], float]:
    """P(x, y | alpha, beta) = sum_lambda P1(x|lambda) P2(y|lambda) P(lambda),
    broadcast over array settings as the responses broadcast."""
    joint = {(x, y): 0.0 for x in (1, -1) for y in (1, -1)}
    for lam, weight in zip(model.lambda_space, model.prior):
        if weight == 0.0:
            continue
        r1 = model.response(0, alpha, lam[0])
        r2 = model.response(1, beta, lam[1])
        for x, p1 in r1.items():
            for y, p2 in r2.items():
                joint[(x, y)] += weight * p1 * p2
    return joint


def lhv_correlation(model: LHVModel, alpha, beta):
    """Expectation of the outcome product under the hidden-variable model;
    broadcasts like :func:`quantum_correlation`."""
    return _scalar_or_array(
        sum(x * y * p for (x, y), p in lhv_joint(model, alpha, beta).items())
    )


class AngleQuad(FrozenValue):
    """Alice's two settings and Bob's two settings, stored mod 2*pi."""

    __slots__ = ("a", "aprime", "b", "bprime")
    a: float
    aprime: float
    b: float
    bprime: float

    def __init__(self, a: float, aprime: float, b: float, bprime: float) -> None:
        FrozenValue.__init__(self, *(float(x) % _TWO_PI for x in (a, aprime, b, bprime)))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.aprime, self.b, self.bprime)


OPTIMAL_QUAD = AngleQuad(0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0)

# E(alpha, beta); it must broadcast over arrays of settings like a ufunc.
CorrelationFn = Callable[[float, float], float]


def chsh(correlation_fn: CorrelationFn, quad: AngleQuad) -> float:
    """S = |E(a,b) + E(a',b) + E(a,b') - E(a',b')|."""
    e = correlation_fn
    return abs(
        e(quad.a, quad.b)
        + e(quad.aprime, quad.b)
        + e(quad.a, quad.bprime)
        - e(quad.aprime, quad.bprime)
    )


class ScanResult(FrozenValue):
    __slots__ = ("max_s", "argmax", "grid_n")
    max_s: float
    argmax: AngleQuad
    grid_n: int


def _grid_size(name: str, value) -> int:
    """``value`` as an int of at least 1.  TypeError for what
    ``operator.index`` refuses and for a bool; ValueError below 1."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    size = operator.index(value)
    if size < 1:
        raise ValueError(f"{name} must be at least 1, got {size}")
    return size


def _on_grid(correlation_fn: CorrelationFn, angles: np.ndarray) -> np.ndarray:
    """E(a, b) for every pair of ``angles``, in one broadcast call."""
    import numpy as np

    return np.asarray(correlation_fn(angles[:, None], angles[None, :]), dtype=float)


def chsh_scan(correlation_fn: CorrelationFn, grid_n: int = 20) -> ScanResult:
    """Maximize S over coplanar settings in closed form.

    With n(a) = (cos a, sin a), a correlation on one great circle is
    E(a, b) = n(a)^T T n(b), and T is read off E at a, b in {0, pi/2}.  The
    2x2 block is solved in plain Python as T = R(phi) diag(s1, s2) R(theta),
    R a rotation: with e, f = (t00 +- t11)/2 and g, h = (t10 +- t01)/2,
    phi and theta = (atan2(h, e) +- atan2(g, f))/2, s1 = hypot(e, h) +
    hypot(f, g) and s2 = hypot(e, h) - hypot(f, g).  Then S_max =
    2*hypot(s1, s2) (Horodecki criterion restricted to one plane), reached at
    a = phi, a' = phi + pi/2 and b, b' = -theta +- sign(s2)*t with
    t = atan2(|s2|, s1).  Bilinearity is checked, not assumed: E must match
    the bilinear form to BILINEAR_TOL on a grid_n x grid_n angle grid, or
    ValueError is raised.  The correlation is called twice, on the 2x2 ends
    and on the whole grid, so it must broadcast; on a state or density
    operator it builds no state or density of its own.  A grid_n that is not
    an integer (a bool included) raises TypeError, and one below 1
    ValueError, before the correlation is called.
    """
    grid_n = _grid_size("grid_n", grid_n)
    import numpy as np

    t = _on_grid(correlation_fn, np.array([0.0, math.pi / 2.0]))
    grid = np.linspace(0.0, _TWO_PI, grid_n, endpoint=False)
    e = _on_grid(correlation_fn, grid)
    n = np.column_stack((np.cos(grid), np.sin(grid)))
    residual = float(np.max(np.abs(e - n @ t @ n.T)))
    if not residual <= BILINEAR_TOL:
        raise ValueError(f"correlation is not bilinear in the settings: residual {residual:.3g}")
    (t00, t01), (t10, t11) = t.tolist()
    e, f = (t00 + t11) / 2.0, (t00 - t11) / 2.0
    g, h = (t10 + t01) / 2.0, (t10 - t01) / 2.0
    plus, minus = math.atan2(h, e), math.atan2(g, f)
    phi, theta = (plus + minus) / 2.0, (plus - minus) / 2.0
    s1 = math.hypot(e, h) + math.hypot(f, g)
    s2 = math.hypot(e, h) - math.hypot(f, g)
    # s1 >= |s2|; a negative s2 turns Bob's offset the other way.
    offset = math.copysign(math.atan2(abs(s2), s1), s2)
    quad = AngleQuad(phi, phi + math.pi / 2.0, -theta + offset, -theta - offset)
    return ScanResult(2.0 * math.hypot(s1, s2), quad, grid_n)


def born_rule_residual(scan: ScanResult, state=None) -> float:
    """|S - scan.max_s|, with S from the Born rule at the scan's argmax: four
    scalar correlations of the state (default: the singlet), which never read
    the correlation block that the scan solved on.  A residual above
    BILINEAR_TOL raises InvariantViolation."""
    s_born = chsh(lambda a, b: quantum_correlation(a, b, state), scan.argmax)
    residual = abs(s_born - scan.max_s)
    if not residual <= BILINEAR_TOL:
        raise InvariantViolation(
            f"scan maximum {scan.max_s!r} is not the Born-rule S {s_born!r} at its argmax"
        )
    return residual


class ErasedKeptReport(FrozenValue):
    """CHSH attainable when the friends' records are erased versus kept."""

    __slots__ = (
        "quad",
        "s_erased",
        "s_kept_at_quad",
        "s_kept_max",
        "aligned_correlation",
        "kept_vs_lhv_max_gap",
    )
    quad: AngleQuad
    s_erased: float
    s_kept_at_quad: float
    s_kept_max: float
    aligned_correlation: float
    kept_vs_lhv_max_gap: float

    def to_json_dict(self) -> dict:
        return {
            "quad": list(self.quad.as_tuple()),
            "S_erased": f"{self.s_erased:.17g}",
            "S_kept_at_quad": f"{self.s_kept_at_quad:.17g}",
            "S_kept_max": f"{self.s_kept_max:.17g}",
            "aligned_correlation": f"{self.aligned_correlation:.17g}",
            "kept_vs_lhv_max_gap": f"{self.kept_vs_lhv_max_gap:.17g}",
        }


def erased_vs_kept_chsh(grid_n: int = 20, match_grid: int = 10) -> ErasedKeptReport:
    """Erased records leave the singlet coherent (S = 2*sqrt2); kept records
    dephase it in z, and the dephased correlations equal the
    observer-independent-facts model's -cos(alpha)cos(beta) exactly, to the
    largest gap over a match_grid x match_grid angle grid.

    The kept-records maximum is the closed-form scan checked on a grid_n x
    grid_n grid, and then against the Born rule at its argmax: a residual
    above BILINEAR_TOL raises InvariantViolation.  A grid size that is not an
    integer (a bool included) raises TypeError, and one below 1 ValueError,
    before anything is computed."""
    grid_n = _grid_size("grid_n", grid_n)
    match_grid = _grid_size("match_grid", match_grid)
    import numpy as np

    from .memory import Friend, record_and_erase, record_and_keep

    pair = singlet()
    run = record_and_erase(pair, Friend.FBAR, PAIR_Z)
    run = record_and_erase(run.final_state, Friend.F, PAIR_Z)
    coherent = run.final_state
    s_erased = chsh(lambda a, b: quantum_correlation(a, b, coherent), OPTIMAL_QUAD)

    kept: DensityOperator = record_and_keep(pair, (Friend.F, Friend.FBAR)).final_state

    def kept_corr(a, b):
        return quantum_correlation(a, b, kept)

    s_kept_at_quad = chsh(kept_corr, OPTIMAL_QUAD)
    scan = chsh_scan(kept_corr, grid_n=grid_n)
    born_rule_residual(scan, kept)

    model = observer_independent_facts_model()
    angles = np.linspace(0.0, _TWO_PI, match_grid, endpoint=False)
    a, b = angles[:, None], angles[None, :]
    gap = float(np.max(np.abs(kept_corr(a, b) - lhv_correlation(model, a, b))))
    return ErasedKeptReport(
        OPTIMAL_QUAD,
        s_erased,
        s_kept_at_quad,
        scan.max_s,
        kept_corr(0.0, 0.0),
        gap,
    )
