"""Singlet-pair statistics: quantum correlations from the state's correlation
block, the observer-independent-facts hidden-variable model, and the CHSH
comparison (local models at most 2, the singlet at 2*sqrt2).

Measurement directions are restricted to one Bloch great circle (real
amplitudes), so a setting is a single angle n(a) = (cos a, sin a) in the
(z, x) plane.  Outcome +1 means the "plus" port.  Every correlation here is
the bilinear form E(a, b) = n(a)^T T n(b) of a 2x2 block T, so ``chsh_max``
and ``chsh_scan`` solve in closed form.

A quantum block, T_ij = Tr(rho sigma_i (x) sigma_j) for i, j in (z, x), is
read in closed form from the state's or density's numbers in the pair's z
bases, on every call, except that ``erased_vs_kept_chsh`` keeps the erased
and the kept singlet's blocks and the kept maximum, computed once per grid
size.  A hidden-variable model gives each side of each hidden configuration
a Bloch vector in the plane, so its block T = sum p r s^T is bilinear by
construction.  The kept-versus-model gap of ``erased_vs_kept_chsh`` is the
largest singular value of the difference of the two blocks: the supremum of
|E_kept - E_model| over all settings.

Correlations broadcast like numpy ufuncs: settings may be arrays of real
angles, and a correlation returns one value per broadcast pair of settings
(a Python float for scalar settings).  Quantum and hidden-variable
correlations take the same path, the bilinear form on a block: scalar
settings read it with :mod:`math` and import no numpy, as ``chsh_max`` does;
array settings read it on numpy, as ``chsh_scan`` does.  A
``CorrelationFn`` given to ``chsh_scan`` must broadcast the same way: the
scan calls it once, on a column and a row of settings that hold the block's
ends 0 and pi/2 and then the check grid.  Those settings are planned once
per grid size and are read-only, so a correlation cannot write into them.

The Born rule is kept for one check: ``born_rule_residual`` compares a
maximum with four Born-rule correlations at its argmax, each one Born
distribution in two direction bases: arithmetic independent of the block's.
``chsh_max`` runs it on a state's maximum, and ``erased_vs_kept_chsh`` on
its kept-records one.  Grid sizes must be integers of at least 1, checked
before anything is computed.  Results hold numbers, not the settings they
were asked at.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable

from .qcore import (
    NORM_TOL,
    Basis,
    DensityOperator,
    Frozen,
    FrozenValue,
    InvariantViolation,
    StateVector,
    System,
    as_int,
    born_distribution,
    direction_basis,
    express,
    express_density,
    make_state,
)

if TYPE_CHECKING:
    import numpy as np

_TWO_PI = 2.0 * math.pi
# Largest |E - n(a)^T T n(b)| that chsh_scan accepts on its check grid.
BILINEAR_TOL = 1e-12

# z basis for either particle of the pair, ordered (up, down).
PAIR_Z = Basis("Z", System.SPIN, ("up", "down"), ((1, 0), (0, 1)))
_PAIR_ZZ = (PAIR_Z, PAIR_Z)
# The entries (i, j) of a pair density in _PAIR_ZZ that its correlation block
# reads: the diagonal, then the coherences of t01, t10 and t11 in turn.
_BLOCK_ENTRIES = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))

# Outcome product x*y over the joint outcomes (plus, plus), (plus, minus),
# (minus, plus), (minus, minus): the first-system-major order of
# born_distribution.
_OUTCOME_PRODUCT = (1.0, -1.0, -1.0, 1.0)


def singlet() -> StateVector:
    """The pair state (|up,down> - |down,up>)/sqrt2."""
    inv = 1.0 / math.sqrt(2.0)
    return make_state([0.0, inv, -inv, 0.0], _PAIR_ZZ)


# States are immutable, so the default pair is built and checked once.
_SINGLET = singlet()


def _is_scalar(setting) -> bool:
    """Whether a setting is one Python number (np.float64 is a float); arrays,
    0-d ones included, are not."""
    return isinstance(setting, (int, float))


def _born_correlation(obj, alpha: float, beta: float) -> float:
    """E(alpha, beta) from one Born distribution in two direction bases: the
    independent arithmetic of :func:`born_rule_residual`."""
    dist = born_distribution(obj, (direction_basis(alpha), direction_basis(beta)))
    return sum(x * p for x, p in zip(_OUTCOME_PRODUCT, dist.probs.values()))


def _direction(angle) -> tuple[float, float]:
    """n(angle) = (cos, sin) of a scalar setting reduced mod 2*pi, as
    direction_basis reduces it; ValueError "not unitary" if it is not
    finite, as there."""
    if not math.isfinite(angle):
        raise ValueError("not unitary")
    angle %= _TWO_PI
    return math.cos(angle), math.sin(angle)


def _real_array(values, what: str = "settings") -> np.ndarray:
    """Settings, or a correlation's results, as a float array; TypeError
    unless they hold real numbers (bool, integer or float), so that a string
    is not read as an angle and a complex number does not lose its imaginary
    part."""
    import numpy as np

    array = np.asarray(values)
    if array.dtype.kind not in "biuf":
        raise TypeError(f"{what} must be real numbers, got dtype {array.dtype}")
    return array.astype(float, copy=False)


def _bilinear(block, alpha, beta):
    """n(alpha)^T T n(beta) on a block T = (t00, t01, t10, t11).  Scalar
    settings use :mod:`math` and give a float; otherwise the settings
    broadcast like a ufunc's arguments, on numpy, and one that is not real
    (a string, bytes, a complex number) raises TypeError.  Either way they
    are reduced mod 2*pi, and a non-finite one raises ValueError "not
    unitary"."""
    t00, t01, t10, t11 = block
    if _is_scalar(alpha) and _is_scalar(beta):
        (ca, sa), (cb, sb) = _direction(alpha), _direction(beta)
    else:
        import numpy as np

        a, b = _real_array(alpha), _real_array(beta)
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("not unitary")
        a, b = np.mod(a, _TWO_PI), np.mod(b, _TWO_PI)
        ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    e = ca * (t00 * cb + t01 * sb) + sa * (t10 * cb + t11 * sb)
    # A float for scalar or 0-d settings, else the array.
    return e if getattr(e, "ndim", 0) else float(e)


def _correlation_block(obj) -> tuple[float, float, float, float]:
    """T = (t00, t01, t10, t11), T_ij = Tr(rho sigma_i (x) sigma_j) for i, j
    in (z, x), of a two-spin state or density, so that E(a, b) =
    n(a)^T T n(b) with n(a) = (cos a, sin a).

    Read in closed form from rho in (PAIR_Z, PAIR_Z), where the value itself
    is used if it is already there: t00 = rho00 - rho11 - rho22 + rho33,
    t01 = 2 Re(rho01 - rho23), t10 = 2 Re(rho02 - rho13) and
    t11 = 2 Re(rho03 + rho12), with rho_ij = v_i conj(v_j) for a state.
    Computed on every call.  As the Born distributions at 0 and pi/2 would
    be, it is checked: the diagonal must sum to 1 within NORM_TOL and every
    entry must be finite with |T_ij| <= 1 + NORM_TOL, or InvariantViolation
    is raised.
    """
    if isinstance(obj, StateVector):
        v = express(obj, _PAIR_ZZ).vec
        rho = [v[i] * v[j].conjugate() for i, j in _BLOCK_ENTRIES]
    else:
        rows = express_density(obj, _PAIR_ZZ).rows
        rho = [rows[i][j] for i, j in _BLOCK_ENTRIES]
    r00, r11, r22, r33, r01, r23, r02, r13, r03, r12 = rho
    t00, t01 = (r00 - r11 - r22 + r33).real, 2.0 * (r01 - r23).real
    t10, t11 = 2.0 * (r02 - r13).real, 2.0 * (r03 + r12).real
    block = (t00, t01, t10, t11)
    # Comparisons with NaN are false, so a NaN entry fails.
    bounded = all(abs(t) <= 1.0 + NORM_TOL for t in block)
    if not (abs((r00 + r11 + r22 + r33).real - 1.0) <= NORM_TOL and bounded):
        raise InvariantViolation(f"correlation block {block} is not a two-spin state's")
    return block


def _checked_pair(state):
    """The state, checked to be a state or density of two spin systems:
    TypeError for anything else, None included, ValueError "dimension
    mismatch" for another number of systems and "basis mismatch" for a coin
    system."""
    if not isinstance(state, (StateVector, DensityOperator)):
        raise TypeError(f"cannot take Born distribution of {type(state).__name__}")
    if state.num_systems != 2:
        raise ValueError("dimension mismatch")
    if any(b.system is not System.SPIN for b in state.bases):
        raise ValueError("basis mismatch: correlations are defined on two spin systems")
    return state


def quantum_correlation(alpha, beta, state=None):
    """Expectation of the +-1 outcome product at settings (alpha, beta).

    Computed for the state (default: the singlet, where the closed form is
    -cos(alpha - beta)); accepts a density operator as well.  Every pair of
    settings is n(alpha)^T T n(beta) on the state's correlation block T,
    read once per call; ``alpha`` and ``beta`` broadcast like a ufunc's
    arguments, and two scalar settings give a float without importing numpy.
    A non-finite setting raises ValueError "not unitary", as direction_basis
    does.  The state must hold two spin systems: ValueError "dimension
    mismatch" otherwise, and "basis mismatch" for a coin system.
    """
    obj = _checked_pair(_SINGLET if state is None else state)
    return _bilinear(_correlation_block(obj), alpha, beta)


class LHVModel(Frozen):
    """A finite local hidden-variable model: a prior over hidden
    configurations, and for each configuration a Bloch vector per side, (z, x)
    components of length at most 1.  A side whose vector is r answers x = +-1
    at setting a with probability (1 + x r.n(a))/2.

    The joint it induces is a convex combination of products, so it is local
    and causal by construction.  Its correlations are bilinear in the
    settings by construction too, on the block T = sum p r s^T (Alice's r,
    Bob's s), computed once when the model is built.  A prior of another
    length than ``vectors`` raises ValueError "dimension mismatch"; a
    non-finite or longer vector, or a prior that is not a distribution,
    ValueError.
    """

    __slots__ = ("vectors", "prior", "_block")
    #: (Alice's, Bob's) Bloch vector of each configuration.
    vectors: tuple[tuple[tuple[float, float], tuple[float, float]], ...]
    prior: tuple[float, ...]

    def __init__(self, vectors: tuple, prior: tuple[float, ...]) -> None:
        if len(prior) != len(vectors):
            raise ValueError("dimension mismatch")
        # Negated comparisons, so that a NaN weight or a non-finite sum fails.
        if any(not p >= 0 for p in prior) or not abs(sum(prior) - 1.0) <= 1e-12:
            raise ValueError("prior must be a probability distribution")
        # hypot is inf for an infinite component and NaN for a NaN one.
        if any(not math.hypot(z, x) <= 1.0 + NORM_TOL for pair in vectors for z, x in pair):
            raise ValueError("Bloch vectors must be finite, of length at most 1")
        Frozen.__init__(self, vectors, prior)
        terms = tuple(zip(prior, vectors))
        block = tuple(sum(p * r[i] * s[j] for p, (r, s) in terms) for i in (0, 1) for j in (0, 1))
        object.__setattr__(self, "_block", block)


_Z_UP, _Z_DOWN = (1.0, 0.0), (-1.0, 0.0)
# Immutable, so built and checked once.
_FACTS_MODEL = LHVModel(
    ((_Z_UP, _Z_DOWN), (_Z_DOWN, _Z_UP), (_Z_UP, _Z_UP), (_Z_DOWN, _Z_DOWN)),
    (0.5, 0.5, 0.0, 0.0),
)


def observer_independent_facts_model() -> LHVModel:
    """The model induced by treating both friends' z records as facts:
    perfectly anticorrelated z values, each read out along n(a) with
    probability cos^2 of half the angle to it.  Its block is exactly
    (-1, 0, 0, 0), so E = -cos(alpha) cos(beta)."""
    return _FACTS_MODEL


def lhv_correlation(model: LHVModel, alpha, beta):
    """Expectation of the outcome product under the hidden-variable model,
    n(alpha)^T T n(beta) on its block; broadcasts like
    :func:`quantum_correlation`, and scalar settings import no numpy."""
    return _bilinear(model._block, alpha, beta)


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

# E(alpha, beta); it must broadcast over arrays of settings like a ufunc, and
# chsh_scan calls it once on a read-only column and row of settings.
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
    __slots__ = ("max_s", "argmax")
    max_s: float
    argmax: AngleQuad


def _grid_size(name: str, value) -> int:
    """``value`` read by :func:`qcore.as_int` (TypeError for a bool or a
    non-integer), then ValueError below 1."""
    size = as_int(value, name)
    if size < 1:
        raise ValueError(f"{name} must be at least 1, got {size}")
    return size


@functools.lru_cache(maxsize=8)
def _scan_settings(grid_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, beta, n, n.T) for a scan on grid_n: the settings (0, pi/2,
    *grid) as a column and a row, grid = grid_n angles evenly spaced from 0,
    and the grid's directions n = (cos, sin) as rows.  Built on the first
    scan of each size and read-only, so that no correlation can change the
    settings of the next scan."""
    import numpy as np

    grid = np.linspace(0.0, _TWO_PI, grid_n, endpoint=False)
    angles = np.concatenate(([0.0, math.pi / 2.0], grid))
    n = np.column_stack((np.cos(grid), np.sin(grid)))
    angles.setflags(write=False)
    n.setflags(write=False)
    return angles[:, None], angles[None, :], n, n.T


def _block_svd(block) -> tuple[float, float, float, float]:
    """(phi, theta, s1, s2) with T = R(phi) diag(s1, s2) R(theta), R a
    rotation, for a block T = (t00, t01, t10, t11): with e, f =
    (t00 +- t11)/2 and g, h = (t10 +- t01)/2, phi and theta =
    (atan2(h, e) +- atan2(g, f))/2, s1 = hypot(e, h) + hypot(f, g) and
    s2 = hypot(e, h) - hypot(f, g).  s1 >= |s2| are T's singular values, and
    s2 has the sign of det T."""
    t00, t01, t10, t11 = block
    e, f = (t00 + t11) / 2.0, (t00 - t11) / 2.0
    g, h = (t10 + t01) / 2.0, (t10 - t01) / 2.0
    plus, minus = math.atan2(h, e), math.atan2(g, f)
    r, q = math.hypot(e, h), math.hypot(f, g)
    return (plus + minus) / 2.0, (plus - minus) / 2.0, r + q, r - q


def _closed_form(t) -> ScanResult:
    """The maximum on a block t = T = R(phi) diag(s1, s2) R(theta)
    (:func:`_block_svd`): S_max = 2*hypot(s1, s2) (Horodecki criterion
    restricted to one plane), reached at a = phi, a' = phi + pi/2 and
    b, b' = -theta +- sign(s2)*atan2(|s2|, s1)."""
    phi, theta, s1, s2 = _block_svd(t)
    # s1 >= |s2|; a negative s2 turns Bob's offset the other way.
    offset = math.copysign(math.atan2(abs(s2), s1), s2)
    quad = AngleQuad(phi, phi + math.pi / 2.0, -theta + offset, -theta - offset)
    return ScanResult(2.0 * math.hypot(s1, s2), quad)


def _block_max(block) -> ScanResult:
    """The maximum on T read at a, b in {0, pi/2}, as chsh_scan reads it."""
    ends = (0.0, math.pi / 2.0)
    return _closed_form([_bilinear(block, a, b) for a in ends for b in ends])


def chsh_max(source) -> ScanResult:
    """The largest S over coplanar settings, and its argmax, of a two-spin
    state or density, or an LHVModel, solved on its block without numpy; a
    state's maximum is then checked by :func:`born_rule_residual`."""
    if isinstance(source, LHVModel):
        return _block_max(source._block)
    result = _block_max(_correlation_block(_checked_pair(source)))
    born_rule_residual(result, source)
    return result


def chsh_scan(correlation_fn: CorrelationFn, grid_n: int = 20) -> ScanResult:
    """Maximize S over coplanar settings in closed form.

    With n(a) = (cos a, sin a), a correlation on one great circle is
    E(a, b) = n(a)^T T n(b); T is read off E at a, b in {0, pi/2} and solved
    in plain Python, as :func:`chsh_max` solves it.  Bilinearity is checked,
    not assumed: E must match the bilinear form to BILINEAR_TOL on a
    grid_n x grid_n angle grid, or ValueError is raised.  The correlation is
    called once, on the 2x2 ends and the grid together: a column and a row
    of the settings (0, pi/2, *grid), read-only and planned once per grid
    size.  So it must broadcast, and a result of another shape than
    (grid_n + 2, grid_n + 2) raises ValueError, and one that is not real
    numbers (complex, string or object) TypeError; on a state or density
    operator in (PAIR_Z, PAIR_Z) it builds no state or density of its own.
    A grid_n that is not an integer (a bool included) raises TypeError, and
    one below 1 ValueError, before the correlation is called.
    """
    grid_n = _grid_size("grid_n", grid_n)
    import numpy as np

    alpha, beta, n, n_t = _scan_settings(grid_n)
    e = _real_array(correlation_fn(alpha, beta), "correlations")
    size = (grid_n + 2, grid_n + 2)
    if e.shape != size:
        raise ValueError(f"correlation gave shape {e.shape} on settings that broadcast to {size}")
    t = e[:2, :2]
    residual = float(np.max(np.abs(e[2:, 2:] - n @ t @ n_t)))
    if not residual <= BILINEAR_TOL:
        raise ValueError(f"correlation is not bilinear in the settings: residual {residual:.3g}")
    return _closed_form(t.ravel().tolist())


def born_rule_residual(scan: ScanResult, state) -> float:
    """|S - scan.max_s|, with S from the Born rule at the scan's argmax: four
    scalar correlations of ``state``, the state the scan was solved for,
    each a Born distribution in two direction bases, so that none of the
    closed-form block's arithmetic that the scan solved on is reused.  A
    residual above BILINEAR_TOL raises InvariantViolation.  The state is
    required, and checked as :func:`quantum_correlation` checks it."""
    obj = _checked_pair(state)
    s_born = chsh(lambda a, b: _born_correlation(obj, a, b), scan.argmax)
    residual = abs(s_born - scan.max_s)
    if not residual <= BILINEAR_TOL:
        raise InvariantViolation(
            f"scan maximum {scan.max_s!r} is not the Born-rule S {s_born!r} at its argmax"
        )
    return residual


class ErasedKeptReport(FrozenValue):
    """CHSH attainable when the friends' records are erased versus kept: the
    erased and the kept S at the quad the caller gave, the kept maximum, the
    kept correlation at aligned settings, and the kept-versus-model gap."""

    __slots__ = (
        "s_erased",
        "s_kept_at_quad",
        "s_kept_max",
        "aligned_correlation",
        "kept_vs_lhv_max_gap",
    )
    s_erased: float
    s_kept_at_quad: float
    s_kept_max: float
    aligned_correlation: float
    kept_vs_lhv_max_gap: float


@functools.lru_cache(maxsize=8)
def _erased_kept_blocks(grid_n: int | None) -> tuple[tuple, tuple, float]:
    """(coherent_block, kept_block, s_kept_max) for :func:`erased_vs_kept_chsh`,
    which depend on the grid size alone: computed on the first call for each
    size and kept.  An exception, the Born-rule check's included, is raised
    and not kept."""
    from .memory import Friend, record_and_erase, record_and_keep

    run = record_and_erase(_SINGLET, Friend.FBAR, PAIR_Z)
    coherent = record_and_erase(run.final_state, Friend.F, PAIR_Z).final_state
    coherent_block = _correlation_block(_checked_pair(coherent))

    kept: DensityOperator = record_and_keep(_SINGLET, (Friend.F, Friend.FBAR)).final_state
    kept_block = _correlation_block(_checked_pair(kept))
    kept_corr = functools.partial(_bilinear, kept_block)
    scan = _block_max(kept_block) if grid_n is None else chsh_scan(kept_corr, grid_n=grid_n)
    born_rule_residual(scan, kept)
    return coherent_block, kept_block, scan.max_s


def erased_vs_kept_chsh(
    grid_n: int | None = None, *, quad: AngleQuad = OPTIMAL_QUAD
) -> ErasedKeptReport:
    """Erased records leave the singlet coherent (S = 2*sqrt2 at
    OPTIMAL_QUAD); kept records dephase it in z, and the dephased
    correlations equal the observer-independent-facts model's
    -cos(alpha)cos(beta) exactly: the reported gap is the largest singular
    value of the difference of their blocks, the supremum of
    |E_kept - E_model| over all settings.  The erased and the kept S are
    taken at ``quad``, OPTIMAL_QUAD by default.  Each state's block is read
    once per grid size, and every correlation reported is the bilinear form
    on it.

    The kept-records maximum is solved as :func:`chsh_max` solves it, or by
    :func:`chsh_scan` on a given grid_n, and checked against the Born rule at
    its argmax: a residual above BILINEAR_TOL raises InvariantViolation.  The
    two blocks and the kept maximum are computed once per grid size and kept
    in a bounded memo; the S values at ``quad``, the aligned correlation and
    the gap are computed on every call.  A grid_n that is not None or an
    integer (a bool included) raises TypeError, and one below 1 ValueError,
    and then a quad that is not an AngleQuad TypeError, before anything is
    computed."""
    grid_n = None if grid_n is None else _grid_size("grid_n", grid_n)
    if not isinstance(quad, AngleQuad):
        raise TypeError(f"quad must be an AngleQuad, got {type(quad).__name__}")
    coherent_block, kept_block, s_kept_max = _erased_kept_blocks(grid_n)
    s_erased = chsh(lambda a, b: _bilinear(coherent_block, a, b), quad)
    s_kept_at_quad = chsh(lambda a, b: _bilinear(kept_block, a, b), quad)
    gap = _block_svd([k - m for k, m in zip(kept_block, _FACTS_MODEL._block)])[2]
    aligned = _bilinear(kept_block, 0.0, 0.0)
    return ErasedKeptReport(s_erased, s_kept_at_quad, s_kept_max, aligned, gap)
