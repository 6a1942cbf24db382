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
numpy; array settings, ``chsh_scan`` and ``erased_vs_kept_chsh`` import it
when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .qcore import (
    UP,
    DOWN,
    NORM_TOL,
    Basis,
    DensityOperator,
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

# z basis for either particle of the pair, ordered (up, down).
PAIR_Z = Basis("Z", (UP, DOWN), ((1, 0), (0, 1)))

# Outcome product x*y over the joint outcomes (plus, plus), (plus, minus),
# (minus, plus), (minus, minus): the first-system-major order of both
# born_distribution and born_tables.
_OUTCOME_PRODUCT = (1.0, -1.0, -1.0, 1.0)


# Broadcast Born rule.  The qcore kernel works on one state and one basis per
# system; the CHSH grids below need whole stacks of settings at once, so they
# run on the numpy views of the states (``amps``, ``matrix``) through the
# helpers below, which repeat every check of the kernel per stack entry.
# Positivity has the kernel's one rule: the LDL^H factorisation of
# (M + M^H)/2 + NORM_TOL*I must have every pivot positive; here it runs as
# numpy's Cholesky, the same factorisation (see _require_density).


def direction_matrices(angle) -> np.ndarray:
    """The matrices of :func:`qcore.direction_basis`, stacked over an array of
    angles: shape ``np.shape(angle) + (2, 2)``.

    Nothing is checked here; :func:`born_tables` checks each matrix it is
    given, so a non-finite angle fails there as "not unitary".
    """
    import numpy as np

    half = (np.mod(np.asarray(angle, dtype=float), _TWO_PI) / 2.0)[..., None, None]
    # cos(t) * I + sin(t) * (quarter turn) is the rotation by t, exactly:
    # each entry adds a zero product to +-cos(t) or +-sin(t).
    return np.cos(half) * np.eye(2) + np.sin(half) * np.array([[0.0, -1.0], [1.0, 0.0]])


def _worst(residual: np.ndarray) -> float:
    """Largest |residual| over a stack; NaN when any entry is NaN."""
    return float(abs(residual).max(initial=0.0))


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.swapaxes(-1, -2).conj()


def _require_unitary(m: np.ndarray) -> None:
    """max |M^H M - I| <= NORM_TOL for each matrix of a stack ``(..., 2, 2)``,
    else ValueError("not unitary"); a non-finite entry fails."""
    import numpy as np

    if not _worst(_adjoint(m) @ m - np.eye(2)) <= NORM_TOL:
        raise ValueError("not unitary")


def _require_density(m: np.ndarray) -> None:
    """The checks of the DensityOperator constructor, for each matrix of a
    stack ``(..., d, d)``: Hermitian, unit trace and positive, else
    InvariantViolation; a non-finite entry fails.

    Positivity is the rule of :func:`qcore._is_positive`: the Cholesky
    factorisation of (M + M^H)/2 + NORM_TOL*I, which is LDL^H with sqrt(D)
    folded into L, must succeed, so every pivot must be positive.  That holds
    exactly when every eigenvalue of (M + M^H)/2 is above -NORM_TOL; an
    eigenvalue of exactly -NORM_TOL fails, as it does in the kernel.
    """
    import numpy as np

    h = _adjoint(m)
    if not _worst(m - h) <= NORM_TOL:
        raise InvariantViolation("density operator not Hermitian")
    trace_drift = _worst(np.trace(m, axis1=-2, axis2=-1) - 1.0)
    if not trace_drift <= NORM_TOL:
        raise InvariantViolation(f"density operator trace drifted from 1 by {trace_drift}")
    try:
        np.linalg.cholesky((m + h) / 2.0 + NORM_TOL * np.eye(m.shape[-1]))
    except np.linalg.LinAlgError:
        raise InvariantViolation("density operator not positive semidefinite") from None


def _on_axis(m: np.ndarray, axis: int, flat: np.ndarray) -> np.ndarray:
    """Apply the 2x2 matrix ``m`` to one axis of a flat, first-axis-major
    tensor whose axes all have length 2.

    Either may be a stack: ``m`` of shape ``(..., 2, 2)`` and ``flat`` of
    shape ``(..., 2**n)``, with leading shapes that broadcast.
    """
    if m.ndim == 2 and flat.ndim == 1:
        # One map on one tensor, as for scalar settings; the stacked form
        # below costs about 1 us more per call.
        return (m @ flat.reshape(2**axis, 2, -1)).reshape(-1)
    size = flat.shape[-1]
    out = m[..., None, :, :] @ flat.reshape(flat.shape[:-1] + (2**axis, 2, size >> (axis + 1)))
    return out.reshape(out.shape[:-3] + (size,))


def _kron(maps) -> np.ndarray:
    """U_0 (x) U_1 (x) ... (x) U_(n-1) for stacks of 2x2 maps ``(..., 2, 2)``
    whose leading shapes broadcast, system-0-major like the tensor index:
    entry ``[..., i, j]`` is the product of ``U_k[..., i_k, j_k]`` over the
    bits i_k, j_k of i and j, most significant first."""
    k = maps[0]
    for u in maps[1:]:
        k = k[..., :, None, :, None] * u[..., None, :, None, :]
        d = k.shape[-1] * k.shape[-2]
        k = k.reshape(k.shape[:-4] + (d, d))
    return k


def born_tables(obj, local) -> np.ndarray:
    """Born-rule probability tables of a state or density operator for whole
    stacks of measurement bases at once.

    ``local[k]`` is an array ``(..., 2, 2)`` of measurement-basis matrices
    for system k, laid out as ``Basis.matrix``: column j is outcome j's vector
    in the system's reference frame.  The stacks' leading shapes broadcast to
    a shape S, and the result has shape ``S + (2**n,)``; entry ``[..., i]``
    is the probability of the joint outcome ``i`` in first-system-major order,
    as :func:`qcore.born_distribution` keys it.

    Every entry gets the checks of the kernel, at NORM_TOL, with a non-finite
    value failing: each measurement matrix is unitary (else
    ValueError("not unitary")); each re-expressed state has unit norm, each
    re-expressed density operator passes :func:`_require_density`, and each
    table has no entry below -NORM_TOL and sums to 1 (else
    :class:`InvariantViolation`).
    Entries are clipped at 0, as :func:`qcore.born_distribution` clips them.
    """
    import numpy as np

    if not isinstance(obj, (StateVector, DensityOperator)):
        raise TypeError(f"cannot take Born distribution of {type(obj).__name__}")
    n = obj.num_systems
    if len(local) != n:
        raise ValueError("dimension mismatch")
    # maps[k] re-expresses system k from its current basis into local[k].
    maps = []
    for k, m in enumerate(local):
        m = np.asarray(m)
        if m.shape[-2:] != (2, 2):
            raise ValueError("dimension mismatch")
        _require_unitary(m)
        maps.append(_adjoint(m) @ obj.bases[k].matrix)

    if isinstance(obj, StateVector):
        flat = obj.amps
        probs = flat.real**2 + flat.imag**2
        for k, u in enumerate(maps):
            flat = _on_axis(u, k, flat)
            probs = flat.real**2 + flat.imag**2
            norm_drift = _worst(np.sqrt(probs.sum(-1)) - 1.0)
            if not norm_drift <= NORM_TOL:
                raise InvariantViolation(f"state norm drifted from 1 by {norm_drift}")
    else:
        # One map on the whole space per stack entry: rho' = K rho K^H.  The
        # state is one matrix, so K rho is a single product over the stack.
        kron = _kron(maps)
        d = obj.matrix.shape[0]
        rho = (kron.reshape(-1, d) @ obj.matrix).reshape(kron.shape) @ _adjoint(kron)
        _require_density(rho)
        probs = np.diagonal(rho, axis1=-2, axis2=-1).real

    lowest = float(probs.min(initial=0.0))
    if not lowest >= -NORM_TOL:
        raise InvariantViolation(f"negative probability {lowest}")
    probs = np.maximum(probs, 0.0)
    sum_drift = _worst(probs.sum(-1) - 1.0)
    if not sum_drift <= NORM_TOL:
        raise InvariantViolation(f"probabilities sum to 1 only within {sum_drift}")
    return probs


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


def quantum_correlation(alpha, beta, state=None):
    """Expectation of the +-1 outcome product at settings (alpha, beta).

    Computed from Born probabilities of the state (default: the singlet,
    where the closed form is -cos(alpha - beta)); accepts a density operator
    as well.  Two scalar settings take one :func:`qcore.born_distribution`
    in two :func:`qcore.direction_basis` bases and give a float.  Otherwise
    ``alpha`` and ``beta`` broadcast like a ufunc's arguments, and one
    Born-rule call (:func:`born_tables`) evaluates every pair.  The state
    must hold two spin systems: ValueError "dimension mismatch" otherwise,
    and "basis mismatch" for a coin system.
    """
    obj = _SINGLET if state is None else state
    if not isinstance(obj, (StateVector, DensityOperator)):
        raise TypeError(f"cannot take Born distribution of {type(obj).__name__}")
    if obj.num_systems != 2:
        raise ValueError("dimension mismatch")
    if any(b.system is not System.SPIN for b in obj.bases):
        raise ValueError("basis mismatch: correlations are defined on two spin systems")
    if _is_scalar(alpha) and _is_scalar(beta):
        dist = born_distribution(obj, (direction_basis(alpha), direction_basis(beta)))
        return sum(x * p for x, p in zip(_OUTCOME_PRODUCT, dist.probs.values()))
    probs = born_tables(obj, (direction_matrices(alpha), direction_matrices(beta)))
    return _scalar_or_array(probs @ _OUTCOME_PRODUCT)


@dataclass(frozen=True, eq=False)
class LHVModel:
    """A finite local hidden-variable model: a prior over pair configurations
    and per-side response probabilities depending only on the local component.

    The joint it induces is a convex combination of products, so it is local
    and causal by construction.
    """

    lambda_space: tuple[tuple[str, str], ...]
    prior: tuple[float, ...]
    #: response(side, angle, component) -> {+1: P(+1), -1: P(-1)}; it must
    #: broadcast over an array ``angle``, returning arrays of its shape.
    response: Callable[[int, float, str], dict[int, float]]

    def __post_init__(self) -> None:
        if len(self.prior) != len(self.lambda_space):
            raise ValueError("dimension mismatch")
        # Negated comparisons, so that a NaN weight or a non-finite sum fails.
        if any(not p >= 0 for p in self.prior) or not abs(sum(self.prior) - 1.0) <= 1e-12:
            raise ValueError("prior must be a probability distribution")


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


@dataclass(frozen=True)
class AngleQuad:
    """Alice's two settings and Bob's two settings, stored mod 2*pi."""

    a: float
    aprime: float
    b: float
    bprime: float

    def __post_init__(self) -> None:
        for name in ("a", "aprime", "b", "bprime"):
            object.__setattr__(self, name, float(getattr(self, name)) % _TWO_PI)

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


@dataclass(frozen=True)
class ScanResult:
    max_s: float
    argmax: AngleQuad
    grid_n: int


def _on_grid(correlation_fn: CorrelationFn, angles: np.ndarray) -> np.ndarray:
    """E(a, b) for every pair of ``angles``, in one broadcast call."""
    import numpy as np

    return np.asarray(correlation_fn(angles[:, None], angles[None, :]), dtype=float)


def chsh_scan(correlation_fn: CorrelationFn, grid_n: int = 20) -> ScanResult:
    """Maximize S over coplanar settings in closed form.

    With n(a) = (cos a, sin a), a correlation on one great circle is
    E(a, b) = n(a)^T T n(b), and T is read off E at a, b in {0, pi/2}.  Then
    S_max = 2*sqrt(s1^2 + s2^2) over the singular values of T (Horodecki
    criterion restricted to one plane), reached at a = u1, a' = u2 and
    b, b' = cos(t) v1 +- sin(t) v2 with tan(t) = s2/s1.  Bilinearity is
    checked, not assumed: E must match the bilinear form to BILINEAR_TOL on a
    grid_n x grid_n angle grid, or ValueError is raised.  The correlation is
    called twice, on the 2x2 ends and on the whole grid, so it must broadcast.
    A grid_n below 1 raises ValueError before the correlation is called.
    """
    import numpy as np

    if not grid_n >= 1:
        raise ValueError(f"grid_n must be at least 1, got {grid_n}")
    t = _on_grid(correlation_fn, np.array([0.0, math.pi / 2.0]))
    grid = np.linspace(0.0, _TWO_PI, grid_n, endpoint=False)
    e = _on_grid(correlation_fn, grid)
    n = np.column_stack((np.cos(grid), np.sin(grid)))
    residual = float(np.max(np.abs(e - n @ t @ n.T)))
    if not residual <= BILINEAR_TOL:
        raise ValueError(f"correlation is not bilinear in the settings: residual {residual:.3g}")
    u, s, vt = np.linalg.svd(t)
    theta = math.atan2(s[1], s[0])
    c, si = math.cos(theta), math.sin(theta)
    dirs = np.column_stack((u, vt.T @ np.array([[c, c], [si, -si]])))
    quad = AngleQuad(*np.arctan2(dirs[1], dirs[0]))
    return ScanResult(2.0 * math.hypot(s[0], s[1]), quad, grid_n)


@dataclass(frozen=True)
class ErasedKeptReport:
    """CHSH attainable when the friends' records are erased versus kept."""

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
    observer-independent-facts model's -cos(alpha)cos(beta) exactly."""
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
    s_kept_max = chsh_scan(kept_corr, grid_n=grid_n).max_s

    model = observer_independent_facts_model()
    angles = np.linspace(0.0, _TWO_PI, match_grid, endpoint=False)
    a, b = angles[:, None], angles[None, :]
    gap = float(np.max(np.abs(kept_corr(a, b) - lhv_correlation(model, a, b))))
    return ErasedKeptReport(
        OPTIMAL_QUAD,
        s_erased,
        s_kept_at_quad,
        s_kept_max,
        kept_corr(0.0, 0.0),
        gap,
    )
