"""Exact quantum kernel over labeled two-level systems: labeled bases, states,
local maps, the Born rule, projective collapse, density operators, and
dephasing.

Every value is immutable and every operation is a pure function, so the module
is safe for concurrent use without synchronization.  Amplitudes are complex
doubles.

What is checked, and when: every constructor checks its value once, when it
is built, by computing the largest residual directly and comparing it with
``NORM_TOL`` (1e-12); a value that is not finite fails the check.  ``Basis``
and ``LocalUnitary`` check that their matrix is unitary (max |M^H M - I|) and
raise ValueError("not unitary").  ``StateVector`` checks |norm - 1|,
``OutcomeDistribution`` the sum and sign of its probabilities, and
``DensityOperator`` Hermiticity (max |M - M^H|), unit trace and positivity;
these raise :class:`InvariantViolation`.  Every operation that returns a new
state or density operator builds it through these constructors, so each
intermediate is checked too.  Matrices are stored read-only, so a value once
checked cannot change.

What is cached: ``Basis.matrix`` is built once per basis.
:func:`basis_change` is memoized on ``(system, source, target)`` by an
``lru_cache`` of at most ``BASIS_CHANGE_CACHE`` entries, so each distinct
local unitary is built and checked once while it stays in the cache; the
least recently used entry is evicted first, and an evicted one is rebuilt and
checked again.  A local map is applied as a matmul on the flat amplitudes
reshaped to ``(2**k, 2, -1)``, which works for any number of systems.

Batched Born rule: :func:`born_tables` takes stacks of measurement-basis
matrices instead of ``Basis`` values and returns one probability table per
stack entry, with every check above run per entry, vectorised.  It builds no
``Basis``, ``LocalUnitary`` or intermediate state and uses no cache; it is
how whole grids of measurement settings are evaluated in one call.

Conventions, fixed so that emitted tables and files are deterministic:

* tensor index is first-system-major: ``amps[i*2 + j]`` pairs label ``i`` of
  system 0 with label ``j`` of system 1;
* the coin's computational basis is ordered ``(h, t)`` and the spin's
  ``(down, up)``;
* port bases: ``okbar = (h - t)/sqrt2``, ``failbar = (h + t)/sqrt2``,
  ``ok = (up - down)/sqrt2``, ``fail = (up + down)/sqrt2``.  All probabilities
  are insensitive to a consistent rephasing of these definitions, but branch
  amplitudes are not, so the signs above are part of the module contract.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

NORM_TOL = 1e-12
ZERO_BRANCH_TOL = 1e-15

# Distinct (system, source, target) triples kept by basis_change (about 1.5 KB
# each).  The fixed bases need a few per system; arbitrary directions go
# through born_tables, which bypasses the cache.
BASIS_CHANGE_CACHE = 256

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_EYE2 = np.eye(2)
# cos(t) * _EYE2 + sin(t) * _QUARTER_TURN is the rotation by t, exactly: each
# entry adds a zero product to +-cos(t) or +-sin(t).
_QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])


class InvariantViolation(Exception):
    """A numerical invariant (norm, hermiticity, positivity, ...) was breached."""


class System(str, Enum):
    COIN = "coin"
    SPIN = "spin"


_COIN_NAMES = {"h", "t", "okbar", "failbar"}
_SPIN_NAMES = {"up", "down", "ok", "fail", "plus_a", "minus_a"}
_ANGLED_NAMES = {"plus_a", "minus_a"}


@dataclass(frozen=True)
class BasisLabel:
    """One named basis vector of a two-level system.

    ``plus_a``/``minus_a`` are the Bloch-equator directions at ``angle``
    radians from the +z axis; all other names are fixed directions and carry
    no angle.
    """

    system: System
    name: str
    angle: float | None = None

    def __post_init__(self) -> None:
        allowed = _COIN_NAMES if self.system is System.COIN else _SPIN_NAMES
        if self.name not in allowed:
            raise ValueError(f"label {self.name!r} not allowed on {self.system.value}")
        if (self.angle is not None) != (self.name in _ANGLED_NAMES):
            raise ValueError(f"label {self.name!r} takes an angle iff it is angled")


H = BasisLabel(System.COIN, "h")
T = BasisLabel(System.COIN, "t")
OKBAR = BasisLabel(System.COIN, "okbar")
FAILBAR = BasisLabel(System.COIN, "failbar")
DOWN = BasisLabel(System.SPIN, "down")
UP = BasisLabel(System.SPIN, "up")
OK = BasisLabel(System.SPIN, "ok")
FAIL = BasisLabel(System.SPIN, "fail")

_Vec = tuple[complex, complex]


def _is_unitary(m: np.ndarray) -> bool:
    """max |M^H M - I| <= NORM_TOL for a 2x2 matrix, entry by entry; false
    when an entry is not finite."""
    (a, b), (c, d) = m.tolist()
    residuals = (
        abs(a) ** 2 + abs(c) ** 2 - 1.0,
        abs(b) ** 2 + abs(d) ** 2 - 1.0,
        abs(a.conjugate() * b + c.conjugate() * d),
    )
    return all(abs(r) <= NORM_TOL for r in residuals)


def _worst(residual: np.ndarray) -> float:
    """Largest |residual| over a stack; NaN when any entry is NaN."""
    return float(np.abs(residual).max(initial=0.0))


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.swapaxes(-1, -2).conj()


def _require_unitary(m: np.ndarray) -> None:
    """:func:`_is_unitary` for each matrix of a stack ``(..., 2, 2)``, else
    ValueError("not unitary")."""
    if not _worst(_adjoint(m) @ m - _EYE2) <= NORM_TOL:
        raise ValueError("not unitary")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Basis:
    """An ordered pair of orthonormal labels for one system.

    ``vectors`` holds each label's coordinates in the system's reference
    frame (the computational basis the state was constructed in), column per
    label.  Two Basis values are equal iff their names, labels and vectors
    coincide, so context equality is structural.
    """

    name: str
    labels: tuple[BasisLabel, BasisLabel]
    vectors: tuple[_Vec, _Vec]
    #: 2x2 read-only complex matrix; column k is labels[k] in the reference frame.
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.labels[0].system is not self.labels[1].system:
            raise ValueError("basis labels must belong to one system")
        # Tuples, so that every basis can key the basis_change cache.
        object.__setattr__(self, "vectors", tuple(tuple(v) for v in self.vectors))
        m = np.array(self.vectors, dtype=complex).T
        if not _is_unitary(m):
            raise ValueError("not unitary")
        object.__setattr__(self, "matrix", _read_only(m))

    @property
    def system(self) -> System:
        return self.labels[0].system

    @property
    def label_names(self) -> tuple[str, str]:
        return (self.labels[0].name, self.labels[1].name)

    def index(self, label_name: str) -> int:
        try:
            return self.label_names.index(label_name)
        except ValueError:
            raise ValueError(f"outcome {label_name!r} not in basis {self.name}") from None


COIN_ZBAR = Basis("Zbar", (H, T), ((1, 0), (0, 1)))
COIN_WBAR = Basis(
    "Wbar",
    (OKBAR, FAILBAR),
    ((_INV_SQRT2, -_INV_SQRT2), (_INV_SQRT2, _INV_SQRT2)),
)
SPIN_Z = Basis("Z", (DOWN, UP), ((1, 0), (0, 1)))
SPIN_W = Basis(
    "W",
    (OK, FAIL),
    ((-_INV_SQRT2, _INV_SQRT2), (_INV_SQRT2, _INV_SQRT2)),
)


def direction_basis(angle: float) -> Basis:
    """Spin basis along the Bloch-equator direction at ``angle`` radians.

    Reference frame is (up, down); at angle 0 the plus port is ``up``.
    Angles are taken mod 2*pi.
    """
    a = float(angle) % (2.0 * math.pi)
    c, s = math.cos(a / 2.0), math.sin(a / 2.0)
    return Basis(
        f"A({a:.9g})",
        (BasisLabel(System.SPIN, "plus_a", a), BasisLabel(System.SPIN, "minus_a", a)),
        ((c, s), (-s, c)),
    )


def direction_matrices(angle) -> np.ndarray:
    """The matrices of :func:`direction_basis`, stacked over an array of
    angles: shape ``np.shape(angle) + (2, 2)``.

    Nothing is checked here; :func:`born_tables` checks each matrix it is
    given, so a non-finite angle fails there as "not unitary".
    """
    half = (np.mod(np.asarray(angle, dtype=float), 2.0 * math.pi) / 2.0)[..., None, None]
    return np.cos(half) * _EYE2 + np.sin(half) * _QUARTER_TURN


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized state over labeled two-level systems.

    ``bases[k]`` records the basis system k is currently expressed in; the
    flat ``amps`` array is first-system-major over the bases' label order.
    """

    bases: tuple[Basis, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.amps, dtype=complex)
        if a.shape != (2 ** len(self.bases),):
            raise ValueError("dimension mismatch")
        norm = _norm(a)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise InvariantViolation(f"state norm {norm} drifted from 1")
        object.__setattr__(self, "amps", _read_only(a.copy()))

    @property
    def num_systems(self) -> int:
        return len(self.bases)

    @property
    def dims(self) -> tuple[int, ...]:
        return (2,) * len(self.bases)

    def tensor(self) -> np.ndarray:
        return self.amps.reshape(self.dims)

    def to_json_dict(self) -> dict:
        """Amplitudes with explicit basis labels and real/imaginary parts."""
        return {
            "systems": [
                {"system": b.system.value, "basis": b.name, "labels": list(b.label_names)}
                for b in self.bases
            ],
            "amplitudes": [{"re": float(a.real), "im": float(a.imag)} for a in self.amps],
        }


def _norm(a: np.ndarray) -> float:
    return math.sqrt(float(np.vdot(a, a).real))


def make_state(amplitudes, bases: tuple[Basis, ...]) -> StateVector:
    """Build a StateVector, renormalizing exactly on construction.

    Raises ValueError("null state") for a zero vector and
    ValueError("dimension mismatch") when the amplitude count does not equal
    the product of the system dimensions.
    """
    a = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if a.shape != (2 ** len(bases),):
        raise ValueError("dimension mismatch")
    norm = _norm(a)
    if norm < 1e-9:
        raise ValueError("null state")
    return StateVector(tuple(bases), a / norm)


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """A 2x2 unitary acting on one system, mapping amplitudes expressed in
    ``source`` to amplitudes expressed in ``target``."""

    system: int
    matrix: np.ndarray
    source: Basis
    target: Basis

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("dimension mismatch")
        if not _is_unitary(m):
            raise ValueError("not unitary")
        object.__setattr__(self, "matrix", _read_only(m.copy()))


@lru_cache(maxsize=BASIS_CHANGE_CACHE)
def basis_change(system: int, source: Basis, target: Basis) -> LocalUnitary:
    """The unitary re-expressing one system from ``source`` into ``target``.

    Memoized: equal arguments return the same (immutable) LocalUnitary.
    """
    if source.system is not target.system:
        raise ValueError("basis mismatch: source and target address different systems")
    u = target.matrix.conj().T @ source.matrix
    return LocalUnitary(system, u, source, target)


def _on_axis(m: np.ndarray, axis: int, flat: np.ndarray) -> np.ndarray:
    """Apply the 2x2 matrix ``m`` to one axis of a flat, first-axis-major
    tensor whose axes all have length 2.

    Either may be a stack: ``m`` of shape ``(..., 2, 2)`` and ``flat`` of
    shape ``(..., 2**n)``, with leading shapes that broadcast.
    """
    if m.ndim == 2 and flat.ndim == 1:
        # One map on one tensor, as every Basis-level operation applies it;
        # the stacked form below costs about 1 us more per call.
        return (m @ flat.reshape(2**axis, 2, -1)).reshape(-1)
    size = flat.shape[-1]
    out = m[..., None, :, :] @ flat.reshape(flat.shape[:-1] + (2**axis, 2, size >> (axis + 1)))
    return out.reshape(out.shape[:-3] + (size,))


def apply_local(state: StateVector, u: LocalUnitary) -> StateVector:
    """Apply a local unitary; the norm is preserved and the system's basis tag
    is updated to the unitary's target."""
    if not 0 <= u.system < state.num_systems:
        raise ValueError("system index out of range")
    if state.bases[u.system] != u.source:
        raise ValueError(
            f"basis mismatch: system {u.system} is in {state.bases[u.system].name}, "
            f"unitary expects {u.source.name}"
        )
    k = u.system
    bases = state.bases[:k] + (u.target,) + state.bases[k + 1 :]
    return StateVector(bases, _on_axis(u.matrix, k, state.amps))


def express(state: StateVector, bases: tuple[Basis, ...]) -> StateVector:
    """Re-express every system of ``state`` in the given bases."""
    if len(bases) != state.num_systems:
        raise ValueError("dimension mismatch")
    out = state
    for k, b in enumerate(bases):
        if out.bases[k] != b:
            out = apply_local(out, basis_change(k, out.bases[k], b))
    return out


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over joint outcomes, keyed by label-name tuples."""

    basis_names: tuple[str, ...]
    probs: dict[tuple[str, ...], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        total = 0.0
        for key, p in self.probs.items():
            if p < -NORM_TOL:
                raise InvariantViolation(f"negative probability {p} at {key}")
            total += p
        if not abs(total - 1.0) <= NORM_TOL:
            raise InvariantViolation(f"probabilities sum to {total}")

    def __getitem__(self, key: tuple[str, ...]) -> float:
        return self.probs[key]

    def items(self):
        return self.probs.items()


def _distribution_from_diagonal(diag: np.ndarray, bases: tuple[Basis, ...]) -> OutcomeDistribution:
    keys = itertools.product(*(b.label_names for b in bases))
    probs = {key: max(p, 0.0) for key, p in zip(keys, diag.tolist())}
    return OutcomeDistribution(tuple(b.name for b in bases), probs)


def born_distribution(obj, bases: tuple[Basis, ...]) -> OutcomeDistribution:
    """Born-rule outcome probabilities of a state or density operator in the
    given measurement bases (one per system)."""
    bases = tuple(bases)
    if isinstance(obj, StateVector):
        amps = express(obj, bases).amps
        return _distribution_from_diagonal(np.abs(amps) ** 2, bases)
    if isinstance(obj, DensityOperator):
        rho = express_density(obj, bases)
        return _distribution_from_diagonal(rho.matrix.diagonal().real, bases)
    raise TypeError(f"cannot take Born distribution of {type(obj).__name__}")


def born_tables(obj, local) -> np.ndarray:
    """Born-rule probability tables of a state or density operator for whole
    stacks of measurement bases at once.

    ``local[k]`` is an array ``(..., 2, 2)`` of measurement-basis matrices
    for system k, laid out as ``Basis.matrix``: column j is outcome j's vector
    in the system's reference frame.  The stacks' leading shapes broadcast to
    a shape S, and the result has shape ``S + (2**n,)``; entry ``[..., i]``
    is the probability of the joint outcome ``i`` in first-system-major order,
    as :func:`born_distribution` keys it.

    Every entry gets the checks of the scalar path, at NORM_TOL, with a
    non-finite value failing: each measurement matrix is unitary (else
    ValueError("not unitary")); each re-expressed state has unit norm, each
    re-expressed density operator is Hermitian with unit trace and no
    eigenvalue below -NORM_TOL, and each table has no entry below -NORM_TOL
    and sums to 1 (else :class:`InvariantViolation`).
    Entries are clipped at 0, as :func:`born_distribution` clips them.
    """
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
        flat = obj.matrix.reshape(-1)
        for k, u in enumerate(maps):
            flat = _on_axis(u.conj(), n + k, _on_axis(u, k, flat))
        rho = flat.reshape(flat.shape[:-1] + obj.matrix.shape)
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


def project(state: StateVector, system: int, outcome: str) -> tuple[StateVector, float]:
    """Collapse ``system`` onto ``outcome`` (a label of its current basis).

    Returns the renormalized joint state with that system pinned to the
    outcome, and the outcome's probability.  Collapse onto a branch of
    probability below 1e-15 is undefined and raises
    ValueError("zero-probability branch").
    """
    if not 0 <= system < state.num_systems:
        raise ValueError("system index out of range")
    i = state.bases[system].index(outcome)
    t = state.amps.reshape(2**system, 2, -1).copy()
    t[:, 1 - i, :] = 0.0
    prob = float(np.vdot(t, t).real)
    if prob < ZERO_BRANCH_TOL:
        raise ValueError("zero-probability branch")
    return StateVector(state.bases, t.reshape(-1) / math.sqrt(prob)), prob


def _require_density(m: np.ndarray) -> None:
    """The checks of the DensityOperator constructor, for each matrix of a
    stack: Hermitian, unit trace and no eigenvalue below -NORM_TOL, else
    InvariantViolation; a non-finite entry fails."""
    h = _adjoint(m)
    if not _worst(m - h) <= NORM_TOL:
        raise InvariantViolation("density operator not Hermitian")
    trace_drift = _worst(np.trace(m, axis1=-2, axis2=-1) - 1.0)
    if not trace_drift <= NORM_TOL:
        raise InvariantViolation(f"density operator trace drifted from 1 by {trace_drift}")
    # eigvalsh returns the eigenvalues in ascending order.
    if not np.all(np.linalg.eigvalsh((m + h) / 2.0)[..., 0] >= -NORM_TOL):
        raise InvariantViolation("density operator not positive semidefinite")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A density matrix over the same labeled tensor basis as StateVector.

    Hermiticity, unit trace, and positivity are enforced to 1e-12.
    """

    bases: tuple[Basis, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        d = 2 ** len(self.bases)
        if m.shape != (d, d):
            raise ValueError("dimension mismatch")
        h = m.conj().T
        if not float(np.abs(m - h).max()) <= NORM_TOL:
            raise InvariantViolation("density operator not Hermitian")
        tr = complex(m.trace())
        if abs(tr - 1.0) > NORM_TOL:
            raise InvariantViolation(f"density operator trace {tr}")
        # eigvalsh returns the eigenvalues in ascending order.
        if float(np.linalg.eigvalsh((m + h) / 2.0)[0]) < -NORM_TOL:
            raise InvariantViolation("density operator not positive semidefinite")
        object.__setattr__(self, "matrix", _read_only(m.copy()))

    @property
    def num_systems(self) -> int:
        return len(self.bases)


def density_from_state(state: StateVector) -> DensityOperator:
    """The pure density operator |psi><psi|."""
    return DensityOperator(state.bases, np.outer(state.amps, state.amps.conj()))


def express_density(rho: DensityOperator, bases: tuple[Basis, ...]) -> DensityOperator:
    """Re-express a density operator in the given bases."""
    n = rho.num_systems
    if len(bases) != n:
        raise ValueError("dimension mismatch")
    if all(b == c for b, c in zip(rho.bases, bases)):
        return rho
    # The matrix is a tensor with n row axes then n column axes: U rho U^H
    # applies U to row axis k and conj(U) to column axis n + k.
    flat = rho.matrix.reshape(-1)
    for k, b in enumerate(bases):
        if rho.bases[k] != b:
            u = basis_change(k, rho.bases[k], b).matrix
            flat = _on_axis(u.conj(), n + k, _on_axis(u, k, flat))
    return DensityOperator(tuple(bases), flat.reshape(rho.matrix.shape))


def dephase(rho: DensityOperator, system: int, basis: Basis) -> DensityOperator:
    """Zero all coherences between ``basis`` sectors of ``system``.

    The trace is preserved; dephasing twice in the same basis is the same as
    dephasing once.
    """
    if not 0 <= system < rho.num_systems:
        raise ValueError("system index out of range")
    target = tuple(basis if k == system else b for k, b in enumerate(rho.bases))
    m = express_density(rho, target).matrix
    n = rho.num_systems
    t = m.reshape((2,) * (2 * n)).copy()
    idx_row = [slice(None)] * (2 * n)
    idx_row[system] = 0
    idx_row[n + system] = 1
    t[tuple(idx_row)] = 0.0
    idx_row[system] = 1
    idx_row[n + system] = 0
    t[tuple(idx_row)] = 0.0
    return DensityOperator(target, t.reshape(m.shape))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, after re-expressing ``b`` in ``a``'s bases."""
    if a.num_systems != b.num_systems:
        raise ValueError("dimension mismatch")
    return float(abs(np.vdot(a.amps, express(b, a.bases).amps)) ** 2)
