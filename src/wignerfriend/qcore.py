"""Exact quantum kernel over labeled two-level systems: labeled bases, states,
local maps, the Born rule, projective collapse and density operators.

Every value is immutable and every operation is a pure function, so the module
is safe for concurrent use without synchronization.

Values: every value class of the package derives from :class:`Frozen`
(identity equality) or :class:`FrozenValue` (equal, and hash-equal, when the
class and the fields are), both defined here.  A ``FrozenValue`` hashes its
fields on the first ``hash`` and keeps the result in its ``_hash`` slot; a
value with an unhashable field raises TypeError on every call.  A value
class is slotted, and its fields are named once, in ``__slots__`` (names
starting with an underscore, and the ``__dict__`` a ``cached_property``
needs, are not fields).  One constructor, ``Frozen.__init__``, binds
positional values to the fields in that order; a class that checks or
converts its arguments does so in its own ``__init__`` and then calls it.
Afterwards assigning a field raises AttributeError("cannot assign to field
'x'"), and deleting one raises AttributeError too.  The shared constructor
is plain code, not generated at import: generating the classes
(``dataclasses``), and importing what the generator needs, cost a fresh
process more time than the computation a CLI call runs.

Bases and labels: a label is a name within its basis.  A ``Basis`` holds
the kind of system it measures (``System.COIN`` or ``System.SPIN``) and the
names of its two vectors, two distinct strings that any other basis may
reuse.  Outcomes are keyed by these names.

Storage: numbers are Python ``complex`` values in tuples, and the module does
not import numpy.  A state's ``vec`` is its flat tuple of amplitudes; a
density operator's ``rows`` and a local unitary's ``rows`` are row-major
tuples of row tuples; a basis's ``vectors`` are its two label vectors.  The
systems are small (2**n amplitudes for a few systems), and at that size plain
Python arithmetic costs less than numpy's per-call overhead.  A local 2x2 map
on system k is a pairwise update of the amplitude pairs (i, i + 2**(n-k-1)),
which works for any number of systems; on a density operator it updates the
row pairs with U and then the column pairs of each row with conj(U).  A local
map reaches a state only through a re-expression plan (below): there is no
other way to apply one.

Numpy views: ``StateVector.amps`` and ``DensityOperator.matrix`` are
read-only numpy arrays of the same numbers, for callers that compute with
numpy.  Each is built on first access, which is when numpy is imported, and
then kept.  Nothing in the package reads them.

What is checked, and when: every constructor checks its value once, when it
is built, by computing the largest residual directly and comparing it with
``NORM_TOL`` (1e-12); a value that is not finite fails the check.  ``Basis``
and ``LocalUnitary`` (one checked 2x2 unitary, and nothing else) check that
their matrix is unitary (max |M^H M - I|) and raise ValueError("not
unitary"); a ``Basis`` whose system is not a ``System``, or whose labels are
not a pair of distinct strings, raises ValueError too.  ``StateVector``
checks |norm - 1|, ``OutcomeDistribution`` the sum and sign of its
probabilities, and ``DensityOperator`` Hermiticity (max |M - M^H|), unit
trace and positivity; these raise :class:`InvariantViolation`.  Positivity
has one rule: the LDL^H factorisation of H + NORM_TOL*I, with H = (M +
M^H)/2, must have every pivot positive, which holds exactly when every
eigenvalue of H is above -NORM_TOL
(an eigenvalue of exactly -NORM_TOL fails).  The factorisation is a fixed
number of steps, with no iteration and no convergence tolerance.
Input that is not numbers of the right shape raises ValueError("dimension
mismatch").  Every operation that returns a new state or density operator
builds it through these constructors.  Re-expressing a value in new bases
(``express``, ``express_density``, ``born_distribution``) applies checked
basis changes to a checked value's numbers, one system after another, and
checks only what it returns: the re-expressed value, or the outcome
distribution, which ``born_distribution`` reads off the diagonal without
building the re-expressed value at all.  For a density operator it computes
only the diagonal of the last basis change, the same floats that the full
change would put there.  What a re-expression needs apart from the numbers
is planned once per pair of (value's bases, target bases) and kept: the
rows of each checked basis change, the index pairs it mixes and the outcome
keys.  The plan is keyed by the bases alone, never by a value or a result,
and at most ``BASIS_CHANGE_CACHE`` plans are kept; a call that raises
leaves none behind.  The package's integer arguments (grid sizes, sample
counts, seeds) are read by :func:`as_int`, which refuses a bool.

Conventions, fixed so that emitted tables and files are deterministic:

* tensor index is first-system-major: ``vec[i*2 + j]`` pairs label ``i`` of
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
import operator
from enum import Enum
from functools import cached_property, lru_cache

NORM_TOL = 1e-12
ZERO_BRANCH_TOL = 1e-15

# Distinct (source, target) basis pairs kept by basis_change, and distinct
# (source bases, target bases) plans kept by _born_plan.  The fixed bases
# need a few per system.
BASIS_CHANGE_CACHE = 256
# Distinct reduced angles kept by direction_basis.
DIRECTION_CACHE = 64

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class InvariantViolation(Exception):
    """A numerical invariant (norm, hermiticity, positivity, ...) was breached."""


class Frozen:
    """Base of an immutable slotted value class; equality is identity.

    The fields are the subclass's ``__slots__`` that do not start with an
    underscore.  ``__init__`` takes one positional value per field, in that
    order, so ``repr`` and ``pickle`` see the same fields as the constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(s for s in cls.__dict__.get("__slots__", ()) if not s.startswith("_"))
        # Each field's slot descriptor stores it past the refusing __setattr__.
        cls._setters = tuple(cls.__dict__[f].__set__ for f in cls._fields)

    def __init__(self, *values) -> None:
        if len(values) != len(self._setters):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(self._fields)} fields, got {len(values)}"
            )
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class FrozenValue(Frozen):
    """A :class:`Frozen` class whose instances are equal, and hash equal,
    when their class and their fields are.  The hash is computed on first
    use and kept."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        # Values key memo caches and dicts, and hashing the fields afresh
        # costs more than the lookup.  A field that cannot be hashed raises
        # before anything is kept.
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key(self))
            _set_hash(self, h)
            return h


_set_hash = FrozenValue._hash.__set__


class System(str, Enum):
    COIN = "coin"
    SPIN = "spin"


_Vec = tuple[complex, complex]
_Rows = tuple[tuple[complex, ...], ...]


def _complexes(values) -> tuple[complex, ...]:
    """A flat sequence of numbers as a tuple of complex.  A numpy array is
    read through ``tolist``, without importing numpy; anything that is not a
    flat sequence of numbers raises ValueError("dimension mismatch")."""
    if hasattr(values, "tolist"):
        values = values.tolist()
    try:
        return tuple(map(complex, values))
    except TypeError:
        raise ValueError("dimension mismatch") from None


def _square(values, d: int) -> _Rows:
    """A d x d matrix, given as rows (or a numpy array), as complex row
    tuples; ValueError("dimension mismatch") for any other shape."""
    if hasattr(values, "tolist"):
        values = values.tolist()
    try:
        rows = tuple([tuple(map(complex, row)) for row in values])
    except TypeError:
        raise ValueError("dimension mismatch") from None
    if len(rows) != d or any(len(row) != d for row in rows):
        raise ValueError("dimension mismatch")
    return rows


def as_int(value, name: str) -> int:
    """``value`` as a Python int, read with ``operator.index``.  A bool, or
    anything that is not an integer, raises TypeError naming ``name``."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not a bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}") from None


def _read_only_array(values):
    """A read-only complex numpy array of ``values``; numpy is imported here,
    when a numpy view is first asked for."""
    import numpy as np

    a = np.array(values, dtype=complex)
    a.setflags(write=False)
    return a


def _is_unitary(u: _Vec, v: _Vec) -> bool:
    """For the 2x2 matrix with columns u and v: max |M^H M - I| <= NORM_TOL,
    entry by entry; false when an entry is not finite."""
    residuals = (
        abs(u[0]) ** 2 + abs(u[1]) ** 2 - 1.0,
        abs(v[0]) ** 2 + abs(v[1]) ** 2 - 1.0,
        abs(u[0].conjugate() * v[0] + u[1].conjugate() * v[1]),
    )
    return all(abs(r) <= NORM_TOL for r in residuals)


class Basis(FrozenValue):
    """An ordered pair of orthonormal vectors of one system, each named by a
    label.

    A label is a name within its basis: ``labels`` holds the two names, which
    must differ, and any string will do.  ``vectors`` holds each label's
    coordinates in the system's reference frame (the computational basis the
    state was constructed in), one vector per label.  Two Basis values are
    equal iff their names, systems, labels and vectors coincide, so context
    equality is structural.
    """

    __slots__ = ("name", "system", "labels", "vectors")
    name: str
    system: System
    labels: tuple[str, str]
    vectors: tuple[_Vec, _Vec]

    # The four classes of the numerical kernel (Basis, StateVector,
    # LocalUnitary, DensityOperator) check and bind their fields in
    # ``__post_init__``, called once by ``__init__``: one method per
    # construction, which bench/layertrace.py wraps to count constructions.
    def __init__(self, name: str, system: System, labels: tuple[str, str], vectors) -> None:
        self.__post_init__(name, system, labels, vectors)

    def __post_init__(self, name, system, labels, vectors) -> None:
        if not isinstance(system, System):
            raise ValueError(f"basis {name} needs a System, got {system!r}")
        if (
            type(labels) is not tuple
            or len(labels) != 2
            or labels[0] == labels[1]
            or not all(type(label) is str for label in labels)
        ):
            raise ValueError(f"basis {name} needs a pair of distinct label names, got {labels!r}")
        # Complex tuples: the kernel's storage, and hashable, so that every
        # basis can key the basis_change cache.
        vectors = _square(vectors, 2)
        if not _is_unitary(*vectors):
            raise ValueError("not unitary")
        FrozenValue.__init__(self, name, system, labels, vectors)

    def index(self, label_name: str) -> int:
        try:
            return self.labels.index(label_name)
        except ValueError:
            raise ValueError(f"outcome {label_name!r} not in basis {self.name}") from None


COIN_ZBAR = Basis("Zbar", System.COIN, ("h", "t"), ((1, 0), (0, 1)))
COIN_WBAR = Basis(
    "Wbar",
    System.COIN,
    ("okbar", "failbar"),
    ((_INV_SQRT2, -_INV_SQRT2), (_INV_SQRT2, _INV_SQRT2)),
)
SPIN_Z = Basis("Z", System.SPIN, ("down", "up"), ((1, 0), (0, 1)))
SPIN_W = Basis(
    "W",
    System.SPIN,
    ("ok", "fail"),
    ((-_INV_SQRT2, _INV_SQRT2), (_INV_SQRT2, _INV_SQRT2)),
)


def direction_basis(angle: float) -> Basis:
    """Spin basis along the Bloch-equator direction at ``angle`` radians.

    Reference frame is (up, down); at angle 0 the plus port is ``up``.
    Angles are taken mod 2*pi.  Memoized on the reduced angle: equal reduced
    angles return the same (immutable) Basis, built and checked once; the
    least recently used of DIRECTION_CACHE angles is evicted first.
    """
    return _direction_basis(float(angle) % (2.0 * math.pi))


@lru_cache(maxsize=DIRECTION_CACHE)
def _direction_basis(a: float) -> Basis:
    c, s = math.cos(a / 2.0), math.sin(a / 2.0)
    return Basis(f"A({a:.9g})", System.SPIN, ("plus_a", "minus_a"), ((c, s), (-s, c)))


def _norm2(vec) -> float:
    """Sum of |z|^2 over ``vec``."""
    return sum(z.real * z.real + z.imag * z.imag for z in vec)


def _norm(vec) -> float:
    return math.sqrt(_norm2(vec))


class StateVector(Frozen):
    """A normalized state over labeled two-level systems.

    ``bases[k]`` records the basis system k is currently expressed in; the
    flat ``vec`` is first-system-major over the bases' label order.
    """

    __slots__ = ("bases", "vec", "__dict__")
    bases: tuple[Basis, ...]
    vec: tuple[complex, ...]

    def __init__(self, bases: tuple[Basis, ...], vec) -> None:
        self.__post_init__(bases, vec)

    def __post_init__(self, bases, vec) -> None:
        vec = _complexes(vec)
        if len(vec) != 2 ** len(bases):
            raise ValueError("dimension mismatch")
        norm = _norm(vec)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise InvariantViolation(f"state norm {norm} drifted from 1")
        Frozen.__init__(self, bases, vec)

    @cached_property
    def amps(self):
        """``vec`` as a read-only complex numpy array."""
        return _read_only_array(self.vec)

    @property
    def num_systems(self) -> int:
        return len(self.bases)


def make_state(amplitudes, bases: tuple[Basis, ...]) -> StateVector:
    """Build a StateVector, renormalizing exactly on construction.

    ``amplitudes`` is a flat sequence of numbers, or a numpy array of any
    shape, read in row-major order.  Raises ValueError("null state") for a
    zero vector and ValueError("dimension mismatch") when the amplitude count
    does not equal the product of the system dimensions.
    """
    if hasattr(amplitudes, "reshape"):
        amplitudes = amplitudes.reshape(-1)
    a = _complexes(amplitudes)
    if len(a) != 2 ** len(bases):
        raise ValueError("dimension mismatch")
    norm = _norm(a)
    if norm < 1e-9:
        raise ValueError("null state")
    return StateVector(tuple(bases), tuple(z / norm for z in a))


class LocalUnitary(Frozen):
    """A checked 2x2 unitary, as row tuples.  It names no system and no
    bases: a re-expression plan says which system it acts on."""

    __slots__ = ("rows",)
    rows: _Rows

    def __init__(self, rows) -> None:
        self.__post_init__(rows)

    def __post_init__(self, rows) -> None:
        rows = _square(rows, 2)
        (a, b), (c, d) = rows
        if not _is_unitary((a, c), (b, d)):
            raise ValueError("not unitary")
        Frozen.__init__(self, rows)


def _dot(u: _Vec, v: _Vec) -> complex:
    """<u|v>."""
    return u[0].conjugate() * v[0] + u[1].conjugate() * v[1]


@lru_cache(maxsize=BASIS_CHANGE_CACHE)
def basis_change(source: Basis, target: Basis) -> LocalUnitary:
    """The unitary re-expressing amplitudes in ``source`` as amplitudes in
    ``target``, on whichever system of the same kind a plan applies it to.

    Memoized on the pair of bases, so every system that changes between
    the same two bases shares one LocalUnitary; the least recently used
    entry is evicted first.  Bases of different kinds of system raise
    ValueError("basis mismatch"), which is not cached.
    """
    if source.system is not target.system:
        raise ValueError("basis mismatch: source and target address different systems")
    t0, t1 = target.vectors
    s0, s1 = source.vectors
    u = ((_dot(t0, s0), _dot(t0, s1)), (_dot(t1, s0), _dot(t1, s1)))
    return LocalUnitary(u)


@lru_cache(maxsize=64)
def _pairs(axis: int, n: int) -> tuple[tuple[int, int], ...]:
    """The index pairs (i, i + 2**(n-axis-1)) that a 2x2 map on ``axis``
    mixes, in a flat first-axis-major tensor of n two-level axes: entry i has
    label 0 on the axis and its partner label 1."""
    s = 1 << (n - axis - 1)
    return tuple((i, i + s) for i in range(1 << n) if not i & s)


def _map_pairs(u: _Rows, pairs, vec) -> list:
    """The 2x2 matrix ``u`` applied to each pair of entries of ``vec``."""
    (a, b), (c, d) = u
    out = list(vec)
    for i, j in pairs:
        x, y = vec[i], vec[j]
        out[i] = a * x + b * y
        out[j] = c * x + d * y
    return out


def _conjugate_by(u: _Rows, pairs, rows) -> list:
    """U rho U^H on one system: each 2x2 block B of rows and columns that U
    mixes becomes (U B) U^H."""
    (a, b), (c, d) = u
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    out = [list(row) for row in rows]
    for i0, i1 in pairs:
        r0, r1, o0, o1 = rows[i0], rows[i1], out[i0], out[i1]
        for j0, j1 in pairs:
            p, q, r, s = r0[j0], r0[j1], r1[j0], r1[j1]
            x00, x01 = a * p + b * r, a * q + b * s
            x10, x11 = c * p + d * r, c * q + d * s
            o0[j0], o0[j1] = x00 * ac + x01 * bc, x00 * cc + x01 * dc
            o1[j0], o1[j1] = x10 * ac + x11 * bc, x10 * cc + x11 * dc
    return out


def _conjugated_diagonal(u: _Rows, pairs, rows) -> list[float]:
    """The real diagonal of :func:`_conjugate_by`'s result, computed alone:
    the diagonal entries of (U B) U^H for each 2x2 block B on the diagonal,
    with the same floating-point operations in the same order."""
    (a, b), (c, d) = u
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    out = [0.0] * len(rows)
    for i0, i1 in pairs:
        r0, r1 = rows[i0], rows[i1]
        p, q, r, s = r0[i0], r0[i1], r1[i0], r1[i1]
        x00, x01 = a * p + b * r, a * q + b * s
        x10, x11 = c * p + d * r, c * q + d * s
        out[i0] = (x00 * ac + x01 * bc).real
        out[i1] = (x10 * cc + x11 * dc).real
    return out


@lru_cache(maxsize=BASIS_CHANGE_CACHE)
def _born_plan(source: tuple[Basis, ...], target: tuple[Basis, ...]):
    """What re-expressing a value from ``source`` bases into ``target`` needs,
    keyed by the bases alone: the checked ``(rows, pairs)`` of each system's
    basis change where the bases differ, in system order; and the outcome
    keys, first-system-major.

    Memoized like :func:`basis_change`.  A basis count mismatch raises
    ValueError("dimension mismatch") and a change between systems of
    different kinds ValueError("basis mismatch"); neither is cached.
    """
    n = len(source)
    if len(target) != n:
        raise ValueError("dimension mismatch")
    changes = tuple(
        (basis_change(s, t).rows, _pairs(k, n))
        for k, (s, t) in enumerate(zip(source, target))
        if s != t
    )
    keys = tuple(itertools.product(*(b.labels for b in target)))
    return changes, keys


def _expressed_amps(vec, changes):
    """``vec`` re-expressed by a plan's ``changes``, one 2x2 map per changed
    system; ``vec`` itself when there are none."""
    for u, pairs in changes:
        vec = _map_pairs(u, pairs, vec)
    return vec


def express(state: StateVector, bases: tuple[Basis, ...]) -> StateVector:
    """Re-express every system of ``state`` in the given bases."""
    bases = tuple(bases)
    changes = _born_plan(tuple(state.bases), bases)[0]
    return StateVector(bases, _expressed_amps(state.vec, changes)) if changes else state


class OutcomeDistribution(FrozenValue):
    """Probabilities over joint outcomes, keyed by label-name tuples."""

    __slots__ = ("probs",)
    probs: dict[tuple[str, ...], float]

    def __init__(self, probs: dict) -> None:
        total = 0.0
        for key, p in probs.items():
            if p < -NORM_TOL:
                raise InvariantViolation(f"negative probability {p} at {key}")
            total += p
        if not abs(total - 1.0) <= NORM_TOL:
            raise InvariantViolation(f"probabilities sum to {total}")
        FrozenValue.__init__(self, probs)

    def __getitem__(self, key: tuple[str, ...]) -> float:
        return self.probs[key]

    def items(self):
        return self.probs.items()


def born_distribution(obj, bases: tuple[Basis, ...]) -> OutcomeDistribution:
    """Born-rule outcome probabilities of a state or density operator in the
    given measurement bases (one per system): the diagonal that
    :func:`express` or :func:`express_density` would give, read without
    building and re-checking the re-expressed value.  A density's last basis
    change computes the diagonal alone."""
    bases = tuple(bases)
    if isinstance(obj, StateVector):
        changes, keys = _born_plan(tuple(obj.bases), bases)
        diag = [abs(z) ** 2 for z in _expressed_amps(obj.vec, changes)]
    elif isinstance(obj, DensityOperator):
        changes, keys = _born_plan(tuple(obj.bases), bases)
        diag = _expressed_rows(obj.rows, changes, diagonal=True)
    else:
        raise TypeError(f"cannot take Born distribution of {type(obj).__name__}")
    return OutcomeDistribution({key: max(p, 0.0) for key, p in zip(keys, diag)})


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
    vec = state.vec
    kept = [0j] * len(vec)
    for pair in _pairs(system, state.num_systems):
        kept[pair[i]] = vec[pair[i]]
    prob = _norm2(kept)
    if prob < ZERO_BRANCH_TOL:
        raise ValueError("zero-probability branch")
    norm = math.sqrt(prob)
    return StateVector(state.bases, [z / norm for z in kept]), prob


def _is_hermitian(m: _Rows) -> bool:
    """max |M - M^H| <= NORM_TOL; false when an entry is not finite."""
    for i, row in enumerate(m):
        for j in range(i, len(m)):
            if not abs(row[j] - m[j][i].conjugate()) <= NORM_TOL:
                return False
    return True


def _is_positive(m: _Rows) -> bool:
    """Whether every eigenvalue of H = (M + M^H)/2 is above -NORM_TOL: the
    LDL^H factorisation of H + NORM_TOL*I (L unit lower triangular, D
    diagonal) has every pivot D_i > 0 exactly when that matrix is positive
    definite.  False when an entry is not finite.

    Row i of ``ld`` holds L[i][k] * D[k] for k < i; ``inv`` holds 1 / D.
    """
    ld: list[list[complex]] = []
    inv: list[float] = []
    for i, row in enumerate(m):
        li = []
        for j in range(i):
            x = (row[j] + m[j][i].conjugate()) * 0.5
            lj = ld[j]
            for k in range(j):
                x -= li[k] * lj[k].conjugate() * inv[k]
            li.append(x)
        pivot = row[i].real + NORM_TOL
        for k, x in enumerate(li):
            pivot -= (x.real * x.real + x.imag * x.imag) * inv[k]
        if not pivot > 0.0:
            return False
        ld.append(li)
        inv.append(1.0 / pivot)
    return True


class DensityOperator(Frozen):
    """A density matrix over the same labeled tensor basis as StateVector.

    Hermiticity, unit trace, and positivity are enforced to 1e-12.
    """

    __slots__ = ("bases", "rows", "__dict__")
    bases: tuple[Basis, ...]
    rows: _Rows

    def __init__(self, bases: tuple[Basis, ...], rows) -> None:
        self.__post_init__(bases, rows)

    def __post_init__(self, bases, rows) -> None:
        d = 2 ** len(bases)
        m = _square(rows, d)
        if not _is_hermitian(m):
            raise InvariantViolation("density operator not Hermitian")
        tr = sum(m[i][i] for i in range(d))
        if abs(tr - 1.0) > NORM_TOL:
            raise InvariantViolation(f"density operator trace {tr}")
        if not _is_positive(m):
            raise InvariantViolation("density operator not positive semidefinite")
        Frozen.__init__(self, bases, m)

    @cached_property
    def matrix(self):
        """``rows`` as a read-only complex numpy array."""
        return _read_only_array(self.rows)

    @property
    def num_systems(self) -> int:
        return len(self.bases)


def _expressed_rows(rows: _Rows, changes, diagonal: bool = False):
    """``rows`` re-expressed by a plan's ``changes``, U rho U^H per changed
    system; ``rows`` itself when there are none.  With ``diagonal``, only the
    real diagonal of that result: the last basis change computes nothing
    else."""
    last = len(changes) - 1 if diagonal else -1
    for i, (u, pairs) in enumerate(changes):
        if i == last:
            return _conjugated_diagonal(u, pairs, rows)
        rows = _conjugate_by(u, pairs, rows)
    return [rows[i][i].real for i in range(len(rows))] if diagonal else rows


def express_density(rho: DensityOperator, bases: tuple[Basis, ...]) -> DensityOperator:
    """Re-express a density operator in the given bases."""
    bases = tuple(bases)
    changes = _born_plan(tuple(rho.bases), bases)[0]
    return DensityOperator(bases, _expressed_rows(rho.rows, changes)) if changes else rho


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, after re-expressing ``b`` in ``a``'s bases."""
    if a.num_systems != b.num_systems:
        raise ValueError("dimension mismatch")
    overlap = sum(x.conjugate() * y for x, y in zip(a.vec, express(b, a.bases).vec))
    return abs(overlap) ** 2
