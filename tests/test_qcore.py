import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wignerfriend.memory import Friend, record_and_keep
from wignerfriend.qcore import (
    COIN_WBAR,
    COIN_ZBAR,
    DOWN,
    SPIN_W,
    SPIN_Z,
    UP,
    Basis,
    BasisLabel,
    DensityOperator,
    InvariantViolation,
    LocalUnitary,
    OutcomeDistribution,
    StateVector,
    System,
    apply_local,
    basis_change,
    born_distribution,
    direction_basis,
    express,
    express_density,
    fidelity,
    make_state,
    project,
)

INV = 2.0 ** -0.5
SQRT3 = math.sqrt(3.0)
HARDY_BASES = (COIN_ZBAR, SPIN_Z)


def hardy():
    return make_state([1 / SQRT3, 0, 1 / SQRT3, 1 / SQRT3], HARDY_BASES)


def test_make_state_computational():
    s = make_state([1, 0, 0, 0], HARDY_BASES)
    assert np.allclose(s.amps, [1, 0, 0, 0])
    assert abs(np.linalg.norm(s.amps) - 1) < 1e-12


def test_make_state_hardy_amplitudes():
    s = hardy()
    assert np.allclose(s.amps, np.array([1, 0, 1, 1]) / SQRT3, atol=1e-15)


def test_make_state_null_vector_rejected():
    with pytest.raises(ValueError, match="null state"):
        make_state([0, 0, 0, 0], HARDY_BASES)


def test_make_state_length_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension mismatch"):
        make_state([1, 0, 0], HARDY_BASES)


def test_label_system_discipline():
    with pytest.raises(ValueError):
        BasisLabel(System.COIN, "ok")
    with pytest.raises(ValueError):
        BasisLabel(System.SPIN, "h")
    with pytest.raises(ValueError):
        BasisLabel(System.SPIN, "plus_a")  # angled labels need an angle


def spin_bs():
    # up -> (fail + ok)/sqrt2, down -> (fail - ok)/sqrt2, rows ordered (ok, fail)
    return LocalUnitary(1, np.array([[-INV, INV], [INV, INV]]), SPIN_Z, SPIN_W)


def test_apply_local_single_branch():
    s = make_state([1, 0, 0, 0], HARDY_BASES)
    out = apply_local(s, spin_bs())
    # |h,down> -> (|h,fail> - |h,ok>)/sqrt2, amps ordered (h,ok),(h,fail),(t,ok),(t,fail)
    assert np.allclose(out.amps, [-INV, INV, 0, 0], atol=1e-15)
    assert out.bases[1] == SPIN_W


def test_apply_local_hardy_state():
    out = apply_local(hardy(), spin_bs())
    expected = np.array([-1, 1, 0, 2]) / math.sqrt(6.0)
    assert np.allclose(out.amps, expected, atol=1e-15)
    assert abs(out.amps[2]) < 1e-15  # no (t, ok) amplitude


def test_apply_local_identity():
    s = hardy()
    ident = LocalUnitary(0, np.eye(2), COIN_ZBAR, COIN_ZBAR)
    assert np.allclose(apply_local(s, ident).amps, s.amps)


def test_apply_local_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        LocalUnitary(1, np.array([[1, 1], [0, 1]]), SPIN_Z, SPIN_W)


def test_apply_local_rejects_basis_mismatch():
    s = hardy()
    u = basis_change(1, SPIN_W, SPIN_Z)
    with pytest.raises(ValueError, match="basis mismatch"):
        apply_local(s, u)


@pytest.mark.parametrize(
    "bases,context",
    [
        ((COIN_ZBAR, SPIN_Z), "Zbar,Z"),
        ((COIN_ZBAR, SPIN_W), "Zbar,W"),
        ((COIN_WBAR, SPIN_Z), "Wbar,Z"),
        ((COIN_WBAR, SPIN_W), "Wbar,W"),
    ],
)
def test_born_distribution_matches_inner_product_oracle(bases, context):
    table = born_distribution(hardy(), bases)
    expected = oracles.born_table(context)
    for key, p in expected.items():
        assert table[key] == pytest.approx(p, abs=1e-12)


def test_born_distribution_frozen_values():
    t = born_distribution(hardy(), (COIN_ZBAR, SPIN_Z))
    assert t[("h", "down")] == pytest.approx(1 / 3, abs=1e-12)
    assert t[("h", "up")] <= 1e-15
    w = born_distribution(hardy(), (COIN_WBAR, SPIN_W))
    assert w[("okbar", "ok")] == pytest.approx(1 / 12, abs=1e-12)
    assert w[("failbar", "fail")] == pytest.approx(3 / 4, abs=1e-12)
    zw = born_distribution(hardy(), (COIN_ZBAR, SPIN_W))
    assert zw[("t", "ok")] <= 1e-15
    assert zw[("t", "fail")] == pytest.approx(2 / 3, abs=1e-12)
    assert zw[("h", "ok")] == pytest.approx(1 / 6, abs=1e-12)


def test_born_consistency_with_hand_applied_beam_splitters():
    # Independent route for all four contexts: push the state through
    # hand-built basis maps and square the amplitudes.
    coin_bs = LocalUnitary(0, np.array([[INV, -INV], [INV, INV]]), COIN_ZBAR, COIN_WBAR)
    for use_coin_bs, use_spin_bs in [(False, False), (False, True), (True, False), (True, True)]:
        out = hardy()
        if use_spin_bs:
            out = apply_local(out, spin_bs())
        if use_coin_bs:
            out = apply_local(out, coin_bs)
        table = born_distribution(hardy(), out.bases)
        coin_labels = out.bases[0].label_names
        spin_labels = out.bases[1].label_names
        for flat, (c, s) in enumerate([(c, s) for c in coin_labels for s in spin_labels]):
            assert table[(c, s)] == pytest.approx(float(abs(out.amps[flat]) ** 2), abs=1e-12)


def test_project_on_tail():
    collapsed, prob = project(hardy(), 0, "t")
    assert prob == pytest.approx(2 / 3, abs=1e-12)
    expected = make_state([0, 0, INV, INV], HARDY_BASES)
    assert fidelity(expected, collapsed) == pytest.approx(1.0, abs=1e-12)


def test_project_on_okbar():
    state = express(hardy(), (COIN_WBAR, SPIN_Z))
    collapsed, prob = project(state, 0, "okbar")
    assert prob == pytest.approx(1 / 6, abs=1e-12)
    expected = make_state([0, 1, 0, 0], (COIN_WBAR, SPIN_Z))  # |okbar, up>
    assert fidelity(expected, collapsed) == pytest.approx(1.0, abs=1e-12)


def test_project_zero_probability_branch():
    s = make_state([1, 0, 0, 0], HARDY_BASES)
    with pytest.raises(ValueError, match="zero-probability branch"):
        project(s, 0, "t")


def test_project_unknown_outcome():
    with pytest.raises(ValueError, match="not in basis"):
        project(hardy(), 0, "ok")


def _reconstruction_holds(state, system):
    basis = state.bases[system]
    total = np.zeros((4, 4), dtype=complex)
    for label in basis.label_names:
        try:
            collapsed, prob = project(state, system, label)
        except ValueError:
            continue
        total += prob * np.outer(collapsed.amps, collapsed.amps.conj())
    expected = oracles.dephase_matrix(np.outer(state.amps, state.amps.conj()), system)
    assert np.allclose(total, expected, atol=1e-12)


def test_project_then_marginalize_reconstructs_dephased_density():
    for state in (hardy(), express(hardy(), (COIN_WBAR, SPIN_W))):
        for system in (0, 1):
            _reconstruction_holds(state, system)


amp_parts = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(amp_parts, amp_parts), min_size=4, max_size=4), st.integers(0, 1))
def test_project_then_marginalize_holds_for_arbitrary_states(parts, system):
    amps = np.array([complex(re, im) for re, im in parts])
    if np.linalg.norm(amps) < 1e-3:
        return
    _reconstruction_holds(make_state(amps, HARDY_BASES), system)


# Base pairs a state may be stored in; fidelity re-expresses its second state
# in the first one's.
FRAMES = [HARDY_BASES, (COIN_WBAR, SPIN_W), (COIN_ZBAR, SPIN_W)]
complex_amps = (
    st.lists(st.tuples(amp_parts, amp_parts), min_size=4, max_size=4)
    .map(lambda parts: np.array([complex(re, im) for re, im in parts]))
    .filter(lambda amps: np.linalg.norm(amps) > 1e-3)
)


def _in_reference_frame(state: StateVector) -> np.ndarray:
    """The state's amplitudes in (Zbar, Z), by numpy."""
    coin, spin = state.bases
    return np.kron(np.array(coin.vectors).T, np.array(spin.vectors).T) @ state.amps


@settings(max_examples=200, deadline=None)
@given(complex_amps, complex_amps, st.sampled_from(FRAMES), st.sampled_from(FRAMES))
def test_fidelity_is_the_squared_overlap_of_complex_states(u, w, frame_a, frame_b):
    a, b = make_state(u, frame_a), make_state(w, frame_b)
    want = abs(np.vdot(_in_reference_frame(a), _in_reference_frame(b))) ** 2
    assert abs(fidelity(a, b) - want) <= 1e-12


def test_dephase_both_gives_uniform_third_mixture():
    rho = record_and_keep(hardy(), (Friend.FBAR, Friend.F)).final_state
    assert np.allclose(rho.matrix, np.diag([1 / 3, 0, 1 / 3, 1 / 3]), atol=1e-12)


def test_dephased_tables_go_uniform_in_port_bases():
    rho = record_and_keep(hardy(), (Friend.FBAR, Friend.F)).final_state
    table = born_distribution(rho, (COIN_WBAR, SPIN_W))
    for key, p in table.items():
        assert p == pytest.approx(1 / 4, abs=1e-12)
    # contrast with the coherent 1/12 and 3/4
    coherent = born_distribution(hardy(), (COIN_WBAR, SPIN_W))
    assert coherent[("failbar", "fail")] == pytest.approx(3 / 4, abs=1e-12)


def _rotation(theta, phi, lam):
    return np.array(
        [
            [math.cos(theta), -np.exp(1j * lam) * math.sin(theta)],
            [np.exp(1j * phi) * math.sin(theta), np.exp(1j * (phi + lam)) * math.cos(theta)],
        ]
    )


angles = st.floats(0, 2 * math.pi, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(st.integers(0, 1), angles, angles, angles), min_size=1, max_size=6))
def test_norm_preserved_under_unitary_sequences(ops):
    state = hardy()
    for system, theta, phi, lam in ops:
        basis = state.bases[system]
        state = apply_local(state, LocalUnitary(system, _rotation(theta, phi, lam), basis, basis))
        assert abs(float(np.linalg.norm(state.amps)) - 1.0) < 1e-12


@given(angles, angles, angles, angles)
def test_rephasing_the_port_bases_changes_no_probabilities(p1, p2, p3, p4):
    # Multiply each port basis vector by its own phase; all tables must stay put.
    wbar = Basis(
        "Wbar'",
        COIN_WBAR.labels,
        (
            tuple(np.exp(1j * p1) * v for v in COIN_WBAR.vectors[0]),
            tuple(np.exp(1j * p2) * v for v in COIN_WBAR.vectors[1]),
        ),
    )
    w = Basis(
        "W'",
        SPIN_W.labels,
        (
            tuple(np.exp(1j * p3) * v for v in SPIN_W.vectors[0]),
            tuple(np.exp(1j * p4) * v for v in SPIN_W.vectors[1]),
        ),
    )
    rephased = born_distribution(hardy(), (wbar, w))
    reference = born_distribution(hardy(), (COIN_WBAR, SPIN_W))
    for key, p in reference.items():
        assert rephased[key] == pytest.approx(p, abs=1e-12)


# Spin bases whose label vectors are the rows of a complex unitary.
complex_bases = st.tuples(angles, angles, angles).map(
    lambda a: Basis("C", (DOWN, UP), tuple(map(tuple, _rotation(*a))))
)
complex_densities = (
    st.lists(st.tuples(amp_parts, amp_parts), min_size=16, max_size=16)
    .map(lambda parts: np.array([complex(re, im) for re, im in parts]).reshape(4, 4))
    .map(lambda a: a @ a.conj().T)
    .filter(lambda rho: np.trace(rho).real > 1e-3)
    .map(lambda rho: (rho + rho.conj().T) / (2.0 * np.trace(rho).real))
)


@settings(max_examples=200, deadline=None)
@given(
    complex_densities,
    st.tuples(complex_bases, complex_bases),
    st.tuples(complex_bases, complex_bases),
)
def test_density_basis_change_is_u_rho_u_dagger_in_complex_bases(rho, source, target):
    want = oracles.re_expressed_density(
        rho, [b.vectors for b in source], [b.vectors for b in target]
    )
    density = DensityOperator(source, rho)
    out = express_density(density, target)
    assert out.bases == target
    assert np.max(np.abs(out.matrix - want)) <= 1e-12
    probs = list(born_distribution(density, target).probs.values())
    assert np.max(np.abs(np.array(probs) - np.real(np.diag(want)))) <= 1e-12


def test_density_validation_rejects_bad_matrices():
    from wignerfriend.qcore import InvariantViolation

    with pytest.raises(InvariantViolation):
        DensityOperator(HARDY_BASES, np.diag([0.9, 0.3, 0, 0]))  # trace 1.2
    with pytest.raises(InvariantViolation):
        DensityOperator(HARDY_BASES, np.diag([1.5, -0.5, 0, 0]))  # negative eigenvalue
    with pytest.raises(InvariantViolation, match="not Hermitian"):
        DensityOperator(HARDY_BASES, [[0.5, 0.1, 0, 0], [0, 0.5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])


def test_near_unitary_basis_is_rejected():
    # Off by 4e-6: inside np.allclose's default rtol, outside NORM_TOL.
    with pytest.raises(ValueError, match="not unitary"):
        Basis("x", (DOWN, UP), ((1 + 4e-6, 0), (0, 1)))


def test_near_unitary_local_unitary_is_rejected():
    with pytest.raises(ValueError, match="not unitary"):
        LocalUnitary(0, np.diag([1 + 4e-6, 1]), COIN_ZBAR, COIN_ZBAR)


def test_non_finite_values_are_rejected():
    with pytest.raises(ValueError, match="not unitary"):
        direction_basis(float("nan"))
    with pytest.raises(ValueError, match="not unitary"):
        LocalUnitary(0, np.array([[1, float("nan")], [0, 1]]), COIN_ZBAR, COIN_ZBAR)
    with pytest.raises(InvariantViolation):
        StateVector(HARDY_BASES, np.array([float("nan"), 0, 0, 0]))
    with pytest.raises(InvariantViolation):
        DensityOperator(HARDY_BASES, np.diag([float("nan"), 1.0, 0, 0]))
    with pytest.raises(InvariantViolation):
        OutcomeDistribution({("down",): float("nan"), ("up",): 1.0})


def test_basis_change_is_memoized_in_a_bounded_cache():
    assert 0 < basis_change.cache_info().maxsize < math.inf
    assert basis_change(1, SPIN_Z, SPIN_W) is basis_change(1, SPIN_Z, SPIN_W)
    listed = Basis("Z", (DOWN, UP), [np.array([1, 0]), [0, 1]])
    assert listed == SPIN_Z
    assert basis_change(1, listed, SPIN_W) is basis_change(1, SPIN_Z, SPIN_W)


# Three systems (coin, spin, spin), to pin that local maps act on the right
# axis of a first-system-major tensor of any length.
THREE_SOURCE = (COIN_ZBAR, SPIN_Z, SPIN_Z)
THREE_TARGET = (COIN_WBAR, SPIN_W, SPIN_W)


def _labels(bases):
    return [b.label_names for b in bases]


def _three_system_state(seed):
    rng = np.random.default_rng(seed)
    return make_state(rng.normal(size=8) + 1j * rng.normal(size=8), THREE_SOURCE)


def _three_system_density(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return DensityOperator(THREE_SOURCE, rho / np.trace(rho).real)


def _change_one(system):
    return tuple(THREE_TARGET[k] if k == system else b for k, b in enumerate(THREE_SOURCE))


def _oracle_operator(system):
    u = oracles.change_matrix(THREE_SOURCE[system].label_names, THREE_TARGET[system].label_names)
    return oracles.local_operator(u, system, 3)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("system", [0, 1, 2])
def test_apply_local_matches_kron_oracle_on_three_systems(system, seed):
    state = _three_system_state(seed)
    out = apply_local(state, basis_change(system, THREE_SOURCE[system], THREE_TARGET[system]))
    assert out.bases == _change_one(system)
    assert np.allclose(out.amps, _oracle_operator(system) @ state.amps, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("system", [0, 1, 2])
def test_express_density_matches_kron_oracle_on_three_systems(system, seed):
    rho = _three_system_density(seed)
    out = express_density(rho, _change_one(system))
    op = _oracle_operator(system)
    assert out.bases == _change_one(system)
    assert np.allclose(out.matrix, op @ rho.matrix @ op.conj().T, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("system", [0, 1, 2, None])
def test_born_distribution_matches_kron_oracle_on_three_systems(system, seed):
    target = THREE_TARGET if system is None else _change_one(system)
    state = _three_system_state(seed)
    rho = _three_system_density(seed)
    for obj, raw in ((state, state.amps), (rho, rho.matrix)):
        table = born_distribution(obj, target)
        expected = oracles.born_probs(raw, _labels(THREE_SOURCE), _labels(target))
        assert list(dict(table.items())) == list(expected)
        for key, p in expected.items():
            assert table[key] == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("system", [0, 1, 2, None])
def test_born_distribution_is_the_re_expressed_diagonal_bit_for_bit(system, seed):
    target = THREE_TARGET if system is None else _change_one(system)
    state = _three_system_state(seed)
    rho = _three_system_density(seed)
    vec = express(state, target).vec
    assert list(born_distribution(state, target).probs.values()) == [abs(z) ** 2 for z in vec]
    rows = express_density(rho, target).rows
    diag = [max(rows[i][i].real, 0.0) for i in range(len(rows))]
    assert list(born_distribution(rho, target).probs.values()) == diag


TWO_SOURCE = (SPIN_Z, SPIN_Z)
TWO_TARGET = (direction_basis(0.7), SPIN_W)

# Source and target bases of two and three systems, direction bases among
# them, for changing every subset of the systems.
CHANGES = {
    "two": (TWO_SOURCE, TWO_TARGET),
    "three": (THREE_SOURCE, THREE_TARGET),
    "three-directions": (
        (COIN_WBAR, SPIN_W, direction_basis(1.3)),
        (COIN_ZBAR, direction_basis(2.1), direction_basis(-0.4)),
    ),
}


def _subsets(source, target):
    for changed in itertools.product((False, True), repeat=len(source)):
        yield tuple(t if c else s for s, t, c in zip(source, target, changed))


def _random_density(seed, source):
    rng = np.random.default_rng(seed)
    d = 2 ** len(source)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityOperator(source, rho / np.trace(rho).real)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("source, target", list(CHANGES.values()), ids=list(CHANGES))
def test_density_born_rule_is_the_full_diagonal_for_every_changed_subset(source, target, seed):
    # The Born rule computes only the diagonal of the last basis change;
    # express_density computes every entry of every change.
    rho = _random_density(seed, source)
    for bases in _subsets(source, target):
        rows = express_density(rho, bases).rows
        diag = [max(rows[i][i].real, 0.0) for i in range(len(rows))]
        assert list(born_distribution(rho, bases).probs.values()) == diag


def _chained(obj, bases):
    """``obj`` re-expressed one system at a time, in system order: by
    apply_local for a state, by one-system express_density for a density."""
    for k, b in enumerate(bases):
        if obj.bases[k] != b:
            if isinstance(obj, StateVector):
                obj = apply_local(obj, basis_change(k, obj.bases[k], b))
            else:
                obj = express_density(obj, obj.bases[:k] + (b,) + obj.bases[k + 1 :])
    return obj


@pytest.mark.parametrize("seed", [1, 2])
def test_express_is_the_chain_of_local_basis_changes(seed):
    # Every subset of changed systems, bit for bit: express, express_density
    # and the Born rule on states and densities of two and three systems.
    for source, target in CHANGES.values():
        d = 2 ** len(source)
        rng = np.random.default_rng(seed)
        state = make_state(rng.normal(size=d) + 1j * rng.normal(size=d), source)
        rho = _random_density(seed, source)
        for bases in _subsets(source, target):
            keys = list(itertools.product(*_labels(bases)))
            chained = _chained(state, bases)
            out = express(state, bases)
            assert (out.bases, out.vec) == (chained.bases, chained.vec)
            table = born_distribution(state, bases)
            assert list(table.probs) == keys
            assert list(table.probs.values()) == [abs(z) ** 2 for z in chained.vec]
            chained = _chained(rho, bases)
            out = express_density(rho, bases)
            assert (out.bases, out.rows) == (chained.bases, chained.rows)
            table = born_distribution(rho, bases)
            assert list(table.probs) == keys
            diag = [max(row[i].real, 0.0) for i, row in enumerate(chained.rows)]
            assert list(table.probs.values()) == diag
        assert express(state, source) is state
        assert express_density(rho, source) is rho


def test_born_plan_is_memoized_in_a_bounded_cache():
    from wignerfriend import qcore

    info = qcore._born_plan.cache_info()
    assert 0 < info.maxsize < math.inf
    state = hardy()
    born_distribution(state, (COIN_WBAR, SPIN_W))
    before = qcore._born_plan.cache_info()
    # The same context again, from a state, a list of bases and a density.
    born_distribution(hardy(), [COIN_WBAR, SPIN_W])
    express(state, (COIN_WBAR, SPIN_W))
    rho = DensityOperator(state.bases, np.outer(state.amps, state.amps.conj()))
    born_distribution(rho, (COIN_WBAR, SPIN_W))
    after = qcore._born_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 3, before.misses)


@pytest.mark.parametrize("call", [born_distribution, express, express_density])
def test_a_basis_count_mismatch_is_not_cached(call):
    from wignerfriend import qcore

    obj = _three_system_density(1) if call is express_density else _three_system_state(1)
    before = qcore._born_plan.cache_info()
    for bases in (THREE_TARGET[:2], THREE_TARGET + (SPIN_Z,), ()):
        with pytest.raises(ValueError, match="dimension mismatch"):
            call(obj, bases)
    after = qcore._born_plan.cache_info()
    assert after.currsize == before.currsize
    assert after.misses == before.misses + 3


@pytest.mark.parametrize("call", [born_distribution, express, express_density])
def test_a_coin_basis_on_a_spin_system_is_a_basis_mismatch(call):
    obj = _three_system_density(1) if call is express_density else _three_system_state(1)
    for _ in range(2):
        with pytest.raises(ValueError, match="basis mismatch"):
            call(obj, (COIN_ZBAR, COIN_WBAR, SPIN_Z))


def test_born_distribution_of_a_non_state_is_a_type_error():
    with pytest.raises(TypeError, match="cannot take Born distribution of tuple"):
        born_distribution(hardy().vec, HARDY_BASES)


@pytest.mark.parametrize(
    "obj", [_three_system_state(1), _three_system_density(1)], ids=["state", "density"]
)
def test_born_distribution_rejects_a_basis_count_mismatch(obj):
    with pytest.raises(ValueError, match="dimension mismatch"):
        born_distribution(obj, THREE_TARGET[:2])


def _density_with_spectrum(rng, spectrum):
    """V diag(spectrum) V^H for a seeded random unitary V."""
    d = len(spectrum)
    v = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return (v * np.asarray(spectrum)) @ v.conj().T


# Smallest eigenvalues on both sides of the -NORM_TOL threshold.
LAMBDA_MIN = [-1e-9, -1e-11, -1.1e-12, -0.9e-12, -1e-13, 0.0]


@pytest.mark.parametrize("systems", [2, 3])
@pytest.mark.parametrize("lam", LAMBDA_MIN)
@pytest.mark.parametrize("rank_one", [False, True], ids=["full", "rank-one"])
def test_positivity_check_agrees_with_eigvalsh_oracle(systems, lam, rank_one):
    rng = np.random.default_rng(10 * systems + int(rank_one))
    d = 2**systems
    for _ in range(5):
        if rank_one:
            # A pure state plus one eigenvalue lam; the rest are zero.
            spectrum = np.zeros(d)
            spectrum[:2] = (1.0 - lam, lam)
        else:
            rest = rng.uniform(0.1, 1.0, size=d - 1)
            spectrum = np.concatenate(([lam], rest * (1.0 - lam) / rest.sum()))
        m = _density_with_spectrum(rng, spectrum)
        bases = (COIN_ZBAR,) + (SPIN_Z,) * (systems - 1)
        positive = oracles.smallest_eigenvalue(m) >= -1e-12
        assert positive == (lam >= -1e-12)
        if positive:
            assert np.array_equal(DensityOperator(bases, m).matrix, m)
        else:
            with pytest.raises(InvariantViolation, match="not positive semidefinite"):
                DensityOperator(bases, m)


def _check_stack(stack):
    """Build each entry of a (3, 4, d, d) stack as a DensityOperator; the
    indices of the entries the kernel rejects, in order."""
    d = stack.shape[-1]
    bases = (COIN_ZBAR,) + (SPIN_Z,) * (d.bit_length() - 2)
    rejected = []
    for index in np.ndindex(stack.shape[:2]):
        try:
            DensityOperator(bases, stack[index])
        except InvariantViolation as err:
            rejected.append((index, str(err)))
    return rejected


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("lam", LAMBDA_MIN)
def test_stacked_positivity_check_rejects_exactly_a_bad_entry(d, lam):
    rng = np.random.default_rng(d)
    stack = np.empty((3, 4, d, d), dtype=complex)
    for index in np.ndindex(3, 4):
        weights = rng.uniform(0.1, 1.0, size=d)
        stack[index] = _density_with_spectrum(rng, weights / weights.sum())
    assert min(oracles.smallest_eigenvalue(m) for m in stack.reshape(-1, d, d)) > 0.0
    assert _check_stack(stack) == []
    rest = rng.uniform(0.1, 1.0, size=d - 1)
    bad = _density_with_spectrum(rng, np.concatenate(([lam], rest * (1.0 - lam) / rest.sum())))
    rejected = oracles.smallest_eigenvalue(bad) < -1e-12
    assert rejected == (lam < -1e-12)
    for index in ((0, 0), (1, 2), (2, 3)):
        entries = stack.copy()
        entries[index] = bad
        want = [(index, "density operator not positive semidefinite")] if rejected else []
        assert _check_stack(entries) == want


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (3, 3)])
def test_stacked_density_check_rejects_a_nan_entry(entry):
    stack = np.broadcast_to(np.eye(4, dtype=complex) / 4.0, (3, 4, 4, 4)).copy()
    assert _check_stack(stack) == []
    stack[1, 2][entry] = np.nan
    assert [index for index, _ in _check_stack(stack)] == [(1, 2)]


def test_numpy_views_are_read_only_and_built_once():
    state = hardy()
    rho = DensityOperator(state.bases, np.outer(state.amps, state.amps.conj()))
    for obj, view, raw in ((state, "amps", state.vec), (rho, "matrix", rho.rows)):
        a = getattr(obj, view)
        assert getattr(obj, view) is a
        assert not a.flags.writeable
        assert np.array_equal(a, np.array(raw))


def test_kernel_storage_is_tuples_of_complex():
    state = make_state(np.array([1, 0, 1, 1]), HARDY_BASES)
    rho = DensityOperator(state.bases, np.outer(state.amps, state.amps.conj()))
    assert type(state.vec) is tuple and all(type(z) is complex for z in state.vec)
    assert type(rho.rows) is tuple and all(type(row) is tuple for row in rho.rows)
    assert all(type(z) is complex for row in rho.rows for z in row)


@pytest.mark.parametrize(
    "build",
    [
        lambda: StateVector(HARDY_BASES, [[1.0, 0.0], [0.0, 0.0]]),
        lambda: DensityOperator(HARDY_BASES, [1.0, 0.0, 0.0, 0.0]),
        lambda: DensityOperator(HARDY_BASES, np.eye(2)),
        lambda: LocalUnitary(0, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], COIN_ZBAR, COIN_ZBAR),
    ],
    ids=["nested-state", "flat-density", "small-density", "wide-unitary"],
)
def test_wrongly_shaped_input_is_a_dimension_mismatch(build):
    with pytest.raises(ValueError, match="dimension mismatch"):
        build()


def test_direction_basis_is_memoized_on_the_reduced_angle():
    from wignerfriend import qcore

    a = -math.pi / 4.0
    first = direction_basis(a)
    assert direction_basis(a) is first
    # An angle already in [0, 2*pi) reduces to itself, and ints and numpy
    # floats are read as the same float.
    assert direction_basis(a % (2.0 * math.pi)) is first
    assert direction_basis(np.float64(a)) is first
    assert direction_basis(1) is direction_basis(1.0)
    assert direction_basis(0.3) is not direction_basis(0.30000000000000004)
    assert qcore._direction_basis.cache_info().maxsize == qcore.DIRECTION_CACHE


def test_direction_basis_checks_each_new_angle_once(monkeypatch):
    from wignerfriend import qcore

    checks = []
    real = qcore._is_unitary

    def counted(u, v):
        checks.append((u, v))
        return real(u, v)

    monkeypatch.setattr(qcore, "_is_unitary", counted)
    qcore._direction_basis.cache_clear()
    first = direction_basis(1.25)
    assert direction_basis(1.25) is first
    assert len(checks) == 1
    direction_basis(2.5)
    assert len(checks) == 2


def test_direction_basis_cache_is_bounded():
    from wignerfriend import qcore

    angles = [0.01 * k for k in range(qcore.DIRECTION_CACHE + 10)]
    for a in angles:
        direction_basis(a)
    info = qcore._direction_basis.cache_info()
    assert info.currsize == info.maxsize == qcore.DIRECTION_CACHE
    # The least recently used angle was evicted, so asking again misses.
    direction_basis(angles[0])
    assert qcore._direction_basis.cache_info().misses == info.misses + 1
