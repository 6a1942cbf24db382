import math

import numpy as np
import pytest

import oracles
from wignerfriend.bell import (
    OPTIMAL_QUAD,
    PAIR_Z,
    AngleQuad,
    LHVModel,
    born_tables,
    chsh,
    chsh_scan,
    direction_matrices,
    erased_vs_kept_chsh,
    lhv_correlation,
    lhv_joint,
    observer_independent_facts_model,
    quantum_correlation,
    singlet,
)
from wignerfriend.hardy import hardy_state
from wignerfriend.memory import Friend, record_and_erase, record_and_keep
from wignerfriend.qcore import born_distribution, direction_basis, make_state

INV = 2.0 ** -0.5
TSIRELSON = 2.0 * math.sqrt(2.0)
GRID = np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
MODEL = observer_independent_facts_model()


def test_singlet_amplitudes():
    s = singlet()
    assert np.allclose(s.amps, [0.0, INV, -INV, 0.0], atol=1e-15)
    assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12


def test_equal_angle_anticorrelation():
    assert quantum_correlation(0.0, 0.0) == pytest.approx(-1.0, abs=1e-12)
    assert quantum_correlation(1.3, 1.3) == pytest.approx(-1.0, abs=1e-12)


def test_orthogonal_settings_uncorrelated():
    assert quantum_correlation(0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-12)


def test_quantum_correlation_at_pi_over_4():
    assert quantum_correlation(0.0, math.pi / 4) == pytest.approx(-INV, abs=1e-12)


def test_quantum_correlation_matches_closed_form_on_grid():
    for a in GRID:
        for b in GRID:
            assert quantum_correlation(a, b) == pytest.approx(-math.cos(a - b), abs=1e-12)


def test_lhv_prior_and_responses_are_normalized():
    assert sum(MODEL.prior) == pytest.approx(1.0, abs=1e-15)
    for side in (0, 1):
        for angle in GRID:
            for component in ("up", "down"):
                row = MODEL.response(side, angle, component)
                assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)
                assert all(p >= 0 for p in row.values())


def test_lhv_correlation_examples():
    assert lhv_correlation(MODEL, 0.0, 0.0) == pytest.approx(-1.0, abs=1e-12)
    assert lhv_correlation(MODEL, math.pi / 2, 1.234) == pytest.approx(0.0, abs=1e-12)
    assert lhv_correlation(MODEL, 0.0, math.pi / 4) == pytest.approx(-INV, abs=1e-12)


def test_lhv_correlation_matches_closed_form_on_grid():
    for a in GRID:
        for b in GRID:
            assert lhv_correlation(MODEL, a, b) == pytest.approx(
                -math.cos(a) * math.cos(b), abs=1e-12
            )


def test_lhv_joint_is_a_convex_combination_of_products():
    for a, b in ((0.3, 1.1), (2.0, 5.5)):
        joint = lhv_joint(MODEL, a, b)
        rebuilt = {(x, y): 0.0 for x in (1, -1) for y in (1, -1)}
        for lam, w in zip(MODEL.lambda_space, MODEL.prior):
            r1, r2 = MODEL.response(0, a, lam[0]), MODEL.response(1, b, lam[1])
            for x in (1, -1):
                for y in (1, -1):
                    rebuilt[(x, y)] += w * r1[x] * r2[y]
        assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)
        for key in joint:
            assert joint[key] == pytest.approx(rebuilt[key], abs=1e-15)


def test_lhv_model_validates_prior():
    with pytest.raises(ValueError):
        LHVModel((("up", "down"),), (0.7,), MODEL.response)


@pytest.mark.parametrize(
    "prior",
    [
        (math.nan, 1.0, 0.0, 0.0),
        (0.5, 0.5, math.nan, 0.0),
        (math.inf, 1.0, 0.0, 0.0),
        (-0.5, 1.5, 0.0, 0.0),
        (0.5, 0.6, 0.0, 0.0),
    ],
    ids=["nan-weight", "nan-zero-weight", "inf-weight", "negative", "sum-1.1"],
)
def test_lhv_model_rejects_priors_that_are_not_distributions(prior):
    with pytest.raises(ValueError, match="probability distribution"):
        LHVModel(MODEL.lambda_space, prior, MODEL.response)


def test_chsh_at_the_optimal_quad():
    assert chsh(quantum_correlation, OPTIMAL_QUAD) == pytest.approx(TSIRELSON, abs=1e-9)


def test_degenerate_quad_cannot_exceed_two():
    quad = AngleQuad(0.7, 0.7, 2.1, 2.1)
    s = chsh(quantum_correlation, quad)
    assert s == pytest.approx(2 * abs(quantum_correlation(0.7, 2.1)), abs=1e-12)
    assert s <= 2.0 + 1e-12


def test_angles_are_taken_mod_two_pi():
    quad = AngleQuad(-math.pi / 4, 0.0, 0.0, 0.0)
    assert quad.a == pytest.approx(2 * math.pi - math.pi / 4, abs=1e-12)


def test_quantum_scan_reaches_the_quantum_maximum():
    result = chsh_scan(quantum_correlation, grid_n=20)
    assert TSIRELSON - 1e-6 <= result.max_s <= TSIRELSON + 1e-9


@pytest.mark.parametrize("grid_n", [0, -3])
def test_chsh_scan_rejects_an_empty_grid_before_calling_the_correlation(grid_n):
    calls = []

    def fn(a, b):
        calls.append((a, b))
        return quantum_correlation(a, b)

    with pytest.raises(ValueError, match="grid_n"):
        chsh_scan(fn, grid_n)
    assert calls == []
    assert chsh_scan(fn, 1).max_s == pytest.approx(TSIRELSON, abs=1e-12)


def test_lhv_scan_respects_the_local_bound():
    result = chsh_scan(lambda a, b: lhv_correlation(MODEL, a, b), grid_n=20)
    assert result.max_s <= 2.0 + 1e-9
    assert result.max_s == pytest.approx(2.0, abs=1e-6)


def test_erased_records_leave_the_singlet_coherent():
    pair = singlet()
    run = record_and_erase(pair, Friend.FBAR, PAIR_Z)
    run = record_and_erase(run.final_state, Friend.F, PAIR_Z)
    s = chsh(lambda a, b: quantum_correlation(a, b, run.final_state), OPTIMAL_QUAD)
    assert s == pytest.approx(TSIRELSON, abs=1e-9)


def test_kept_records_reproduce_the_hidden_variable_model_exactly():
    kept = record_and_keep(singlet(), (Friend.F, Friend.FBAR)).final_state
    for a in GRID:
        for b in GRID:
            assert quantum_correlation(a, b, kept) == pytest.approx(
                lhv_correlation(MODEL, a, b), abs=1e-12
            )


def test_erased_vs_kept_report():
    report = erased_vs_kept_chsh()
    assert report.s_erased == pytest.approx(TSIRELSON, abs=1e-9)
    assert report.s_kept_max <= 2.0 + 1e-9
    assert report.aligned_correlation == pytest.approx(-1.0, abs=1e-12)
    assert report.kept_vs_lhv_max_gap <= 1e-12


@pytest.mark.parametrize("match_grid", [0, -3])
def test_erased_vs_kept_rejects_an_empty_match_grid_before_computing(monkeypatch, match_grid):
    from wignerfriend import bell

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("singlet", "quantum_correlation", "lhv_correlation", "chsh_scan"):
        monkeypatch.setattr(bell, name, counted(getattr(bell, name)))
    with pytest.raises(ValueError, match="match_grid"):
        bell.erased_vs_kept_chsh(grid_n=4, match_grid=match_grid)
    assert calls == []
    report = bell.erased_vs_kept_chsh(grid_n=4, match_grid=1)
    assert "quantum_correlation" in calls and "lhv_correlation" in calls
    assert report.kept_vs_lhv_max_gap <= 1e-12


def _random_amps(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def _case_state(name: str):
    """(package state, oracle density) for "singlet", "pure-<seed>" or
    "kept-<seed>"."""
    kind, _, seed = name.partition("-")
    amps = np.array([0.0, INV, -INV, 0.0]) if kind == "singlet" else _random_amps(int(seed))
    state = make_state(amps, (PAIR_Z, PAIR_Z))
    rho = np.outer(amps, amps.conj())
    if kind == "kept":
        friends = ((Friend.FBAR,), (Friend.F,), (Friend.FBAR, Friend.F))[int(seed) % 3]
        state = record_and_keep(state, friends).final_state
        for friend in friends:
            rho = oracles.dephase_matrix(rho, friend.system)
    return state, rho


def _chsh_case(name: str):
    """(package correlation, oracle correlation, oracle block) for one case."""
    if name == "lhv":
        return (
            lambda a, b: lhv_correlation(MODEL, a, b),
            lambda a, b: -math.cos(a) * math.cos(b),
            np.diag([-1.0, 0.0]),
        )
    state, rho = _case_state(name)
    return (
        lambda a, b: quantum_correlation(a, b, state),
        lambda a, b: oracles.pair_correlation(rho, a, b),
        oracles.correlation_block(rho),
    )


@pytest.mark.parametrize(
    "case", ["singlet", "lhv", "pure-1", "pure-2", "pure-3", "kept-4", "kept-5", "kept-6"]
)
def test_closed_form_chsh_maximum_matches_the_oracles(case):
    fn, oracle_fn, block = _chsh_case(case)
    result = chsh_scan(fn, 12)
    sigma = np.linalg.svd(block, compute_uv=False)
    assert result.max_s == pytest.approx(2.0 * math.hypot(*sigma), abs=1e-12)
    assert chsh(fn, result.argmax) == pytest.approx(result.max_s, abs=1e-12)
    assert oracles.chsh_grid_max(oracle_fn, 12) <= result.max_s + 1e-12


@pytest.mark.parametrize("case", ["kept-4", "kept-5", "kept-6"])
def test_born_tables_on_a_kept_density_match_the_kernel_on_a_20x20_grid(case):
    kept, _ = _case_state(case)
    grid = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)
    tables = born_tables(kept, (direction_matrices(grid[:, None]), direction_matrices(grid[None, :])))
    assert tables.shape == (20, 20, 4)
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            dist = born_distribution(kept, (direction_basis(float(a)), direction_basis(float(b))))
            assert np.max(np.abs(tables[i, j] - list(dist.probs.values()))) <= 1e-12


@pytest.mark.parametrize(
    "fn",
    [
        lambda a, b: -np.cos(2.0 * (a - b)),
        lambda a, b: -np.cos(a - b) + 1e-9 * np.cos(2.0 * (a - b)),
    ],
    ids=["second-harmonic", "singlet-plus-1e-9"],
)
def test_closed_form_rejects_a_non_bilinear_correlation(fn):
    with pytest.raises(ValueError, match="not bilinear"):
        chsh_scan(fn)


_SIGN = {"plus_a": 1, "minus_a": -1}
GRID_12 = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)


def _reference_correlation(obj, a: float, b: float) -> float:
    """The scalar path: a checked Born distribution in two direction bases."""
    dist = born_distribution(obj, (direction_basis(a), direction_basis(b)))
    return sum(_SIGN[k1] * _SIGN[k2] * p for (k1, k2), p in dist.items())


@pytest.mark.parametrize(
    "case", ["singlet", "pure-1", "pure-2", "pure-3", "kept-4", "kept-5", "kept-6"]
)
def test_broadcast_correlations_match_the_reference_path(case):
    state, _ = _case_state(case)
    grid = quantum_correlation(GRID_12[:, None], GRID_12[None, :], state)
    assert grid.shape == (12, 12)
    want = np.array([[_reference_correlation(state, a, b) for b in GRID_12] for a in GRID_12])
    assert np.max(np.abs(grid - want)) <= 1e-12
    # Scalar settings take the reference path itself.
    for a, b in ((0.3, 1.1), (float(GRID_12[5]), 2), (np.float64(4.0), -0.5)):
        assert quantum_correlation(a, b, state) == _reference_correlation(state, a, b)


def test_scalar_settings_give_floats_and_arrays_broadcast():
    kept, _ = _case_state("kept-6")
    for value in (
        quantum_correlation(0.3, 1.1),
        quantum_correlation(np.float64(0.3), 1.1, kept),
        quantum_correlation(np.array(0.3), 1.1),
        lhv_correlation(MODEL, 0.3, 1.1),
        lhv_correlation(MODEL, np.array(0.3), 1.1),
    ):
        assert type(value) is float
    assert quantum_correlation(GRID_12, 0.5).shape == (12,)
    assert quantum_correlation(np.zeros((2, 1, 3)), np.zeros((4, 1))).shape == (2, 4, 3)
    lhv = lhv_correlation(MODEL, GRID_12[:, None], GRID_12[None, :])
    want = -np.cos(GRID_12)[:, None] * np.cos(GRID_12)[None, :]
    assert lhv.shape == (12, 12)
    assert np.max(np.abs(lhv - want)) <= 1e-12


def _value_error(alpha, state) -> str:
    with pytest.raises(ValueError) as info:
        quantum_correlation(alpha, 0.2, state)
    return str(info.value)


def test_errors_come_through_the_broadcast_path():
    with pytest.raises(ValueError, match="not unitary"):
        quantum_correlation(np.array([0.1, np.nan, 0.3]), 0.2)
    stretched = np.array([np.eye(2), np.diag([1.0, 1.0 + 1e-9])])
    with pytest.raises(ValueError, match="not unitary"):
        born_tables(singlet(), (stretched, np.eye(2)))
    with pytest.raises(ValueError, match="basis mismatch"):
        quantum_correlation(GRID_12, 0.0, hardy_state())
    three = make_state(np.eye(8)[0], (PAIR_Z, PAIR_Z, PAIR_Z))
    with pytest.raises(ValueError, match="dimension mismatch"):
        quantum_correlation(GRID_12, 0.0, three)
    one = make_state([1.0, 0.0], (PAIR_Z,))
    with pytest.raises(ValueError, match="dimension mismatch"):
        quantum_correlation(0.0, 0.0, one)
    # Scalar settings run on the kernel, arrays on born_tables: same errors.
    for angle, state, message in (
        (math.nan, None, "not unitary"),
        (0.0, hardy_state(), "basis mismatch"),
        (0.0, one, "dimension mismatch"),
    ):
        scalar = _value_error(angle, state)
        assert message in scalar
        assert _value_error(np.array([angle]), state) == scalar
