import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from wignerfriend.bell import (
    OPTIMAL_QUAD,
    PAIR_Z,
    AngleQuad,
    LHVModel,
    ScanResult,
    chsh,
    chsh_max,
    chsh_scan,
    erased_vs_kept_chsh,
    lhv_correlation,
    observer_independent_facts_model,
    quantum_correlation,
    singlet,
)
from wignerfriend.hardy import hardy_state
from wignerfriend.memory import Friend, record_and_erase, record_and_keep
from wignerfriend.qcore import (
    SPIN_W,
    DensityOperator,
    Frozen,
    InvariantViolation,
    StateVector,
    born_distribution,
    direction_basis,
    make_state,
)

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


def test_lhv_prior_is_normalized_and_its_vectors_are_bloch_vectors():
    assert sum(MODEL.prior) == pytest.approx(1.0, abs=1e-15)
    assert len(MODEL.vectors) == len(MODEL.prior)
    for pair in MODEL.vectors:
        assert len(pair) == 2
        assert all(len(v) == 2 and math.hypot(*v) <= 1.0 for v in pair)
    # Anticorrelated z facts: T = sum p r s^T = diag(-1, 0), exactly.
    assert MODEL._block == (-1.0, 0.0, 0.0, 0.0)


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


# A model with tilted and shortened Bloch vectors, so that every block entry
# and both marginals are nonzero.
TILTED = LHVModel(
    (((0.6, 0.8), (-0.3, 0.4)), ((0.0, -1.0), (0.8, -0.6)), ((-0.5, 0.0), (0.0, 0.0))),
    (0.2, 0.5, 0.3),
)


@pytest.mark.parametrize("model", [MODEL, TILTED], ids=["facts", "tilted"])
def test_lhv_joint_is_a_convex_combination_of_products(model):
    for a, b in ((0.3, 1.1), (2.0, 5.5), (-1.0, 7.0)):
        n_a, n_b = np.array([math.cos(a), math.sin(a)]), np.array([math.cos(b), math.sin(b)])
        joint = oracles.lhv_joint(model, a, b)
        rebuilt = {(x, y): 0.0 for x in (1, -1) for y in (1, -1)}
        for (r, s), w in zip(model.vectors, model.prior):
            for x in (1, -1):
                for y in (1, -1):
                    p1 = (1.0 + x * np.dot(r, n_a)) / 2.0
                    p2 = (1.0 + y * np.dot(s, n_b)) / 2.0
                    rebuilt[(x, y)] += w * p1 * p2
        assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0.0 for p in joint.values())
        for key in joint:
            assert joint[key] == pytest.approx(rebuilt[key], abs=1e-15)
        # The block is the joint's correlation, at any setting.
        from_joint = sum(x * y * p for (x, y), p in joint.items())
        assert lhv_correlation(model, a, b) == pytest.approx(from_joint, abs=1e-15)
        assert lhv_correlation(model, np.array([a]), b)[0] == pytest.approx(from_joint, abs=1e-15)


def test_lhv_block_is_the_prior_weighted_sum_of_outer_products():
    want = sum(w * np.outer(r, s) for (r, s), w in zip(TILTED.vectors, TILTED.prior))
    assert np.max(np.abs(np.array(TILTED._block) - want.ravel())) <= 1e-15


def test_lhv_model_validates_prior():
    with pytest.raises(ValueError):
        LHVModel(MODEL.vectors[:1], (0.7,))


def test_lhv_model_rejects_a_prior_of_another_length():
    with pytest.raises(ValueError, match="dimension mismatch"):
        LHVModel(MODEL.vectors, (0.5, 0.5))


@pytest.mark.parametrize(
    "vector",
    [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0), (1.0, 1e-3), (0.8, -0.8)],
    ids=["nan", "inf", "-inf", "just-over-1", "diagonal-over-1"],
)
@pytest.mark.parametrize("side", [0, 1])
def test_lhv_model_rejects_vectors_that_are_not_bloch_vectors(vector, side):
    pair = (vector, (1.0, 0.0)) if side == 0 else ((1.0, 0.0), vector)
    with pytest.raises(ValueError, match="Bloch vectors must be finite, of length at most 1"):
        LHVModel((pair, ((-1.0, 0.0), (1.0, 0.0))), (0.5, 0.5))


def test_lhv_model_accepts_unit_vectors_from_trigonometry():
    angles = np.linspace(0.0, 2.0 * math.pi, 97)
    unit = tuple(((math.cos(t), math.sin(t)), (math.sin(t), math.cos(t))) for t in angles)
    model = LHVModel(unit, (1.0 / len(unit),) * len(unit))
    assert chsh_scan(lambda a, b: lhv_correlation(model, a, b), 8).max_s <= 2.0 + 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_lhv_non_finite_settings_fail_as_the_quantum_ones_do(bad):
    for call in (
        lambda: lhv_correlation(MODEL, bad, 0.2),
        lambda: lhv_correlation(MODEL, 0.2, bad),
        lambda: lhv_correlation(MODEL, np.array([0.1, bad]), 0.2),
        lambda: quantum_correlation(bad, 0.2),
    ):
        with pytest.raises(ValueError, match="^not unitary$"):
            call()


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
        LHVModel(MODEL.vectors, prior)


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


# Not integers: a float (even a whole one), a bool, a string, None.
NOT_A_SIZE = [2.5, 20.0, True, False, "3", None]


@pytest.mark.parametrize("grid_n", NOT_A_SIZE)
def test_chsh_scan_rejects_a_non_integer_grid_before_calling_the_correlation(grid_n):
    calls = []

    def fn(a, b):
        calls.append((a, b))
        return quantum_correlation(a, b)

    with pytest.raises(TypeError, match="grid_n must be an integer"):
        chsh_scan(fn, grid_n)
    assert calls == []


def test_chsh_scan_takes_any_index_as_its_grid():
    assert chsh_scan(quantum_correlation, np.int64(7)) == chsh_scan(quantum_correlation, 7)


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


@pytest.mark.parametrize(
    "quad",
    [AngleQuad(0.0, 1.0, 2.0, 3.0), AngleQuad(0.3, -2.0, 5.0, 1e-3), OPTIMAL_QUAD],
    ids=["0123", "mixed", "optimal"],
)
def test_erased_vs_kept_takes_both_s_at_the_given_quad(quad):
    report = erased_vs_kept_chsh(quad=quad)
    assert report.s_erased == pytest.approx(chsh(quantum_correlation, quad), abs=1e-12)
    s_lhv = chsh(lambda a, b: lhv_correlation(MODEL, a, b), quad)
    assert report.s_kept_at_quad == pytest.approx(s_lhv, abs=1e-12)


def _kept_vs_lhv_grid_max(model) -> float:
    """max |E_kept - E_model| over a 50x50 grid of settings."""
    kept = record_and_keep(singlet(), (Friend.F, Friend.FBAR)).final_state
    grid = np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)
    a, b = grid[:, None], grid[None, :]
    return float(np.max(np.abs(quantum_correlation(a, b, kept) - lhv_correlation(model, a, b))))


def _spectral_norm_of_the_difference(model) -> float:
    """sup over the settings of |n(a)^T D n(b)|, D the difference of the
    kept records' block and the model's, from LAPACK."""
    from wignerfriend import bell

    kept = record_and_keep(singlet(), (Friend.F, Friend.FBAR)).final_state
    difference = np.array(bell._correlation_block(kept)) - np.array(model._block)
    return float(np.linalg.norm(difference.reshape(2, 2), 2))


def test_the_kept_vs_lhv_gap_is_the_supremum_over_all_settings(monkeypatch):
    from wignerfriend import bell

    gap = erased_vs_kept_chsh(4).kept_vs_lhv_max_gap
    assert 0.0 <= gap <= 1e-12
    assert _kept_vs_lhv_grid_max(MODEL) <= gap
    assert gap == pytest.approx(_spectral_norm_of_the_difference(MODEL), abs=1e-30)
    # Against a model whose difference from the kept records has rank two,
    # where the supremum is neither the largest entry nor the Frobenius norm.
    monkeypatch.setattr(bell, "_FACTS_MODEL", TILTED)
    gap = erased_vs_kept_chsh(4).kept_vs_lhv_max_gap
    assert gap == pytest.approx(_spectral_norm_of_the_difference(TILTED), abs=1e-12)
    assert gap - 1e-2 <= _kept_vs_lhv_grid_max(TILTED) <= gap + 1e-12


@pytest.mark.parametrize("grid_n", [0, -2])
def test_erased_vs_kept_rejects_an_empty_scan_grid_before_computing(monkeypatch, grid_n):
    from wignerfriend import bell, memory

    def refused(*args):
        raise AssertionError("record_and_keep ran before grid_n was checked")

    monkeypatch.setattr(memory, "record_and_keep", refused)
    with pytest.raises(ValueError, match="grid_n must be at least 1"):
        bell.erased_vs_kept_chsh(grid_n=grid_n)


def _refuse_record_and_keep(monkeypatch):
    from wignerfriend import memory

    def refused(*args):
        raise AssertionError("record_and_keep ran before the grid sizes were checked")

    monkeypatch.setattr(memory, "record_and_keep", refused)


# None is no grid: the kept maximum is solved as chsh_max solves it.
@pytest.mark.parametrize("bad", [x for x in NOT_A_SIZE if x is not None])
def test_erased_vs_kept_rejects_a_non_integer_grid_before_computing(monkeypatch, bad):
    from wignerfriend import bell

    _refuse_record_and_keep(monkeypatch)
    with pytest.raises(TypeError, match="grid_n must be an integer"):
        bell.erased_vs_kept_chsh(grid_n=bad)


def test_erased_vs_kept_takes_any_index_as_its_grid_sizes():
    assert erased_vs_kept_chsh(np.int64(7)) == erased_vs_kept_chsh(7)
    with pytest.raises(TypeError):
        erased_vs_kept_chsh(7, 5)


# A correlation block that is not the state's: a scan solves on it without
# complaint, and only the Born rule at the argmax sees it.
WRONG_BLOCK = (-1.0, 0.0, 0.0, -0.5)


def test_born_rule_residual_is_below_tolerance_on_true_blocks():
    from wignerfriend import bell

    kept = record_and_keep(singlet(), (Friend.F, Friend.FBAR)).final_state
    scan = chsh_scan(quantum_correlation, 7)
    assert bell.born_rule_residual(scan, singlet()) <= bell.BILINEAR_TOL
    scan = chsh_scan(lambda a, b: quantum_correlation(a, b, kept), 7)
    assert bell.born_rule_residual(scan, kept) <= bell.BILINEAR_TOL


def test_only_the_born_rule_check_takes_the_born_path(monkeypatch):
    from wignerfriend import bell

    calls = []
    original = bell._born_correlation
    monkeypatch.setattr(
        bell, "_born_correlation", lambda *args: calls.append(args) or original(*args)
    )
    kept = record_and_keep(singlet(), (Friend.F, Friend.FBAR)).final_state
    for state in (None, kept):
        quantum_correlation(0.3, 1.1, state)
        quantum_correlation(GRID[:, None], GRID[None, :], state)
        chsh(lambda a, b: quantum_correlation(a, b, state), OPTIMAL_QUAD)
    scan = chsh_scan(quantum_correlation, 5)
    assert calls == []
    bell.born_rule_residual(scan, singlet())
    # One Born correlation per setting pair of the argmax quad.
    assert len(calls) == 4


@pytest.mark.parametrize("case", ["not-a-state", "coin-system", "one-system", "three-systems"])
def test_born_rule_residual_checks_the_state_as_quantum_correlation_does(case):
    from wignerfriend import bell

    state = {
        "not-a-state": "singlet",
        "coin-system": hardy_state(),
        "one-system": make_state([1.0, 0.0], (PAIR_Z,)),
        "three-systems": make_state(np.eye(8)[0], (PAIR_Z, PAIR_Z, PAIR_Z)),
    }[case]
    scan = chsh_scan(quantum_correlation, 5)
    with pytest.raises((TypeError, ValueError)) as want:
        quantum_correlation(0.0, 0.0, state)
    for check in (lambda: bell.born_rule_residual(scan, state), lambda: chsh_max(state)):
        with pytest.raises(want.type) as got:
            check()
        assert str(got.value) == str(want.value)


def test_chsh_max_has_no_default_source():
    from wignerfriend import bell

    with pytest.raises(TypeError, match="^cannot take Born distribution of NoneType$"):
        chsh_max(None)
    # quantum_correlation documents state=None and reads it as the singlet;
    # born_rule_residual has no default state.
    scan = chsh_max(singlet())
    assert quantum_correlation(0.3, 1.1) == quantum_correlation(0.3, 1.1, singlet())
    with pytest.raises(TypeError, match="state"):
        bell.born_rule_residual(scan)


@pytest.mark.parametrize("grid_n", [None, 7])
def test_erased_vs_kept_reads_each_block_once_and_the_born_rule_four_times(monkeypatch, grid_n):
    from wignerfriend import bell

    counts = {"_correlation_block": 0, "born_distribution": 0}
    for name in counts:
        original = getattr(bell, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(bell, name, counted)
    erased_vs_kept_chsh(grid_n)
    assert counts == {"_correlation_block": 2, "born_distribution": 4}


@pytest.mark.parametrize("grid_n", [None, 7])
def test_erased_vs_kept_and_chsh_max_check_the_maximum_against_the_born_rule(monkeypatch, grid_n):
    from wignerfriend import bell

    monkeypatch.setattr(bell, "_correlation_block", lambda obj: WRONG_BLOCK)
    message = "^scan maximum .* is not the Born-rule S .* at its argmax$"
    with pytest.raises(InvariantViolation, match=message):
        erased_vs_kept_chsh(grid_n)
    with pytest.raises(InvariantViolation, match=message):
        chsh_max(singlet())


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


def _bilinear(block):
    """E(a, b) = n(a)^T T n(b) on a 2x2 block T, broadcasting over arrays."""
    (t00, t01), (t10, t11) = block

    def correlation(a, b):
        return np.cos(a) * (t00 * np.cos(b) + t01 * np.sin(b)) + np.sin(a) * (
            t10 * np.cos(b) + t11 * np.sin(b)
        )

    return correlation


# Synthetic blocks: degenerate (the singlet's is -I), rank one (as for kept
# records), zero, and det T < 0 (the second singular value negative in the
# rotation form).
BLOCKS = {
    "block-identity": np.eye(2),
    "block-minus-identity": -np.eye(2),
    "block-rank-one": np.diag([-1.0, 0.0]),
    "block-zero": np.zeros((2, 2)),
    "block-negative-det": np.array([[0.3, 0.8], [0.5, -0.2]]),
}


def _chsh_case(name: str):
    """(package correlation, oracle correlation, oracle block) for one case."""
    if name in BLOCKS:
        fn = _bilinear(BLOCKS[name])
        return fn, fn, BLOCKS[name]
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
    "case",
    ["singlet", "lhv", "pure-1", "pure-2", "pure-3", "kept-4", "kept-5", "kept-6", *BLOCKS],
)
def test_closed_form_chsh_maximum_matches_the_oracles(case):
    fn, oracle_fn, block = _chsh_case(case)
    result = chsh_scan(fn, 12)
    _assert_matches_the_svd(fn, block, result)
    assert oracles.chsh_grid_max(oracle_fn, 12) <= result.max_s + 1e-12


def _assert_matches_the_svd(fn, block, result):
    sigma = np.linalg.svd(block, compute_uv=False)
    assert result.max_s == pytest.approx(2.0 * math.hypot(*sigma), abs=1e-12)
    assert chsh(fn, result.argmax) == pytest.approx(result.max_s, abs=1e-12)


def test_a_negative_determinant_turns_bobs_offset_the_other_way():
    fn = _bilinear(BLOCKS["block-negative-det"])
    quad = chsh_scan(fn, 4).argmax
    # Bob's two settings sit symmetrically about -theta; with det T < 0 the
    # first of them is the one below it, and swapping them lowers S.
    swapped = AngleQuad(quad.a, quad.aprime, quad.bprime, quad.b)
    assert chsh(fn, swapped) < chsh(fn, quad) - 0.1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
# A subnormal pivot: LAPACK's LU divides by zero on the way to det = 0.
@example([0.0, 0.0, 5e-324, 1.0])
def test_closed_form_chsh_maximum_matches_the_svd_on_any_block(entries):
    from wignerfriend import bell

    block = np.array(entries).reshape(2, 2)
    fn = _bilinear(block)
    _assert_matches_the_svd(fn, block, chsh_scan(fn, 4))
    # The shared helper: s1 >= |s2| are the singular values, s1*s2 = det T.
    _, _, s1, s2 = bell._block_svd(entries)
    sigma = np.linalg.svd(block, compute_uv=False)
    assert s1 == pytest.approx(sigma[0], abs=1e-12)
    assert abs(s2) == pytest.approx(sigma[1], abs=1e-12)
    with np.errstate(divide="ignore"):
        det = np.linalg.det(block)
    assert s1 * s2 == pytest.approx(det, abs=1e-12)


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


@pytest.mark.parametrize("grid_n", [1, 7, 20])
def test_chsh_scan_calls_its_correlation_once_on_read_only_settings(grid_n):
    from wignerfriend import bell

    calls = []

    def fn(a, b):
        calls.append((a, b))
        return quantum_correlation(a, b)

    chsh_scan(fn, grid_n)
    assert len(calls) == 1
    alpha, beta = calls[0]
    grid = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    want = np.concatenate(([0.0, math.pi / 2.0], grid))
    assert alpha.shape == (grid_n + 2, 1) and beta.shape == (1, grid_n + 2)
    assert np.array_equal(alpha.ravel(), want) and np.array_equal(beta.ravel(), want)
    assert not alpha.flags.writeable and not beta.flags.writeable
    # The only settings cache: planned per grid size, and bounded.
    assert 0 < bell._scan_settings.cache_info().maxsize <= 8


def _two_call_scan(fn, grid_n: int) -> ScanResult:
    """The scan as two correlation calls, on the 2x2 ends and then on the
    grid, each on settings of its own: the reference for the one-call scan."""
    from wignerfriend import bell

    ends = np.array([0.0, math.pi / 2.0])
    t = np.asarray(fn(ends[:, None], ends[None, :]), dtype=float)
    grid = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    e = np.asarray(fn(grid[:, None], grid[None, :]), dtype=float)
    n = np.column_stack((np.cos(grid), np.sin(grid)))
    assert np.max(np.abs(e - n @ t @ n.T)) <= bell.BILINEAR_TOL
    phi, theta, s1, s2 = bell._block_svd(t.ravel().tolist())
    offset = math.copysign(math.atan2(abs(s2), s1), s2)
    quad = AngleQuad(phi, phi + math.pi / 2.0, -theta + offset, -theta - offset)
    return ScanResult(2.0 * math.hypot(s1, s2), quad)


@pytest.mark.parametrize("grid_n", [1, 2, 4, 7, 20])
@pytest.mark.parametrize(
    "case", ["singlet", "pure-1", "pure-2", "pure-3", "kept-4", "kept-5", "kept-6", "lhv"]
)
def test_the_one_call_scan_equals_the_two_call_scan(case, grid_n):
    fn = _chsh_case(case)[0]
    calls = []

    def counted(a, b):
        calls.append(None)
        return fn(a, b)

    result = chsh_scan(counted, grid_n)
    assert len(calls) == 1
    assert result == _two_call_scan(fn, grid_n)


@pytest.mark.parametrize(
    "fn",
    [
        lambda a, b: 0.5,
        lambda a, b: np.full((3, 3), 0.5),
        lambda a, b: quantum_correlation(a, 0.0),
        lambda a, b: quantum_correlation(a.ravel(), b.ravel()),
    ],
    ids=["constant", "fixed-shape", "column", "flat"],
)
def test_a_correlation_that_does_not_broadcast_is_rejected(fn):
    message = r"^correlation gave shape .* on settings that broadcast to \(6, 6\)$"
    with pytest.raises(ValueError, match=message):
        chsh_scan(fn, 4)


def _add_to_alpha(a, b):
    a += 1.0
    return quantum_correlation(a, b)


def _zero_beta(a, b):
    b[...] = 0.0
    return quantum_correlation(a, b)


@pytest.mark.parametrize("writer", [_add_to_alpha, _zero_beta], ids=["alpha", "beta"])
def test_a_correlation_cannot_write_into_the_scan_settings(writer):
    before = chsh_scan(quantum_correlation, 5)
    with pytest.raises(ValueError, match="read-only"):
        chsh_scan(writer, 5)
    assert chsh_scan(quantum_correlation, 5) == before


_SIGN = {"plus_a": 1, "minus_a": -1}
GRID_12 = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)


def _reference_correlation(obj, a: float, b: float) -> float:
    """The Born rule: a checked Born distribution in two direction bases."""
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
    for a, b in ((0.3, 1.1), (float(GRID_12[5]), 2), (np.float64(4.0), -0.5)):
        assert abs(quantum_correlation(a, b, state) - _reference_correlation(state, a, b)) <= 1e-12


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
    with pytest.raises(ValueError, match="basis mismatch"):
        quantum_correlation(GRID_12, 0.0, hardy_state())
    three = make_state(np.eye(8)[0], (PAIR_Z, PAIR_Z, PAIR_Z))
    with pytest.raises(ValueError, match="dimension mismatch"):
        quantum_correlation(GRID_12, 0.0, three)
    one = make_state([1.0, 0.0], (PAIR_Z,))
    with pytest.raises(ValueError, match="dimension mismatch"):
        quantum_correlation(0.0, 0.0, one)
    # Scalar and array settings: same errors.
    for angle, state, message in (
        (math.nan, None, "not unitary"),
        (0.0, hardy_state(), "basis mismatch"),
        (0.0, one, "dimension mismatch"),
    ):
        scalar = _value_error(angle, state)
        assert message in scalar
        assert _value_error(np.array([angle]), state) == scalar


def _other_frame_case(kind: str):
    """(state, oracle density) for a pure state or a mixed density stored in
    the (W, A(0.7)) bases; the oracle density is in the reference frame,
    where direction 0 is coordinate 0."""
    bases = (SPIN_W, direction_basis(0.7))
    psi = _random_amps(7)
    stored = np.outer(psi, psi.conj())
    if kind == "pure":
        state = make_state(psi, bases)
    else:
        phi = _random_amps(8)
        stored = 0.6 * stored + 0.4 * np.outer(phi, phi.conj())
        state = DensityOperator(bases, stored)
    # The change of basis has column k = label k's vector in the reference frame.
    change = np.kron(np.array(bases[0].vectors).T, np.array(bases[1].vectors).T)
    return state, change @ stored @ change.conj().T


@pytest.mark.parametrize("kind", ["pure", "density"])
def test_correlations_of_states_in_other_frames_match_the_reference_path(kind):
    state, rho = _other_frame_case(kind)
    grid = quantum_correlation(GRID_12[:, None], GRID_12[None, :], state)
    want = np.array([[_reference_correlation(state, a, b) for b in GRID_12] for a in GRID_12])
    oracle = np.array([[oracles.pair_correlation(rho, a, b) for b in GRID_12] for a in GRID_12])
    assert np.max(np.abs(want - oracle)) <= 1e-12
    assert np.max(np.abs(grid - want)) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("side", ["alpha", "beta"])
def test_a_non_finite_array_setting_fails_as_the_scalar_one_does(bad, side):
    kept, _ = _case_state("kept-5")
    messages = []
    for setting in (float(bad), np.array([0.1, bad, 0.3])):
        args = (setting, 0.2) if side == "alpha" else (0.2, setting)
        with pytest.raises(ValueError) as info:
            quantum_correlation(*args, kept)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "not unitary"


# Settings that are not real numbers: read as 1 rad, or with the imaginary
# part dropped, they would give a wrong correlation silently.
NOT_REAL = {
    "str": "1",
    "bytes": b"1",
    "str-array": np.array(["1", "2"]),
    "complex": 1 + 0j,
    "complex128": np.complex128(1.0),
    "complex-array": np.array([1 + 1j]),
    "object-array": np.array([1.0, None], dtype=object),
}


@pytest.mark.parametrize("setting", list(NOT_REAL.values()), ids=list(NOT_REAL))
@pytest.mark.parametrize("side", ["alpha", "beta"])
@pytest.mark.parametrize("correlation", ["quantum", "lhv"])
def test_a_setting_that_is_not_a_real_number_raises_type_error(setting, side, correlation):
    args = (setting, 0.2) if side == "alpha" else (0.2, setting)
    if correlation == "lhv":
        args = (MODEL, *args)
    fn = quantum_correlation if correlation == "quantum" else lhv_correlation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match="^settings must be real numbers, got dtype "):
            fn(*args)


# Correlation results that are not real numbers: read as floats, a complex
# one would lose its imaginary part and an object one pass unchecked.
NOT_REAL_RESULTS = {
    "complex": lambda a, b: -np.cos(a - b) + 0.5j * np.sin(a + b),
    "complex-zero-imaginary": lambda a, b: -np.cos(a - b) + 0j,
    "object": lambda a, b: (-np.cos(a - b)).astype(object),
    "str": lambda a, b: (-np.cos(a - b)).astype(str),
}


@pytest.mark.parametrize("correlation", list(NOT_REAL_RESULTS.values()), ids=list(NOT_REAL_RESULTS))
def test_a_correlation_result_that_is_not_a_real_number_raises_type_error(correlation):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match="^correlations must be real numbers, got dtype "):
            chsh_scan(correlation, 4)


def test_real_settings_of_every_real_dtype_are_read_as_floats():
    want = quantum_correlation(1.0, 0.0)
    for setting in (np.array([True]), np.array([1], np.uint8), np.array([1]), np.float32(1.0)):
        assert quantum_correlation(setting, 0.0) == pytest.approx(want, abs=1e-15)
        assert lhv_correlation(MODEL, 0.0, setting) == pytest.approx(-math.cos(1.0), abs=1e-15)


# Bases a pair can be stored in: the z bases, and rotated spin bases.
STORED_BASES = {
    "z": (PAIR_Z, PAIR_Z),
    "w-direction": (SPIN_W, direction_basis(0.7)),
    "directions": (direction_basis(2.1), direction_basis(-0.4)),
}
FRIEND_SETS = [(), (Friend.FBAR,), (Friend.F,), (Friend.FBAR, Friend.F)]


@st.composite
def stored_pairs(draw, real=False):
    """(state or record-kept density, its oracle density in the reference
    frame): random complex amplitudes, or real ones if ``real``, stored in
    one of STORED_BASES, with the records of one of FRIEND_SETS kept."""
    size = 4 if real else 8
    parts = draw(
        st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size).filter(
            lambda xs: sum(x * x for x in xs) > 1e-2
        )
    )
    bases = STORED_BASES[draw(st.sampled_from(sorted(STORED_BASES)))]
    friends = draw(st.sampled_from(FRIEND_SETS))
    amps = np.array(parts[:4], dtype=complex)
    if not real:
        amps.imag = parts[4:]
    amps /= np.linalg.norm(amps)
    state = make_state(amps, bases)
    stored = np.outer(amps, amps.conj())
    if friends:
        state = record_and_keep(state, friends).final_state
        for friend in friends:
            stored = oracles.dephase_matrix(stored, friend.system)
    change = np.kron(np.array(bases[0].vectors).T, np.array(bases[1].vectors).T)
    return state, change @ stored @ change.conj().T


@settings(max_examples=300, deadline=None)
@given(stored_pairs())
def test_the_closed_form_block_matches_the_oracle_and_the_born_rule(pair):
    from wignerfriend import bell

    state, rho = pair
    block = np.array(bell._correlation_block(state))
    assert np.max(np.abs(block - oracles.correlation_block(rho).ravel())) <= 1e-12
    quarter = math.pi / 2.0
    born = [_reference_correlation(state, a, b) for a in (0.0, quarter) for b in (0.0, quarter)]
    assert np.max(np.abs(block - born)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(stored_pairs(), st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
def test_array_settings_match_scalar_ones(pair, a, b):
    state, _ = pair
    scalar = quantum_correlation(a, b, state)
    assert quantum_correlation(np.array([a]), b, state)[0] == pytest.approx(scalar, abs=1e-12)
    assert quantum_correlation(a, np.array([[b]]), state)[0, 0] == pytest.approx(scalar, abs=1e-12)


# Laws on random inputs.


@st.composite
def zz_pairs(draw):
    """A random complex two-spin state in (PAIR_Z, PAIR_Z), then its
    record-kept density for each non-empty set of FRIEND_SETS."""
    parts = draw(
        st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(
            lambda xs: sum(x * x for x in xs) > 1e-2
        )
    )
    state = make_state(np.array(parts[:4]) + 1j * np.array(parts[4:]), (PAIR_Z, PAIR_Z))
    return [state] + [record_and_keep(state, friends).final_state for friends in FRIEND_SETS[1:]]


def _marginals(obj, alpha, beta):
    """(Alice's, Bob's) outcome marginals of ``obj`` measured along alpha
    and beta."""
    table = born_distribution(obj, (direction_basis(alpha), direction_basis(beta)))
    labels = ("plus_a", "minus_a")
    alice = [sum(table[(x, y)] for y in labels) for x in labels]
    bob = [sum(table[(x, y)] for x in labels) for y in labels]
    return alice, bob


angles = st.floats(-20.0, 20.0)


@settings(max_examples=200, deadline=None)
@given(zz_pairs(), angles, angles, angles)
def test_no_signalling_each_marginal_ignores_the_other_setting(objs, alpha, beta, other):
    for obj in objs:
        alice, bob = _marginals(obj, alpha, beta)
        alice_other, _ = _marginals(obj, alpha, other)
        _, bob_other = _marginals(obj, other, beta)
        assert np.max(np.abs(np.subtract(alice, alice_other))) <= 1e-12
        assert np.max(np.abs(np.subtract(bob, bob_other))) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(angles, min_size=4, max_size=4), angles)
def test_a_common_rotation_of_the_settings_leaves_the_singlets_s_unchanged(settings4, shift):
    # The singlet is rotation invariant: E(a, b) depends on a - b alone.
    turned = AngleQuad(*(x + shift for x in settings4))
    s = chsh(quantum_correlation, AngleQuad(*settings4))
    assert abs(chsh(quantum_correlation, turned) - s) <= 1e-12


def _swapped(obj):
    """The state or density ``obj`` with its two systems exchanged, bases
    and all, by the oracle's SWAP."""
    bases = obj.bases[::-1]
    if isinstance(obj, StateVector):
        return make_state(oracles.swap_systems(obj.amps), bases)
    return DensityOperator(bases, oracles.swap_systems(obj.matrix))


@settings(max_examples=200, deadline=None)
@given(stored_pairs(), angles, angles)
def test_swapping_the_two_systems_transposes_the_correlations(pair, alpha, beta):
    state, rho = pair
    want = oracles.correlation_block(rho).T
    assert np.max(np.abs(oracles.correlation_block(oracles.swap_systems(rho)) - want)) <= 1e-12
    got = quantum_correlation(alpha, beta, _swapped(state))
    assert abs(got - quantum_correlation(beta, alpha, state)) <= 1e-12


@st.composite
def lhv_models(draw):
    """A model of 1 to 4 configurations: random Bloch vectors of length at
    most 1 on both sides, under a random prior."""
    n = draw(st.integers(1, 4))
    bloch = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi)).map(
        lambda rt: (rt[0] * math.cos(rt[1]), rt[0] * math.sin(rt[1]))
    )
    vectors = draw(st.lists(st.tuples(bloch, bloch), min_size=n, max_size=n))
    weights = draw(
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(lambda w: sum(w) > 1e-3)
    )
    return LHVModel(tuple(vectors), tuple(w / sum(weights) for w in weights))


@settings(max_examples=200, deadline=None)
@given(lhv_models())
def test_a_local_model_never_exceeds_the_local_bound(model):
    assert chsh_scan(lambda a, b: lhv_correlation(model, a, b)).max_s <= 2.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(stored_pairs())
def test_a_state_or_kept_density_never_exceeds_tsirelsons_bound(pair):
    state, _ = pair
    assert chsh_scan(lambda a, b: quantum_correlation(a, b, state)).max_s <= TSIRELSON + 1e-12


@settings(max_examples=200, deadline=None)
@given(stored_pairs(), lhv_models())
def test_chsh_max_is_the_grid_checked_scans_maximum(pair, model):
    from wignerfriend import bell

    state, _ = pair
    for source, correlation in [
        (state, lambda a, b: quantum_correlation(a, b, state)),
        (model, lambda a, b: lhv_correlation(model, a, b)),
    ]:
        assert abs(chsh_max(source).max_s - chsh_scan(correlation, 20).max_s) <= 1e-12
    assert bell.born_rule_residual(chsh_max(state), state) <= bell.BILINEAR_TOL


def _unchecked_density(rows):
    """A density operator in (PAIR_Z, PAIR_Z) that skipped its checks."""
    fake = DensityOperator.__new__(DensityOperator)
    Frozen.__init__(fake, (PAIR_Z, PAIR_Z), [[complex(z) for z in row] for row in rows])
    return fake


@pytest.mark.parametrize(
    "rows",
    [
        # Not positive: t11 = 2 Re(rho03 + rho12) = 1.2.
        [[0.5, 0, 0, 0.6], [0, 0, 0, 0], [0, 0, 0, 0], [0.6, 0, 0, 0.5]],
        # t00 = -1 - 1e-9.
        [[0, 0, 0, 0], [0, 0.5 + 5e-10, 0, 0], [0, 0, 0.5 + 5e-10, 0], [0, 0, 0, -1e-9]],
        [[0.5, math.nan, 0, 0], [math.nan, 0.5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        # Every entry in bounds, but a trace of 1.1.
        [[0.6, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    ],
    ids=["entry-above-1", "entry-below-minus-1", "nan-entry", "trace-1.1"],
)
def test_a_block_that_is_not_a_states_raises(rows):
    from wignerfriend import bell

    fake = _unchecked_density(rows)
    with pytest.raises(InvariantViolation, match="is not a two-spin state's"):
        bell._correlation_block(fake)
    with pytest.raises(InvariantViolation, match="is not a two-spin state's"):
        quantum_correlation(GRID_12, 0.0, fake)


def test_blocks_are_read_on_every_call_and_build_nothing_in_the_z_bases(monkeypatch):
    from wignerfriend import bell

    assert not hasattr(bell, "CORRELATION_CACHE")
    assert not hasattr(bell._correlation_block, "cache_info")
    pure, _ = _case_state("pure-2")
    kept, _ = _case_state("kept-5")
    built = []
    for cls in (StateVector, DensityOperator):
        original = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, *a, _o=original: built.append(self) or _o(self, *a)
        )
    for state in (pure, kept):
        first = bell._correlation_block(state)
        assert bell._correlation_block(state) == first
        chsh_scan(lambda a, b: quantum_correlation(a, b, state), 12)
    erased_vs_kept_chsh(4)
    # erased_vs_kept_chsh builds only the kept density.
    assert [type(x) for x in built] == [DensityOperator]


@pytest.mark.parametrize("case", ["singlet", "kept-5"])
def test_scalar_correlations_at_fresh_angles_build_no_born_plan(case):
    from wignerfriend import qcore

    state, _ = _case_state(case)
    quantum_correlation(0.3, 1.1, state)
    misses = qcore._born_plan.cache_info().misses
    rng = np.random.default_rng(11)
    for a, b in rng.uniform(-10.0, 10.0, size=(300, 2)).tolist():
        quantum_correlation(a, b, state)
    assert qcore._born_plan.cache_info().misses == misses


def _horodecki_max(rho) -> float:
    """2 sqrt(lambda1 + lambda2), lambda1 >= lambda2 the two largest squared
    singular values of the full correlation matrix: the CHSH maximum over
    all settings (Horodecki criterion)."""
    sigma = np.linalg.svd(oracles.correlation_matrix(rho), compute_uv=False)
    return 2.0 * math.sqrt(sigma[0] ** 2 + sigma[1] ** 2)


@settings(max_examples=200, deadline=None)
@given(stored_pairs())
def test_the_planar_maximum_is_at_most_horodeckis(pair):
    state, rho = pair
    assert chsh_max(state).max_s <= _horodecki_max(rho) + 1e-12


@settings(max_examples=200, deadline=None)
@given(stored_pairs(real=True))
def test_the_planar_maximum_is_horodeckis_when_the_top_two_lie_in_the_plane(pair):
    state, rho = pair
    t = oracles.correlation_matrix(rho)
    # Real amplitudes leave T block-diagonal: the (z, x) block, then T_yy.
    assert np.max(np.abs([t[0, 2], t[1, 2], t[2, 0], t[2, 1]])) <= 1e-12
    assume(abs(t[2, 2]) <= np.linalg.svd(t[:2, :2], compute_uv=False)[1])
    assert abs(chsh_max(state).max_s - _horodecki_max(rho)) <= 1e-12


def test_a_complex_state_can_sit_strictly_below_horodeckis_maximum():
    # (|up,up> + i|down,down>)/sqrt2: its x-y correlation lies off the plane.
    state = make_state([INV, 0.0, 0.0, 1j * INV], (PAIR_Z, PAIR_Z))
    rho = np.outer(state.amps, state.amps.conj())
    assert chsh_max(state).max_s == pytest.approx(2.0, abs=1e-12)
    assert _horodecki_max(rho) == pytest.approx(TSIRELSON, abs=1e-12)
