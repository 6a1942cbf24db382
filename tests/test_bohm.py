import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from wignerfriend.bohm import (
    BRANCH_RANK,
    FOLIATION_F,
    FOLIATION_FPRIME,
    INDEPENDENT,
    MONOTONE,
    Foliation,
    HiddenConfig,
    binomial,
    compare_foliations,
    conditional_wave,
    evolve,
    initial_distribution,
    origin_of,
    sample_paths,
)
from wignerfriend.cli import MAX_SAMPLES
from wignerfriend.hardy import CTX_WBAR_W, CTX_ZBAR_Z, context_table, hardy_state
from wignerfriend.qcore import COIN_WBAR, COIN_ZBAR, SPIN_W, SPIN_Z, make_state

INV = 2.0 ** -0.5

ALL_COUPLINGS = (MONOTONE, INDEPENDENT)
ALL_FOLIATIONS = (FOLIATION_F, FOLIATION_FPRIME)


def test_initial_distribution():
    dist = initial_distribution()
    assert dist[HiddenConfig("h", "down")] == pytest.approx(1 / 3, abs=1e-12)
    assert dist[HiddenConfig("t", "down")] == pytest.approx(1 / 3, abs=1e-12)
    assert dist[HiddenConfig("t", "up")] == pytest.approx(1 / 3, abs=1e-12)
    assert dist[HiddenConfig("h", "up")] <= 1e-15
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_conditional_wave_given_head_is_down():
    cond = conditional_wave(hardy_state(), 0, "h")
    assert np.allclose(cond.amps, [1, 0], atol=1e-15)


def test_conditional_wave_given_tail_is_fail():
    cond = conditional_wave(hardy_state(), 0, "t")
    assert np.allclose(cond.amps, [INV, INV], atol=1e-13)


def test_conditional_wave_given_up_is_tail():
    cond = conditional_wave(hardy_state(), 1, "up")
    assert np.allclose(cond.amps, [0, 1], atol=1e-15)


amp_parts = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
complex_amps = st.lists(st.tuples(amp_parts, amp_parts), min_size=4, max_size=4).map(
    lambda parts: np.array([complex(re, im) for re, im in parts])
)


@settings(max_examples=200, deadline=None)
@given(
    complex_amps,
    st.sampled_from([(COIN_ZBAR, SPIN_Z), (COIN_WBAR, SPIN_W), (COIN_ZBAR, SPIN_W)]),
    st.integers(0, 1),
    st.integers(0, 1),
)
def test_conditional_wave_is_the_normalised_slice_of_a_complex_state(amps, frame, system, index):
    assume(np.linalg.norm(amps.reshape(2, 2).take(index, axis=system)) > 1e-3)
    state = make_state(amps, frame)
    cond = conditional_wave(state, system, frame[system].label_names[index])
    assert cond.bases == (frame[1 - system],)
    want = oracles.conditional_slice(state.amps, system, index)
    assert np.max(np.abs(cond.amps - want)) <= 1e-12


def test_conditional_wave_empty_branch():
    product = make_state([1, 0, 0, 0], (COIN_ZBAR, SPIN_Z))
    with pytest.raises(ValueError, match="empty conditional"):
        conditional_wave(product, 0, "t")


def _as_oracle_key(path):
    transitions = tuple((t.system, t.source, t.target) for t in path.events)
    return ((path.initial.coin, path.initial.spin), transitions, path.final)


@pytest.mark.parametrize("foliation", ALL_FOLIATIONS)
@pytest.mark.parametrize("coupling", ALL_COUPLINGS)
def test_evolve_matches_independent_path_oracle(foliation, coupling):
    order = tuple(basis.system.value for basis in foliation.ordering)
    expected = {
        ((r["initial"]), r["transitions"], r["final"]): r["weight"]
        for r in oracles.enumerate_paths(order, coupling.kind.value)
    }
    ts = evolve(foliation, coupling)
    got = {_as_oracle_key(p): p.weight for p in ts.paths}
    assert set(got) == set(expected)
    for key, w in expected.items():
        assert got[key] == pytest.approx(w, abs=1e-12)


def test_evolve_f_monotone_frozen_weights():
    ts = evolve(FOLIATION_F, MONOTONE)
    by_init_final = {}
    for p in ts.paths:
        key = ((p.initial.coin, p.initial.spin), p.final)
        by_init_final[key] = by_init_final.get(key, 0.0) + p.weight
    for final in (("okbar", "ok"), ("failbar", "ok"), ("okbar", "fail"), ("failbar", "fail")):
        assert by_init_final[(("h", "down"), final)] == pytest.approx(1 / 12, abs=1e-12)
    assert by_init_final[(("t", "down"), ("failbar", "fail"))] == pytest.approx(1 / 3, abs=1e-12)
    assert by_init_final[(("t", "up"), ("failbar", "fail"))] == pytest.approx(1 / 3, abs=1e-12)
    assert ts.final_marginal()[("failbar", "fail")] == pytest.approx(3 / 4, abs=1e-12)


def test_evolve_fprime_monotone_ok_paths_start_at_tail_up():
    ts = evolve(FOLIATION_FPRIME, MONOTONE)
    assert origin_of(ts, ("okbar", "ok")) == {HiddenConfig("t", "up"): 1.0}
    assert origin_of(ts, ("failbar", "ok")) == {HiddenConfig("t", "up"): 1.0}


@pytest.mark.parametrize("foliation", ALL_FOLIATIONS)
@pytest.mark.parametrize("coupling", ALL_COUPLINGS)
def test_equivariance_of_two_event_experiment(foliation, coupling):
    marginal = evolve(foliation, coupling).final_marginal()
    born = context_table(CTX_WBAR_W)
    for key, p in born.items():
        assert marginal.get(key, 0.0) == pytest.approx(p, abs=1e-12)


def test_initial_distribution_is_the_zbar_z_table():
    # (Zbar, Z): no beam splitter at all, the initial distribution is the table
    init = {(c.coin, c.spin): p for c, p in initial_distribution().items()}
    for key, p in context_table(CTX_ZBAR_Z).items():
        assert init[key] == pytest.approx(p, abs=1e-12)


def test_origin_of_f_monotone():
    ts = evolve(FOLIATION_F, MONOTONE)
    assert origin_of(ts, ("okbar", "ok")) == {HiddenConfig("h", "down"): 1.0}
    fail_origin = origin_of(ts, ("failbar", "fail"))
    assert fail_origin[HiddenConfig("h", "down")] == pytest.approx(1 / 9, abs=1e-12)
    assert fail_origin[HiddenConfig("t", "down")] == pytest.approx(4 / 9, abs=1e-12)
    assert fail_origin[HiddenConfig("t", "up")] == pytest.approx(4 / 9, abs=1e-12)


def test_origin_of_unreached_outcome():
    ts = evolve(FOLIATION_F)
    with pytest.raises(ValueError, match="unreached outcome"):
        origin_of(ts, ("t", "ok"))


@pytest.mark.parametrize("coupling", ALL_COUPLINGS)
def test_foliation_dependence_of_origins(coupling):
    f = origin_of(evolve(FOLIATION_F, coupling), ("okbar", "ok"))
    fprime = origin_of(evolve(FOLIATION_FPRIME, coupling), ("okbar", "ok"))
    assert f == {HiddenConfig("h", "down"): 1.0}
    assert fprime == {HiddenConfig("t", "up"): 1.0}
    assert f != fprime


@pytest.mark.parametrize("coupling", ALL_COUPLINGS)
def test_compare_foliations_report(coupling):
    report = compare_foliations(coupling)
    assert report.origin_differs[("okbar", "ok")]
    assert report.marginals_identical
    assert report.born_identical


def test_total_weight_one_everywhere():
    sets = [evolve(f, c) for f in ALL_FOLIATIONS for c in ALL_COUPLINGS]
    for ts in sets:
        assert sum(p.weight for p in ts.paths) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "ordering",
    [(SPIN_W, SPIN_W), (SPIN_Z, COIN_ZBAR), (COIN_WBAR,), (SPIN_W, COIN_WBAR, SPIN_W)],
    ids=["repeated", "other-context", "one", "three"],
)
def test_foliation_orders_the_two_bases_of_the_final_context(ordering):
    with pytest.raises(ValueError, match="permute the two measurement events"):
        Foliation("bad", ordering)


# F fires the spin's W detection first, Fprime the coin's Wbar one.
@pytest.mark.parametrize(
    "foliation, systems",
    [(FOLIATION_F, ["spin", "coin"]), (FOLIATION_FPRIME, ["coin", "spin"])],
    ids=["F", "Fprime"],
)
@pytest.mark.parametrize("coupling", ALL_COUPLINGS, ids=lambda c: c.kind.value)
def test_each_path_steps_in_the_order_of_its_foliation(foliation, systems, coupling):
    for path in evolve(foliation, coupling).paths:
        assert [t.system for t in path.events] == systems
        assert all(t.target in b.label_names for t, b in zip(path.events, foliation.ordering))


def test_trajectory_set_rejects_broken_weights():
    from wignerfriend.bohm import TrajectoryPath, TrajectorySet, Transition
    from wignerfriend.qcore import InvariantViolation

    path = TrajectoryPath(
        HiddenConfig("h", "down"),
        (Transition("spin", "down", "ok"),),
        ("h", "ok"),
        0.5,
    )
    with pytest.raises(InvariantViolation):
        TrajectorySet(FOLIATION_F, MONOTONE, (path,))


def test_trajectory_set_rejects_a_nan_weight():
    from wignerfriend.bohm import TrajectoryPath, TrajectorySet
    from wignerfriend.qcore import InvariantViolation

    ts = evolve(FOLIATION_F)
    p = ts.paths[0]
    path = TrajectoryPath(p.initial, p.events, p.final, math.nan)
    with pytest.raises(InvariantViolation):
        TrajectorySet(ts.foliation, ts.coupling, (path,))


masses = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


@given(masses, masses)
def test_coupling_reproduces_both_marginals(p_in, p_out):
    input_dist = {"h": p_in, "t": 1.0 - p_in}
    output_dist = {"okbar": p_out, "failbar": 1.0 - p_out}
    for coupling in ALL_COUPLINGS:
        joint = coupling.joint(input_dist, output_dist)
        for label, p in input_dist.items():
            assert sum(v for (i, _), v in joint.items() if i == label) == pytest.approx(
                p, abs=1e-12
            )
        for label, p in output_dist.items():
            assert sum(v for (_, o), v in joint.items() if o == label) == pytest.approx(
                p, abs=1e-12
            )


# (input, output) marginals with a NaN mass on one side.
NAN_MARGINALS = {
    "input": ({"h": math.nan, "t": 1.0}, {"okbar": 0.5, "failbar": 0.5}),
    "output": ({"h": 0.5, "t": 0.5}, {"okbar": math.nan, "failbar": 1.0}),
}


@pytest.mark.parametrize("coupling", ALL_COUPLINGS, ids=["monotone", "independent"])
@pytest.mark.parametrize("side", sorted(NAN_MARGINALS))
def test_coupling_rejects_a_nan_marginal(coupling, side):
    from wignerfriend.qcore import InvariantViolation

    with pytest.raises(InvariantViolation):
        coupling.joint(*NAN_MARGINALS[side])


def test_coupling_marginal_check_rejects_a_nan_joint():
    from wignerfriend.bohm import TransportCoupling
    from wignerfriend.qcore import InvariantViolation

    with pytest.raises(InvariantViolation, match="input marginal broken"):
        TransportCoupling._check_marginals({("h", "ok"): math.nan}, {"h": 1.0}, {"ok": 1.0})


@given(masses, masses)
def test_monotone_coupling_never_crosses(p_in, p_out):
    input_dist = {"up": p_in, "down": 1.0 - p_in}
    output_dist = {"ok": p_out, "fail": 1.0 - p_out}
    joint = MONOTONE.joint(input_dist, output_dist)
    support = [(BRANCH_RANK[i], BRANCH_RANK[o]) for (i, o), v in joint.items() if v > 1e-12]
    for ri, ro in support:
        for rj, rp in support:
            if ri < rj:
                assert ro <= rp  # lower-ranked input never maps above a higher one


@given(masses, masses)
def test_monotone_matches_interval_overlap_oracle(p_in, p_out):
    input_dist = {"h": p_in, "t": 1.0 - p_in}
    output_dist = {"ok": p_out, "fail": 1.0 - p_out}
    expected = oracles.quantile_joint(input_dist, output_dist)
    got = MONOTONE.joint(input_dist, output_dist)
    keys = set(expected) | set(got)
    for key in keys:
        assert got.get(key, 0.0) == pytest.approx(expected.get(key, 0.0), abs=1e-12)


def test_sampler_is_deterministic_given_seed():
    a = sample_paths(FOLIATION_F, MONOTONE, samples=20_000, seed=11)
    b = sample_paths(FOLIATION_F, MONOTONE, samples=20_000, seed=11)
    assert a == b
    c = sample_paths(FOLIATION_F, MONOTONE, samples=20_000, seed=12)
    assert a != c


@pytest.mark.parametrize("foliation", ALL_FOLIATIONS)
def test_sampler_tracks_enumerated_weights(foliation):
    n = 200_000
    counts = sample_paths(foliation, MONOTONE, samples=n, seed=3)
    ts = evolve(foliation, MONOTONE)
    assert sum(counts.values()) == n
    for p in ts.paths:
        got = counts.get(p.signature, 0) / n
        sigma = (p.weight * (1 - p.weight) / n) ** 0.5
        assert abs(got - p.weight) <= 4 * sigma


@pytest.mark.parametrize("coupling", ALL_COUPLINGS)
@pytest.mark.parametrize("foliation", ALL_FOLIATIONS)
@pytest.mark.parametrize("samples", [0, 1, 7, 10**3, 10**6])
def test_sampler_walks_the_same_splits_as_regrouping_every_call(foliation, coupling, samples):
    paths = evolve(foliation, coupling).paths
    for seed in (0, 1, 11, 2026):
        expected = oracles.sample_paths_per_call(paths, samples, random.Random(seed), binomial)
        got = sample_paths(foliation, coupling, samples=samples, seed=seed)
        assert list(got.items()) == list(expected.items())


@pytest.mark.parametrize("coupling", ALL_COUPLINGS, ids=["monotone", "independent"])
@pytest.mark.parametrize("foliation", ALL_FOLIATIONS, ids=["F", "Fprime"])
def test_branches_bucket_paths_by_their_step_at_each_depth(foliation, coupling):
    from wignerfriend import bohm

    def step(p, depth):
        return p.initial if depth == 0 else p.events[depth - 1]

    groups = [(list(evolve(foliation, coupling).paths), 0)]
    seen = 0
    while groups:
        group, depth = groups.pop()
        buckets = bohm.branches(group, depth)
        # Keys in order of first appearance; each bucket keeps the group's order.
        assert list(buckets) == list(dict.fromkeys(step(p, depth) for p in group))
        for key, bucket in buckets.items():
            assert bucket == [p for p in group if step(p, depth) == key]
            if len(bucket) > 1:
                groups.append((bucket, depth + 1))
        seen += 1
    assert seen > 1


def test_sampler_builds_each_split_tree_once_in_a_bounded_cache():
    from wignerfriend import bohm

    assert 0 < bohm._split_tree.cache_info().maxsize < math.inf
    sample_paths(FOLIATION_F, INDEPENDENT, samples=10, seed=1)
    before = bohm._split_tree.cache_info()
    sample_paths(FOLIATION_F, INDEPENDENT, samples=10, seed=2)
    after = bohm._split_tree.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize("samples", [2.5, 1000.7, True, "10", None], ids=repr)
def test_sampler_refuses_a_count_that_is_not_an_integer(samples):
    with pytest.raises(TypeError, match="^samples must be an integer"):
        sample_paths(FOLIATION_F, samples=samples, seed=1)


def test_sampler_refuses_a_negative_count():
    with pytest.raises(ValueError, match="^samples must be >= 0, got -1$"):
        sample_paths(FOLIATION_F, samples=-1, seed=1)


def test_sampler_reads_any_integer_type_and_counts_in_python_ints():
    want = sample_paths(FOLIATION_F, samples=1000, seed=1)
    got = sample_paths(FOLIATION_F, samples=np.int64(1000), seed=1)
    assert got == want and sum(got.values()) == 1000
    assert {type(k) for k in got.values()} == {int}
    assert sample_paths(FOLIATION_F, samples=np.int64(0), seed=1) == {}


@pytest.mark.parametrize("n", [2.5, True, np.float64(3.0)], ids=repr)
def test_binomial_refuses_an_n_that_is_not_an_integer(n):
    with pytest.raises(TypeError, match="^n must be an integer"):
        binomial(random.Random(0), n, 0.3)


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_binomial_draws_python_ints_from_any_integer_type(p):
    want = binomial(random.Random(4), 1000, p)
    got = binomial(random.Random(4), np.int64(1000), p)
    assert got == want and type(got) is int


def _chi_square_passes(draws: list[int], n: int, p: float) -> bool:
    """Pearson's chi-square of the draws against the exact pmf, below its
    1e-6 upper quantile.  Bins are runs of k that each expect at least 20
    draws; the mass beyond 12 standard deviations joins the end bins."""
    sd = math.sqrt(n * p * (1.0 - p))
    lo, hi = max(0, math.floor(n * p - 12 * sd)), min(n, math.ceil(n * p + 12 * sd))
    bins: list[list[int]] = [[]]  # each bin: the k it holds
    expected = [0.0]
    for k in range(lo, hi + 1):
        if expected[-1] >= 20.0:
            bins.append([])
            expected.append(0.0)
        bins[-1].append(k)
        expected[-1] += len(draws) * oracles.binomial_pmf(k, n, p)
    if expected[-1] < 20.0:
        tail, tail_expected = bins.pop(), expected.pop()
        bins[-1] += tail
        expected[-1] += tail_expected
    where = {k: i for i, ks in enumerate(bins) for k in ks}
    observed = [0] * len(bins)
    for x in draws:
        observed[where[min(max(x, lo), hi)]] += 1
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    # Wilson-Hilferty: the chi-square quantile from the normal one, z = 4.753.
    df = len(bins) - 1
    critical = df * (1.0 - 2.0 / (9 * df) + 4.753 * math.sqrt(2.0 / (9 * df))) ** 3
    return df >= 1 and chi2 <= critical


@pytest.mark.parametrize(
    "n, p",
    [(20, 0.01), (30, 0.3), (30, 0.7), (1000, 0.5), (10**6, 1 / 12)],
    ids=["inversion-20", "inversion-30", "inversion-mirrored", "btrs-1000", "btrs-1e6"],
)
def test_binomial_draws_follow_the_exact_pmf(n, p):
    rng = random.Random(20_260)
    draws = [binomial(rng, n, p) for _ in range(20_000)]
    assert all(0 <= x <= n for x in draws)
    assert _chi_square_passes(draws, n, p)


class _CountingRandom(random.Random):
    uniforms = 0

    def random(self) -> float:
        self.uniforms += 1
        return super().random()


def test_binomial_edges():
    rng = _CountingRandom(5)
    assert [binomial(rng, 0, 0.3), binomial(rng, 0, 1.0), binomial(rng, 7, 0.0)] == [0, 0, 0]
    assert binomial(rng, 7, 1.0) == 7
    assert rng.uniforms == 0
    for p in (math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)):
        draws = [binomial(rng, 1000, p) for _ in range(2000)]
        assert all(0 <= x <= 1000 for x in draws)
        assert abs(sum(draws) / len(draws) - 500.0) <= 5 * math.sqrt(250.0 / len(draws))
    # The largest count the CLI accepts: every draw stays in [0, n] and takes
    # a few uniforms at most, whatever the branch.
    n = MAX_SAMPLES
    for p in (1e-19, 1 / 12, 0.5, 1.0 - 2.0**-53, 5e-324):
        rng.uniforms = 0
        draws = [binomial(rng, n, p) for _ in range(100)]
        assert all(0 <= x <= n for x in draws)
        assert rng.uniforms <= 2_000
    for n, p in ((-1, 0.5), (3, -0.1), (3, 1.5), (3, math.nan)):
        with pytest.raises(ValueError):
            binomial(rng, n, p)


@pytest.mark.parametrize("coupling", ALL_COUPLINGS)
@pytest.mark.parametrize("foliation", ALL_FOLIATIONS)
def test_evolve_is_memoized_and_returns_equal_frozen_sets(foliation, coupling):
    assert 0 < evolve.cache_info().maxsize < math.inf
    first = evolve(foliation, coupling)
    assert evolve(foliation, coupling) is first
    assert evolve.__wrapped__(foliation, coupling) == first
    with pytest.raises(AttributeError, match="cannot assign to field"):
        first.paths = ()
    with pytest.raises(AttributeError, match="cannot assign to field"):
        first.paths[0].weight = 1.0
