"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with -s to see them all)."""

import math

import numpy as np

import oracles
from wignerfriend import bell, bohm, epistemic, memory
from wignerfriend.hardy import (
    ALL_CONTEXTS,
    CTX_WBAR_W,
    CTX_WBAR_Z,
    CTX_ZBAR_W,
    CTX_ZBAR_Z,
    INFERENCE_TOL,
    chain_prediction,
    context_table,
    hardy_state,
    okbar_to_fail_chain,
)
from wignerfriend.memory import Friend
from wignerfriend.qcore import born_distribution

TSIRELSON = 2.0 * math.sqrt(2.0)


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed {detail}"


def test_criterion_01_port_basis_probability():
    p = born_distribution(hardy_state(), CTX_WBAR_W.bases)[("okbar", "ok")]
    check(1, "P(okbar, ok) = 1/12", abs(p - 1 / 12) <= 1e-12, f"got {p!r}")


def test_criterion_02_zero_set():
    zeros = {
        "P(t, ok)": context_table(CTX_ZBAR_W)[("t", "ok")],
        "P(okbar, down)": context_table(CTX_WBAR_Z)[("okbar", "down")],
        "P(h, up)": context_table(CTX_ZBAR_Z)[("h", "up")],
    }
    check(2, "zero set vanishes", all(p <= 1e-15 for p in zeros.values()), f"got {zeros}")


def test_criterion_03_contradiction_certificate():
    cert = chain_prediction(okbar_to_fail_chain())
    ok = (
        cert.composed == 0.0
        and abs(cert.actual - 1 / 12) <= 1e-12
        and cert.actual > INFERENCE_TOL
    )
    check(3, "chained prediction 0 vs actual 1/12", ok, f"actual {cert.actual!r}")


def test_criterion_04_equivariance():
    born = context_table(CTX_WBAR_W)
    worst = 0.0
    for foliation in (bohm.FOLIATION_F, bohm.FOLIATION_FPRIME):
        for coupling in (bohm.MONOTONE, bohm.INDEPENDENT):
            marginal = bohm.evolve(foliation, coupling).final_marginal()
            for key, p in born.items():
                worst = max(worst, abs(marginal.get(key, 0.0) - p))
    check(4, "equivariance for both foliations and couplings", worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_05_foliation_dependent_origins():
    origin_f = bohm.origin_of(bohm.evolve(bohm.FOLIATION_F, bohm.MONOTONE), ("okbar", "ok"))
    origin_fp = bohm.origin_of(
        bohm.evolve(bohm.FOLIATION_FPRIME, bohm.MONOTONE), ("okbar", "ok")
    )
    ok = origin_f == {bohm.HiddenConfig("h", "down"): 1.0} and origin_fp == {
        bohm.HiddenConfig("t", "up"): 1.0
    }
    check(5, "origins (h,down) under F vs (t,up) under F'", ok, f"{origin_f} / {origin_fp}")


def test_criterion_06_path_weights_against_brute_force_oracle():
    ts = bohm.evolve(bohm.FOLIATION_F, bohm.MONOTONE)
    got = {
        ((p.initial.coin, p.initial.spin), tuple((t.system, t.source, t.target) for t in p.events), p.final): p.weight
        for p in ts.paths
    }
    expected = {
        (r["initial"], r["transitions"], r["final"]): r["weight"]
        for r in oracles.enumerate_paths(("spin", "coin"), "monotone")
    }
    same_paths = set(got) == set(expected)
    worst = max(abs(got[k] - expected[k]) for k in expected) if same_paths else float("inf")
    from_h_down = [w for (init, _, _), w in got.items() if init == ("h", "down")]
    fail_total = sum(w for (_, _, final), w in got.items() if final == ("failbar", "fail"))
    ok = (
        same_paths
        and worst <= 1e-12
        and len(from_h_down) == 4
        and all(abs(w - 1 / 12) <= 1e-12 for w in from_h_down)
        and abs(fail_total - 3 / 4) <= 1e-12
    )
    check(6, "F-path weights match the enumeration oracle", ok, f"worst {worst:.2e}")


def test_criterion_07_memory_protocols():
    state = hardy_state()
    run = memory.record_and_erase(state, Friend.F, state.bases[1])
    run = memory.record_and_erase(run.final_state, Friend.FBAR, state.bases[0])
    erased_ok = all(
        abs(run.tables()[ctx.name][key] - p) <= 1e-12
        for ctx in ALL_CONTEXTS
        for key, p in context_table(ctx).items()
    )
    both = memory.record_and_keep(state, (Friend.F, Friend.FBAR)).tables()["Wbar,W"]
    uniform_ok = all(abs(p - 1 / 4) <= 1e-12 for p in both.probs.values())
    f_only = memory.record_and_keep(state, (Friend.F,)).tables()["Wbar,W"]
    f_ok = abs(f_only[("failbar", "fail")] - 5 / 12) <= 1e-12
    check(7, "erasure pristine; kept records 1/4 and 5/12", erased_ok and uniform_ok and f_ok)


def test_criterion_08_epistemic_trace():
    with_comp = epistemic.run_trace()
    without = epistemic.run_trace(allow_counterfactual=False)
    ok = (
        with_comp.contradiction
        and with_comp.witness.composed == 0.0
        and abs(with_comp.witness.actual - 1 / 12) <= 1e-12
        and not without.contradiction
    )
    check(8, "contradiction iff counterfactual composition", ok)


def test_criterion_09_chsh():
    s_quantum = bell.chsh(bell.quantum_correlation, bell.OPTIMAL_QUAD)
    model = bell.observer_independent_facts_model()
    scan = bell.chsh_scan(lambda a, b: bell.lhv_correlation(model, a, b), grid_n=20)
    kept = memory.record_and_keep(bell.singlet(), (Friend.F, Friend.FBAR)).final_state
    grid = np.linspace(0.0, 2 * math.pi, 10, endpoint=False)
    gap = max(
        abs(bell.quantum_correlation(a, b, kept) + math.cos(a) * math.cos(b))
        for a in grid
        for b in grid
    )
    ok = (
        abs(s_quantum - TSIRELSON) <= 1e-9
        and scan.max_s <= 2.0 + 1e-9
        and gap <= 1e-12
    )
    check(
        9,
        "quantum 2*sqrt2, local bound 2, dephased = -cos*cos",
        ok,
        f"S={s_quantum!r}, lhv_max={scan.max_s!r}, gap={gap:.2e}",
    )


def test_criterion_10_monte_carlo_consistency():
    n = 10**6
    worst_z = 0.0
    for foliation in (bohm.FOLIATION_F, bohm.FOLIATION_FPRIME):
        counts = bohm.sample_paths(foliation, bohm.MONOTONE, samples=n, seed=0)
        for path in bohm.evolve(foliation, bohm.MONOTONE).paths:
            got = counts.get(path.signature, 0) / n
            sigma = math.sqrt(path.weight * (1 - path.weight) / n)
            worst_z = max(worst_z, abs(got - path.weight) / sigma)
    check(10, "seeded 1e6-run sampling within 4 sigma", worst_z <= 4.0, f"worst z {worst_z:.2f}")
