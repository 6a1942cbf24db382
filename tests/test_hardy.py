import math

import numpy as np
import pytest

import oracles
from wignerfriend.hardy import (
    ALL_CONTEXTS,
    CTX_WBAR_W,
    CTX_WBAR_Z,
    CTX_ZBAR_W,
    CTX_ZBAR_Z,
    INFERENCE_TOL,
    ContradictionCertificate,
    InferenceRule,
    MeasurementContext,
    chain_prediction,
    check_inference,
    context_table,
    hardy_state,
    okbar_to_fail_chain,
)
from wignerfriend.qcore import COIN_WBAR, COIN_ZBAR, SPIN_W, SPIN_Z

# The state is invariant under swapping the two systems with the label
# identification below, which is why the (Wbar,Z) experiment mirrors (Zbar,W).
SPIN_TO_COIN = {"down": "t", "up": "h", "ok": "okbar", "fail": "failbar"}
COIN_TO_SPIN = {v: k for k, v in SPIN_TO_COIN.items()}


def test_state_amplitudes():
    s = hardy_state()
    assert np.allclose(s.amps, np.array([1, 0, 1, 1]) / math.sqrt(3), atol=1e-15)


def test_state_zbar_z_table():
    t = context_table(CTX_ZBAR_Z)
    assert t[("h", "down")] == pytest.approx(1 / 3, abs=1e-12)
    assert t[("t", "down")] == pytest.approx(1 / 3, abs=1e-12)
    assert t[("t", "up")] == pytest.approx(1 / 3, abs=1e-12)
    assert t[("h", "up")] <= 1e-15  # no head-and-up branch


def test_exactly_four_contexts_with_structural_equality():
    assert len(set(ALL_CONTEXTS)) == 4
    assert MeasurementContext(COIN_ZBAR, SPIN_Z) == CTX_ZBAR_Z
    assert MeasurementContext(COIN_WBAR, SPIN_W) == CTX_WBAR_W
    with pytest.raises(ValueError):
        MeasurementContext(SPIN_Z, SPIN_Z)


def test_context_tables_match_oracle_and_sum_to_one():
    for ctx in ALL_CONTEXTS:
        table = context_table(ctx)
        expected = oracles.born_table(ctx.name)
        assert sum(p for _, p in table.items()) == pytest.approx(1.0, abs=1e-12)
        for key, p in expected.items():
            assert table[key] == pytest.approx(p, abs=1e-12)


def test_wbar_z_table_frozen_values():
    t = context_table(CTX_WBAR_Z)
    assert t[("okbar", "down")] <= 1e-15
    assert t[("okbar", "up")] == pytest.approx(1 / 6, abs=1e-12)
    assert t[("failbar", "down")] == pytest.approx(2 / 3, abs=1e-12)
    assert t[("failbar", "up")] == pytest.approx(1 / 6, abs=1e-12)


def test_wbar_w_headline_probability():
    assert context_table(CTX_WBAR_W)[("okbar", "ok")] == pytest.approx(1 / 12, abs=1e-12)


def test_zero_set_structure_is_exactly_three_entries():
    zeros = []
    for ctx in ALL_CONTEXTS:
        for key, p in context_table(ctx).items():
            if p <= 1e-15:
                zeros.append((ctx.name, key))
            else:
                assert p > 1e-3  # every nonzero entry is macroscopic
    assert sorted(zeros) == [
        ("Wbar,Z", ("okbar", "down")),
        ("Zbar,W", ("t", "ok")),
        ("Zbar,Z", ("h", "up")),
    ]


def test_inference_ok_implies_head():
    assert check_inference(InferenceRule(CTX_ZBAR_W, "ok", "h"))


def test_inference_okbar_implies_up():
    assert check_inference(InferenceRule(CTX_WBAR_Z, "okbar", "up"))


def test_inference_fail_does_not_imply_tail():
    # P(h, fail) = 1/6 > 0 breaks it
    assert not check_inference(InferenceRule(CTX_ZBAR_W, "fail", "t"))


def test_inference_rejects_labels_outside_context():
    with pytest.raises(ValueError, match="outcome not in context"):
        InferenceRule(CTX_ZBAR_W, "okbar", "h")
    with pytest.raises(ValueError, match="outcome not in context"):
        InferenceRule(CTX_ZBAR_Z, "h", "t")  # same system twice


def test_swap_symmetry_of_tables():
    zw = context_table(CTX_ZBAR_W)
    wz = context_table(CTX_WBAR_Z)
    for (coin, spin), p in wz.items():
        mirrored = (SPIN_TO_COIN[spin], COIN_TO_SPIN[coin])
        assert p == pytest.approx(zw[mirrored], abs=1e-12)


def test_swap_symmetry_mirrors_the_two_inferences():
    rule = InferenceRule(CTX_ZBAR_W, "ok", "h")
    mirrored = InferenceRule(CTX_WBAR_Z, SPIN_TO_COIN["ok"], COIN_TO_SPIN["h"])
    assert mirrored == InferenceRule(CTX_WBAR_Z, "okbar", "up")
    assert check_inference(rule) and check_inference(mirrored)


def test_chain_certificate_is_valid():
    cert = chain_prediction(okbar_to_fail_chain())
    assert isinstance(cert, ContradictionCertificate)
    assert cert.composed_prediction == 0.0
    assert cert.actual == pytest.approx(1 / 12, abs=1e-12)
    assert cert.outcome == ("okbar", "ok")
    assert cert.context == CTX_WBAR_W
    assert cert.actual > INFERENCE_TOL


def test_single_rule_chain_is_sound():
    cert = chain_prediction([InferenceRule(CTX_ZBAR_W, "ok", "h")])
    # prediction matches the context: (t, ok) really has probability 0
    assert cert.outcome == ("t", "ok")
    assert cert.actual <= 1e-15


def test_empty_chain_is_broken():
    with pytest.raises(ValueError, match="broken chain"):
        chain_prediction([])


def test_non_composing_chain_is_broken():
    with pytest.raises(ValueError, match="broken chain"):
        chain_prediction(
            [InferenceRule(CTX_WBAR_Z, "okbar", "up"), InferenceRule(CTX_ZBAR_W, "t", "fail")]
        )


def test_chain_with_invalid_link_is_broken():
    with pytest.raises(ValueError, match="broken chain"):
        chain_prediction([InferenceRule(CTX_ZBAR_W, "fail", "t")])
