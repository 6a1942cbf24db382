import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from wignerfriend.qcore import (
    BASIS_CHANGE_CACHE,
    COIN_WBAR,
    COIN_ZBAR,
    SPIN_W,
    SPIN_Z,
    Basis,
    System,
    direction_basis,
)

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


def test_a_context_is_a_coin_basis_and_a_spin_basis_with_no_shared_label():
    with pytest.raises(ValueError, match="^outcome not in context: Z is not a coin basis$"):
        MeasurementContext(SPIN_Z, SPIN_W)
    with pytest.raises(ValueError, match="^outcome not in context: Wbar is not a spin basis$"):
        MeasurementContext(COIN_ZBAR, COIN_WBAR)
    # A name must identify its system, or a rule could not tell premise from
    # conclusion.
    coin = Basis("Zbar'", System.COIN, ("up", "t"), COIN_ZBAR.vectors)
    with pytest.raises(ValueError, match="^outcome not in context: 'up' labels both systems$"):
        MeasurementContext(coin, SPIN_Z)
    table = context_table(MeasurementContext(coin, SPIN_W))
    assert table[("up", "ok")] == pytest.approx(1 / 6, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([COIN_ZBAR, COIN_WBAR]),
    st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False, allow_infinity=False),
)
def test_a_direction_basis_opens_a_context_whose_table_matches_the_oracle(coin, angle):
    table = context_table(MeasurementContext(coin, direction_basis(angle)))
    expected = oracles.born_table_along(coin.labels, angle)
    assert set(table.probs) == set(expected)
    for key, p in expected.items():
        assert abs(table[key] - p) <= 1e-12
    info = context_table.cache_info()
    assert info.maxsize == BASIS_CHANGE_CACHE and info.currsize <= BASIS_CHANGE_CACHE


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
    assert cert.composed == 0.0
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


def test_a_link_joins_one_outcome_not_one_name():
    # Both direction bases name their ports plus_a and minus_a; at pi,
    # plus_a is up, and at 3pi/2 it is ok.
    up_at, ok_at = direction_basis(math.pi), direction_basis(1.5 * math.pi)
    chain = [
        InferenceRule(MeasurementContext(COIN_WBAR, up_at), "okbar", "plus_a"),
        InferenceRule(MeasurementContext(COIN_ZBAR, ok_at), "plus_a", "h"),
        InferenceRule(MeasurementContext(COIN_ZBAR, up_at), "h", "minus_a"),
    ]
    assert all(check_inference(rule) for rule in chain)
    with pytest.raises(ValueError, match="broken chain"):
        chain_prediction(chain)


def test_chain_with_invalid_link_is_broken():
    with pytest.raises(ValueError, match="broken chain"):
        chain_prediction([InferenceRule(CTX_ZBAR_W, "fail", "t")])


def _all_rules() -> list[InferenceRule]:
    """Every rule over the four contexts: a premise label and a conclusion
    label on different systems."""
    rules = []
    for ctx in ALL_CONTEXTS:
        for p_sys, c_sys in ((0, 1), (1, 0)):
            for premise in ctx.bases[p_sys].labels:
                for conclusion in ctx.bases[c_sys].labels:
                    rules.append(InferenceRule(ctx, premise, conclusion))
    return rules


def _premise_and_not_conclusion(rule: InferenceRule) -> float:
    """The reference: P(premise and not conclusion), summed over the table."""
    p_sys = 0 if rule.premise in rule.context.coin_basis.labels else 1
    return sum(
        p
        for key, p in context_table(rule.context).items()
        if key[p_sys] == rule.premise and key[1 - p_sys] != rule.conclusion
    )


def test_check_inference_is_the_summed_table_on_every_rule():
    rules = _all_rules()
    assert len(set(rules)) == 32
    valid = []
    for rule in rules:
        mass = _premise_and_not_conclusion(rule)
        assert context_table(rule.context)[rule.forbidden] == mass
        assert check_inference(rule) == (mass < INFERENCE_TOL)
        if check_inference(rule):
            valid.append(rule)
    # Three zeros, each read forwards and as its contrapositive.
    assert len(valid) == 6 and set(okbar_to_fail_chain()) <= set(valid)


def test_a_rules_forbidden_outcome_is_derived_not_a_field():
    assert InferenceRule._fields == ("context", "premise", "conclusion")
    rule = InferenceRule(CTX_ZBAR_Z, "up", "t")
    assert rule.forbidden == ("h", "up")
    for twin in (copy.copy(rule), copy.deepcopy(rule), pickle.loads(pickle.dumps(rule))):
        assert twin == rule and twin.forbidden == ("h", "up")
