import copy
import pickle
from itertools import combinations, product

import pytest

import oracles
from wignerfriend.epistemic import (
    Agent,
    AxiomSet,
    EpistemicStatement,
    backing_probabilities,
    builtin_statements,
    run_trace,
)
from wignerfriend.hardy import (
    CTX_WBAR_W,
    CTX_WBAR_Z,
    CTX_ZBAR_W,
    CTX_ZBAR_Z,
    chain_prediction,
    context_table,
    okbar_to_fail_chain,
)

STATEMENTS = {s.id: s for s in builtin_statements()}

EXPECTED_VERDICTS = {
    "Fbar_n02": "Counterfactual",
    "F_n12": "ContextValid",
    "F_n13": "Counterfactual-derived",
    "F_n14": "Counterfactual-derived",
    "Wbar_n22": "Counterfactual",
    "Wbar_n23": "Counterfactual-derived",
    "Wbar_n24": "Counterfactual-derived",
    "W_n26": "ContextValid",
    "W_n27": "Counterfactual-derived",
    "W_n28": "Counterfactual-derived",
}

COUNTERFACTUAL_IDS = frozenset(
    sid for sid, verdict in EXPECTED_VERDICTS.items() if verdict != "ContextValid"
)


def test_builtin_statement_verdicts():
    assert {sid: s.verdict for sid, s in STATEMENTS.items()} == EXPECTED_VERDICTS


def test_fbar_n02_lookup():
    s = STATEMENTS["Fbar_n02"]
    assert s.author is Agent.FBAR
    assert s.counterfactual
    assert s.assumed_context == CTX_ZBAR_W and s.actual_context == CTX_WBAR_W


def test_f_n12_lookup():
    s = STATEMENTS["F_n12"]
    assert s.author is Agent.F
    assert not s.counterfactual


def test_w_n28_has_the_backing_of_wbar_n24():
    w, wbar = STATEMENTS["W_n28"], STATEMENTS["Wbar_n24"]
    assert w.backing == wbar.backing == okbar_to_fail_chain()
    assert w.actual_context == wbar.actual_context


def test_classification_is_structural():
    same = EpistemicStatement("X", Agent.W, CTX_WBAR_W)
    assert not same.counterfactual
    assert STATEMENTS["Fbar_n02"].counterfactual
    assert STATEMENTS["Wbar_n22"].counterfactual
    assert {sid for sid, s in STATEMENTS.items() if s.counterfactual} == COUNTERFACTUAL_IDS


# The (assumed, actual) contexts each statement had when both were written
# out by hand.
PINNED_CONTEXTS = {
    "Fbar_n02": (CTX_ZBAR_W, CTX_WBAR_W),
    "F_n12": (CTX_ZBAR_Z, CTX_ZBAR_Z),
    "F_n13": (CTX_ZBAR_W, CTX_WBAR_W),
    "F_n14": (CTX_ZBAR_W, CTX_WBAR_W),
    "Wbar_n22": (CTX_WBAR_Z, CTX_WBAR_W),
    "Wbar_n23": (CTX_ZBAR_W, CTX_WBAR_W),
    "Wbar_n24": (CTX_ZBAR_W, CTX_WBAR_W),
    "W_n26": (CTX_WBAR_W, CTX_WBAR_W),
    "W_n27": (CTX_ZBAR_W, CTX_WBAR_W),
    "W_n28": (CTX_ZBAR_W, CTX_WBAR_W),
}


def test_assumed_contexts_are_the_pinned_ones():
    got = {sid: (s.assumed_context, s.actual_context) for sid, s in STATEMENTS.items()}
    assert got == PINNED_CONTEXTS
    flags = {sid: s.counterfactual for sid, s in STATEMENTS.items()}
    assert flags == {sid: assumed != actual for sid, (assumed, actual) in PINNED_CONTEXTS.items()}


def test_the_assumed_context_is_read_from_the_last_backing_rule():
    okbar_up, up_t, t_fail = okbar_to_fail_chain()
    for backing in ((up_t, okbar_up), (okbar_up, up_t), (t_fail, up_t), (up_t,)):
        s = EpistemicStatement("X", Agent.W, CTX_WBAR_W, backing=backing)
        assert s.assumed_context == backing[-1].context
    for actual in (CTX_ZBAR_Z, CTX_WBAR_Z):
        unbacked = EpistemicStatement("X", Agent.W, actual)
        assert unbacked.assumed_context == actual and not unbacked.counterfactual


def test_the_assumed_context_is_derived_not_a_field():
    assert "assumed_context" not in EpistemicStatement._fields
    assert "actual_context" in EpistemicStatement._fields
    for s in STATEMENTS.values():
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert twin == s and twin is not s
            assert twin.assumed_context == s.assumed_context
            assert twin.counterfactual == s.counterfactual


@pytest.mark.parametrize(
    "derived_from",
    [CTX_WBAR_W, ["F_n12"], ("F_n12", CTX_WBAR_W), "F_n12"],
    ids=["context", "list", "tuple-with-context", "string"],
)
def test_a_derived_from_that_is_not_a_tuple_of_ids_is_a_type_error(derived_from):
    with pytest.raises(TypeError, match="derived_from"):
        EpistemicStatement("X", Agent.W, CTX_WBAR_W, derived_from)


@pytest.mark.parametrize(
    "rest",
    [(CTX_WBAR_W,), (CTX_ZBAR_W, CTX_WBAR_W), (CTX_ZBAR_W, CTX_WBAR_W, ("F_n12",))],
    ids=["actual", "assumed-actual", "assumed-actual-parents"],
)
def test_the_old_positional_forms_fail_loudly(rest):
    # Old calls passed a proposition third, (id, author, proposition, actual)
    # or (id, author, proposition, assumed, actual): a context would land in
    # derived_from.
    with pytest.raises(TypeError, match="derived_from"):
        EpistemicStatement("X", Agent.F, "w = fail at n:31", *rest)


def test_every_backing_entry_is_a_zero_of_the_tables():
    for s in STATEMENTS.values():
        for backing in s.backing:
            assert context_table(backing.context)[backing.forbidden] <= 1e-15
        probs = backing_probabilities(s)
        assert all(p <= 1e-15 for p in probs.values())


def test_every_backing_is_a_link_of_the_chain():
    chain = okbar_to_fail_chain()
    for s in STATEMENTS.values():
        assert all(rule in chain for rule in s.backing), s.id


# The keys and values each statement's backing gave when the zeros were
# written out by hand, one (context, coin, spin) entry per zero.
_OKBAR_DOWN = ("Wbar,Z", "okbar", "down")
_H_UP = ("Zbar,Z", "h", "up")
_T_OK = ("Zbar,W", "t", "ok")
PINNED_BACKINGS = {
    "Fbar_n02": [_T_OK],
    "F_n12": [_H_UP],
    "F_n13": [_H_UP, _T_OK],
    "F_n14": [_H_UP, _T_OK],
    "Wbar_n22": [_OKBAR_DOWN],
    "Wbar_n23": [_OKBAR_DOWN, _H_UP, _T_OK],
    "Wbar_n24": [_OKBAR_DOWN, _H_UP, _T_OK],
    "W_n26": [],
    "W_n27": [_OKBAR_DOWN, _H_UP, _T_OK],
    "W_n28": [_OKBAR_DOWN, _H_UP, _T_OK],
}


def test_backing_probabilities_are_the_pinned_zeros():
    for sid, keys in PINNED_BACKINGS.items():
        probs = backing_probabilities(STATEMENTS[sid])
        assert list(probs.items()) == [(key, 0.0) for key in keys], sid


def test_fbar_n02_backing_is_the_tail_ok_zero():
    (backing,) = STATEMENTS["Fbar_n02"].backing
    assert backing.context == CTX_ZBAR_W and backing.forbidden == ("t", "ok")


def test_trace_with_everything_on_finds_the_contradiction():
    report = run_trace()
    assert report.contradiction
    assert report.witness.composed == 0.0
    assert report.witness.actual == pytest.approx(1 / 12, abs=1e-12)
    assert report.witness.outcome == ("okbar", "ok")
    assert set(report.minimal_counterfactual) == {"Fbar_n02", "Wbar_n22"}
    assert set(report.active) == set(STATEMENTS)
    assert report.witness == chain_prediction(okbar_to_fail_chain())


def test_trace_without_counterfactual_composition_is_consistent():
    report = run_trace(allow_counterfactual=False)
    assert not report.contradiction
    assert report.witness is None
    assert set(report.active) == {"F_n12", "W_n26"}
    assert report.minimal_counterfactual == ()


def test_trace_without_quantum_axiom_derives_nothing():
    report = run_trace(AxiomSet(Q=False))
    assert not report.contradiction
    assert report.active == ()


def test_trace_without_consistency_axiom_keeps_only_single_agent_statements():
    report = run_trace(AxiomSet(C=False))
    # the two root counterfactuals rest on Q alone, so the clash survives
    assert set(report.active) == {"Fbar_n02", "Wbar_n22"}
    assert report.contradiction


def test_trace_without_self_consistency_drops_the_final_statement():
    report = run_trace(AxiomSet(S=False))
    assert "W_n28" not in report.active
    assert set(report.active) == set(STATEMENTS) - {"W_n28"}


def test_contradiction_iff_a_counterfactual_statement_is_admitted():
    ids = tuple(STATEMENTS)
    for r in range(len(ids) + 1):
        for subset in combinations(ids, r):
            report = run_trace(admitted=subset)
            assert report.contradiction == bool(set(subset) & COUNTERFACTUAL_IDS)


def test_minimal_set_tracks_the_admitted_roots():
    # with the roots excluded, the earliest admitted counterfactuals take over
    report = run_trace(admitted=("F_n13", "F_n14", "W_n26"))
    assert report.contradiction
    assert set(report.minimal_counterfactual) == {"F_n13"}


def test_unknown_statement_ids_are_rejected():
    with pytest.raises(ValueError, match="unknown statement ids"):
        run_trace(admitted=("nope",))
    # named in the order given, from an iterator read once
    with pytest.raises(ValueError, match=r"unknown statement ids: \['x', 'a'\]"):
        run_trace(admitted=iter(("x", "F_n12", "a", "F_n12")))


def test_a_bare_string_as_admitted_is_a_type_error():
    # It would otherwise be read as one id per character.
    with pytest.raises(TypeError, match="admitted"):
        run_trace(admitted="Fbar_n02")


def test_the_story_table_of_the_oracle_is_the_builtin_story():
    got = tuple(
        (s.id, frozenset(s.axioms_used), s.counterfactual, s.derived_from)
        for s in builtin_statements()
    )
    assert got == tuple((sid, frozenset(used), cf, parents) for sid, used, cf, parents in oracles.STORY)


_AXIOM_STRINGS = tuple("".join(a for a, on in zip("QCS", bits) if on) for bits in product((1, 0), repeat=3))
_ALL_ADMITTED = (None,) + tuple(
    subset for r in range(len(oracles.STORY) + 1) for subset in combinations([s[0] for s in oracles.STORY], r)
)


@pytest.mark.parametrize("allow", [True, False])
@pytest.mark.parametrize("axioms", _AXIOM_STRINGS)
def test_the_trace_is_the_oracles_walk_on_every_input(axioms, allow):
    # Every axiom set, both allow values, all 1,024 subsets and None.
    assert len(_ALL_ADMITTED) == 1 + 2 ** len(oracles.STORY)
    axiom_set = AxiomSet(*(a in axioms for a in "QCS"))
    for admitted in _ALL_ADMITTED:
        report = run_trace(axiom_set, allow_counterfactual=allow, admitted=admitted)
        want = oracles.trace_walk(axioms, allow, admitted)
        assert report.active == want["active"], admitted
        assert report.contradiction is want["contradiction"], admitted
        assert report.minimal_counterfactual == want["minimal"], admitted
        if want["witness"] is None:
            assert report.witness is None, admitted
        else:
            w = report.witness
            context, outcome, composed, actual = want["witness"]
            assert (w.context.name, w.outcome, w.composed) == (context, outcome, composed)
            assert w.actual == pytest.approx(actual, abs=1e-12)


@pytest.mark.parametrize("subset", [(), ("F_n13", "F_n14", "W_n26"), ("W_n28", "Fbar_n02"), tuple(STATEMENTS)])
def test_admitted_is_read_once_in_any_iterable_form(subset):
    want = run_trace(admitted=subset)
    assert run_trace(admitted=iter(subset)) == want
    assert run_trace(admitted=(sid for sid in subset)) == want
    assert run_trace(admitted=subset + subset[::-1]) == want
    assert run_trace(admitted=list(subset)) == want
