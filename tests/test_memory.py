import numpy as np
import pytest

import oracles
from wignerfriend.hardy import ALL_CONTEXTS, CTX_WBAR_W, context_table, hardy_state
from wignerfriend.memory import Friend, record_and_erase, record_and_keep
from wignerfriend.qcore import (
    COIN_ZBAR,
    SPIN_W,
    SPIN_Z,
    DensityOperator,
    Frozen,
    InvariantViolation,
    StateVector,
    born_distribution,
    fidelity,
    make_state,
)

S = hardy_state()
ZBAR, Z = S.bases


def erase_both():
    run = record_and_erase(S, Friend.F, Z)
    return record_and_erase(run.final_state, Friend.FBAR, ZBAR)


def test_erase_returns_input_state():
    run = record_and_erase(S, Friend.F, Z)
    assert run.final_state is S
    assert fidelity(S, run.final_state) == pytest.approx(1.0, abs=1e-12)


def test_erase_leaves_every_context_table_pristine():
    run = erase_both()
    tables = run.tables()
    for ctx in ALL_CONTEXTS:
        for key, p in context_table(ctx).items():
            assert tables[ctx.name][key] == pytest.approx(p, abs=1e-12)


def test_sequential_erase_composes_to_identity():
    run = erase_both()
    assert fidelity(S, run.final_state) == pytest.approx(1.0, abs=1e-12)
    assert born_distribution(run.final_state, CTX_WBAR_W.bases)[("okbar", "ok")] == pytest.approx(
        1 / 12, abs=1e-12
    )


def test_recording_basis_must_match_the_agents_system():
    with pytest.raises(ValueError):
        record_and_erase(S, Friend.F, SPIN_W)  # F records in Z, not W
    with pytest.raises(ValueError):
        record_and_erase(S, Friend.FBAR, Z)  # Fbar records the coin


KEPT_WW_TABLES = {
    (Friend.F,): {
        ("okbar", "ok"): 1 / 12,
        ("okbar", "fail"): 1 / 12,
        ("failbar", "ok"): 5 / 12,
        ("failbar", "fail"): 5 / 12,
    },
    (Friend.FBAR,): {
        ("okbar", "ok"): 1 / 12,
        ("okbar", "fail"): 5 / 12,
        ("failbar", "ok"): 1 / 12,
        ("failbar", "fail"): 5 / 12,
    },
    (Friend.FBAR, Friend.F): {
        ("okbar", "ok"): 1 / 4,
        ("okbar", "fail"): 1 / 4,
        ("failbar", "ok"): 1 / 4,
        ("failbar", "fail"): 1 / 4,
    },
}


@pytest.mark.parametrize("kept", sorted(KEPT_WW_TABLES, key=len))
def test_kept_records_decohere_the_port_table(kept):
    run = record_and_keep(S, kept)
    assert isinstance(run.final_state, DensityOperator)
    table = run.tables()["Wbar,W"]
    for key, p in KEPT_WW_TABLES[kept].items():
        assert table[key] == pytest.approx(p, abs=1e-12)


def test_kept_records_match_projector_sum_oracle():
    rho = np.outer(oracles.HARDY, oracles.HARDY.conj())
    for kept, sites in (((Friend.F,), (1,)), ((Friend.FBAR,), (0,)), ((Friend.FBAR, Friend.F), (0, 1))):
        expected = rho
        for site in sites:
            expected = oracles.dephase_matrix(expected, site)
        table = record_and_keep(S, kept).tables()["Wbar,W"]
        oracle_table = oracles.born_from_density("Wbar,W", expected)
        for key, p in oracle_table.items():
            assert table[key] == pytest.approx(p, abs=1e-12)


def test_keep_requires_agents():
    with pytest.raises(ValueError, match="no agents"):
        record_and_keep(S, ())


def test_all_six_protocol_cases():
    # four coherent cases: erasing any subset leaves the pristine tables
    pristine = context_table(CTX_WBAR_W)
    coherent_states = {
        (): S,
        (Friend.F,): record_and_erase(S, Friend.F, Z).final_state,
        (Friend.FBAR,): record_and_erase(S, Friend.FBAR, ZBAR).final_state,
        (Friend.F, Friend.FBAR): erase_both().final_state,
    }
    for state in coherent_states.values():
        table = born_distribution(state, CTX_WBAR_W.bases)
        for key, p in pristine.items():
            assert table[key] == pytest.approx(p, abs=1e-12)
    # three decohered cases, asserted against the frozen tables above
    for kept, expected in KEPT_WW_TABLES.items():
        table = record_and_keep(S, kept).tables()["Wbar,W"]
        for key, p in expected.items():
            assert table[key] == pytest.approx(p, abs=1e-12)


def test_erased_vs_kept_gap_on_failbar_fail():
    coherent = context_table(CTX_WBAR_W)[("failbar", "fail")]
    for kept in KEPT_WW_TABLES:
        kept_p = record_and_keep(S, kept).tables()["Wbar,W"][("failbar", "fail")]
        assert coherent - kept_p >= 1 / 3 - 1e-12


def test_tables_are_empty_for_non_coin_spin_states():
    from wignerfriend.bell import PAIR_Z, singlet

    run = record_and_erase(singlet(), Friend.FBAR, PAIR_Z)
    assert run.tables() == {}


AGENT_SETS = [(Friend.F,), (Friend.FBAR,), (Friend.FBAR, Friend.F)]


def _random_state(seed: int, bases):
    rng = np.random.default_rng(seed)
    d = 2 ** len(bases)
    return make_state(rng.normal(size=d) + 1j * rng.normal(size=d), bases)


def _dephase_chain(state, agents):
    """|psi><psi| dephased at each agent's system, in its current basis, by
    the projector sum of ``oracles.dephase_matrix`` on any number of systems."""
    psi = np.array(state.vec)
    rho = np.outer(psi, psi.conj())
    n = state.num_systems
    for agent in agents:
        k = agent.system
        projectors = [
            np.kron(np.kron(np.eye(2**k), np.diag(e)), np.eye(2 ** (n - k - 1))) for e in np.eye(2)
        ]
        rho = sum(p @ rho @ p for p in projectors)
    return rho


@pytest.mark.parametrize("agents", AGENT_SETS)
@pytest.mark.parametrize(
    "state",
    [
        S,
        _random_state(1, (ZBAR, Z)),
        _random_state(2, (SPIN_W, SPIN_Z)),
        _random_state(3, (COIN_ZBAR, Z, SPIN_W)),
    ],
    ids=["hardy", "random", "port-basis", "three-systems"],
)
def test_kept_rows_match_the_dephasing_oracle(state, agents):
    kept = record_and_keep(state, agents).final_state
    assert kept.bases == state.bases
    assert np.allclose(np.array(kept.rows), _dephase_chain(state, agents), rtol=0, atol=1e-15)


@pytest.mark.parametrize("agents", AGENT_SETS)
def test_keeping_records_builds_and_checks_one_density(monkeypatch, agents):
    built = []
    check = DensityOperator.__post_init__

    def spy(self, *args):
        built.append(self)
        check(self, *args)

    monkeypatch.setattr(DensityOperator, "__post_init__", spy)
    run = record_and_keep(S, agents)
    assert built == [run.final_state]


def _forged_state(vec):
    """A StateVector whose amplitudes skipped the constructor's check."""
    state = object.__new__(StateVector)
    Frozen.__init__(state, S.bases, tuple(vec))
    return state


@pytest.mark.parametrize("agents", AGENT_SETS)
@pytest.mark.parametrize(
    "vec, message",
    [
        ((float("nan"), 0j, 0j, 1.0), "not Hermitian"),
        ((1.0, 1.0, 0j, 0j), "trace"),
    ],
    ids=["nan", "unnormalized"],
)
def test_keeping_records_of_a_bad_state_fails_the_density_check(agents, vec, message):
    state = _forged_state(vec)
    with pytest.raises(InvariantViolation, match=message):
        record_and_keep(state, agents)


def test_keeping_a_record_of_a_missing_system_is_out_of_range():
    one_coin = make_state([1.0, 0.0], (ZBAR,))
    with pytest.raises(ValueError, match="system index out of range"):
        record_and_keep(one_coin, (Friend.F,))
