"""The package's value classes: frozen, slotted, equal by their fields (or
by identity, for the numerical states, maps and models), and holding only
fields that the package or the benchmark reads."""

import ast
import copy
import math
import pickle
from pathlib import Path

import pytest

from wignerfriend import bell, bohm, epistemic, hardy, memory, qcore
from wignerfriend.qcore import Frozen, FrozenValue

_MODULES = (qcore, hardy, bohm, epistemic, memory, bell)


def _instances() -> dict:
    """One instance of every value class, keyed by class."""
    state = hardy.hardy_state()
    run = memory.record_and_erase(state, memory.Friend.F, qcore.SPIN_Z)
    ts = bohm.evolve(bohm.FOLIATION_F)
    path = ts.paths[0]
    trace = epistemic.run_trace()
    statement = epistemic.builtin_statements()[1]
    values = [
        qcore.H,
        qcore.COIN_WBAR,
        state,
        qcore.basis_change(0, qcore.COIN_ZBAR, qcore.COIN_WBAR),
        hardy.context_table(hardy.CTX_WBAR_W),
        memory.record_and_keep(state, [memory.Friend.F]).final_state,
        hardy.CTX_ZBAR_Z,
        hardy.okbar_to_fail_chain()[0],
        hardy.chain_prediction(hardy.okbar_to_fail_chain()),
        bohm.FOLIATION_F,
        bohm.MONOTONE,
        path.initial,
        ts.paths[-1].events[0],
        path,
        ts,
        bohm.compare_foliations(),
        statement,
        trace.axioms,
        trace,
        run,
        bell.observer_independent_facts_model(),
        bell.OPTIMAL_QUAD,
        bell.chsh_scan(bell.quantum_correlation, 4),
        bell.erased_vs_kept_chsh(4),
    ]
    return {type(v): v for v in values}


INSTANCES = _instances()
# The classes that keep a __dict__, for their cached numpy views.
_WITH_DICT = {qcore.StateVector, qcore.DensityOperator}
# Equal only to themselves: states, maps, a hidden-variable model, and a
# protocol run holding a state.
_IDENTITY = {
    qcore.StateVector,
    qcore.LocalUnitary,
    qcore.DensityOperator,
    bell.LHVModel,
    memory.ProtocolRun,
}


def test_every_value_class_is_covered():
    classes = {
        obj
        for mod in _MODULES
        for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, Frozen) and obj not in (Frozen, FrozenValue)
    }
    assert classes == set(INSTANCES)
    assert len(classes) == 24
    assert {c for c in classes if not issubclass(c, FrozenValue)} == _IDENTITY


_CLASSES = sorted(INSTANCES, key=lambda c: c.__qualname__)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__qualname__)
def test_fields_refuse_assignment_and_deletion(cls):
    obj = INSTANCES[cls]
    assert cls._fields
    for name in cls._fields:
        value = getattr(obj, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
        assert getattr(obj, name) is value
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        obj.extra = 1
    assert hasattr(obj, "__dict__") == (cls in _WITH_DICT)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__qualname__)
def test_copies_have_the_same_fields(cls):
    obj = INSTANCES[cls]
    twin = copy.copy(obj)
    assert type(twin) is cls
    assert all(getattr(twin, f) == getattr(obj, f) for f in cls._fields)
    assert (twin == obj) == (cls not in _IDENTITY)


def test_values_pickle_to_equal_values():
    for cls, obj in INSTANCES.items():
        if cls not in _IDENTITY:
            assert pickle.loads(pickle.dumps(obj)) == obj, cls


# Values that hold a dict, and so have no hash.
_UNHASHABLE = {qcore.OutcomeDistribution, bohm.FoliationReport}


@pytest.mark.parametrize(
    "cls",
    [c for c in _CLASSES if c not in _IDENTITY | _UNHASHABLE],
    ids=lambda c: c.__qualname__,
)
def test_copies_and_pickles_are_hash_equal(cls):
    obj = INSTANCES[cls]
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert twin == obj
        assert hash(twin) == hash(obj)


def test_hashes_kept_at_construction_are_the_hashes_of_the_fields():
    for value, fields in (
        (bohm.HiddenConfig("h", "down"), ("h", "down")),
        (hardy.MeasurementContext(qcore.COIN_WBAR, qcore.SPIN_Z), (qcore.COIN_WBAR, qcore.SPIN_Z)),
        (qcore.COIN_WBAR, (qcore.COIN_WBAR.name, qcore.COIN_WBAR.labels, qcore.COIN_WBAR.vectors)),
    ):
        assert hash(value) == hash(fields)


def test_repr_names_the_fields_in_order():
    assert repr(bohm.HiddenConfig("h", "down")) == "HiddenConfig(coin='h', spin='down')"
    assert repr(epistemic.AxiomSet(C=False)) == "AxiomSet(Q=True, C=False, S=True)"
    assert repr(qcore.H) == "BasisLabel(system=<System.COIN: 'coin'>, name='h', angle=None)"


def test_values_built_twice_are_equal_and_hash_equal():
    w = qcore.COIN_WBAR
    pairs = [
        (qcore.Basis(w.name, w.labels, w.vectors), w),
        (hardy.MeasurementContext(qcore.COIN_ZBAR, qcore.SPIN_W), hardy.CTX_ZBAR_W),
        (bohm.HiddenConfig("t", "up"), bohm.HiddenConfig("h", "up").with_label(0, "t")),
        (epistemic.AxiomSet(), epistemic.AxiomSet(True, True, True)),
        (
            bohm.evolve.__wrapped__(bohm.FOLIATION_FPRIME, bohm.INDEPENDENT),
            bohm.evolve(bohm.FOLIATION_FPRIME, bohm.INDEPENDENT),
        ),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert qcore.COIN_WBAR != qcore.COIN_ZBAR
    assert epistemic.AxiomSet(S=False) != epistemic.AxiomSet()
    assert hardy.CTX_ZBAR_W != (qcore.COIN_ZBAR, qcore.SPIN_W)
    # A field that differs in value, not in name, breaks equality.
    renamed = qcore.Basis("Wbar2", w.labels, w.vectors)
    assert renamed != w


def test_identity_classes_compare_by_identity():
    state = hardy.hardy_state()
    twin = qcore.StateVector(state.bases, state.vec)
    assert twin.vec == state.vec and twin != state and state == state
    assert hash(state) == object.__hash__(state)


def test_context_table_cache_hits_on_an_equal_context():
    before = hardy.context_table.cache_info()
    table = hardy.context_table(hardy.CTX_WBAR_Z)
    fresh = hardy.MeasurementContext(qcore.COIN_WBAR, qcore.SPIN_Z)
    assert hardy.context_table(fresh) is table
    assert hardy.context_table.cache_info().hits >= before.hits + 1


def test_hidden_config_relabels_by_construction():
    config = bohm.HiddenConfig("h", "down")
    assert config.with_label(0, "t") == bohm.HiddenConfig("t", "down")
    assert config.with_label(1, "up") == bohm.HiddenConfig("h", "up")
    assert config == bohm.HiddenConfig("h", "down")


def test_constructors_keep_their_checks_and_defaults():
    with pytest.raises(ValueError, match="not allowed"):
        qcore.BasisLabel(qcore.System.COIN, "up")
    with pytest.raises(ValueError, match="outcome not in context"):
        hardy.MeasurementContext(qcore.SPIN_Z, qcore.SPIN_Z)
    with pytest.raises(ValueError, match="permute"):
        bohm.Foliation("X", (qcore.SPIN_W, qcore.SPIN_W))
    with pytest.raises(qcore.InvariantViolation, match="sum to 0"):
        qcore.OutcomeDistribution({})
    quad = bell.AngleQuad(-math.pi, 3 * math.pi, 0, 1)
    assert quad.as_tuple() == (math.pi, math.pi, 0.0, 1.0)
    statement = epistemic.EpistemicStatement("x", epistemic.Agent.F, hardy.CTX_ZBAR_Z)
    assert (statement.derived_from, statement.axioms_used, statement.backing) == (
        (),
        frozenset({"Q"}),
        (),
    )
    assert bohm.TransportCoupling(bohm.CouplingKind.MONOTONE) == bohm.MONOTONE


# Classes whose fields are bound by Frozen.__init__ alone.
_PLAIN = {
    bell.ScanResult,
    bell.ErasedKeptReport,
    bohm.TransportCoupling,
    bohm.Transition,
    bohm.TrajectoryPath,
    bohm.FoliationReport,
    epistemic.TraceReport,
    hardy.ContradictionCertificate,
    memory.ProtocolRun,
}
# Positional arguments a constructor needs, where fields have defaults.
_REQUIRED = {
    qcore.BasisLabel: 2,
    epistemic.EpistemicStatement: 3,
    epistemic.AxiomSet: 0,
}


def test_plain_classes_take_the_shared_constructor():
    assert len(_PLAIN) == 9
    for cls in _PLAIN:
        assert "__init__" not in vars(cls), cls
        assert cls.__init__ is Frozen.__init__, cls
    assert bohm.TransportCoupling._fields == ("kind",)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__qualname__)
def test_constructors_refuse_a_wrong_number_of_fields(cls):
    values = [getattr(INSTANCES[cls], f) for f in cls._fields]
    with pytest.raises(TypeError, match=cls.__qualname__):
        cls(*values, values[0])
    required = _REQUIRED.get(cls, len(values))
    if required:
        with pytest.raises(TypeError, match=cls.__qualname__):
            cls(*values[: required - 1])


# Fields that no attribute read in src/ or bench/ names, kept on purpose.
UNREAD_FIELDS = {
    # Part of a label's identity: equality and hashing compare it.
    "qcore.BasisLabel.angle",
    # The model's correlation block is computed from it when the model is built.
    "bell.LHVModel.prior",
}


def _unread_fields() -> set[str]:
    """The fields of the package's value classes whose name no attribute
    read (an ``ast.Attribute`` load) in the package or in ``bench/`` uses.

    The match is by name only, so a field that shares its name with any
    other attribute read counts as read."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    assert bench.is_dir()
    package = Path(qcore.__file__).resolve().parent
    sources = sorted(package.glob("*.py")) + sorted(bench.glob("*.py"))
    read = {
        node.attr
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {
        f"{cls.__module__.rpartition('.')[2]}.{cls.__qualname__}.{field}"
        for cls in INSTANCES
        for field in cls._fields
        if field not in read
    }


def test_every_field_is_read_by_the_package_or_the_benchmark():
    unread = _unread_fields()
    missing = sorted(unread - UNREAD_FIELDS)
    assert not missing, f"read by nothing: {', '.join(missing)}"
    stale = sorted(UNREAD_FIELDS - unread)
    assert not stale, f"allowed but read, or gone: {', '.join(stale)}"
