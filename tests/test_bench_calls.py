"""The benchmark's in-process calls, untimed: each workload's warm-up, then
three seeded blocks through ``Workload.call``, each result checked against
``bench/reference.py``.  The timing itself (``bench/run.py``) depends on the
host and is not a test."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    """``bench/``'s ``workloads`` and ``warmup``, imported with ``bench/`` on
    sys.path for this test alone; its modules leave sys.modules afterwards."""
    before = set(sys.modules)
    monkeypatch.syspath_prepend(str(BENCH))
    import warmup
    import workloads

    yield workloads, warmup
    for name in set(sys.modules) - before:
        if Path(getattr(sys.modules[name], "__file__", None) or "").parent == BENCH:
            del sys.modules[name]


@pytest.mark.parametrize("name", ["exact_queries", "chsh_max"])
def test_the_benchmarks_calls_pass_their_checks(bench_modules, name):
    workloads, warmup = bench_modules
    warmup.WARMUPS[name]()
    workload = workloads.WORKLOADS[name](1)
    ops = [op for _ in range(3) for op in workload.block()]
    failed = [op.kind for op in ops if not workload.check(op, workload.call(op))]
    assert ops and failed == []


# Runs after the tests above, in file order.
def test_bench_leaves_neither_sys_path_nor_sys_modules():
    assert str(BENCH) not in sys.path
    assert not {"workloads", "warmup", "reference", "layertrace"} & set(sys.modules)
