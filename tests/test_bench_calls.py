"""The benchmark's calls, untimed: each workload's warm-up, then seeded
blocks through ``Workload.call``, each result checked as ``bench/run.py``
checks it: in-process results against ``bench/reference.py``, and each
``cli_cold`` process's exit code, stderr and output through the workload's
own JSON and table checks.  Then one block of each in-process workload under
``bench/layertrace``'s tracer, whose metrics must all be computed.  The
timing itself (``bench/run.py``) depends on the host and is not a test."""

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


# A cli_cold block is one fresh process per kind, 7 in all.
@pytest.mark.parametrize("name, blocks", [("exact_queries", 3), ("chsh_max", 3), ("cli_cold", 1)])
def test_the_benchmarks_calls_pass_their_checks(bench_modules, name, blocks):
    workloads, warmup = bench_modules
    warmup.WARMUPS[name]()
    workload = workloads.WORKLOADS[name](1)
    ops = [op for _ in range(blocks) for op in workload.block()]
    failed = [op.kind for op in ops if not workload.check(op, workload.call(op))]
    assert ops and failed == []


# Each in-process workload, and a layer it spends time in.
@pytest.mark.parametrize("name, layer", [("exact_queries", "bohm"), ("chsh_max", "bell")])
def test_a_traced_block_computes_every_per_layer_metric(bench_modules, name, layer):
    from wignerfriend import bohm

    workloads, warmup = bench_modules
    import layertrace

    warmup.WARMUPS[name]()
    workload = workloads.WORKLOADS[name](1)
    ops = workload.block()
    evolve = bohm.evolve
    tracer = layertrace.Tracer()
    uninstall = layertrace.install(tracer)
    try:
        failed = [op.kind for op in ops if not workload.check(op, workload.call(op))]
    finally:
        uninstall()
    assert bohm.evolve is evolve
    assert failed == []
    agg = layertrace.merge([tracer.snapshot()])
    assert agg["root_ns"] > 0
    # The figures bench/run.py measures outside the spans.
    extra = {f"{each}.import_ms": 0.0 for each in layertrace.LAYERS}
    extra.update(
        dict.fromkeys(
            ("cli.python_startup_ms", "cli.main_ms", "cli.self_ms", "trace.overhead", "trace.coverage"),
            0.0,
        )
    )
    metrics = layertrace.per_layer_values(agg, extra)
    assert list(metrics) == list(layertrace.PER_LAYER)
    assert metrics[f"{layer}.self_s"]["value"] > 0


# Runs after the tests above, in file order.
def test_bench_leaves_neither_sys_path_nor_sys_modules():
    assert str(BENCH) not in sys.path
    assert not {"workloads", "warmup", "reference", "layertrace"} & set(sys.modules)
