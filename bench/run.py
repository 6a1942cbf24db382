"""The wignerfriend benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload exact_queries --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Load is closed-loop from one process: one caller that waits for each reply,
nothing threaded.  Operations run in seeded blocks until ``--seconds`` have
passed, and each result is checked against a reference computed without the
package (``bench/reference.py``).  A mismatch, an exception or a non-zero
exit counts as a failed operation.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (``bench/layertrace.py``).  A traced run executes a fixed number of
blocks, set by seed and ``--seconds`` alone, first untraced and then traced,
so its counts repeat exactly and ``trace.overhead`` compares like with like.

The last line of standard output is the result; lines before it state the
machine, the tail percentile, the repeated-input share and the trace's
self-time shares.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
STARTUP_REPEATS = 5
# A traced run spends about a third of --seconds on each pass.
TRACE_SHARE = 3.0


_missing = [p for p in ("src/wignerfriend/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
if _missing:
    sys.exit(f"bench: cannot find {', '.join(_missing)} under {ROOT}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import warmup  # noqa: E402
import workloads  # noqa: E402


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _timed_process(cmd: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    return time.perf_counter() - t0, proc


def _setup_seconds(workload: str, env: dict) -> float:
    """Median wall of fresh interpreters that import the CLI and warm up."""
    walls = []
    for _ in range(SETUP_REPEATS):
        wall, proc = _timed_process([sys.executable, str(BENCH / "warmup.py"), workload], env)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
        walls.append(wall)
    return statistics.median(walls)


class Tally:
    """Per-operation and per-block wall times and outcomes of one pass."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.block_walls: list[float] = []
        self.failed = 0
        self.repeated = 0
        self.kind_walls: Counter = Counter()
        self._seen: set[int] = set()

    def add(self, op, wall: float, ok: bool) -> None:
        self.walls.append(wall)
        self.kind_walls[op.kind] += wall
        self.failed += not ok
        key = hash(op)
        self.repeated += key in self._seen
        self._seen.add(key)

    @property
    def attempted(self) -> int:
        return len(self.walls)


def _execute(workload, op, tally: Tally) -> None:
    t0 = time.perf_counter()
    try:
        result = workload.call(op)
    except Exception as exc:  # a failed operation, counted and reported
        tally.add(op, time.perf_counter() - t0, False)
        print(f"op {op.kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return
    wall = time.perf_counter() - t0
    try:
        ok = bool(workload.check(op, result))
    except Exception as exc:  # malformed output is a failure, not a crash
        print(f"op {op.kind} check raised {type(exc).__name__}: {exc}", file=sys.stderr)
        ok = False
    if not ok:
        print(f"op {op.kind} {op.args!r} did not match its reference", file=sys.stderr)
    tally.add(op, wall, ok)


def _run_block(workload, block: list, tally: Tally) -> None:
    before = len(tally.walls)
    for op in block:
        _execute(workload, op, tally)
    tally.block_walls.append(sum(tally.walls[before:]))


def _run_for(workload, seconds: float, tally: Tally) -> None:
    """Whole blocks until the next one would end more than half a block
    past the deadline; always at least one."""
    start = time.perf_counter()
    blocks = 0
    while True:
        _run_block(workload, workload.block(), tally)
        blocks += 1
        now = time.perf_counter()
        if now + 0.5 * (now - start) / blocks > start + seconds:
            return


def _repeat_note(workload: str, tally: Tally) -> str:
    share = tally.repeated / tally.attempted
    if workload == "cli_cold":
        # One query per process: no in-process cache can see a repeat.
        return f"repeated-input share 0 per process; {share:.4f} of invocations repeat an earlier one"
    return f"repeated-input share {share:.4f}"


def _tail(walls: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest 0.1% step with at least ten
    samples beyond it (nearest rank), capped at p99 so that one burst of
    host jitter cannot set it; the median when there are under twenty."""
    n = len(walls)
    if n < 20:
        return statistics.median(walls), 50.0
    q = min(99.0, math.floor(1000.0 * (n - 10) / n) / 10.0)
    return sorted(walls)[math.ceil(q / 100.0 * n) - 1], q


def _end_to_end(args, workload, env: dict) -> tuple[dict, int, int, list[str]]:
    setup_s = _setup_seconds(args.workload, env)
    tally = Tally()
    _run_for(workload, args.seconds, tally)
    timed = sum(tally.walls)
    tail, q = _tail(tally.walls)
    # Correct operations per second of the median block, so a burst of host
    # load inside one block does not move it.
    block_ops = len(workload.block_kinds) * (tally.attempted - tally.failed) / tally.attempted
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (block_ops / statistics.median(tally.block_walls), "1/s"),
        "wall_p50_ms": (statistics.median(tally.walls) * 1e3, "ms"),
        "wall_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"ops {tally.attempted} in {len(tally.block_walls)} blocks, {timed:.3f} s of timed wall; "
        f"wall_tail_ms is p{q:g}",
        _repeat_note(args.workload, tally),
        "wall share by operation kind "
        + json.dumps({k: round(w / timed, 4) for k, w in tally.kind_walls.most_common()}),
    ]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return metrics, tally.attempted, tally.failed, notes


def _import_ms(env: dict) -> dict:
    """Median cumulative import time per module over fresh processes."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        _, proc = _timed_process([sys.executable, "-X", "importtime", "-c", "import wignerfriend.cli"], env)
        runs.append(layertrace.import_ms(proc.stderr))
    return {layer: statistics.median(r.get(layer, 0.0) for r in runs) for layer in layertrace.LAYERS}


def _startup_ms(env: dict) -> float:
    """Median wall of a bare interpreter that runs nothing."""
    walls = [_timed_process([sys.executable, "-c", "pass"], env)[0] for _ in range(STARTUP_REPEATS)]
    return statistics.median(walls) * 1e3


def _traced(args, workload, env: dict) -> tuple[dict, int, int, list[str]]:
    n_blocks = max(1, int(args.seconds / (TRACE_SHARE * workload.block_seconds)))
    blocks = [workload.block() for _ in range(n_blocks)]
    untraced, traced = Tally(), Tally()
    for block in blocks:
        _run_block(workload, block, untraced)

    if args.workload == "cli_cold":
        workload.traced = True
        for block in blocks:
            _run_block(workload, block, traced)
        agg = layertrace.merge(workload.snapshots)
        imports = {
            layer: statistics.median(r.get(layer, 0.0) for r in workload.child_imports)
            for layer in layertrace.LAYERS
        }
    else:
        tracer = layertrace.Tracer()
        uninstall = layertrace.install(tracer)
        try:
            for block in blocks:
                _run_block(workload, block, traced)
        finally:
            uninstall()
        agg = layertrace.merge([tracer.snapshot()])
        imports = _import_ms(env)
    # Per CLI process: cli.main's span, and cli's self time within it.
    main_ms = [snap["durations"]["cli.main"][0] / 1e6 for snap in getattr(workload, "snapshots", [])]
    self_ms = [snap["self_ns"]["cli"] / 1e6 for snap in getattr(workload, "snapshots", [])]

    extra = {f"{layer}.import_ms": imports[layer] for layer in layertrace.LAYERS}
    extra.update(
        {
            "cli.python_startup_ms": _startup_ms(env),
            "cli.main_ms": statistics.median(main_ms) if main_ms else 0.0,
            "cli.self_ms": statistics.median(self_ms) if self_ms else 0.0,
            "trace.overhead": sum(traced.walls) / sum(untraced.walls),
            # On cli_cold spans start after import inside each child, so this
            # is the share of process wall spent in cli.main.
            "trace.coverage": agg["root_ns"] / 1e9 / sum(traced.walls),
        }
    )
    metrics = layertrace.per_layer_values(agg, extra)
    total_self = sum(agg["self_ns"].values()) or 1
    shares = {layer: agg["self_ns"].get(layer, 0) / total_self for layer in layertrace.LAYERS}
    notes = [
        f"traced {n_blocks} blocks, {traced.attempted} ops",
        "self-time shares " + json.dumps({k: round(v, 4) for k, v in shares.items()}),
        _repeat_note(args.workload, untraced),
    ]
    return metrics, untraced.attempted + traced.attempted, untraced.failed + traced.failed, notes


def _run_all(args, env: dict) -> int:
    """Each workload alone in its own process; prints every result line,
    then one combined result with metrics named ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        for line in lines:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": m for k, m in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = workloads.child_env()
    if args.workload == "all":
        return _run_all(args, env)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    warmup.WARMUPS[args.workload]()
    print("machine " + json.dumps(_machine()))
    measure = _traced if args.trace else _end_to_end
    metrics, attempted, failed, notes = measure(args, workload, env)
    for note in notes:
        print(note)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
