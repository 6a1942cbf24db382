"""Fast self-check of the benchmark.

    python3 bench/selfcheck.py

Runs every workload at minimal length, untraced and traced, and confirms
that each run is correct and emits exactly the metrics ``BENCHMARK.json``
names, with their units; that traced runs cover at least 90% of the traced
wall on the in-process workloads and repeat their counts exactly; and that a
deliberately wrong reference turns a correct operation into a failed one.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run  # also puts the package on sys.path
import reference as ref
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_SUFFIXES = (".calls", ".constructed", ".raised", "paths_per_evolve", "correlations_per_solve", "state_dim", "hit_ratio")
IN_PROCESS = ("exact_queries", "chsh_max")


def _fail(msg: str) -> None:
    sys.exit(f"selfcheck: {msg}")


def _run(workload: str, trace: int, seed: int = 1) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(
        cmd + ["--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        env=workloads.child_env(),
        capture_output=True,
        text=True,
        timeout=180,
    )
    if proc.returncode != 0:
        _fail(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        _fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        _fail(f"{workload} trace {trace}: {result['failed']} of {result['attempted']} failed")
    listed = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        _fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
    if not trace and not all(m["value"] > 0 for m in result["metrics"].values()):
        _fail(f"{workload}: an end-to-end metric is not positive")
    return result["metrics"]


def _counts(metrics: dict) -> dict:
    return {k: m["value"] for k, m in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def _wrong_reference_fails() -> None:
    """One numeric operation per workload passes, then fails once its
    reference is moved by 1e-3."""
    probes = {"exact_queries": "born", "chsh_max": "singlet", "cli_cold": "contexts"}
    right_born, right_tsirelson = ref.born, ref.TSIRELSON

    def wrong_born(context, amps):
        table = dict(right_born(context, amps))
        key = next(iter(table))
        table[key] += 1e-3
        return table

    for name, kind in probes.items():
        workload = workloads.WORKLOADS[name](seed=1)
        op = next(op for _ in range(4) for op in workload.block() if op.kind == kind)
        for wrong, expect_failed in ((False, 0), (True, 1)):
            ref.born = wrong_born if wrong else right_born
            ref.TSIRELSON = right_tsirelson + (1e-3 if wrong else 0.0)
            tally = run.Tally()
            run._execute(workload, op, tally)
            if tally.failed != expect_failed:
                _fail(f"{name}/{kind}: {tally.failed} failed with {'a wrong' if wrong else 'the right'} reference")
    ref.born, ref.TSIRELSON = right_born, right_tsirelson


def main() -> int:
    _wrong_reference_fails()
    print("wrong references are counted as failures (the mismatches above are deliberate)")
    for w in SPEC["workloads"]:
        name = w["name"]
        _run(name, 0)
        traced = _run(name, 1)
        if name in IN_PROCESS:
            if traced["trace.coverage"]["value"] < 0.9:
                _fail(f"{name}: spans cover {traced['trace.coverage']['value']:.3f} of the traced wall")
            if _counts(_run(name, 1)) != _counts(traced):
                _fail(f"{name}: counts differ between two traced runs with one seed")
        print(f"{name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
