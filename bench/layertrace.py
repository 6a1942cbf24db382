"""Per-layer tracing from outside the package.

Every public function of each module is wrapped and rebound in every
module namespace that holds it, its own and each consumer's, since
``from .qcore import apply_local`` copies the reference into ``bohm``.
The four validated qcore classes are counted through ``__post_init__``.
Each wrapped call is a span; spans nest on one stack (single thread), so a
span's self time is its duration minus its children's, and a layer's self
time is the sum over its spans.  Nested spans of one layer thus merge.

Spans are aggregated in memory as they close: calls and durations per
function, self time per layer, exceptions escaping a layer, and a few counts
taken from results.  :meth:`Tracer.snapshot` returns plain data that
:func:`merge` combines across processes.
"""

from __future__ import annotations

import functools
import importlib
import re
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("qcore", "hardy", "bohm", "memory", "epistemic", "bell", "cli")
CONSTRUCTED = ("Basis", "LocalUnitary", "StateVector", "DensityOperator")
# Public methods the benchmark calls directly, so their work is attributed.
METHODS = (("memory", "ProtocolRun", "tables"),)
_CORRELATIONS = frozenset({"bell.quantum_correlation", "bell.lhv_correlation"})


def _state_dim(run) -> int:
    final = run.final_state
    return int(final.amps.shape[0]) if hasattr(final, "amps") else int(final.matrix.shape[0])


class Tracer:
    """Collects spans of wrapped calls; single-threaded by design."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        self._scans_open = 0
        self.calls: Counter = Counter()
        self.durations: defaultdict = defaultdict(list)
        self.self_ns: Counter = Counter()
        self.raised: Counter = Counter()
        self.root_ns = 0
        self.counts: Counter = Counter()
        self.state_dim = 0
        self._cache = None
        self._cache_start = (0, 0)

    def call(self, layer: str, name: str, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [0, layer]
        stack.append(frame)
        scan = name == "bell.chsh_scan"
        if scan:
            self._scans_open += 1
        elif self._scans_open and name in _CORRELATIONS:
            self.counts["bell.scan_correlations"] += 1
        t0 = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            if parent is None or parent[1] != layer:
                self.raised[layer] += 1
            raise
        finally:
            d = perf_counter_ns() - t0
            stack.pop()
            if scan:
                self._scans_open -= 1
            self.self_ns[layer] += d - frame[0]
            if parent is None:
                self.root_ns += d
            else:
                parent[0] += d
            self.calls[name] += 1
            self.durations[name].append(d)
        if name == "bohm.evolve":
            self.counts["bohm.paths"] += len(result.paths)
        elif name in ("memory.record_and_keep", "memory.record_and_erase"):
            self.state_dim = max(self.state_dim, _state_dim(result))
        return result

    def snapshot(self) -> dict:
        hits = misses = 0
        if self._cache is not None:
            info = self._cache.cache_info()
            hits = info.hits - self._cache_start[0]
            misses = info.misses - self._cache_start[1]
        return {
            "calls": dict(self.calls),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "self_ns": dict(self.self_ns),
            "raised": dict(self.raised),
            "root_ns": self.root_ns,
            "counts": dict(self.counts),
            "state_dim": self.state_dim,
            "cache": [hits, misses],
        }


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    call = tracer.call

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return call(layer, name, fn, args, kwargs)

    return traced


def install(tracer: Tracer):
    """Wrap the package's public calls; returns a function that undoes it."""
    mods = {layer: importlib.import_module(f"wignerfriend.{layer}") for layer in LAYERS}
    cache = mods["hardy"].context_table
    wrappers: dict[int, tuple] = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__
            ):
                wrappers[id(obj)] = (obj, _wrap(tracer, layer, f"{layer}.{attr}", obj))
    undo = []
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, obj))
    targets = [("qcore", cls, "__post_init__") for cls in CONSTRUCTED] + list(METHODS)
    for layer, cls_name, attr in targets:
        cls = getattr(mods[layer], cls_name)
        orig = cls.__dict__[attr]
        setattr(cls, attr, _wrap(tracer, layer, f"{layer}.{cls_name}.{attr}", orig))
        undo.append((cls, attr, orig))
    info = cache.cache_info()
    tracer._cache, tracer._cache_start = cache, (info.hits, info.misses)

    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall


def merge(snapshots: list[dict]) -> dict:
    out = {
        "calls": Counter(),
        "durations": defaultdict(list),
        "self_ns": Counter(),
        "raised": Counter(),
        "root_ns": 0,
        "counts": Counter(),
        "state_dim": 0,
        "cache": [0, 0],
    }
    for s in snapshots:
        out["calls"].update(s["calls"])
        for k, v in s["durations"].items():
            out["durations"][k].extend(v)
        out["self_ns"].update(s["self_ns"])
        out["raised"].update(s["raised"])
        out["root_ns"] += s["root_ns"]
        out["counts"].update(s["counts"])
        out["state_dim"] = max(out["state_dim"], s["state_dim"])
        out["cache"] = [a + b for a, b in zip(out["cache"], s["cache"])]
    return out


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)")


def import_ms(stderr: str) -> dict:
    """Cumulative import time per package module, from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(2).startswith("wignerfriend."):
            layer = m.group(2).split(".", 1)[1]
            if layer in LAYERS:
                out[layer] = int(m.group(1)) / 1000.0
    return out


def strip_import_lines(stderr: str) -> str:
    return "\n".join(line for line in stderr.splitlines() if not line.startswith("import time:"))


def _p50(ns: list) -> float:
    return statistics.median(ns) if ns else 0.0


# name -> (unit, better); the order is the order metrics are printed in.
PER_LAYER = {}
for _fn in ("born_distribution", "apply_local", "express_density"):
    PER_LAYER[f"qcore.{_fn}.calls"] = ("count", "lower")
    PER_LAYER[f"qcore.{_fn}.p50_us"] = ("us", "lower")
for _fn in ("project", "basis_change", "direction_basis"):
    PER_LAYER[f"qcore.{_fn}.calls"] = ("count", "lower")
for _cls in CONSTRUCTED:
    PER_LAYER[f"qcore.{_cls}.constructed"] = ("count", "lower")
PER_LAYER.update(
    {
        "qcore.self_s": ("s", "lower"),
        "bohm.evolve.calls": ("count", "lower"),
        "bohm.evolve.p50_us": ("us", "lower"),
        "bohm.compare_foliations.p50_us": ("us", "lower"),
        "bohm.sample_paths.p50_us": ("us", "lower"),
        "bohm.conditional_wave.calls": ("count", "lower"),
        "bohm.paths_per_evolve": ("paths/call", "lower"),
        "bohm.self_s": ("s", "lower"),
        "bell.chsh_scan.calls": ("count", "lower"),
        "bell.chsh_scan.p50_ms": ("ms", "lower"),
        "bell.quantum_correlation.calls": ("count", "lower"),
        "bell.quantum_correlation.p50_us": ("us", "lower"),
        "bell.correlations_per_solve": ("calls/solve", "lower"),
        "bell.self_s": ("s", "lower"),
        "memory.record_and_keep.calls": ("count", "lower"),
        "memory.record_and_keep.p50_us": ("us", "lower"),
        "memory.record_and_erase.calls": ("count", "lower"),
        "memory.record_and_erase.p50_us": ("us", "lower"),
        "memory.state_dim": ("dim", "lower"),
        "memory.self_s": ("s", "lower"),
        "hardy.context_table.calls": ("count", "lower"),
        "hardy.context_table.hit_ratio": ("ratio", "higher"),
        "hardy.chain_prediction.calls": ("count", "lower"),
        "hardy.self_s": ("s", "lower"),
        "epistemic.run_trace.calls": ("count", "lower"),
        "epistemic.run_trace.p50_us": ("us", "lower"),
        "epistemic.self_s": ("s", "lower"),
    }
)
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.import_ms"] = ("ms", "lower")
PER_LAYER.update(
    {
        "cli.python_startup_ms": ("ms", "lower"),
        "cli.main_ms": ("ms", "lower"),
        "cli.self_ms": ("ms", "lower"),
    }
)
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.raised"] = ("count", "lower")
PER_LAYER.update(
    {
        "trace.overhead": ("ratio", "lower"),
        "trace.coverage": ("ratio", "higher"),
    }
)


def per_layer_values(agg: dict, extra: dict) -> dict:
    """Every per-layer metric value from merged spans plus ``extra``, which
    supplies the import, startup, cli and overhead figures."""
    calls, durs = agg["calls"], agg["durations"]
    v: dict = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            v[name] = calls.get(base, 0)
        elif field == "constructed":
            v[name] = calls.get(f"{base}.__post_init__", 0)
        elif field in ("p50_us", "p50_ms"):
            scale = 1e3 if field == "p50_us" else 1e6
            v[name] = _p50(durs.get(base, [])) / scale
        elif field == "self_s" and base in LAYERS:
            v[name] = agg["self_ns"].get(base, 0) / 1e9
        elif field == "raised":
            v[name] = agg["raised"].get(base, 0)
    scans = calls.get("bell.chsh_scan", 0)
    evolves = calls.get("bohm.evolve", 0)
    hits, misses = agg["cache"]
    v["bell.correlations_per_solve"] = agg["counts"].get("bell.scan_correlations", 0) / scans if scans else 0.0
    v["bohm.paths_per_evolve"] = agg["counts"].get("bohm.paths", 0) / evolves if evolves else 0.0
    v["memory.state_dim"] = agg["state_dim"]
    v["hardy.context_table.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    v.update(extra)
    missing = set(PER_LAYER) - set(v)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: {"value": v[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
