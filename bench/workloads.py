"""The three workloads: seeded inputs, the call each operation makes, and the
check of its result against an independent reference.

Operations come in blocks, a fixed multiset of operation kinds shuffled by
the seed, so every run executes the same mix and only the inputs and their
order depend on the seed.  Runs stop at block boundaries.

* ``cli_cold``: fresh ``python -m wignerfriend.cli`` processes over the
  documented non-scan invocations; import dominates their wall time.
* ``exact_queries``: in-process library queries; ``qcore``'s pure-state path
  and ``bohm`` do the work, with no ``bell`` and no import.
* ``chsh_max``: in-process ``bell.chsh_scan(., 20)`` solves; ``bell`` sets
  the amount of work and half the solves use the density-operator path.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import reference as ref
from layertrace import import_ms, strip_import_lines

from wignerfriend import bell, bohm, epistemic, hardy, memory, qcore

ROOT = ref.ROOT
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

_CONTEXTS = {ctx.name: ctx for ctx in hardy.ALL_CONTEXTS}
_FOLIATIONS = {"F": bohm.FOLIATION_F, "Fprime": bohm.FOLIATION_FPRIME}
_COUPLINGS = {"monotone": bohm.MONOTONE, "independent": bohm.INDEPENDENT}
# Site k of the reference is system k: Fbar records the coin, F the spin.
_FRIENDS = {0: memory.Friend.FBAR, 1: memory.Friend.F}
_SITE_SETS = ((0,), (1,), (0, 1))


def child_env() -> dict:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass(frozen=True)
class Op:
    """One operation; ``args`` are its whole input, so equal ops repeat."""

    kind: str
    args: tuple


def _random_state(rng: np.random.Generator) -> tuple:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return tuple(complex(a) for a in v)


class Workload:
    name = ""
    block_kinds: tuple = ()
    # Nominal untraced seconds per block, used only to size traced runs.
    block_seconds = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def block(self) -> list[Op]:
        kinds = list(self.block_kinds)
        self.rng.shuffle(kinds)
        return [self.make(kind) for kind in kinds]

    def make(self, kind: str) -> Op:
        raise NotImplementedError

    def call(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> bool:
        raise NotImplementedError


class ExactQueries(Workload):
    name = "exact_queries"
    # Weighted so that bohm queries take about half the wall time.
    block_kinds = ("born",) * 8 + ("keep",) * 4 + ("erase",) * 4 + ("trace",) * 6 + (
        "evolve",
        "compare",
        "sample",
    )
    block_seconds = 0.02

    def make(self, kind: str) -> Op:
        rng = self.rng
        if kind == "born":
            return Op(kind, (_random_state(rng), ref.CONTEXTS[rng.integers(4)]))
        if kind == "keep":
            return Op(kind, (_random_state(rng), _SITE_SETS[rng.integers(3)]))
        if kind == "erase":
            return Op(kind, (_random_state(rng), ((0, 1), (1, 0))[rng.integers(2)]))
        if kind == "trace":
            axioms = "".join(a for a in "QCS" if rng.random() < 0.75)
            allow = bool(rng.random() < 0.5)
            if rng.random() < 0.25:
                admitted = None
            else:
                admitted = tuple(s for s in ref.STATEMENT_IDS if rng.random() < 0.5)
            return Op(kind, (axioms, allow, admitted))
        foliation = ("F", "Fprime")[rng.integers(2)]
        coupling = ("monotone", "independent")[rng.integers(2)]
        if kind == "evolve":
            return Op(kind, (foliation, coupling))
        if kind == "compare":
            return Op(kind, (coupling,))
        samples = int(10 ** rng.uniform(3.0, 6.0))
        return Op(kind, (foliation, coupling, samples, int(rng.integers(2**31))))

    def call(self, op: Op):
        k, a = op.kind, op.args
        if k == "born":
            state = qcore.make_state(a[0], (qcore.COIN_ZBAR, qcore.SPIN_Z))
            return qcore.born_distribution(state, _CONTEXTS[a[1]].bases)
        if k == "keep":
            state = qcore.make_state(a[0], (qcore.COIN_ZBAR, qcore.SPIN_Z))
            return memory.record_and_keep(state, [_FRIENDS[s] for s in a[1]]).tables()
        if k == "erase":
            state = qcore.make_state(a[0], (qcore.COIN_ZBAR, qcore.SPIN_Z))
            final = state
            for site in a[1]:
                final = memory.record_and_erase(final, _FRIENDS[site], state.bases[site]).final_state
            return qcore.born_distribution(final, hardy.CTX_WBAR_W.bases)
        if k == "trace":
            axioms = epistemic.AxiomSet(*(x in a[0] for x in "QCS"))
            return epistemic.run_trace(axioms, allow_counterfactual=a[1], admitted=a[2])
        if k == "evolve":
            return bohm.evolve(_FOLIATIONS[a[0]], _COUPLINGS[a[1]])
        if k == "compare":
            return bohm.compare_foliations(_COUPLINGS[a[0]])
        return bohm.sample_paths(_FOLIATIONS[a[0]], _COUPLINGS[a[1]], samples=a[2], seed=a[3])

    def check(self, op: Op, result) -> bool:
        k, a = op.kind, op.args
        if k == "born":
            return ref.tables_close(dict(result.items()), ref.born(a[1], a[0]))
        if k == "keep":
            want = ref.kept_tables(a[0], a[1])
            return set(result) == set(want) and all(
                ref.tables_close(dict(result[c].items()), want[c]) for c in want
            )
        if k == "erase":
            return ref.tables_close(dict(result.items()), ref.born("Wbar,W", a[0]))
        if k == "trace":
            want = ref.trace(*a)
            ok = (
                result.active == want["active"]
                and result.contradiction == want["contradiction"]
                and result.minimal_counterfactual == want["minimal"]
            )
            if want["contradiction"]:
                w = result.witness
                ok = ok and w.outcome == ("okbar", "ok") and w.composed == 0.0
                ok = ok and ref.close(w.actual, want["witness_actual"])
            return ok and (result.witness is None) == (not want["contradiction"])
        if k == "evolve":
            got = {_sig_key(p.signature): p.weight for p in result.paths}
            return ref.tables_close(got, ref.paths(*a))
        if k == "compare":
            want = ref.comparison(a[0])
            for fol, origins in (("F", result.origins_f), ("Fprime", result.origins_fprime)):
                got = {o: {(c.coin, c.spin): w for c, w in d.items()} for o, d in origins.items()}
                exp = ref.origins(fol, a[0])
                if set(got) != set(exp) or not all(ref.tables_close(got[o], exp[o]) for o in exp):
                    return False
            return (
                result.origin_differs == want["origin_differs"]
                and result.marginals_identical == want["marginals_identical"]
                and result.born_identical == want["born_identical"]
            )
        foliation, coupling, n, _ = a
        weights = ref.paths(foliation, coupling)
        counts = {_sig_key(sig): c for sig, c in result.items()}
        return (
            sum(counts.values()) == n
            and set(counts) <= set(weights)
            and all(ref.binomial_ok(counts.get(key, 0), n, w) for key, w in weights.items())
        )


def _sig_key(sig) -> tuple:
    initial, events, final = sig
    return (
        (initial.coin, initial.spin),
        tuple((t.system, t.source, t.target) for t in events),
        tuple(final),
    )


class ChshMax(Workload):
    name = "chsh_max"
    block_kinds = ("singlet", "lhv", "pure", "kept", "pure", "kept", "erased_vs_kept")
    block_seconds = 3.0
    GRID = 20

    def make(self, kind: str) -> Op:
        if kind == "pure":
            return Op(kind, (_random_state(self.rng),))
        if kind == "kept":
            return Op(kind, (_random_state(self.rng), _SITE_SETS[self.rng.integers(3)]))
        return Op(kind, ())

    def call(self, op: Op):
        k, a = op.kind, op.args
        if k == "singlet":
            return bell.chsh_scan(bell.quantum_correlation, self.GRID)
        if k == "lhv":
            model = bell.observer_independent_facts_model()
            return bell.chsh_scan(lambda x, y: bell.lhv_correlation(model, x, y), self.GRID)
        if k == "erased_vs_kept":
            return bell.erased_vs_kept_chsh(grid_n=self.GRID)
        state = qcore.make_state(a[0], (bell.PAIR_Z, bell.PAIR_Z))
        if k == "kept":
            state = memory.record_and_keep(state, [_FRIENDS[s] for s in a[1]]).final_state
        return bell.chsh_scan(lambda x, y: bell.quantum_correlation(x, y, state), self.GRID)

    def check(self, op: Op, result) -> bool:
        k, a = op.kind, op.args
        if k == "erased_vs_kept":
            want = ref.erased_vs_kept()
            return all(
                ref.close(getattr(result, key), value, ref.CHSH_TOL) for key, value in want.items()
            )
        if k == "singlet":
            want = ref.TSIRELSON
        elif k == "lhv":
            want = ref.LHV_MAX
        else:
            want = ref.chsh_max(ref.kept_density(a[0], a[1] if k == "kept" else ()))
        return ref.close(result.max_s, want, ref.CHSH_TOL)


_CLI_KINDS = ("contexts", "bohm", "samples", "agents", "memory", "chsh", "config")
_KEEPS = ((), ("F",), ("Fbar",))


def _sites(keep) -> tuple:
    return tuple(sorted({"Fbar": 0, "F": 1}[name] for name in keep))


class CliCold(Workload):
    """Each operation is one fresh CLI process; its result is
    (exit code, stdout, stderr).  Table and JSON output alternate, with the
    phase set by the seed."""

    name = "cli_cold"
    block_kinds = _CLI_KINDS
    block_seconds = 7.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._count = 0
        # When traced, each call runs a traced child under -X importtime and
        # keeps its spans and its import times here.
        self.traced = False
        self.snapshots: list[dict] = []
        self.child_imports: list[dict] = []

    def _spec(self, kind: str) -> dict:
        rng = self.rng
        spec = {"cmd": kind}
        if kind == "bohm":
            spec["foliation"] = ("F", "Fprime", "both")[rng.integers(3)]
            spec["coupling"] = ("monotone", "independent")[rng.integers(2)]
        elif kind == "samples":
            spec.update(
                cmd="bohm",
                foliation=("F", "Fprime")[rng.integers(2)],
                coupling=("monotone", "independent")[rng.integers(2)],
                samples=int(10 ** rng.uniform(3.0, 6.0)),
                seed=int(rng.integers(2**31)),
            )
        elif kind == "agents":
            spec["forbid"] = bool(rng.integers(2))
        elif kind == "memory":
            spec["keep"] = _KEEPS[rng.integers(3)]
        elif kind == "chsh" and rng.integers(2):
            spec["quad"] = tuple(float(x) for x in rng.uniform(0.0, 2.0 * math.pi, 4))
        return spec

    def make(self, kind: str) -> Op:
        self._count += 1
        fmt = "json" if (self._count + self.seed) % 2 else "table"
        if kind == "config":
            spec = self._spec(_CLI_KINDS[self.rng.integers(6)])
            spec["config"] = True
        else:
            spec = self._spec(kind)
        spec["fmt"] = fmt
        return Op(spec["cmd"], tuple(sorted(spec.items())))

    def call(self, op: Op):
        spec = dict(op.args)
        OUT_DIR.mkdir(exist_ok=True)
        config = OUT_DIR / f"config-{os.getpid()}.json"
        spans = OUT_DIR / f"spans-{os.getpid()}.json"
        if spec.get("config"):
            config.write_text(json.dumps(_config_json(spec)), encoding="utf-8")
            argv = ["--config", str(config)]
        else:
            argv = _argv(spec)
        if self.traced:
            cmd = [sys.executable, "-X", "importtime", str(BENCH / "traced_cli.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "wignerfriend.cli", *argv]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120
            )
        finally:
            config.unlink(missing_ok=True)
        if self.traced:
            self.snapshots.append(json.loads(spans.read_text(encoding="utf-8")))
            spans.unlink()
            self.child_imports.append(import_ms(proc.stderr))
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op: Op, result) -> bool:
        code, out, err = result
        if self.traced:
            err = strip_import_lines(err)
        if code != 0 or err.strip():
            return False
        spec = dict(op.args)
        if spec["fmt"] == "json":
            return _CHECK_JSON[spec["cmd"]](spec, json.loads(out))
        return _CHECK_TABLE[spec["cmd"]](spec, out.splitlines())


def _argv(spec: dict) -> list[str]:
    argv = [spec["cmd"], "--format", spec["fmt"]]
    if spec["cmd"] == "bohm":
        argv += ["--foliation", spec["foliation"], "--coupling", spec["coupling"]]
        if "samples" in spec:
            argv += ["--samples", str(spec["samples"]), "--seed", str(spec["seed"])]
    elif spec["cmd"] == "agents" and spec["forbid"]:
        argv.append("--forbid-counterfactual")
    elif spec["cmd"] == "memory":
        for name in spec["keep"]:
            argv += ["--keep", name]
    elif spec["cmd"] == "chsh" and "quad" in spec:
        argv += ["--quad", *(repr(x) for x in spec["quad"])]
    return argv


def _config_json(spec: dict) -> dict:
    raw = {"scenario": spec["cmd"], "format": spec["fmt"]}
    if spec["cmd"] == "bohm":
        raw.update(foliation=spec["foliation"], coupling=spec["coupling"])
        if "samples" in spec:
            raw.update(samples=spec["samples"], seed=spec["seed"])
    elif spec["cmd"] == "agents":
        raw["forbid_counterfactual"] = spec["forbid"]
    elif spec["cmd"] == "memory":
        raw["kept"] = list(spec["keep"])
    elif spec["cmd"] == "chsh" and "quad" in spec:
        raw["quad"] = list(spec["quad"])
    return raw


def _pair(s: str) -> tuple:
    return tuple(s.split(","))


def _json_table(payload: dict) -> dict:
    return {_pair(k): float(v) for k, v in payload.items()}


def _json_contexts(spec, payload) -> bool:
    got = payload["contexts"]
    return set(got) == set(ref.CONTEXTS) and all(
        ref.tables_close(_json_table(got[c]), ref.born(c, ref.HARDY)) for c in ref.CONTEXTS
    )


def _json_bohm(spec, payload) -> bool:
    fol, coupling = spec["foliation"], spec["coupling"]
    if fol == "both":
        want = ref.comparison(coupling)
        got = payload["comparison"]
        return (
            {_pair(k): v for k, v in got["origin_differs"].items()} == want["origin_differs"]
            and got["marginals_identical"] == want["marginals_identical"]
            and got["born_identical"] == want["born_identical"]
        )
    weights = ref.paths(fol, coupling)
    got = {
        (
            (p["initial"]["coin"], p["initial"]["spin"]),
            tuple((e["system"], e["from"], e["to"]) for e in p["events"]),
            tuple(p["final"]),
        ): float(p["weight"])
        for p in payload["trajectories"]["paths"]
    }
    origins = ref.origins(fol, coupling)
    ok = ref.tables_close(got, weights) and {_pair(k) for k in payload["origins"]} == set(origins)
    ok = ok and all(
        ref.tables_close(_json_table(payload["origins"][",".join(o)]), origins[o]) for o in origins
    )
    if "samples" not in spec:
        return ok
    sampled = payload["samples"]
    n = spec["samples"]
    want = sorted((i, f, w) for (i, _, f), w in weights.items())
    entries = sorted(
        ((e["initial"]["coin"], e["initial"]["spin"]), tuple(e["final"]), float(e["exact_weight"]), e["count"])
        for e in sampled["paths"]
    )
    return (
        ok
        and sampled["n"] == n
        and sampled["seed"] == spec["seed"]
        and sum(e[3] for e in entries) == n
        and len(entries) == len(want)
        and all(
            (gi, gf) == (wi, wf) and ref.close(gw, ww) and ref.binomial_ok(c, n, ww)
            for (gi, gf, gw, c), (wi, wf, ww) in zip(entries, want)
        )
    )


def _json_agents(spec, payload) -> bool:
    want = ref.trace("QCS", not spec["forbid"], None)
    active = tuple(s["id"] for s in payload["statements"] if s["active"])
    ok = (
        active == want["active"]
        and payload["contradiction"] == want["contradiction"]
        and tuple(payload["minimal_counterfactual"]) == want["minimal"]
    )
    if want["contradiction"]:
        w = payload["witness"]
        return ok and tuple(w["outcome"]) == ("okbar", "ok") and ref.close(float(w["actual"]), want["witness_actual"])
    return ok and payload["witness"] is None


def _json_memory(spec, payload) -> bool:
    ok = ref.tables_close(_json_table(payload["coherent"]), ref.born("Wbar,W", ref.HARDY))
    sites = _sites(spec["keep"])
    if not sites:
        return ok and payload["decohered"] is None
    want = ref.kept_tables(ref.HARDY, sites)["Wbar,W"]
    return ok and ref.tables_close(_json_table(payload["decohered"]), want)


def _chsh_reference(spec) -> tuple:
    quad = spec.get("quad", ref.OPTIMAL_QUAD)
    return (
        ref.chsh_at(ref.correlation_block(ref.SINGLET_RHO), quad),
        ref.chsh_at(ref.LHV_BLOCK, quad),
    )


def _json_chsh(spec, payload) -> bool:
    s_q, s_l = _chsh_reference(spec)
    return ref.close(float(payload["S_quantum"]), s_q) and ref.close(float(payload["S_lhv"]), s_l)


_CHECK_JSON = {
    "contexts": _json_contexts,
    "bohm": _json_bohm,
    "agents": _json_agents,
    "memory": _json_memory,
    "chsh": _json_chsh,
}

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _numbers_after(lines: list[str], prefix: str) -> list[float] | None:
    """Decimals on the first line starting with ``prefix``, with the
    parenthesized rationals removed."""
    for line in lines:
        if line.startswith(prefix):
            return [float(x) for x in _NUMBER.findall(re.sub(r"\([^)]*\)", "", line[len(prefix):]))]
    return None


def _table_contexts(spec, lines) -> bool:
    got = _numbers_after(lines, "  (okbar, ok)  ")
    return got is not None and ref.close(got[0], ref.born("Wbar,W", ref.HARDY)[("okbar", "ok")])


def _table_bohm(spec, lines) -> bool:
    fol, coupling = spec["foliation"], spec["coupling"]
    if fol == "both":
        want = ref.comparison(coupling)
        line = (
            f"  final-outcome marginals identical: {want['marginals_identical']}; "
            f"equal to the Born table: {want['born_identical']}"
        )
        return line in lines
    if f"foliation {fol}, coupling {coupling}, context (Wbar, W)" not in lines:
        return False
    origin = next((line for line in lines if line.startswith("  (okbar, ok): ")), "")
    want = ref.origins(fol, coupling)[("okbar", "ok")]
    if not all(f"({c}, {s})" in origin for (c, s), w in want.items() if w > ref.TABLE_TOL):
        return False
    if "samples" not in spec:
        return True
    n = spec["samples"]
    header = f"sampled {n} runs with seed {spec['seed']}:"
    if header not in lines:
        return False
    counts = [int(m.group(1)) for line in lines if (m := re.search(r": (\d+)/%d = " % n, line))]
    return len(counts) == len(ref.paths(fol, coupling)) and sum(counts) == n


def _table_agents(spec, lines) -> bool:
    want = ref.trace("QCS", not spec["forbid"], None)
    if not want["contradiction"]:
        return "no contradiction" in lines
    got = _numbers_after(lines, "contradiction: chained prediction ")
    return got is not None and got[0] == 0.0 and ref.close(got[1], want["witness_actual"])


def _table_memory(spec, lines) -> bool:
    keep = spec["keep"]
    if f"kept records: {', '.join(keep) if keep else 'none'}" not in lines:
        return False
    got = _numbers_after(lines, "  (failbar, fail)  ")
    want = [ref.born("Wbar,W", ref.HARDY)[("failbar", "fail")]]
    if keep:
        want.append(ref.kept_tables(ref.HARDY, _sites(keep))["Wbar,W"][("failbar", "fail")])
    return got is not None and len(got) == len(want) and all(map(ref.close, got, want))


def _table_chsh(spec, lines) -> bool:
    s_q, s_l = _chsh_reference(spec)
    got_q = _numbers_after(lines, "quantum S = ")
    got_l = _numbers_after(lines, "hidden-variable S = ")
    # The table prints 15 significant digits.
    return got_q is not None and got_l is not None and ref.close(got_q[0], s_q, 1e-13) and ref.close(got_l[0], s_l, 1e-13)


_CHECK_TABLE = {
    "contexts": _table_contexts,
    "bohm": _table_bohm,
    "agents": _table_agents,
    "memory": _table_memory,
    "chsh": _table_chsh,
}

WORKLOADS = {w.name: w for w in (CliCold, ExactQueries, ChshMax)}
