"""Scenario runner: every module as a subcommand, with aligned-text tables or
machine-readable JSON on stdout.  Exit codes: 0 success, 2 usage error,
1 internal invariant violation."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING

from . import hardy
from .qcore import InvariantViolation, born_distribution, fidelity

# Each handler imports the modules only it needs (bohm, epistemic, memory or
# bell), so that a fresh process pays for no other subcommand's imports.
# numpy is loaded only by chsh --scan and --erased-vs-kept.
if TYPE_CHECKING:
    from . import bohm

RATIONAL_TOL = 1e-12
_MAX_DENOMINATOR = 144
# The CHSH maximum checks bilinearity on grid**2 settings, evaluated in one
# broadcast call: 50 caps a check at 2,500 settings.
MAX_GRID = 50
# The documented range of --samples, int64 as in version 0.1.0; the sampler's
# cost does not grow with the count.
MAX_SAMPLES = 2**63 - 1
# Before Python 3.13, argparse takes a negative number only in the forms -5
# and -0.5, and reads -1e-3 as an unknown option; this is 3.13's pattern.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")

_FOLIATIONS = ("F", "Fprime")
_COUPLINGS = ("monotone", "independent")
# The friends' names, as memory.Friend spells them.
_FRIENDS = ("F", "Fbar")


def fmt_prob(x: float) -> str:
    """Decimal to 15 significant digits, plus the small rational p/q
    (q <= 144, lowest terms) that matches to 1e-12, when there is one.

    Two distinct such rationals lie at least 1/(144*143) apart, so at most one
    matches, and the first q whose nearest p/q matches gives it in lowest
    terms: the same suffix as ``Fraction(x).limit_denominator(144)``, without
    importing ``fractions`` and the ``decimal`` it loads.
    """
    out = f"{x:.15g}"
    for q in range(1, _MAX_DENOMINATOR + 1):
        p = round(x * q)
        if abs(x - p / q) <= RATIONAL_TOL:
            return out + (f" ({p}/{q})" if q != 1 else f" ({p})")
    return out


def _json_prob(x: float) -> str:
    return f"{x:.17g}"


def _table_lines(table, title: str) -> list[str]:
    lines = [title]
    total = 0.0
    for key, p in table.items():
        lines.append(f"  ({', '.join(key)})  {fmt_prob(p)}")
        total += p
    lines.append(f"  sum  {fmt_prob(total)}")
    return lines


def _table_json(table) -> dict:
    payload = {",".join(key): _json_prob(p) for key, p in table.items()}
    if abs(sum(table.probs.values()) - 1.0) > 1e-12:
        raise InvariantViolation("table does not sum to 1")
    return payload


def cmd_contexts(args) -> tuple[str, dict]:
    lines: list[str] = []
    payload: dict = {"contexts": {}}
    for ctx in hardy.ALL_CONTEXTS:
        table = hardy.context_table(ctx)
        lines += _table_lines(table, f"context ({ctx.name})")
        lines.append("")
        payload["contexts"][ctx.name] = _table_json(table)
    return "\n".join(lines).rstrip(), payload


def _config_str(config: bohm.HiddenConfig) -> str:
    return f"({config.coin}, {config.spin})"


def _tree_lines(ts: bohm.TrajectorySet) -> list[str]:
    lines: list[str] = []

    def walk(paths: list[bohm.TrajectoryPath], depth: int, indent: str) -> None:
        buckets: dict = {}
        for p in paths:
            key = p.initial if depth == 0 else p.events[depth - 1]
            buckets.setdefault(key, []).append(p)
        for key, group in buckets.items():
            weight = sum(p.weight for p in group)
            if depth == 0:
                head = f"initial {_config_str(key)}"
            else:
                head = f"{key.system}: {key.source} -> {key.target}"
            tail = ""
            if len(group) == 1 and depth == len(group[0].events):
                tail = f"   final ({group[0].final[0]}, {group[0].final[1]})"
            lines.append(f"{indent}{head}   weight {fmt_prob(weight)}{tail}")
            if not tail:
                walk(group, depth + 1, indent + "    ")

    walk(list(ts.paths), 0, "")
    return lines


def _origins_json(ts: bohm.TrajectorySet) -> dict:
    from . import bohm

    return {
        ",".join(outcome): {
            f"{cfg.coin},{cfg.spin}": _json_prob(p)
            for cfg, p in bohm.origin_of(ts, outcome).items()
        }
        for outcome in ts.final_marginal()
    }


def cmd_bohm(args) -> tuple[str, dict]:
    from . import bohm

    coupling = {"monotone": bohm.MONOTONE, "independent": bohm.INDEPENDENT}[args.coupling]
    lines: list[str] = []
    payload: dict = {"coupling": args.coupling}

    if args.foliation == "both":
        report = bohm.compare_foliations(coupling)
        lines.append(f"coupling {args.coupling}: foliation comparison for context (Wbar, W)")
        for outcome, differs in report.origin_differs.items():
            of = {_config_str(c): fmt_prob(p) for c, p in report.origins_f[outcome].items()}
            ofp = {_config_str(c): fmt_prob(p) for c, p in report.origins_fprime[outcome].items()}
            mark = "differ" if differs else "agree"
            lines.append(f"  origins of ({outcome[0]}, {outcome[1]}): {mark}")
            lines.append(f"    F      {of}")
            lines.append(f"    Fprime {ofp}")
        lines.append(
            "  final-outcome marginals identical: %s; equal to the Born table: %s"
            % (report.marginals_identical, report.born_identical)
        )
        payload["comparison"] = {
            "origin_differs": {",".join(k): v for k, v in report.origin_differs.items()},
            "marginals_identical": report.marginals_identical,
            "born_identical": report.born_identical,
        }
        return "\n".join(lines), payload

    foliation = {"F": bohm.FOLIATION_F, "Fprime": bohm.FOLIATION_FPRIME}[args.foliation]
    ts = bohm.evolve(foliation, coupling)
    lines.append(f"foliation {args.foliation}, coupling {args.coupling}, context (Wbar, W)")
    lines += _tree_lines(ts)
    lines.append("")
    lines.append("origins by final outcome:")
    for outcome in ts.final_marginal():
        origins = bohm.origin_of(ts, outcome)
        pretty = ", ".join(f"{_config_str(c)} {fmt_prob(p)}" for c, p in origins.items())
        lines.append(f"  ({outcome[0]}, {outcome[1]}): {pretty}")
    payload["trajectories"] = ts.to_json_dict()
    payload["origins"] = _origins_json(ts)

    if args.samples:
        counts = bohm.sample_paths(foliation, coupling, samples=args.samples, seed=args.seed)
        lines.append("")
        lines.append(f"sampled {args.samples} runs with seed {args.seed}:")
        sample_payload = []
        for p in ts.paths:
            got = counts.get(p.signature, 0)
            lines.append(
                f"  {_config_str(p.initial)} -> ({p.final[0]}, {p.final[1]}): "
                f"{got}/{args.samples} = {got / args.samples:.6f} vs exact {fmt_prob(p.weight)}"
            )
            sample_payload.append(
                {
                    "initial": {"coin": p.initial.coin, "spin": p.initial.spin},
                    "final": list(p.final),
                    "count": got,
                    "exact_weight": _json_prob(p.weight),
                }
            )
        payload["samples"] = {"n": args.samples, "seed": args.seed, "paths": sample_payload}
    return "\n".join(lines), payload


def cmd_agents(args) -> tuple[str, dict]:
    from . import epistemic

    report = epistemic.run_trace(allow_counterfactual=not args.forbid_counterfactual)
    lines = ["statements:"]
    for s in report.statements:
        active = "active" if s.id in report.active else "excluded"
        lines.append(
            f"  {s.id:<9} {s.author.value:<5} assumed ({s.assumed_context.name}) "
            f"actual ({s.actual_context.name})  {s.verdict:<22} [{active}]"
        )
    if report.contradiction:
        w = report.witness
        lines.append(
            f"contradiction: chained prediction {w.composed:g} vs actual "
            f"{fmt_prob(w.actual)} for ({w.outcome[0]}, {w.outcome[1]}) in ({w.context})"
        )
        lines.append(f"minimal counterfactual set: {', '.join(report.minimal_counterfactual)}")
    else:
        lines.append("no contradiction")
    return "\n".join(lines), report.to_json_dict()


def cmd_memory(args) -> tuple[str, dict]:
    from . import memory

    kept = tuple(memory.Friend(name) for name in args.keep)
    state = hardy.hardy_state()
    erased_names = getattr(args, "erased", None)
    if erased_names is None:
        erased_names = _FRIENDS
    final = state
    for name in erased_names:
        agent = memory.Friend(name)
        final = memory.record_and_erase(final, agent, state.bases[agent.system]).final_state
    coherent_table = born_distribution(final, hardy.CTX_WBAR_W.bases)

    lines = [f"kept records: {', '.join(args.keep) if args.keep else 'none'}"]
    payload: dict = {
        "kept": list(args.keep),
        "coherent": _table_json(coherent_table),
        "decohered": None,
    }
    if kept:
        decohered = memory.record_and_keep(state, kept)
        kept_table = decohered.tables()["Wbar,W"]
        lines.append("(Wbar, W) outcome   erased   kept")
        for key, p in coherent_table.items():
            lines.append(
                f"  ({', '.join(key)})  {fmt_prob(p)}   {fmt_prob(kept_table[key])}"
            )
        payload["decohered"] = _table_json(kept_table)
    else:
        lines += _table_lines(coherent_table, "(Wbar, W) with all records erased (coherent)")
    fid = fidelity(state, final)
    lines.append(f"erased run vs the input state: fidelity {fmt_prob(fid)}")
    payload["fidelity"] = _json_prob(fid)
    return "\n".join(lines), payload


def cmd_chsh(args) -> tuple[str, dict]:
    from . import bell

    quad = bell.AngleQuad(*args.quad) if args.quad else bell.OPTIMAL_QUAD
    model = bell.observer_independent_facts_model()
    s_quantum = bell.chsh(bell.quantum_correlation, quad)
    s_lhv = bell.chsh(lambda a, b: bell.lhv_correlation(model, a, b), quad)
    lines = [
        f"quad (a, a', b, b') = {tuple(round(x, 12) for x in quad.as_tuple())}",
        f"quantum S = {s_quantum:.15g}",
        f"hidden-variable S = {s_lhv:.15g}",
    ]
    payload: dict = {
        "quad": list(quad.as_tuple()),
        "S_quantum": _json_prob(s_quantum),
        "S_lhv": _json_prob(s_lhv),
    }
    if args.scan:
        scan_q = bell.chsh_scan(bell.quantum_correlation, grid_n=args.grid)
        scan_l = bell.chsh_scan(lambda a, b: bell.lhv_correlation(model, a, b), grid_n=args.grid)
        lines.append(
            f"scan (closed form, checked on a {args.grid}x{args.grid} grid): "
            f"quantum max {scan_q.max_s:.15g}, "
            f"hidden-variable max {scan_l.max_s:.15g}"
        )
        payload["S_quantum_max"] = _json_prob(scan_q.max_s)
        payload["S_lhv_max"] = _json_prob(scan_l.max_s)
        payload["argmax_quad"] = list(scan_q.argmax.as_tuple())
        payload["grid_resolution"] = args.grid
    if args.erased_vs_kept:
        report = bell.erased_vs_kept_chsh(grid_n=args.grid)
        lines.append(
            f"records erased: S = {report.s_erased:.15g}; records kept: "
            f"S = {report.s_kept_at_quad:.15g} at the quad, max {report.s_kept_max:.15g}"
        )
        lines.append(
            f"kept correlations at aligned angles: {report.aligned_correlation:.15g}; "
            f"max gap to the hidden-variable model: {report.kept_vs_lhv_max_gap:.3g}"
        )
        payload["erased_vs_kept"] = report.to_json_dict()
    return "\n".join(lines), payload


_HANDLERS = {
    "contexts": cmd_contexts,
    "bohm": cmd_bohm,
    "agents": cmd_agents,
    "memory": cmd_memory,
    "chsh": cmd_chsh,
}

# The JSON type each config key must have; bool is not accepted as int.
_CONFIG_TYPES = {
    "scenario": str,
    "foliation": str,
    "coupling": str,
    "kept": list,
    "erased": list,
    "quad": list,
    "scan": bool,
    "erased_vs_kept": bool,
    "forbid_counterfactual": bool,
    "format": str,
    "seed": int,
    "samples": int,
    "grid": int,
}


def _add_common(parser: argparse.ArgumentParser, top: bool = False) -> None:
    # Subcommand copies default to SUPPRESS so they never clobber a value the
    # top-level parser already set.
    default = None if top else argparse.SUPPRESS
    parser.add_argument("--format", choices=("table", "json"), default=default)
    parser.add_argument("--seed", type=int, default=default)
    parser.add_argument("--samples", type=int, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerfriend",
        description="Exact tables, hidden-variable trajectories, memory protocols, "
        "agent traces, and CHSH statistics for the two-qubit friend experiment.",
    )
    _add_common(parser, top=True)
    parser.add_argument("--config", default=None, help="JSON scenario file")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("contexts", help="the four measurement-context tables")
    _add_common(p)

    p = sub.add_parser("bohm", help="hidden-variable trajectory sets")
    _add_common(p)
    p.add_argument("--foliation", choices=(*_FOLIATIONS, "both"), default="F")
    p.add_argument("--coupling", choices=_COUPLINGS, default="monotone")

    p = sub.add_parser("agents", help="statement classifications and the trace")
    _add_common(p)
    p.add_argument("--forbid-counterfactual", action="store_true")

    p = sub.add_parser("memory", help="erased versus kept memory records")
    _add_common(p)
    p.add_argument("--keep", action="append", choices=_FRIENDS, default=[])

    p = sub.add_parser("chsh", help="CHSH values, scans, erased-vs-kept")
    _add_common(p)
    p.add_argument("--quad", type=float, nargs=4, metavar=("A", "APRIME", "B", "BPRIME"))
    p.add_argument("--scan", action="store_true")
    p.add_argument("--erased-vs-kept", action="store_true", dest="erased_vs_kept")
    p.add_argument("--grid", type=int, default=20, help=f"bilinearity check grid, 1 to {MAX_GRID}")
    p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _require_distinct(parser: argparse.ArgumentParser, what: str, agents: list) -> None:
    if len(set(agents)) != len(agents):
        parser.error(f"{what} lists an agent more than once: {', '.join(agents)}")


def _namespace_from_config(raw: dict, parser: argparse.ArgumentParser) -> argparse.Namespace:
    if type(raw) is not dict:
        parser.error("config must be a JSON object")
    unknown = set(raw) - set(_CONFIG_TYPES)
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        if type(value) is not _CONFIG_TYPES[key]:
            parser.error(f"config key {key!r} must be a JSON {_CONFIG_TYPES[key].__name__}")
    scenario = raw.get("scenario")
    if scenario not in _HANDLERS:
        parser.error(f"unknown scenario name: {scenario!r}")
    kept = raw.get("kept", [])
    ns = argparse.Namespace(
        command=scenario,
        format=raw.get("format"),
        seed=raw.get("seed"),
        samples=raw.get("samples"),
        foliation=raw.get("foliation", "F"),
        coupling=raw.get("coupling", "monotone"),
        forbid_counterfactual=raw.get("forbid_counterfactual", False),
        keep=kept,
        erased=raw.get("erased", [a for a in _FRIENDS if a not in kept]),
        quad=raw.get("quad"),
        scan=raw.get("scan", False),
        erased_vs_kept=raw.get("erased_vs_kept", False),
        grid=raw.get("grid", 20),
        config=None,
    )
    if ns.format not in (None, "table", "json"):
        parser.error(f"invalid format: {ns.format!r}")
    if ns.foliation not in (*_FOLIATIONS, "both"):
        parser.error(f"invalid foliation: {ns.foliation!r}")
    if ns.coupling not in _COUPLINGS:
        parser.error(f"invalid coupling: {ns.coupling!r}")
    if not all(type(k) is str and k in _FRIENDS for k in ns.keep + ns.erased):
        parser.error(f"invalid agent names: kept {ns.keep!r}, erased {ns.erased!r}")
    _require_distinct(parser, "config key 'kept'", ns.keep)
    _require_distinct(parser, "config key 'erased'", ns.erased)
    if set(ns.keep) & set(ns.erased):
        parser.error("an agent's record cannot be both kept and erased")
    if ns.quad is not None:
        if len(ns.quad) != 4 or not all(type(x) in (int, float) for x in ns.quad):
            parser.error("quad must be four angles")
        try:
            ns.quad = [float(x) for x in ns.quad]
        except OverflowError:
            parser.error("quad angles must be finite")
    return ns


def _numpy_missing() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return True
    return False


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.config is not None:
        if args.command is not None:
            parser.error("give either a subcommand or --config, not both")
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        # ValueError covers malformed JSON and bytes that are not UTF-8;
        # RecursionError, JSON nested deeper than the parser's stack.
        except (OSError, ValueError, RecursionError) as exc:
            parser.error(f"cannot read config: {exc}")
        args = _namespace_from_config(raw, parser)
    if args.command is None:
        parser.error("a subcommand (or --config) is required")

    if (args.samples is None) != (args.seed is None):
        parser.error("--seed is required iff --samples is given")
    if args.samples is not None and args.command != "bohm":
        parser.error("sampling applies to the bohm scenario only")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.samples is not None and not 1 <= args.samples <= MAX_SAMPLES:
        parser.error(f"--samples must be from 1 to {MAX_SAMPLES}")
    if args.command == "memory":
        _require_distinct(parser, "--keep", args.keep)
    if args.command == "chsh":
        if not 1 <= args.grid <= MAX_GRID:
            parser.error(f"--grid must be an integer from 1 to {MAX_GRID}")
        if args.quad is not None and not all(math.isfinite(x) for x in args.quad):
            parser.error("--quad angles must be finite")
        grids = [flag for flag, on in (("--scan", args.scan), ("--erased-vs-kept", args.erased_vs_kept)) if on]
        # The settings grids need numpy, which the rest of the package runs
        # without: say so in one line and exit 2, as for a usage error.
        if grids and _numpy_missing():
            print(
                f"{parser.prog}: error: numpy is not installed; it is required by chsh {' and '.join(grids)}",
                file=sys.stderr,
            )
            return 2

    fmt = args.format or "table"
    try:
        text, payload = _HANDLERS[args.command](args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    try:
        print(json.dumps(payload, indent=2) if fmt == "json" else text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does): the documented recipe
        # points stdout at devnull, so that the flush at exit cannot raise
        # again, and exits quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
