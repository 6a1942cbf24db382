"""Scenario runner: every module as a subcommand, with aligned-text tables or
machine-readable JSON on stdout.  Exit codes: 0 success, 2 usage error,
1 internal invariant violation.

This module composes every byte the program prints, each table line and each
JSON object: probabilities in tables through :func:`fmt_prob`, and in JSON
as 17-significant-digit strings.  The library calls return what they
computed and no copy of their arguments, so the options a result echoes (a
foliation's name, a coupling, a quad, the axioms) are read from the command
line."""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import TYPE_CHECKING

from . import hardy
from .qcore import InvariantViolation, born_distribution, fidelity

# Each handler imports the modules only it needs (bohm, epistemic, memory or
# bell), so that a fresh process pays for no other subcommand's imports.
# No subcommand loads numpy.
if TYPE_CHECKING:
    from . import bohm

RATIONAL_TOL = 1e-12
_MAX_DENOMINATOR = 144
# The documented range of --samples, int64 as in version 0.1.0; the sampler's
# cost does not grow with the count.
MAX_SAMPLES = 2**63 - 1
# Before Python 3.13, argparse takes a negative number only in the forms -5
# and -0.5, and reads -1e-3 as an unknown option; this is 3.13's pattern,
# plus the non-finite spellings float() reads (-inf, -infinity, -nan in any
# case), so that they reach the finiteness check instead of passing for
# options.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\.?\d|(?:inf(?:inity)?|nan)$)", re.IGNORECASE)

# The friends' names, as memory.Friend spells them.
_FRIENDS = ("F", "Fbar")


def fmt_prob(x: float) -> str:
    """Decimal to 15 significant digits, plus the closest fraction p/q with
    q <= 144 when it matches to 1e-12.

    The fraction is ``Fraction(x).limit_denominator(144)``, computed the same
    way, by continued-fraction steps on ``x.as_integer_ratio()`` in integers,
    without importing ``fractions`` and the ``decimal`` it loads.  Searching
    q = 1, 2, ... for the first p/q within 1e-12 is not the same: above about
    2**38 the float spacing lets several p/q match, and the closest need not
    have the smallest q.
    """
    out = f"{x:.15g}"
    p, q = x.as_integer_ratio()
    if q > _MAX_DENOMINATOR:
        n, d, exact_q = p, q, q
        p0, q0, p, q = 0, 1, 1, 0
        while True:
            a = n // d
            if q0 + a * q > _MAX_DENOMINATOR:
                break
            p0, q0, p, q = p, q, p0 + a * p, q0 + a * q
            n, d = d, n - a * d
        # The last convergent p/q, or the semiconvergent before it, whichever
        # is closer to x; a tie goes to the convergent.
        k = (_MAX_DENOMINATOR - q0) // q
        if 2 * d * (q0 + k * q) > exact_q:
            p, q = p0 + k * p, q0 + k * q
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
    return {",".join(key): _json_prob(p) for key, p in table.items()}


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


def _config_json(config: bohm.HiddenConfig) -> dict:
    return {"coin": config.coin, "spin": config.spin}


def _tree_lines(ts: bohm.TrajectorySet) -> list[str]:
    from . import bohm

    lines: list[str] = []

    def walk(paths: list[bohm.TrajectoryPath], depth: int, indent: str) -> None:
        for key, group in bohm.branches(paths, depth).items():
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
    names = [basis.name for basis in hardy.CTX_WBAR_W.bases]
    context = ", ".join(names)
    lines: list[str] = []
    payload: dict = {"coupling": args.coupling}

    if args.foliation == "both":
        report = bohm.compare_foliations(coupling)
        lines.append(f"coupling {args.coupling}: foliation comparison for context ({context})")
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
    lines.append(f"foliation {args.foliation}, coupling {args.coupling}, context ({context})")
    lines += _tree_lines(ts)
    lines.append("")
    lines.append("origins by final outcome:")
    for outcome in ts.final_marginal():
        origins = bohm.origin_of(ts, outcome)
        pretty = ", ".join(f"{_config_str(c)} {fmt_prob(p)}" for c, p in origins.items())
        lines.append(f"  ({outcome[0]}, {outcome[1]}): {pretty}")
    payload["trajectories"] = {
        "foliation": args.foliation,
        "context": names,
        "coupling": args.coupling,
        "paths": [
            {
                "initial": _config_json(p.initial),
                "events": [{"system": t.system, "from": t.source, "to": t.target} for t in p.events],
                "final": list(p.final),
                "weight": _json_prob(p.weight),
            }
            for p in ts.paths
        ],
    }
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
                    "initial": _config_json(p.initial),
                    "final": list(p.final),
                    "count": got,
                    "exact_weight": _json_prob(p.weight),
                }
            )
        payload["samples"] = {"n": args.samples, "seed": args.seed, "paths": sample_payload}
    return "\n".join(lines), payload


def cmd_agents(args) -> tuple[str, dict]:
    from . import epistemic

    axioms = epistemic.AxiomSet()
    allow = not args.forbid_counterfactual
    report = epistemic.run_trace(axioms, allow_counterfactual=allow)
    statements = epistemic.builtin_statements()
    lines = ["statements:"]
    for s in statements:
        active = "active" if s.id in report.active else "excluded"
        lines.append(
            f"  {s.id:<9} {s.author.value:<5} assumed ({s.assumed_context.name}) "
            f"actual ({s.actual_context.name})  {s.verdict:<22} [{active}]"
        )
    w = report.witness
    if report.contradiction:
        lines.append(
            f"contradiction: chained prediction {w.composed:g} vs actual "
            f"{fmt_prob(w.actual)} for ({w.outcome[0]}, {w.outcome[1]}) in ({w.context.name})"
        )
        lines.append(f"minimal counterfactual set: {', '.join(report.minimal_counterfactual)}")
    else:
        lines.append("no contradiction")
    payload = {
        "axioms": {"Q": axioms.Q, "C": axioms.C, "S": axioms.S},
        "allow_counterfactual": allow,
        "statements": [
            {
                "id": s.id,
                "author": s.author.value,
                "assumed_context": s.assumed_context.name,
                "actual_context": s.actual_context.name,
                "classification": s.verdict,
                "active": s.id in report.active,
                "derived_from": list(s.derived_from),
                "backing": {
                    ",".join(key): _json_prob(p)
                    for key, p in epistemic.backing_probabilities(s).items()
                },
            }
            for s in statements
        ],
        "edges": [[parent, s.id] for s in statements for parent in s.derived_from],
        "contradiction": report.contradiction,
        "witness": None
        if w is None
        else {
            "context": w.context.name,
            "outcome": list(w.outcome),
            "composed": w.composed,
            "actual": _json_prob(w.actual),
        },
        "minimal_counterfactual": list(report.minimal_counterfactual),
    }
    return "\n".join(lines), payload


def cmd_memory(args) -> tuple[str, dict]:
    from . import memory

    kept = tuple(memory.Friend(name) for name in args.keep)
    state = hardy.hardy_state()
    final = state
    for agent in memory.Friend:
        if agent not in kept:
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
        scan_q = bell.chsh_max(bell.singlet())
        scan_l = bell.chsh_max(model)
        lines.append(
            "scan (closed form, checked by the Born rule): "
            f"quantum max {scan_q.max_s:.15g}, hidden-variable max {scan_l.max_s:.15g}"
        )
        payload["S_quantum_max"] = _json_prob(scan_q.max_s)
        payload["S_lhv_max"] = _json_prob(scan_l.max_s)
        payload["argmax_quad"] = list(scan_q.argmax.as_tuple())
    if args.erased_vs_kept:
        report = bell.erased_vs_kept_chsh(quad=quad)
        lines.append(
            f"records erased: S = {report.s_erased:.15g}; records kept: "
            f"S = {report.s_kept_at_quad:.15g} at the quad, max {report.s_kept_max:.15g}"
        )
        lines.append(
            f"kept correlations at aligned angles: {report.aligned_correlation:.15g}; "
            f"max gap to the hidden-variable model: {report.kept_vs_lhv_max_gap:.3g}"
        )
        payload["erased_vs_kept"] = {
            "quad": list(quad.as_tuple()),
            "S_erased": _json_prob(report.s_erased),
            "S_kept_at_quad": _json_prob(report.s_kept_at_quad),
            "S_kept_max": _json_prob(report.s_kept_max),
            "aligned_correlation": _json_prob(report.aligned_correlation),
            "kept_vs_lhv_max_gap": _json_prob(report.kept_vs_lhv_max_gap),
        }
    return "\n".join(lines), payload


_HANDLERS = {
    "contexts": cmd_contexts,
    "bohm": cmd_bohm,
    "agents": cmd_agents,
    "memory": cmd_memory,
    "chsh": cmd_chsh,
}

# Each config key's JSON type and the option it stands for; bool is not
# accepted as int.
_CONFIG_KEYS = {
    "format": (str, "--format"),
    "seed": (int, "--seed"),
    "samples": (int, "--samples"),
    "foliation": (str, "--foliation"),
    "coupling": (str, "--coupling"),
    "forbid_counterfactual": (bool, "--forbid-counterfactual"),
    "kept": (list, "--keep"),
    "quad": (list, "--quad"),
    "scan": (bool, "--scan"),
    "erased_vs_kept": (bool, "--erased-vs-kept"),
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
    p.add_argument("--foliation", choices=("F", "Fprime", "both"), default="F")
    p.add_argument("--coupling", choices=("monotone", "independent"), default="monotone")

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
    p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _argv_from_config(raw, parser: argparse.ArgumentParser) -> list[str]:
    """The command line a config stands for: its scenario, then each key as
    its option.  Values are written in ``=`` form, so that no string can pass
    for an option; defaults, choices and bounds are left to the parser."""
    if type(raw) is not dict:
        parser.error("config must be a JSON object")
    scenario = raw.get("scenario")
    if type(scenario) is not str or scenario not in _HANDLERS:
        parser.error(f"unknown scenario name: {scenario!r}")
    argv = [scenario]
    for key, value in raw.items():
        if key == "scenario":
            continue
        if key not in _CONFIG_KEYS:
            parser.error(f"unknown config key: {key!r}")
        kind, option = _CONFIG_KEYS[key]
        if type(value) is not kind:
            parser.error(f"config key {key!r} must be a JSON {kind.__name__}")
        if key == "kept":
            if not all(type(name) is str for name in value):
                parser.error("config key 'kept' must be a list of names")
            argv += [f"{option}={name}" for name in value]
        elif key == "quad":
            if len(value) != 4 or not all(type(x) in (int, float) for x in value):
                parser.error("config key 'quad' must be four numbers")
            argv += [option, *map(repr, value)]
        elif kind is bool:
            if value:
                argv.append(option)
        else:
            argv.append(f"{option}={value}")
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.config is not None:
        # A config stands for the whole command line.
        if any(value is not None for name, value in vars(args).items() if name != "config"):
            parser.error("--config takes no subcommand or other option beside it")
        import json

        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        # ValueError covers malformed JSON and bytes that are not UTF-8;
        # RecursionError, JSON nested deeper than the parser's stack.
        except (OSError, ValueError, RecursionError) as exc:
            parser.error(f"cannot read config: {exc}")
        args = parser.parse_args(_argv_from_config(raw, parser))
    if args.command is None:
        parser.error("a subcommand (or --config) is required")

    if (args.samples is None) != (args.seed is None):
        parser.error("--seed is required iff --samples is given")
    if args.samples is not None and args.command != "bohm":
        parser.error("sampling applies to the bohm scenario only")
    if args.samples is not None and args.foliation == "both":
        parser.error("sampling needs one foliation, F or Fprime")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.samples is not None and not 1 <= args.samples <= MAX_SAMPLES:
        parser.error(f"--samples must be from 1 to {MAX_SAMPLES}")
    if args.command == "memory" and len(set(args.keep)) != len(args.keep):
        parser.error(f"--keep lists an agent more than once: {', '.join(args.keep)}")
    if args.command == "chsh" and not all(map(math.isfinite, args.quad or ())):
        parser.error("--quad angles must be finite")

    try:
        text, payload = _HANDLERS[args.command](args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        import json

        text = json.dumps(payload, indent=2)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does): the documented recipe
        # points stdout at devnull, so that the flush at exit cannot raise
        # again, and exits quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
