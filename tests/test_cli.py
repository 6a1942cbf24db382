import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from wignerfriend import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    payload = json.loads(out)
    # round-trip: re-serializing the parsed payload changes nothing
    assert json.loads(json.dumps(payload)) == payload
    return payload


def test_contexts_table_shows_the_port_row(capsys):
    code, out, _ = run_cli(capsys, "contexts")
    assert code == 0
    assert "(okbar, ok)  0.0833333333333333 (1/12)" in out
    assert "(failbar, fail)  0.75 (3/4)" in out


def test_contexts_json_round_trip(capsys):
    payload = run_json(capsys, "contexts")
    table = payload["contexts"]["Wbar,W"]
    assert abs(float(table["okbar,ok"]) - 1 / 12) < 1e-12
    total = sum(float(v) for v in table.values())
    assert abs(total - 1.0) < 1e-12


def test_bohm_f_prints_the_origin(capsys):
    code, out, _ = run_cli(capsys, "bohm", "--foliation", "F")
    assert code == 0
    assert "(okbar, ok): (h, down) 1" in out


def test_bohm_fprime_prints_the_origin(capsys):
    code, out, _ = run_cli(capsys, "bohm", "--foliation", "Fprime")
    assert code == 0
    assert "(okbar, ok): (t, up) 1" in out


def test_bohm_both_summarizes_the_difference(capsys):
    code, out, _ = run_cli(capsys, "bohm", "--foliation", "both")
    assert code == 0
    assert "origins of (okbar, ok): differ" in out
    assert "marginals identical: True" in out
    assert "Born table: True" in out


def test_bohm_json_weights_are_decimal_strings(capsys):
    payload = run_json(capsys, "bohm", "--foliation", "F")
    paths = payload["trajectories"]["paths"]
    total = sum(float(p["weight"]) for p in paths)
    assert abs(total - 1.0) < 1e-12
    assert all(len(p["weight"].replace("-", "").replace(".", "")) >= 15 for p in paths)


def test_bohm_invalid_foliation_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["bohm", "--foliation", "G"])
    assert info.value.code == 2


def test_bohm_sampling_demo(capsys):
    code, out, _ = run_cli(capsys, "bohm", "--samples", "5000", "--seed", "1")
    assert code == 0
    assert "sampled 5000 runs with seed 1" in out


def test_samples_without_seed_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["bohm", "--samples", "1000"])
    assert info.value.code == 2


def test_seed_without_samples_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["bohm", "--seed", "3"])
    assert info.value.code == 2


def test_negative_seed_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["bohm", "--samples", "10", "--seed", "-1"])
    assert info.value.code == 2


def test_zero_samples_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["bohm", "--samples", "0", "--seed", "1"])
    assert info.value.code == 2


def test_samples_on_wrong_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["contexts", "--samples", "10", "--seed", "1"])
    assert info.value.code == 2


def test_agents_marks_the_counterfactual_statement(capsys):
    code, out, _ = run_cli(capsys, "agents")
    assert code == 0
    assert "Fbar_n02" in out and "Counterfactual" in out
    assert "minimal counterfactual set: Fbar_n02, Wbar_n22" in out


def test_agents_forbid_counterfactual(capsys):
    code, out, _ = run_cli(capsys, "agents", "--forbid-counterfactual")
    assert code == 0
    assert "no contradiction" in out


def test_agents_json_witness(capsys):
    payload = run_json(capsys, "agents")
    witness = payload["witness"]
    assert witness["composed"] == 0
    assert abs(float(witness["actual"]) - 1 / 12) < 1e-12


def test_memory_none_kept_shows_the_coherent_row(capsys):
    code, out, _ = run_cli(capsys, "memory")
    assert code == 0
    assert "0.75 (3/4)" in out


def test_memory_both_kept_is_uniform(capsys):
    code, out, _ = run_cli(capsys, "memory", "--keep", "F", "--keep", "Fbar")
    assert code == 0
    assert out.count("0.25 (1/4)") == 4


def test_memory_f_kept_shows_five_twelfths(capsys):
    code, out, _ = run_cli(capsys, "memory", "--keep", "F")
    assert code == 0
    assert "0.416666666666667 (5/12)" in out


def test_memory_json_round_trip(capsys):
    payload = run_json(capsys, "memory", "--keep", "Fbar")
    assert payload["kept"] == ["Fbar"]
    assert abs(float(payload["coherent"]["failbar,fail"]) - 3 / 4) < 1e-12
    assert abs(float(payload["decohered"]["failbar,fail"]) - 5 / 12) < 1e-12


def test_chsh_default_prints_tsirelson(capsys):
    code, out, _ = run_cli(capsys, "chsh")
    assert code == 0
    assert "quantum S = 2.82842712474619" in out


def test_chsh_scan_json_has_the_report_fields(capsys):
    payload = run_json(capsys, "chsh", "--scan", "--grid", "8")
    for key in ("quad", "S_quantum", "S_lhv_max", "argmax_quad", "grid_resolution"):
        assert key in payload
    assert float(payload["S_lhv_max"]) <= 2.0 + 1e-9


def test_chsh_erased_vs_kept(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--erased-vs-kept", "--grid", "8")
    assert code == 0
    assert "records erased: S = 2.82842712474619" in out


def test_chsh_malformed_angles_are_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["chsh", "--quad", "0.1", "0.2", "0.3"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["chsh", "--quad", "a", "b", "c", "d"])
    assert info.value.code == 2


def _usage_error_without_traceback(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["chsh", "--scan", "--grid", "0"],
        ["chsh", "--scan", "--grid", "-3"],
        ["chsh", "--scan", "--grid", str(cli.MAX_GRID + 1)],
        ["chsh", "--erased-vs-kept", "--grid", "0"],
    ],
    ids=["zero", "negative", "above-cap", "erased-vs-kept-zero"],
)
def test_chsh_grid_out_of_range_is_usage_error(capsys, argv):
    _usage_error_without_traceback(capsys, argv)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_chsh_non_finite_quad_is_usage_error(capsys, bad):
    _usage_error_without_traceback(capsys, ["chsh", "--quad", "0", bad, "0", "0"])


@pytest.mark.parametrize(
    "raw",
    [
        {"scenario": "chsh", "scan": True, "grid": 0},
        {"scenario": "chsh", "scan": True, "grid": -3},
        {"scenario": "chsh", "scan": True, "grid": True},
        {"scenario": "chsh", "quad": [float("nan"), 0, 0, 0]},
        {"scenario": "bohm", "samples": "10", "seed": 1},
        {"scenario": "bohm", "samples": 10, "seed": 1.5},
        {"scenario": "bohm", "samples": True, "seed": 1},
        {"scenario": "agents", "forbid_counterfactual": "no"},
        {"scenario": "chsh", "scan": "no"},
        {"scenario": "chsh", "quad": [True, 0, 0, 0]},
        {"scenario": "chsh", "quad": 5},
        {"scenario": "memory", "kept": "Fbar"},
        {"scenario": "memory", "kept": [["F"]]},
        {"scenario": ["chsh"]},
        [],
    ],
    ids=[
        "grid-zero",
        "grid-negative",
        "grid-bool",
        "quad-nan",
        "samples-string",
        "seed-float",
        "samples-bool",
        "flag-string",
        "scan-string",
        "quad-bool",
        "quad-number",
        "kept-string",
        "kept-nested",
        "scenario-list",
        "top-level-list",
    ],
)
def test_config_bad_chsh_input_is_usage_error(tmp_path, capsys, raw):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(raw))
    _usage_error_without_traceback(capsys, ["--config", str(cfg)])


def test_chsh_grid_bounds_are_accepted(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--scan", "--grid", "1")
    assert code == 0
    assert "scan (closed form, checked on a 1x1 grid)" in out


def test_largest_sample_count_is_split_exactly(capsys):
    payload = run_json(capsys, "bohm", "--samples", str(cli.MAX_SAMPLES), "--seed", "1")
    assert sum(p["count"] for p in payload["samples"]["paths"]) == cli.MAX_SAMPLES


def test_huge_samples_is_usage_error(capsys):
    _usage_error_without_traceback(
        capsys, ["bohm", "--samples", str(cli.MAX_SAMPLES + 1), "--seed", "1"]
    )


def test_memory_computes_the_erased_run_fidelity(capsys):
    payload = run_json(capsys, "memory")
    assert abs(float(payload["fidelity"]) - 1.0) <= 1e-12


def test_importing_the_cli_does_not_load_scipy():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, wignerfriend.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["contexts", "--frobnicate"])
    assert info.value.code == 2


def test_config_file_runs_a_scenario(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"scenario": "contexts", "format": "json"}))
    code, out, _ = run_cli(capsys, "--config", str(cfg))
    assert code == 0
    assert "Wbar,W" in json.loads(out)["contexts"]


def test_config_bohm_scenario(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(
        json.dumps({"scenario": "bohm", "foliation": "Fprime", "coupling": "independent"})
    )
    code, out, _ = run_cli(capsys, "--config", str(cfg))
    assert code == 0
    assert "foliation Fprime, coupling independent" in out


def test_config_rejects_unknown_scenario(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"scenario": "teleport"}))
    with pytest.raises(SystemExit) as info:
        cli.main(["--config", str(cfg)])
    assert info.value.code == 2


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"scenario": "contexts", "shots": 3}))
    with pytest.raises(SystemExit) as info:
        cli.main(["--config", str(cfg)])
    assert info.value.code == 2


def test_config_rejects_kept_and_erased_overlap(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"scenario": "memory", "kept": ["F"], "erased": ["F"]}))
    with pytest.raises(SystemExit) as info:
        cli.main(["--config", str(cfg)])
    assert info.value.code == 2


def test_config_memory_with_explicit_sets(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"scenario": "memory", "kept": ["Fbar"], "erased": ["F"]}))
    code, out, _ = run_cli(capsys, "--config", str(cfg))
    assert code == 0
    assert "0.416666666666667 (5/12)" in out


def test_config_and_subcommand_conflict(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"scenario": "contexts"}))
    with pytest.raises(SystemExit) as info:
        cli.main(["--config", str(cfg), "contexts"])
    assert info.value.code == 2


def test_invariant_violation_exits_one(monkeypatch, capsys):
    from wignerfriend.qcore import InvariantViolation

    def boom(args):
        raise InvariantViolation("tolerance breached")

    monkeypatch.setitem(cli._HANDLERS, "contexts", boom)
    code, out, err = run_cli(capsys, "contexts")
    assert code == 1
    assert "invariant violation" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"scenario": "chsh", "quad": [1' + "0" * 400 + ", 0, 0, 0]}",
        "[" * 100_000 + "]" * 100_000,
        '{"scenario": "memory", "kept": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ],
    ids=["quad-int-beyond-float", "nested-top-level", "nested-value"],
)
def test_config_values_beyond_the_parser_are_usage_errors(tmp_path, capsys, text):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(text)
    _usage_error_without_traceback(capsys, ["--config", str(cfg)])


def test_config_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_bytes(b'\xff\xfe{"scenario": "contexts"}')
    _usage_error_without_traceback(capsys, ["--config", str(cfg)])


def test_exponent_form_negative_angles_parse(capsys):
    code, exponent, _ = run_cli(capsys, "chsh", "--quad", "0", "-1e-3", "0", "0")
    assert code == 0
    assert run_cli(capsys, "chsh", "--quad", "0", "-0.001", "0", "0") == (0, exponent, "")
    assert run_json(capsys, "chsh", "--quad", "-1E+1", "-.5", "-2e-3", "0")["quad"] == [
        (x % (2 * math.pi)) for x in (-10.0, -0.5, -0.002, 0.0)
    ]


def test_repeated_kept_agent_is_usage_error(capsys):
    _usage_error_without_traceback(capsys, ["memory", "--keep", "F", "--keep", "F"])


@pytest.mark.parametrize(
    "raw",
    [
        {"scenario": "memory", "kept": ["F", "F"]},
        {"scenario": "memory", "erased": ["Fbar", "Fbar"]},
    ],
    ids=["kept", "erased"],
)
def test_config_repeated_agent_is_usage_error(tmp_path, capsys, raw):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(raw))
    _usage_error_without_traceback(capsys, ["--config", str(cfg)])


def _src_env() -> dict:
    src = Path(cli.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": str(src)}


def test_closed_stdout_exits_quietly():
    # A pipe whose read end is already closed, as when `| head` has exited.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wignerfriend.cli", "memory", "--keep", "F"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_src_env(),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


# Invocations run one after another in a fresh process, which reports for
# each its exit code and whether numpy is in sys.modules after cli.main
# returned.
_COLD_CHECK = """
import contextlib, io, json, sys
before = set(sys.modules)
from wignerfriend import cli
report, entered = [], []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report.append([code, "numpy" in sys.modules])
    entered.append(sorted(set(sys.modules) - before))
print(json.dumps(report))
print(json.dumps(entered))
"""

# The same on a machine without numpy, whose import fails: the report holds
# each invocation's exit code and stderr.
_NO_NUMPY_CHECK = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from wignerfriend import cli
report = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    report.append([code, err.getvalue()])
print(json.dumps(report))
"""


def _cold_run(runs: list, script: str = _COLD_CHECK, line: int = 0) -> list:
    """Line ``line`` of the script's output: for _COLD_CHECK, line 0 holds
    each run's exit code and whether numpy is loaded, and line 1 the modules
    that entered sys.modules from the import of the CLI through that run."""
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[line])


def _both_formats(directory: Path, argvs: list, configs: list) -> list:
    """Each argv and each config (as a file in ``directory``) in table and in
    JSON format."""
    directory.mkdir()
    runs = []
    for fmt in ("table", "json"):
        runs += [[*argv, "--format", fmt] for argv in argvs]
        for k, raw in enumerate(configs):
            cfg = directory / f"{fmt}-{k}.json"
            cfg.write_text(json.dumps({**raw, "format": fmt}))
            runs.append(["--config", str(cfg)])
    return runs


_NUMPY_FREE = [
    ["contexts"],
    ["bohm", "--foliation", "both"],
    ["agents"],
    ["memory", "--keep", "F"],
    ["chsh"],
    ["chsh", "--quad", "0", "1.5707963", "0.7853982", "-0.7853982"],
    ["bohm", "--samples", "1000", "--seed", "1"],
]
_NUMPY_FREE_CONFIGS = [
    {"scenario": "contexts"},
    {"scenario": "bohm", "foliation": "Fprime", "coupling": "independent"},
    {"scenario": "agents", "forbid_counterfactual": True},
    {"scenario": "memory", "kept": ["Fbar"]},
    {"scenario": "chsh"},
    {"scenario": "chsh", "quad": [0, 1, 2, 3]},
    {"scenario": "bohm", "foliation": "Fprime", "samples": 1000, "seed": 1},
]


def test_numpy_free_subcommands_never_import_numpy(tmp_path):
    runs = _both_formats(tmp_path / "free", _NUMPY_FREE, _NUMPY_FREE_CONFIGS)
    report = _cold_run(runs)
    assert dict(zip(map(" ".join, runs), report)) == {" ".join(argv): [0, False] for argv in runs}


# What no cold numpy-free call may load: the class generator with its
# inspect, ast and dis imports, and fractions with its decimal.
_NOT_LOADED = {"dataclasses", "inspect", "fractions", "decimal"}


def test_numpy_free_subcommands_load_no_class_generator_or_fractions(tmp_path):
    runs = _both_formats(tmp_path / "free", _NUMPY_FREE, _NUMPY_FREE_CONFIGS)
    entered = _cold_run(runs, line=1)
    assert "wignerfriend.qcore" in entered[0]
    assert {" ".join(run): sorted(_NOT_LOADED & set(e)) for run, e in zip(runs, entered)} == {
        " ".join(run): [] for run in runs
    }


_SETTINGS_GRIDS = [["chsh", "--scan"], ["chsh", "--erased-vs-kept", "--grid", "8"]]
_SETTINGS_GRID_CONFIGS = [
    {"scenario": "chsh", "scan": True},
    {"scenario": "chsh", "erased_vs_kept": True},
]


@pytest.mark.parametrize("argv", _SETTINGS_GRIDS, ids=["scan", "erased-vs-kept"])
def test_settings_grids_load_numpy(argv):
    assert _cold_run([argv]) == [[0, True]]


def test_without_numpy_only_the_settings_grids_fail(tmp_path):
    free = _both_formats(tmp_path / "free", _NUMPY_FREE, _NUMPY_FREE_CONFIGS)
    grids = _both_formats(tmp_path / "grids", _SETTINGS_GRIDS, _SETTINGS_GRID_CONFIGS)
    report = _cold_run(free + grids, _NO_NUMPY_CHECK)
    assert report[: len(free)] == [[0, ""]] * len(free)
    for argv, (code, err) in zip(grids, report[len(free) :]):
        assert code == 2, argv
        assert err.count("\n") == 1 and "numpy is not installed" in err, (argv, err)
        assert "Traceback" not in err


# Random command lines and config files: the CLI contract is exit 0 on success
# and 2 on bad input, never a traceback; exit 1 is reserved for a real
# InvariantViolation, which no input should provoke.
_NUMBER_TEXT = st.one_of(
    st.integers(1, 50).map(str),
    st.integers(-3, 60).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.5", "-1e-3", "-2.5E+1", "0x10", "1_0"]),
)
_WORDS = st.sampled_from(["F", "Fbar", "Fprime", "both", "monotone", "independent", "json", "table"])


def _mostly(valid, anything):
    """``valid`` about three times in four, else ``anything``."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else anything)


_COUNT_TEXT = _mostly(st.integers(1, 50).map(str), _NUMBER_TEXT)
# The tokens each option takes, mostly of the right kind.
_OPTION_VALUES = {
    "--format": st.tuples(_mostly(st.sampled_from(["json", "table"]), _WORDS)),
    "--seed": st.tuples(_COUNT_TEXT),
    "--samples": st.tuples(_COUNT_TEXT),
    "--foliation": st.tuples(_mostly(st.sampled_from(["F", "Fprime", "both"]), _WORDS)),
    "--coupling": st.tuples(_mostly(st.sampled_from(["monotone", "independent"]), _WORDS)),
    "--keep": st.tuples(_mostly(st.sampled_from(["F", "Fbar"]), _WORDS)),
    "--grid": st.tuples(_COUNT_TEXT),
    "--quad": st.lists(_mostly(st.floats(-10, 10).map(repr), _NUMBER_TEXT), min_size=3, max_size=5),
    "--scan": st.just(()),
    "--erased-vs-kept": st.just(()),
    "--forbid-counterfactual": st.just(()),
}


# Options each subcommand accepts; --format, --seed and --samples go anywhere.
_SUBCOMMAND_OPTIONS = {
    "contexts": [],
    "bohm": ["--foliation", "--coupling"],
    "agents": ["--forbid-counterfactual"],
    "memory": ["--keep"],
    "chsh": ["--quad", "--scan", "--erased-vs-kept", "--grid"],
}


@st.composite
def _command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_SUBCOMMAND_OPTIONS)))
    own = _SUBCOMMAND_OPTIONS[command] + ["--format"]
    # Mostly the subcommand's own options, sometimes any option at all.
    options = _mostly(st.sampled_from(own), st.sampled_from(sorted(_OPTION_VALUES)))
    argv = [command]
    for option in draw(st.lists(options, max_size=4)):
        argv += [option, *draw(_OPTION_VALUES[option])]
    if draw(_mostly(st.just(command == "bohm"), st.booleans())):
        argv += ["--samples", draw(_COUNT_TEXT), "--seed", draw(_COUNT_TEXT)]
    return argv


_ARGV = _mostly(
    _command_lines(),
    st.lists(
        st.one_of(st.sampled_from([*cli._HANDLERS, *_OPTION_VALUES]), _WORDS, _NUMBER_TEXT, st.text(max_size=6)),
        max_size=10,
    ),
)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 60),
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.text(max_size=6),
    _WORDS,
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_NUMBERS = st.one_of(st.integers(-3, 60), st.integers(-(10**400), 10**400), st.floats())
_INTS = _mostly(st.integers(1, 50), st.integers(-3, 60) | st.integers(-(2**70), 2**70))
# Values of each key's own JSON type, mostly valid, so that runs get past the
# type checks.
_TYPED_VALUES = {
    "foliation": _mostly(st.sampled_from(["F", "Fprime", "both"]), _WORDS),
    "coupling": _mostly(st.sampled_from(["monotone", "independent"]), _WORDS),
    "format": _mostly(st.sampled_from(["json", "table"]), _WORDS),
    "kept": st.lists(_mostly(st.sampled_from(["F", "Fbar"]), _WORDS), max_size=3),
    "erased": st.lists(_mostly(st.sampled_from(["F", "Fbar"]), _WORDS), max_size=3),
    "quad": st.lists(_mostly(st.floats(-10, 10), _NUMBERS), min_size=3, max_size=5),
    "scan": st.booleans(),
    "erased_vs_kept": st.booleans(),
    "forbid_counterfactual": st.booleans(),
    "seed": _INTS,
    "samples": _INTS,
    "grid": _INTS,
}
_CONFIGS = _mostly(
    st.one_of(
        st.fixed_dictionaries(
            {"scenario": st.sampled_from(sorted(cli._HANDLERS))},
            optional={key: _mostly(values, _JSON_VALUES) for key, values in _TYPED_VALUES.items()},
        ),
        st.fixed_dictionaries({"scenario": st.just("bohm"), "seed": _INTS, "samples": _INTS}),
    ),
    st.dictionaries(st.text(max_size=8), _JSON_VALUES, max_size=3) | _JSON_VALUES,
)


def _exit_code_and_stderr(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    event(f"exit {code}")
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(_ARGV)
def test_random_command_lines_exit_zero_or_two(argv):
    code, err = _exit_code_and_stderr(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err


@settings(max_examples=300, deadline=None)
@given(_CONFIGS)
def test_random_config_files_exit_zero_or_two(raw):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scenario.json"
        cfg.write_text(json.dumps(raw))
        code, err = _exit_code_and_stderr(["--config", str(cfg)])
    assert code in (0, 2), (raw, code, err)
    assert "Traceback" not in err


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=40))
def test_random_config_bytes_exit_zero_or_two(data):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scenario.json"
        cfg.write_bytes(data)
        code, err = _exit_code_and_stderr(["--config", str(cfg)])
    assert code in (0, 2), (data, code, err)
    assert "Traceback" not in err


def _fmt_prob_by_fraction(x: float) -> str:
    """fmt_prob as written with fractions.Fraction: the reference."""
    from fractions import Fraction

    out = f"{x:.15g}"
    frac = Fraction(x).limit_denominator(144)
    if abs(x - float(frac)) <= 1e-12:
        out += f" ({frac.numerator}/{frac.denominator})" if frac.denominator != 1 else f" ({frac.numerator})"
    return out


_NEAR = st.sampled_from([0.0, 1e-13, 5e-13, 9.99e-13, 1e-12, 1.01e-12, 2e-12, 1e-9])


@settings(max_examples=500)
@given(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-3.0, 3.0),
        st.builds(
            lambda p, q, eps, sign: p / q + sign * eps,
            st.integers(-500, 500),
            st.integers(1, 200),
            _NEAR,
            st.sampled_from([-1.0, 1.0]),
        ),
    )
)
def test_fmt_prob_matches_the_fraction_reference(x):
    assert cli.fmt_prob(x) == _fmt_prob_by_fraction(x)


def test_fmt_prob_suffixes():
    assert cli.fmt_prob(1 / 12) == "0.0833333333333333 (1/12)"
    assert cli.fmt_prob(1.0) == "1 (1)"
    assert cli.fmt_prob(-0.0) == "-0 (0)"
    assert cli.fmt_prob(0.123456789) == "0.123456789"
