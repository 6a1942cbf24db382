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
from hypothesis import event, example, given, settings
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


def test_sampling_both_foliations_is_usage_error(capsys):
    err = _usage_error_without_traceback(
        capsys, ["bohm", "--foliation", "both", "--samples", "10", "--seed", "1"]
    )
    assert err.splitlines()[-1] == "wignerfriend: error: sampling needs one foliation, F or Fprime"


def test_config_sampling_both_foliations_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"scenario": "bohm", "foliation": "both", "samples": 10, "seed": 1}))
    err = _usage_error_without_traceback(capsys, ["--config", str(cfg)])
    assert err.splitlines()[-1] == "wignerfriend: error: sampling needs one foliation, F or Fprime"


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
    assert payload["contradiction"] is True
    witness = payload["witness"]
    assert witness["composed"] == 0.0
    assert abs(float(witness["actual"]) - 1 / 12) < 1e-12
    assert len(payload["statements"]) == 10


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
    payload = run_json(capsys, "chsh", "--scan")
    for key in ("quad", "S_quantum", "S_lhv_max", "argmax_quad"):
        assert key in payload
    assert float(payload["S_lhv_max"]) <= 2.0 + 1e-9


# The singlet's correlation block is -I, so every rotated quad is a maximum;
# the closed-form solve picks this one.
SINGLET_ARGMAX = [0.7853981633974483, 2.356194490192345, 4.71238898038469, 3.141592653589793]


def test_chsh_scan_json_pins_the_singlet_argmax(capsys):
    from wignerfriend import bell

    payload = run_json(capsys, "chsh", "--scan")
    assert payload["argmax_quad"] == SINGLET_ARGMAX
    assert payload["S_quantum_max"] == "2.8284271247461907"
    scan = bell.ScanResult(float(payload["S_quantum_max"]), bell.AngleQuad(*SINGLET_ARGMAX))
    assert bell.born_rule_residual(scan, bell.singlet()) <= bell.BILINEAR_TOL


def test_chsh_erased_vs_kept(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--erased-vs-kept")
    assert code == 0
    assert "records erased: S = 2.82842712474619" in out


def test_chsh_erased_vs_kept_reports_at_the_given_quad(capsys):
    # Erased records give back the singlet and kept ones the hidden-variable
    # model, so at the user's quad the two S equal the quantum and the
    # hidden-variable S.
    quad = ["0", "1", "2", "3"]
    payload = run_json(capsys, "chsh", "--quad", *quad, "--erased-vs-kept")
    report = payload["erased_vs_kept"]
    assert report["quad"] == payload["quad"]
    assert abs(float(report["S_erased"]) - float(payload["S_quantum"])) <= 1e-12
    assert abs(float(report["S_kept_at_quad"]) - float(payload["S_lhv"])) <= 1e-12
    code, out, _ = run_cli(capsys, "chsh", "--quad", *quad, "--erased-vs-kept")
    assert code == 0
    lines = out.splitlines()
    s_quantum = float(lines[1].removeprefix("quantum S = "))
    s_lhv = float(lines[2].removeprefix("hidden-variable S = "))
    erased, kept = lines[3].removeprefix("records erased: S = ").split("; records kept: S = ")
    assert abs(float(erased) - s_quantum) <= 1e-12
    assert abs(float(kept.split(" at the quad")[0]) - s_lhv) <= 1e-12


def test_chsh_malformed_angles_are_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["chsh", "--quad", "0.1", "0.2", "0.3"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["chsh", "--quad", "a", "b", "c", "d"])
    assert info.value.code == 2


def _usage_error_without_traceback(capsys, argv) -> str:
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "Traceback" not in err
    return err


def test_chsh_grid_is_not_an_option_or_a_config_key(tmp_path, capsys):
    # The scan is solved in closed form on the block; no input sizes a grid.
    err = _usage_error_without_traceback(capsys, ["chsh", "--scan", "--grid", "7"])
    assert "unrecognized arguments: --grid 7" in err
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"scenario": "chsh", "grid": 7}))
    err = _usage_error_without_traceback(capsys, ["--config", str(cfg)])
    assert "unknown config key: 'grid'" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_chsh_non_finite_quad_is_usage_error(capsys, bad):
    _usage_error_without_traceback(capsys, ["chsh", "--quad", "0", bad, "0", "0"])


@pytest.mark.parametrize("bad", ["-inf", "-infinity", "-Infinity", "-INF", "-nan", "-NaN"])
def test_chsh_negative_non_finite_quad_is_read_as_an_angle(capsys, bad):
    err = _usage_error_without_traceback(capsys, ["chsh", "--quad", "0", bad, "0", "0"])
    assert err.splitlines()[-1].endswith("error: --quad angles must be finite")


def test_config_negative_infinite_quad_says_must_be_finite(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text('{"scenario": "chsh", "quad": [0, -Infinity, 0, 0]}')
    err = _usage_error_without_traceback(capsys, ["--config", str(cfg)])
    assert err.splitlines()[-1].endswith("error: --quad angles must be finite")


@pytest.mark.parametrize("word", ["-information", "-nano"])
def test_words_that_start_like_non_finite_numbers_stay_options(capsys, word):
    err = _usage_error_without_traceback(capsys, ["chsh", "--quad", "0", word, "0", "0"])
    assert "expected 4 arguments" in err


def test_chsh_scan_is_cross_checked_against_the_born_rule(monkeypatch, capsys):
    from wignerfriend import bell

    # A correlation block that is not the singlet's: the scan solves on it
    # without complaint, and only the Born-rule check at the argmax sees it.
    monkeypatch.setattr(bell, "_correlation_block", lambda obj: (-1.0, 0.0, 0.0, -0.5))
    assert bell.chsh_scan(bell.quantum_correlation, 7).max_s == pytest.approx(2.0 * math.hypot(1.0, 0.5))
    for fmt in ("table", "json"):
        code, out, err = run_cli(capsys, "--format", fmt, "chsh", "--scan")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("invariant violation: scan maximum ")


def test_chsh_erased_vs_kept_is_cross_checked_against_the_born_rule(monkeypatch, capsys):
    from wignerfriend import bell

    # The kept records' maximum solves on this block; the Born rule at its
    # argmax does not, and exits 1 in both formats.
    bell._erased_kept_blocks.cache_clear()
    monkeypatch.setattr(bell, "_correlation_block", lambda obj: (-1.0, 0.0, 0.0, -0.5))
    for fmt in ("table", "json"):
        code, out, err = run_cli(capsys, "--format", fmt, "chsh", "--erased-vs-kept")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("invariant violation: scan maximum ")


@pytest.mark.parametrize(
    "raw",
    [
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


def test_config_erased_is_an_unknown_key(tmp_path, capsys):
    # Erasure returns its input, so no output ever depended on this key.
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"scenario": "memory", "kept": ["Fbar"], "erased": ["F"]}))
    err = _usage_error_without_traceback(capsys, ["--config", str(cfg)])
    assert "unknown config key: 'erased'" in err


def test_config_and_subcommand_conflict(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"scenario": "contexts"}))
    with pytest.raises(SystemExit) as info:
        cli.main(["--config", str(cfg), "contexts"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "options",
    [["--format", "json"], ["--samples", "10", "--seed", "1"]],
    ids=["format", "samples-seed"],
)
@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_config_takes_no_other_option(tmp_path, capsys, options, before):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"scenario": "bohm"}))
    config = ["--config", str(cfg)]
    err = _usage_error_without_traceback(capsys, options + config if before else config + options)
    assert err.splitlines()[-1] == "wignerfriend: error: --config takes no subcommand or other option beside it"


@pytest.mark.parametrize(
    "raw",
    [
        {"scenario": "contexts", "foliation": "F"},
        {"scenario": "agents", "quad": [0, 1, 2, 3]},
        {"scenario": "memory", "scan": True},
        {"scenario": "bohm", "kept": ["F"]},
        {"scenario": "chsh", "forbid_counterfactual": True},
    ],
    ids=["contexts-foliation", "agents-quad", "memory-scan", "bohm-kept", "chsh-flag"],
)
def test_config_key_the_scenario_does_not_take_is_usage_error(tmp_path, capsys, raw):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(raw))
    err = _usage_error_without_traceback(capsys, ["--config", str(cfg)])
    assert "unrecognized arguments" in err


def _run_main(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Each command line with the config that stands for it; together they use
# every config key.
_TWINS = [
    (["contexts"], {"scenario": "contexts"}),
    (["bohm"], {"scenario": "bohm"}),
    (["bohm", "--foliation", "Fprime"], {"scenario": "bohm", "foliation": "Fprime"}),
    (
        ["bohm", "--foliation", "both", "--coupling", "independent"],
        {"scenario": "bohm", "foliation": "both", "coupling": "independent"},
    ),
    (["bohm", "--samples", "1000", "--seed", "1"], {"scenario": "bohm", "samples": 1000, "seed": 1}),
    (["agents"], {"scenario": "agents", "forbid_counterfactual": False}),
    (["agents", "--forbid-counterfactual"], {"scenario": "agents", "forbid_counterfactual": True}),
    (["memory"], {"scenario": "memory", "kept": []}),
    (["memory", "--keep", "Fbar", "--keep", "F"], {"scenario": "memory", "kept": ["Fbar", "F"]}),
    (["chsh"], {"scenario": "chsh"}),
    (["chsh", "--quad", "0", "1", "2", "3"], {"scenario": "chsh", "quad": [0, 1, 2, 3]}),
    (["chsh", "--quad", "0", "-1e-3", "0", "0"], {"scenario": "chsh", "quad": [0, -1e-3, 0, 0]}),
    (["chsh", "--scan", "--erased-vs-kept"], {"scenario": "chsh", "scan": True, "erased_vs_kept": True}),
    (
        ["chsh", "--quad", "0", "1", "2", "3", "--erased-vs-kept"],
        {"scenario": "chsh", "quad": [0, 1, 2, 3], "erased_vs_kept": True},
    ),
]
# Twins that exit 2, on a bound, a choice and a repeat checked by the parser.
_BAD_TWINS = [
    (["bohm", "--samples", "0", "--seed", "1"], {"scenario": "bohm", "samples": 0, "seed": 1}),
    (["bohm", "--coupling", "G"], {"scenario": "bohm", "coupling": "G"}),
    (["memory", "--keep", "F", "--keep", "F"], {"scenario": "memory", "kept": ["F", "F"]}),
]


def test_twins_use_every_config_key():
    # format is added to every twin by the test below.
    assert set().union(*(raw for _, raw in _TWINS)) == {"scenario", *cli._CONFIG_KEYS} - {"format"}


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize(
    "argv, raw, code",
    [(argv, raw, 0) for argv, raw in _TWINS] + [(argv, raw, 2) for argv, raw in _BAD_TWINS],
    ids=[" ".join(argv) for argv, _ in _TWINS + _BAD_TWINS],
)
def test_config_runs_as_the_command_line_it_stands_for(tmp_path, fmt, argv, raw, code):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({**raw, "format": fmt}))
    typed = _run_main([*argv, "--format", fmt])[:2]
    assert typed[0] == code
    assert _run_main(["--config", str(cfg)])[:2] == typed


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
# returned.  The runs come as a JSON list of lists of strings, which is also
# a Python literal: reading it with ast leaves json to be loaded by the CLI.
_COLD_CHECK = """
import ast, contextlib, io, sys
before = set(sys.modules)
from wignerfriend import cli
report, entered = [], []
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report.append([code, "numpy" in sys.modules])
    entered.append(sorted(set(sys.modules) - before))
import json
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
    ["chsh", "--scan"],
    ["chsh", "--erased-vs-kept"],
    ["chsh", "--quad", "0", "1", "2", "3", "--erased-vs-kept"],
    ["bohm", "--samples", "1000", "--seed", "1"],
]
_NUMPY_FREE_CONFIGS = [
    {"scenario": "contexts"},
    {"scenario": "bohm", "foliation": "Fprime", "coupling": "independent"},
    {"scenario": "agents", "forbid_counterfactual": True},
    {"scenario": "memory", "kept": ["Fbar"]},
    {"scenario": "chsh"},
    {"scenario": "chsh", "quad": [0, 1, 2, 3]},
    {"scenario": "chsh", "scan": True},
    {"scenario": "chsh", "erased_vs_kept": True},
    {"scenario": "chsh", "quad": [0, 1, 2, 3], "erased_vs_kept": True},
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


def test_table_command_lines_load_no_json():
    # A JSON-format run last shows that the check sees json when it loads.
    runs = [[*argv, "--format", "table"] for argv in _NUMPY_FREE] + [["contexts", "--format", "json"]]
    entered = _cold_run(runs, line=1)
    assert ["json" in e for e in entered] == [False] * len(_NUMPY_FREE) + [True]


def test_every_subcommand_runs_without_numpy(tmp_path):
    runs = _both_formats(tmp_path / "free", _NUMPY_FREE, _NUMPY_FREE_CONFIGS)
    assert _cold_run(runs, _NO_NUMPY_CHECK) == [[0, ""]] * len(runs)


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
    "chsh": ["--quad", "--scan", "--erased-vs-kept"],
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
    "quad": st.lists(_mostly(st.floats(-10, 10), _NUMBERS), min_size=3, max_size=5),
    "scan": st.booleans(),
    "erased_vs_kept": st.booleans(),
    "forbid_counterfactual": st.booleans(),
    "seed": _INTS,
    "samples": _INTS,
}


def test_config_fuzz_covers_every_key():
    assert set(_TYPED_VALUES) == set(cli._CONFIG_KEYS)


@st.composite
def _scenario_configs(draw) -> dict:
    scenario = draw(st.sampled_from(sorted(_SUBCOMMAND_OPTIONS)))
    options = _SUBCOMMAND_OPTIONS[scenario] + ["--format"]
    own = [key for key, (_, option) in cli._CONFIG_KEYS.items() if option in options]
    # Mostly the scenario's own keys, sometimes any key at all.
    keys = _mostly(st.sampled_from(own), st.sampled_from(sorted(_TYPED_VALUES)))
    raw = {"scenario": scenario}
    for key in draw(st.lists(keys, max_size=4)):
        raw[key] = draw(_mostly(_TYPED_VALUES[key], _JSON_VALUES))
    return raw


_CONFIGS = _mostly(
    st.one_of(
        _scenario_configs(),
        st.fixed_dictionaries({"scenario": st.just("bohm"), "seed": _INTS, "samples": _INTS}),
    ),
    st.dictionaries(st.text(max_size=8), _JSON_VALUES, max_size=3) | _JSON_VALUES,
)


def _exit_code_and_stderr(argv) -> tuple[int, str]:
    code, _, err = _run_main(argv)
    event(f"exit {code}")
    return code, err


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
# Above 2**38, several p/q lie within 1e-12 of x; the closest is not the one
# with the smallest q.
@example(1125899906842624.8)
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
    assert cli.fmt_prob(1125899906842624.8) == "1.12589990684262e+15 (4503599627370499/4)"
    assert cli.fmt_prob(1 / 12) == "0.0833333333333333 (1/12)"
    assert cli.fmt_prob(1.0) == "1 (1)"
    assert cli.fmt_prob(-0.0) == "-0 (0)"
    assert cli.fmt_prob(0.123456789) == "0.123456789"
