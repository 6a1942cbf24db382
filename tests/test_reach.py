"""Every public function, method and property in the package is run by some
command-line call.

The calls are the golden CLI cases, which include ``chsh --scan`` and
``--erased-vs-kept`` alone and together, a seeded ``bohm --samples`` run and
a ``--config`` run.  They run in one fresh interpreter, traced with
``sys.settrace`` from before ``wignerfriend.cli`` is imported, so that calls
made at import count.  The public names are read from the source with
``ast``.  A public name that no call reaches is code that only tests read:
delete it, or give it a command that runs it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wignerfriend

PACKAGE = Path(wignerfriend.__file__).resolve().parent
GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))

# Public names that no command runs, kept on purpose.  The read-only numpy
# views: bench/layertrace.py's _state_dim reads both, and so do many tests.
# bell.chsh_scan, the maximum of a correlation callable checked on a grid:
# bench/workloads.py's chsh_max workload calls it.  They go with the change to
# bench/ that stops using them (ROADMAP items 1 and 2B).
ALLOWED = {"qcore.StateVector.amps", "qcore.DensityOperator.matrix", "bell.chsh_scan"}

# Run in a fresh interpreter: argv[1] is the package directory, argv[2] the
# command lines as JSON.  Prints the exit codes and the (file, name, first
# line) of every code object of the package that was called.
_TRACED_RUNS = r"""
import contextlib, io, json, os, sys

package, runs = sys.argv[1], json.loads(sys.argv[2])
inside = {}
reached = set()


def tracer(frame, event, arg):
    code = frame.f_code
    name = code.co_filename
    if name not in inside:
        inside[name] = os.path.dirname(os.path.realpath(name)) == package
    if inside[name]:
        reached.add((os.path.basename(name), code.co_name, code.co_firstlineno))
    # No local trace function: one call event per frame is all that counts.


sys.settrace(tracer)
from wignerfriend import cli

codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
sys.settrace(None)
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""


def _public_defs():
    """(dotted name, file name, name, first line, def line) of every public
    function, method and property: module-level functions, and the methods of
    public classes, decorators included in the line range."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        todo = [(path.stem, tree.body)]
        while todo:
            prefix, body = todo.pop()
            for node in body:
                if getattr(node, "name", "_").startswith("_"):
                    continue
                if isinstance(node, ast.ClassDef):
                    todo.append((f"{prefix}.{node.name}", node.body))
                elif isinstance(node, ast.FunctionDef):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    yield f"{prefix}.{node.name}", path.name, node.name, first, node.lineno


@pytest.fixture(scope="module")
def unreached(tmp_path_factory):
    """The dotted names of the public definitions that no command reaches."""
    config = tmp_path_factory.mktemp("reach") / "config.json"
    config.write_text(json.dumps({"scenario": "memory", "kept": ["F"], "format": "json"}))
    runs = [case["argv"] for case in GOLDEN] + [
        ["bohm", "--samples", "10", "--seed", "1"],
        ["--config", str(config)],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_RUNS, str(PACKAGE), json.dumps(runs)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [case["exit"] for case in GOLDEN] + [0] * 2
    reached = {tuple(entry) for entry in result["reached"]}
    return {
        dotted
        for dotted, file, name, first, last in _public_defs()
        if not any((file, name, line) in reached for line in range(first, last + 1))
    }


def test_every_public_function_is_run_by_a_command(unreached):
    missing = sorted(unreached - ALLOWED)
    assert not missing, f"run by no command: {', '.join(missing)}"


def test_the_allowlist_names_only_unreached_public_functions(unreached):
    stale = sorted(ALLOWED - unreached)
    assert not stale, f"allowed but run by a command, or gone: {', '.join(stale)}"
