"""One traced CLI call: import ``wignerfriend.cli``, install the span
wrappers, call ``cli.main(argv)`` and write the spans to a JSON file.

    python3 -X importtime bench/traced_cli.py SPANS.json contexts --format json

The CLI's output and exit code are passed through unchanged.
"""

import sys

import wignerfriend.cli as cli  # first, so -X importtime sees a cold import

import json  # noqa: E402

import layertrace  # noqa: E402


def _main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_main())
