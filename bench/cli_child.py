"""Run one ``piag`` command with the layer tracer installed.

    python3 bench/cli_child.py SPANS_FILE -- <piag arguments>

Times the import of ``piag.cli``, installs the wrappers of :mod:`spans`,
calls ``piag.cli.main`` with the arguments, writes
``{"import_s": ..., "spans": [...]}`` to SPANS_FILE even when the command
raises, and exits with the command's exit code.
"""

import importlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import spans  # noqa: E402


def main() -> None:
    span_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_FILE -- <piag arguments>")
    common.pin_threads()
    t0 = time.perf_counter()
    common.import_program()
    cli = importlib.import_module("piag.cli")
    import_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        with open(span_file, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.take()}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
