"""Traced child process for the cli-cold workload.

Usage: python bench/child.py SPANS_JSON CLI_ARGS...

Times ``import eischow.cli``, installs the span wrappers, runs
``eischow.cli.run(CLI_ARGS)`` exactly as ``python -m eischow.cli`` would, and
writes the spans with the import time and exit code to SPANS_JSON before
exiting with the CLI's exit code.
"""

import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import eischow.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = eischow.cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, {"import_ms": import_ms, "exit": code})
    return code


if __name__ == "__main__":
    sys.exit(main())
