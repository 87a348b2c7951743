"""Run one loccdist CLI call with the span tracer installed.

Usage: python perfbench/cli_child.py TRACE_FILE ARG...

Behaves like ``python -m loccdist.cli ARG...`` (same output, exit code and
tracebacks) and writes the span snapshot of the call to TRACE_FILE as JSON.
"""

import json
import sys

import spans


def main():
    trace_file, args = sys.argv[1], sys.argv[2:]
    import loccdist.cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        loccdist.cli.main(args=args, prog_name="loccdist")
    finally:
        tracer.uninstall()
        with open(trace_file, "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    main()
