"""Run one ``fswl`` CLI invocation with the per-layer spans of layers.py.

Usage: python bench/traced_cli.py RUN_ID SPANS_DIR <fswl cli arguments...>

Spans go to SPANS_DIR/spans-<pid>-<n>.json, one file per process flush,
all tagged with RUN_ID.  The exit code is the CLI's.
"""

import sys

import fswl.cli

import layers
from tracer import Tracer


def main() -> int:
    run_id, spans_dir, *cli_args = sys.argv[1:]
    tracer = Tracer(run_id, spans_dir)
    layers.install(tracer)
    try:
        return fswl.cli.main(cli_args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
