"""Start the repro CLI with the benchmark's span wrappers installed.

Usage: ``PERFBENCH_SPANS=spans.json python perfbench/traceboot.py serve ...``

The wrappers record every call into the layers' public functions; the
spans are written to ``$PERFBENCH_SPANS`` when the process exits.
"""

from __future__ import annotations

import atexit
import os
import sys

import tracing


def main() -> int:
    recorder = tracing.Recorder()
    tracing.install(recorder)
    atexit.register(recorder.dump, os.environ["PERFBENCH_SPANS"])
    from repro.cli import main as cli_main

    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
