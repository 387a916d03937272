"""Traced stand-in for the `qdfit` console script.

    python -X importtime perfbench/launcher.py SPANS_FILE <qdfit arguments...>

Imports qdfit.cli exactly as the console script does, wraps qdfit's public
functions, runs `qdfit.cli.main` inside a root span and exits with its
status.  SPANS_FILE gets a first line with the CLOCK_MONOTONIC time at which
main had returned and the spans were serialized, which the parent subtracts
from the moment it reaped the process (cli.exit_s), then the spans as JSON.
"""

import sys
import time

from qdfit.cli import main  # first, so -X importtime charges qdfit with every import it makes

import json
import spans


def run() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    status = tracer.call("cli.main", main, argv)
    payload = json.dumps(tracer.spans)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(f"{time.monotonic()!r}\n{payload}\n")
    return status


if __name__ == "__main__":
    sys.exit(run())
