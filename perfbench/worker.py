"""Runs redukt operations and times them, in-process or as a child process.

run.py starts `python3 perfbench/worker.py` for an untraced run, so that
the worker's peak RSS is redukt's alone: input generation and output
checking stay in run.py.  Each stdin line is a JSON list of argvs; for
every argv, in order, the worker calls redukt.cli.main(argv) with stdout
and stderr captured, times a calibration slice and writes one JSON line:

    {"code": 0, "out": "...", "seconds": 0.0123, "error": null,
     "slice": 0.0021, "maxrss_kb": 23456}

"error" is null or {"type", "errno", "message"} of an uncaught exception.
The worker exits when stdin closes.  The traced run calls run_ops in its
own process instead.
"""

from __future__ import annotations

import gc
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from resource import RUSAGE_SELF, getrusage
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
CAL_LOOPS = 1500


def calibration_slice() -> float:
    """Seconds for a fixed piece of dict, tuple, string and frozenset work.
    The collector is off while it runs, so what the process keeps alive
    does not slow it."""
    gc.disable()
    try:
        t0 = perf_counter()
        counts: dict = {}
        for i in range(CAL_LOOPS):
            key = (i % 101, "x%d" % (i % 37))
            counts[key] = counts.get(key, 0) + 1
        frozenset(key for key, _ in sorted(counts.items()))
        return perf_counter() - t0
    finally:
        gc.enable()


def run_op(cli, argv: list) -> tuple:
    """(exit code, stdout, seconds, error) of one cli.main(argv) call."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        error = {"type": type(exc).__name__, "errno": getattr(exc, "errno", None), "message": str(exc)}
    seconds = perf_counter() - t0
    return code, out.getvalue(), seconds, error


def run_ops(cli, argvs: list, tracer=None):
    """Yield (code, stdout, seconds, error, slice) for each argv in turn;
    slice is a calibration slice timed right after the operation."""
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.op = i
        yield run_op(cli, argv) + (calibration_slice(),)


def import_cli():
    os.environ.pop("REDUKT_MAX_ORBIT", None)  # cli._max_orbit lets it override --max
    sys.path.insert(0, str(SRC))
    import redukt.cli

    return redukt.cli


def serve() -> None:
    cli = import_cli()
    reply = sys.stdout
    for line in sys.stdin:
        for code, out, seconds, error, cal in run_ops(cli, json.loads(line)):
            reply.write(json.dumps({
                "code": code, "out": out, "seconds": seconds, "error": error,
                "slice": cal, "maxrss_kb": getrusage(RUSAGE_SELF).ru_maxrss,
            }) + "\n")
            reply.flush()


if __name__ == "__main__":
    serve()
