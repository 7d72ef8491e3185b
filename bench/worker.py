"""One benchmark process that runs CLI ops in-process, one at a time.

    python3 bench/worker.py SPAWN_NS [WARMUP_ARGV_JSON]

``SPAWN_NS`` is the parent's CLOCK_MONOTONIC reading just before it started
this process.  The worker imports ``sheafkit.cli`` first, runs the untimed
warm-up op if one is given, and prints one JSON line with its start-up
figures and the warm-up's exit code and stdout (``warmup``, null without a
warm-up).  It then reads requests from stdin, one JSON line each:
``{"argv": [...], "trace": bool}``.  It answers each with one JSON line:
``{"code", "out", "ns", "kernel_ns", "layers"}``.  Here ``ns`` is the wall
time of ``sheafkit.cli.main(argv)`` with stdout and stderr captured, and
``kernel_ns`` the reference kernel's times right before and after it (see
``refspeed.py``).  An op that raises gets code null and its traceback goes
to the worker's stderr.  ``layers`` holds the op's raw span sums
when the request asked for tracing.  The worker exits at end of input.
"""

import sys
import time

STARTED_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
_t = time.perf_counter_ns()
import sheafkit.cli as cli  # noqa: E402  (timed: the package's import cost)

IMPORT_NS = time.perf_counter_ns() - _t

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402

import refspeed  # noqa: E402
import spans  # noqa: E402


def run(argv: list[str], tracer: spans.Tracer | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    kernel_before = refspeed.kernel_ns()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(argv)
            else:
                tracer.install()
                try:
                    code = tracer.run_op(cli.main, argv)
                finally:
                    tracer.uninstall()
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # one failing op must not end the run
        code = None
        traceback.print_exc()
    ns = time.perf_counter_ns() - start
    kernel_after = refspeed.kernel_ns()
    layers = tracer.totals() if tracer is not None else None
    return {"code": code, "out": out.getvalue(), "ns": ns,
            "kernel_ns": [kernel_before, kernel_after], "layers": layers}


def main() -> None:
    spawn_ns = int(sys.argv[1])
    warmup = None
    if len(sys.argv) > 2:
        reply = run(json.loads(sys.argv[2]), None)
        warmup = {"code": reply["code"], "out": reply["out"]}
    ready = {
        "interp_start_ns": STARTED_NS - spawn_ns,
        "import_ns": IMPORT_NS,
        "warmup": warmup,
    }
    print(json.dumps(ready), flush=True)
    tracer = spans.Tracer()
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], tracer if request["trace"] else None)
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
