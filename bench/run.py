"""Benchmark entry point: seeded inputs, closed-loop ops through the CLI, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout: it uses ``src/`` next to this
directory, writes scratch files under ``.bench_work/`` and removes them when
it ends.  Human-readable lines come first on stdout.  The last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones (see ``README.md``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import check
import gen
import refspeed
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Fresh interpreters started to measure set-up; the median is reported.
SETUP_REPEATS = 5
#: A run has at least this many passes; each op's time is its median over them.
MIN_PASSES = 3
#: The tail is this percentile of the per-op medians, not a percentile of
#: raw samples: see README.md.
TAIL_PERCENTILE = 75
#: Stop starting passes after this much timed work, so a run ends in time.
MAX_TIMED_S = 120.0
PROCESS_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    pass


def _monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on the lowest CPU it may use.

    The reference kernel and the ops it scales then share one CPU's speed;
    see README.md, *Noise*.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH), env.get("PYTHONPATH")) if p
    )
    return env


def _numpy_imported(importtime_log: str) -> bool:
    """Whether ``-X importtime`` output shows a top-level numpy import."""
    return re.search(r"^import time:\s+\d+ \|\s+\d+ \|\s*numpy$", importtime_log, re.M) is not None


@dataclass
class Sample:
    """One op: its exit code and stdout, wall time, and wall time at reference speed."""

    code: int | None
    out: str
    wall_ns: int
    scaled_ns: float
    layers: dict | None = None


class Worker:
    """A ``worker.py`` process; ``ready_ns`` is its spawn-to-ready wall time."""

    def __init__(self, workdir: Path, warmup: gen.Op | None, importtime: bool) -> None:
        fd, err_name = tempfile.mkstemp(dir=workdir, suffix=".err")
        os.close(fd)
        self.err_path = Path(err_name)
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        spawn = _monotonic_ns()
        cmd += [str(BENCH / "worker.py"), str(spawn)]
        if warmup is not None:
            cmd.append(json.dumps(warmup.argv))
        with open(self.err_path, "w") as err:
            self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=err, cwd=ROOT, env=_env(), text=True)
        line = self.proc.stdout.readline()
        self.ready_ns = _monotonic_ns() - spawn
        if not line:
            self.close()
            raise BenchError(f"worker failed to start:\n{self.stderr()[-2000:]}")
        self.info = json.loads(line)

    def request(self, argv: list[str], trace: bool) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker died:\n{self.stderr()[-2000:]}")
        return json.loads(line)

    def stderr(self) -> str:
        return self.err_path.read_text()

    def close(self) -> None:
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _run_cli_process(argv: list[str]) -> tuple[int, str, int]:
    """``python -m sheafkit.cli ARGV`` in a fresh process: (exit code, stdout, wall ns)."""
    start = _monotonic_ns()
    proc = subprocess.run([sys.executable, "-m", "sheafkit.cli", *argv], capture_output=True,
                          text=True, cwd=ROOT, env=_env(), timeout=PROCESS_TIMEOUT_S)
    return proc.returncode, proc.stdout, _monotonic_ns() - start


class Runner:
    """Runs one workload's set-up and ops, untraced or traced.

    ``cli_fixtures`` starts a fresh ``python -m sheafkit.cli`` per op; the
    other workloads send their ops to one worker process.
    """

    def __init__(self, workload: str, workdir: Path, warmup: gen.Op) -> None:
        self.fresh_process = workload == "cli_fixtures"
        self.workdir = workdir
        self.warmup = warmup
        self.worker: Worker | None = None
        self.traced_worker = False
        # Interpreter start, import and numpy figures for the traced run,
        # summed over traced ops; a worker's own replace them in close().
        self.process = {"interp_start_ns": 0, "import_ns": 0, "numpy_loaded_ops": 0}
        self.combinatorial_traced = 0
        # The last process-start reference: it ends one fresh-process
        # measurement and begins the next.
        self.start_ref_ns = refspeed.start_ns(_env())

    def _scaled_start(self, wall_ns: int) -> float:
        """``wall_ns`` of a fresh interpreter, scaled by the start references around it."""
        before, self.start_ref_ns = self.start_ref_ns, refspeed.start_ns(_env())
        return refspeed.scaled_ns(wall_ns, before, self.start_ref_ns, refspeed.REF_START_NS)

    def setup(self, trace: bool, tally: Tally) -> list[tuple[float, float]]:
        """(wall s, scaled s) of fresh interpreters that import the package and run the warm-up.

        Every warm-up's output is checked like an op's.  The traced run
        measures no set-up: it starts one worker under ``-X importtime``, or
        none when every op gets a fresh process.
        """
        if trace:
            if not self.fresh_process:
                self.worker = Worker(self.workdir, self.warmup, importtime=True)
                self.traced_worker = True
                tally.record(self.warmup, **self.worker.info["warmup"])
            return []
        times = []
        # The first start is untimed: it fills the bytecode cache of a fresh checkout.
        for i in range(SETUP_REPEATS + 1):
            if self.fresh_process:
                code, out, wall = _run_cli_process(self.warmup.argv)
            else:
                worker = Worker(self.workdir, self.warmup, importtime=False)
                wall = worker.ready_ns
                code, out = worker.info["warmup"]["code"], worker.info["warmup"]["out"]
                if i < SETUP_REPEATS:
                    worker.close()
            scaled = self._scaled_start(wall)
            tally.record(self.warmup, code, out)
            if i > 0:
                times.append((wall / 1e9, scaled / 1e9))
        if not self.fresh_process:
            self.worker = worker
        return times

    def run(self, op: gen.Op, trace: bool) -> Sample:
        if not self.fresh_process:
            reply = self.worker.request(op.argv, trace)
            if trace and op.subcommand in spans.COMBINATORIAL:
                self.combinatorial_traced += 1
            scaled = refspeed.scaled_ns(reply["ns"], *reply["kernel_ns"])
            return Sample(reply["code"], reply["out"], reply["ns"], scaled, reply["layers"])
        if trace:
            code, out, wall, layers = self._run_traced_process(op)
        else:
            (code, out, wall), layers = _run_cli_process(op.argv), None
        return Sample(code, out, wall, self._scaled_start(wall), layers)

    def _run_traced_process(self, op: gen.Op) -> tuple[int | None, str, int, dict]:
        """A one-shot worker: fresh interpreter, import, the traced op, exit."""
        start = _monotonic_ns()
        worker = Worker(self.workdir, None, importtime=True)
        try:
            reply = worker.request(op.argv, True)
        finally:
            worker.close()
        wall = _monotonic_ns() - start
        self.process["interp_start_ns"] += worker.info["interp_start_ns"]
        self.process["import_ns"] += worker.info["import_ns"]
        if op.subcommand in spans.COMBINATORIAL and _numpy_imported(worker.stderr()):
            self.process["numpy_loaded_ops"] += 1
        return reply["code"], reply["out"], wall, reply["layers"]

    def close(self) -> None:
        worker, self.worker = self.worker, None
        if worker is None:
            return
        worker.close()
        if self.traced_worker:
            numpy = _numpy_imported(worker.stderr())
            self.process = {
                "interp_start_ns": worker.info["interp_start_ns"],
                "import_ns": worker.info["import_ns"],
                "numpy_loaded_ops": self.combinatorial_traced if numpy else 0,
            }

    def process_figures(self, passes: int) -> dict:
        """Per pass for fresh processes; a worker's start-up is once per process."""
        figures = dict(self.process)
        figures["numpy_loaded_ops"] /= passes
        if self.fresh_process:
            figures["interp_start_ns"] /= passes
            figures["import_ns"] /= passes
        return figures


class Tally:
    """Attempted and failed ops; failures are logged to stderr, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, op: gen.Op, code: int | None, out: str) -> None:
        self.attempted += 1
        found = check.problems(op, code, out)
        if found:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {' '.join(op.argv)}: {'; '.join(found[:3])}", file=sys.stderr)


def _enough(wall_ns: int, passes: int, seconds: float) -> bool:
    """Whether another pass would end the run further from ``seconds`` than stopping."""
    return wall_ns + wall_ns / passes / 2 >= seconds * 1e9


def run_untraced(runner: Runner, ops: list[gen.Op], seconds: float,
                 tally: Tally) -> list[list[Sample]]:
    """Whole passes over the ops until the minimum passes and about ``seconds`` of timed work."""
    passes: list[list[Sample]] = []
    wall = 0
    while True:
        samples = []
        for op in ops:
            sample = runner.run(op, trace=False)
            tally.record(op, sample.code, sample.out)
            samples.append(sample)
            wall += sample.wall_ns
        passes.append(samples)
        if wall > MAX_TIMED_S * 1e9:
            return passes
        if len(passes) >= MIN_PASSES and _enough(wall, len(passes), seconds):
            return passes


def run_traced(runner: Runner, ops: list[gen.Op], seconds: float, tally: Tally) -> dict:
    """Pairs of passes over the same ops, one untraced and one traced, order alternating."""
    raw: dict = {}
    wall = 0
    scaled = {False: 0.0, True: 0.0}
    pairs = 0
    while True:
        for trace in ((False, True) if pairs % 2 == 0 else (True, False)):
            for op in ops:
                sample = runner.run(op, trace=trace)
                tally.record(op, sample.code, sample.out)
                wall += sample.wall_ns
                scaled[trace] += sample.scaled_ns
                if sample.layers:
                    spans.add_totals(raw, sample.layers)
        pairs += 1
        if wall > MAX_TIMED_S * 1e9 or _enough(wall, pairs, seconds):
            break
    return {"raw": raw, "pairs": pairs, "overhead_frac": scaled[True] / scaled[False] - 1.0}


def _tail(values: list[float]) -> float:
    """Nearest-rank TAIL_PERCENTILE."""
    return sorted(values)[math.ceil(TAIL_PERCENTILE / 100 * len(values)) - 1]


def end_to_end(workload: str, ops: list[gen.Op], setup: list[tuple[float, float]],
               passes: list[list[Sample]], tally: Tally) -> dict:
    """Timings from each op's median over the passes.

    Every pass runs the same ops, so the median drops a pass that other
    tenants of the machine slowed, and the percentiles always fall on the
    same ops.
    """
    kinds = ("scaled", "wall")
    per_op = {
        kind: [statistics.median(getattr(s, f"{kind}_ns") / 1e6 for s in op_samples)
               for op_samples in zip(*passes)]
        for kind in kinds
    }
    setup_s = {"wall": statistics.median(wall for wall, _ in setup),
               "scaled": statistics.median(scaled for _, scaled in setup)}
    p50 = {kind: statistics.median(per_op[kind]) for kind in kinds}
    tail = {kind: _tail(per_op[kind]) for kind in kinds}
    throughput = {kind: len(ops) / (sum(per_op[kind]) / 1e3) for kind in kinds}
    beyond = len(ops) - math.ceil(TAIL_PERCENTILE / 100 * len(ops))
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"workload {workload}: {len(ops)} ops x {len(passes)} passes, closed loop, one client")
    print("  times at reference speed [raw wall time] (see refspeed.py), "
          "from each op's median over the passes")
    print(f"  setup_s          {setup_s['scaled']:.4f} s   [{setup_s['wall']:.4f}]  "
          f"median of {len(setup)} fresh interpreters")
    print(f"  latency_p50_ms   {p50['scaled']:.3f} ms  [{p50['wall']:.3f}]")
    print(f"  latency_tail_ms  {tail['scaled']:.3f} ms  [{tail['wall']:.3f}]  "
          f"p{TAIL_PERCENTILE} of the {len(ops)} per-op medians: {beyond} of them beyond it")
    print(f"  throughput_ops_s {throughput['scaled']:.4f} 1/s  [{throughput['wall']:.4f}]")
    print(f"  peak_rss_mb      {peak_mb:.1f} MB")
    print(f"  failed_frac      {tally.failed / tally.attempted:.4f}   "
          f"({tally.failed} of {tally.attempted} ops)")
    if workload == "dynamics_grid":
        work = sum(op.ref["n"] * round(op.ref["t_final"] / check.DEFAULT_DT) for op in ops)
        steps = {kind: work / (sum(per_op[kind]) / 1e3) for kind in kinds}
        print(f"  grid_point_steps_per_s {steps['scaled']:.4e} 1/s  [{steps['wall']:.4e}]")
    return {
        "setup_s": (setup_s["scaled"], "s"),
        "latency_p50_ms": (p50["scaled"], "ms"),
        "latency_tail_ms": (tail["scaled"], "ms"),
        "throughput_ops_s": (throughput["scaled"], "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def per_layer(workload: str, runner: Runner, run: dict) -> dict:
    values = spans.layer_metrics(run["raw"], run["pairs"], runner.process_figures(run["pairs"]),
                                 run["overhead_frac"])
    units = spans.metric_units()
    print(f"workload {workload}: traced, {run['pairs']} traced passes; values per pass "
          "(a worker's interpreter start and import: once per process)")
    for name, value in values.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    return {name: (value, units[name]) for name, value in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sheafkit benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sheafkit" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'sheafkit'}", file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    runner = None
    try:
        ops = gen.make_pass(args.workload, args.seed, workdir)
        runner = Runner(args.workload, workdir, gen.warmup_op(args.workload, workdir))
        tally = Tally()
        setup = runner.setup(bool(args.trace), tally)
        if args.trace:
            result = run_traced(runner, ops, args.seconds, tally)
            runner.close()
            metrics = per_layer(args.workload, runner, result)
        else:
            result = run_untraced(runner, ops, args.seconds, tally)
            runner.close()
            metrics = end_to_end(args.workload, ops, setup, result, tally)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
