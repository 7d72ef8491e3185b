"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

1. For each reference kind, the checker passes a genuine CLI report and
   fails a deliberately corrupted copy of it; NaN observables fail too.
   Each workload's warm-up op passes its reference, and a ``-X importtime``
   log of an ``evolve`` process shows numpy to the parser the traced run
   uses.
2. The generators write byte-identical files for a fixed seed.
3. Two traced runs of each workload with the same seed report exactly the
   same work counters, and every layer the README marks idle on a workload
   reports zero there.

Prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import filecmp
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import check
import gen
import run

FAILURES: list[str] = []


def report(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


# ---------------------------------------------------------------------------
# 1. Corrupted reports are counted as failed.


def _set_section(results, vanishes: bool):
    results["sections"][0]["vanishes"] = vanishes


def _scale_last(key: str, factor: float, shift: float = 0.0):
    def corrupt(results):
        record = results["records"][-1]
        record[key] = record[key] * factor + shift
    return corrupt


def _set_last(key: str, value):
    def corrupt(results):
        results["records"][-1][key] = value
    return corrupt


def _flip(key: str):
    def corrupt(results):
        results[key] = not results[key]
    return corrupt


def _set(key: str, value):
    def corrupt(results):
        results[key] = value
    return corrupt


def _first_profile_value(results):
    ctx = next(iter(results["profile"]))
    results["profile"][ctx] = "T" if results["profile"][ctx] != "T" else "F"


def _first_violation(results):
    results["violations"][0]["discrepancy"] = "1/3"


def _fixture_op(argv: list[str], fixture: str) -> gen.Op:
    return gen.Op(argv, {"kind": "fixture", "fixture": fixture})


def _cases(workdir: Path) -> list[tuple[str, gen.Op, object]]:
    """(reference kind, op, corruption of its results)."""
    dyn = {op.ref["kind"] + str(op.ref["lambda"]): op
           for op in gen.make_pass("dynamics_grid", 1, workdir)}
    lp = gen.make_pass("lp_cycles", 1, workdir)
    bell = gen.make_pass("cohomology_bell", 1, workdir)

    def first(ops, kind, sub=None, **ref):
        return next(op for op in ops
                    if op.ref["kind"] == kind and sub in (None, op.subcommand)
                    and all(op.ref.get(k) == v for k, v in ref.items()))

    triangle = "triangle_anticorrelated"
    return [
        ("fixture check", _fixture_op(["check", "prbox"], "prbox"), _flip("strongly_contextual")),
        ("fixture check (incompatible)", _fixture_op(["check", "signalling"], "signalling"),
         _first_violation),
        ("fixture fraction", _fixture_op(["fraction", "triangle"], triangle),
         _set("contextual_fraction", "1/2")),
        ("fixture cohomology", _fixture_op(["cohomology", "bell_uniform"], "bell_uniform"),
         lambda r: _set_section(r, False)),
        ("fixture logic", _fixture_op(["logic", "triangle", "--prop", gen.README_PROP], triangle),
         _first_profile_value),
        ("cycle check", first(lp, "cycle", "check", v="1"), _flip("strongly_contextual")),
        ("cycle fraction", first(lp, "cycle", "fraction", v="9/10"),
         _set("contextual_fraction", "7/9")),
        ("global projection", first(lp, "global_projection", "fraction"),
         _set("contextual_fraction", "1/100")),
        ("AvN", first(bell, "avn"), lambda r: _set_section(r, True)),
        ("global mixture", first(bell, "global_mixture"), lambda r: _set_section(r, False)),
        ("gaussian width", dyn["gaussian0.5"], _scale_last("width", 1 + 1e-6)),
        ("gaussian norm", dyn["gaussian1.0"], _scale_last("norm", 1.0, 2e-9)),
        ("gaussian time", dyn["gaussian1.0"], _scale_last("t", 1.0, check.DEFAULT_DT)),
        ("gaussian centre", dyn["gaussian0.0"], _scale_last("mean_x", 1.0, 1e-6)),
        ("gaussian NaN norm", dyn["gaussian0.5"], _set_last("norm", float("nan"))),
        ("gaussian NaN width", dyn["gaussian0.0"], _set_last("width", float("nan"))),
        ("two-packet visibility", dyn["two_gaussian1.0"], _scale_last("visibility", 1.0, 1e-6)),
        ("two-packet NaN visibility", dyn["two_gaussian1.0"], _set_last("visibility", float("nan"))),
        ("two-packet width", dyn["two_gaussian0.5"], _scale_last("width", 1 + 2e-4)),
        ("two-packet centre", dyn["two_gaussian0.5"], _scale_last("mean_x", 1.0, 1e-2)),
    ]


def check_corruptions() -> None:
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for name, op, corrupt in _cases(Path(tmp)):
            code, out, _ = run._run_cli_process(op.argv)
            genuine = check.problems(op, code, out)
            report(not genuine, f"genuine {name} report passes {genuine[:1]}")
            bad = json.loads(out)
            corrupt(bad["results"])
            report(bool(check.problems(op, code, json.dumps(bad))), f"corrupted {name} report fails")
            wrong_code = 0 if code != 0 else 10
            report(bool(check.problems(op, wrong_code, out)), f"{name} with exit code {wrong_code} fails")
        report(bool(check.problems(op, 0, "not json")), "unreadable report fails")
        for workload in gen.WORKLOADS:
            op = gen.warmup_op(workload, Path(tmp))
            code, out, _ = run._run_cli_process(op.argv)
            found = check.problems(op, code, out)
            report(not found, f"{workload}: warm-up op passes its reference {found[:1]}")
        evolve = gen.warmup_op("dynamics_grid", Path(tmp)).argv
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "sheafkit.cli", *evolve],
                              capture_output=True, text=True, cwd=run.ROOT, env=run._env(),
                              timeout=run.PROCESS_TIMEOUT_S)
        report(run._numpy_imported(proc.stderr), "-X importtime shows numpy in an evolve process")


# ---------------------------------------------------------------------------
# 2. Byte-identical inputs.


def check_generators() -> None:
    with tempfile.TemporaryDirectory(dir=run.WORK) as a, tempfile.TemporaryDirectory(dir=run.WORK) as b:
        for workload in gen.WORKLOADS:
            for tmp in (a, b):
                (Path(tmp) / workload).mkdir()
            ops_a = gen.make_pass(workload, 5, Path(a) / workload)
            ops_b = gen.make_pass(workload, 5, Path(b) / workload)
            names = sorted(p.name for p in (Path(a) / workload).glob("*.json"))
            same = filecmp.cmpfiles(Path(a) / workload, Path(b) / workload, names, shallow=False)[0]
            argv_a = [[x.replace(a, "") for x in op.argv] for op in ops_a]
            argv_b = [[x.replace(b, "") for x in op.argv] for op in ops_b]
            report(same == names and argv_a == argv_b and [o.ref for o in ops_a] == [o.ref for o in ops_b],
                   f"{workload}: {len(names)} model files and {len(ops_a)} ops identical for one seed")


# ---------------------------------------------------------------------------
# 3. Exact counters and idle layers in the traced run.

#: Layers the README's table marks idle, by workload.
IDLE = {
    "cli_fixtures": (),
    "lp_cycles": ("cohomology.", "intlinalg.", "dynamics."),
    "cohomology_bell": ("gluing.", "simplex.", "dynamics."),
    "dynamics_grid": ("gluing.", "simplex.", "cohomology.", "intlinalg."),
}
#: Counters that must be non-zero where the layer does its work.
BUSY = {
    "cli_fixtures": ("simplex.pivots", "intlinalg.snf_calls"),
    "lp_cycles": ("gluing.incidence_cells", "simplex.pivots"),
    "cohomology_bell": ("cohomology.sections", "intlinalg.snf_calls", "cohomology.d0_cells"),
    "dynamics_grid": ("dynamics.fft_calls_per_step_linear", "dynamics.fft_calls_per_step_nonlinear"),
}
EXACT_UNITS = ("count", "flop_computed", "B_computed")


def _traced(workload: str) -> dict:
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report(proc.returncode == 0 and result["failed"] == 0,
           f"{workload}: traced run exits 0 with {result['failed']} of {result['attempted']} ops failed")
    return result["metrics"]


def check_traces() -> None:
    for workload in gen.WORKLOADS:
        first, second = _traced(workload), _traced(workload)
        exact = {k for k, v in first.items() if v["unit"] in EXACT_UNITS}
        differ = sorted(k for k in exact if first[k]["value"] != second[k]["value"])
        report(not differ, f"{workload}: {len(exact)} counters repeat exactly {differ}")
        busy = [k for k, v in first.items() if any(k.startswith(p) for p in IDLE[workload])
                and v["value"] != 0]
        report(not busy, f"{workload}: idle layers {IDLE[workload]} report zero {busy}")
        idle = [k for k in BUSY[workload] if first[k]["value"] == 0]
        report(not idle, f"{workload}: working layers report work {idle}")
        expected = set(run.spans.metric_units())
        report(set(first) == expected, f"{workload}: every per-layer metric reported")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    check_corruptions()
    check_generators()
    check_traces()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
