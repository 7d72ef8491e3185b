"""Command-line entry point tying the analyses together.

Subcommands: ``check``, ``fraction``, ``cohomology``, ``logic``, ``evolve``,
and ``fixtures list``.  Reports are deterministic given inputs (pass
``--no-timings`` to strip wall-clock fields), embed the sha256 digest of the
input file, and name the bundled fixture when one is used.

Exit codes: 0 clean/noncontextual, 10 contextuality detected, 2 invalid
input.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import struct
import sys
import time
from fractions import Fraction
from importlib.resources import files
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import (
    GLOBAL_LIMIT,
    MATRIX_LIMIT,
    NODE_BUDGET,
    PIVOT_BUDGET,
    STEP_BUDGET,
    IncompatibleModel,
    SheafkitError,
)

# For annotations only: the layers load on first use (see _ENTRY_POINTS), and
# numpy with the dynamics only when `evolve` or a frame dump needs them.
if TYPE_CHECKING:
    import numpy as np

    from .dynamics import Grid, LambdaState
    from .presheaf import EmpiricalModel

#: The layer entry points the subcommands call.  So that each subcommand
#: imports only the layers it runs, ``__getattr__`` gets a name from the
#: package, whose export table loads its layer, on first access and binds it
#: here.  The subcommands call each name as ``_cli.name``, so a wrapper set on
#: this module's attribute applies.
_ENTRY_POINTS = frozenset({
    "model_from_dict", "check_compatibility", "support_of", "section_label",
    "classify_contextuality", "contextual_fraction", "obstruction_report",
    "parse_proposition", "proposition_to_str", "seven_value_of",
})


def __getattr__(name: str):
    if name not in _ENTRY_POINTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


# This module, also when it runs as ``__main__``.
_cli = sys.modules[__name__]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CONTEXTUAL = 10

FIXTURE_ALIASES = {"triangle": "triangle_anticorrelated"}
FIXTURE_NAMES = (
    "prbox",
    "bell_uniform",
    "triangle_anticorrelated",
    "deterministic",
    "signalling",
)

FRAME_MAGIC = b"SLAM"
FRAME_VERSION = 1


# ---------------------------------------------------------------------------
# Input resolution and report plumbing.


def resolve_model_arg(arg: str) -> tuple[bytes, str, str | None]:
    """Return (file bytes, display path, bundled fixture name or None).

    An existing path is read as a file; otherwise the argument must be
    exactly a fixture name or alias.
    """
    path = Path(arg)
    if path.exists():
        name = None
        if path.resolve().parent == _fixture_dir_path():
            name = path.stem
        return path.read_bytes(), str(path), name
    name = FIXTURE_ALIASES.get(arg, arg)
    if name in FIXTURE_NAMES:
        resource = files("sheafkit") / "fixtures" / f"{name}.json"
        return resource.read_bytes(), f"fixtures/{name}.json", name
    raise SheafkitError(f"no such model file or bundled fixture: {arg}")


def _fixture_dir_path() -> Path:
    return Path(str(files("sheafkit") / "fixtures")).resolve()


def load_model_arg(arg: str, mode: str | None) -> tuple[EmpiricalModel, dict]:
    raw, display, fixture = resolve_model_arg(arg)
    data = json.loads(raw.decode())
    if mode is not None and isinstance(data, dict):
        data["mode"] = mode
    base = Path(display).parent if Path(display).exists() else None
    model = _cli.model_from_dict(data, base_dir=base)
    meta = {
        "path": display,
        "sha256": hashlib.sha256(raw).hexdigest(),
        "fixture": fixture,
    }
    return model, meta


def _fraction_str(value: object) -> str:
    """JSON for the one non-JSON type a report holds: a Fraction as "p/q"."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} {value!r} is not JSON serializable")


def emit(args: argparse.Namespace, inputs: dict, results: dict, text: str,
         started: float) -> None:
    """Write ``text``, or with --format json the report, to stdout or --output."""
    if args.format == "json":
        report = {
            "tool": "sheafkit",
            "version": __version__,
            "subcommand": args.subcommand,
            "seed": args.seed,
            "inputs": inputs,
            "results": results,
        }
        if not args.no_timings:
            report["timings"] = {"total_s": round(time.perf_counter() - started, 6)}
        text = json.dumps(report, sort_keys=True, indent=2, default=_fraction_str) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def run_model_command(args: argparse.Namespace) -> int:
    """Load the model, run the subcommand's analysis on it and emit the report.

    The analysis returns (results, text, exit code).  When it raises
    IncompatibleModel, the report lists each pair of contexts whose marginals
    disagree, and the input is invalid.
    """
    started = time.perf_counter()
    model, meta = load_model_arg(args.model, args.mode)
    try:
        results, text, code = args.analyze(args, model)
    except IncompatibleModel as exc:
        rows = [
            {"pair": list(v.pair), "overlap": v.overlap.label(), "discrepancy": v.discrepancy}
            for v in exc.violations
        ]
        results = {"error": "incompatible model", "violations": rows}
        text = f"incompatible model: {len(rows)} violation(s)\n"
        code = EXIT_INVALID
    emit(args, {"model": meta}, results, text, started)
    return code


# ---------------------------------------------------------------------------
# Model analyses: each maps (args, model) to (results, text, exit code).


def cmd_check(args: argparse.Namespace, model: EmpiricalModel) -> tuple[dict, str, int]:
    verdict = _cli.classify_contextuality(model, node_budget=args.budget_nodes,
                                          limit=args.budget_globals,
                                          budget=args.budget_pivots)
    results = {
        "compatible": True,
        "noncontextual": verdict.noncontextual,
        "logically_contextual": verdict.logically_contextual,
        "strongly_contextual": verdict.strongly_contextual,
        "global_section_unique": verdict.global_section_unique,
        "witnesses": {
            "nonextendable_section": (
                None
                if verdict.nonextendable_section is None
                else {
                    "context": model.scenario.cover[verdict.nonextendable_section[0]].label(),
                    "section": _cli.section_label(verdict.nonextendable_section[1]),
                }
            ),
            "global_support_section": (
                None
                if verdict.global_support_section is None
                else dict(zip(model.scenario.observable_ids, verdict.global_support_section))
            ),
        },
    }
    lines = [
        "compatible:           yes",
        f"noncontextual:        {'yes' if verdict.noncontextual else 'no'}",
        f"logically contextual: {'yes' if verdict.logically_contextual else 'no'}",
        f"strongly contextual:  {'yes' if verdict.strongly_contextual else 'no'}",
    ]
    return results, "\n".join(lines) + "\n", EXIT_OK if verdict.noncontextual else EXIT_CONTEXTUAL


def cmd_fraction(args: argparse.Namespace, model: EmpiricalModel) -> tuple[dict, str, int]:
    violations = _cli.check_compatibility(model)
    if violations:
        raise IncompatibleModel("incompatible model", violations)
    fr = _cli.contextual_fraction(model, limit=args.budget_globals, budget=args.budget_pivots)
    weights = {
        _cli.section_label(g): w
        for g, w in zip(fr.incidence.columns, fr.weights)
        if w != 0
    }
    results = {
        "noncontextual_fraction": fr.noncontextual_fraction,
        "contextual_fraction": fr.contextual_fraction,
        "weights": weights,
    }
    text = f"contextual fraction: {fr.contextual_fraction}\n"
    return results, text, EXIT_OK if fr.noncontextual else EXIT_CONTEXTUAL


def cmd_cohomology(args: argparse.Namespace, model: EmpiricalModel) -> tuple[dict, str, int]:
    support = _cli.support_of(model)
    rep = _cli.obstruction_report(support, matrix_limit=args.budget_matrix)
    cover = model.scenario.cover
    rows = [
        {
            "context": cover[e.context_index].label(),
            "section": _cli.section_label(e.section),
            "vanishes": e.vanishes,
        }
        for e in rep.entries
    ]
    results = {
        "sections": rows,
        "invariants": {
            "h0_rank": rep.invariants.h0_rank,
            "h1_rank": rep.invariants.h1_rank,
            "h1_torsion": list(rep.invariants.h1_torsion),
        },
    }
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["context", "section", "vanishes"])
    for row in rows:
        writer.writerow([row["context"], row["section"], str(row["vanishes"]).lower()])
    text = buf.getvalue() + json.dumps(results["invariants"], sort_keys=True) + "\n"
    return results, text, EXIT_CONTEXTUAL if rep.any_nonvanishing else EXIT_OK


def cmd_logic(args: argparse.Namespace, model: EmpiricalModel) -> tuple[dict, str, int]:
    prop = _cli.parse_proposition(args.prop)
    support = _cli.support_of(model)
    classification, prof = _cli.seven_value_of(support, prop)
    results = {
        "proposition": _cli.proposition_to_str(prop),
        "profile": {ctx.label(): value.name for ctx, value in prof.items()},
        "mode": classification.value.mode,
        "value": classification.value.name,
        "witnesses": {
            value.name: [c.label() for c in ctxs]
            for value, ctxs in classification.witnesses.items()
        },
    }
    profile_text = "  ".join(f"{c.label()}:{v.name}" for c, v in prof.items())
    text = f"mode {classification.value.mode} ({classification.value.name})\n{profile_text}\n"
    return results, text, EXIT_OK


# ---------------------------------------------------------------------------
# evolve and fixtures list.


def _parse_initial(spec: str, grid: Grid, params) -> LambdaState:
    from . import dynamics

    kind, _, rest = spec.partition(":")
    fields = [float(v) for v in rest.split(",")] if rest else []
    if not all(math.isfinite(v) for v in fields):
        raise SheafkitError(f"bad --initial {spec!r}; every field must be finite")
    if len(fields) in (2, 3):
        if kind == "gaussian":
            return dynamics.gaussian_state(grid, params, fields[0], fields[1], *fields[2:])
        if kind == "two-gaussian":
            return dynamics.two_gaussian_state(grid, params, fields[0], fields[1], *fields[2:])
    raise SheafkitError(
        f"bad --initial {spec!r}; expected gaussian:mu,sigma0[,p] or two-gaussian:sep,sigma0[,p]"
    )


def _parse_window(spec: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in spec.split(","))
    except ValueError:  # not two fields, or a field that is not a number
        lo = hi = math.nan
    if not -math.inf < lo < hi < math.inf:
        raise SheafkitError(f"bad --window {spec!r}; expected --window 'lo,hi' with finite lo < hi")
    return lo, hi


def _is_number(value: object) -> bool:
    """A JSON number; JSON's true and false are bools, which Python counts as ints."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_potential(spec: str, grid: Grid) -> np.ndarray | None:
    import numpy as np

    from . import dynamics

    if spec == "free":
        return None
    if spec.startswith("harmonic:"):
        return dynamics.harmonic_potential(grid, float(spec.split(":", 1)[1]))
    path = Path(spec)
    if path.exists():
        values = json.loads(path.read_text())
        if not isinstance(values, list) or not all(_is_number(v) for v in values):
            raise SheafkitError(f"bad --potential {spec!r}; expected a JSON list of numbers")
        return np.asarray(values, dtype=float)
    raise SheafkitError(f"bad --potential {spec!r}; expected free, harmonic:k, or a file")


def _parse_map(path: str) -> list[tuple[float, float]]:
    table = json.loads(Path(path).read_text())
    if not isinstance(table, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(_is_number(v) for v in p)
        for p in table
    ):
        raise SheafkitError(f"bad --map {path!r}; expected a JSON [[sigma,lambda],...] table")
    return [tuple(p) for p in table]


def write_frame_dump(path: str | Path, frames: list[np.ndarray]) -> None:
    """Binary frame file: 16-byte header (magic, version, n_points, count)."""
    import numpy as np

    n_points = len(frames[0]) if frames else 0
    header = struct.pack("<4sIII", FRAME_MAGIC, FRAME_VERSION, n_points, len(frames))
    with open(path, "wb") as fh:
        fh.write(header)
        for frame in frames:
            fh.write(np.asarray(frame, dtype="<f8").tobytes())


def cmd_evolve(args: argparse.Namespace) -> int:
    from . import dynamics

    started = time.perf_counter()
    if (args.lam is None) == (args.sigma is None) or (args.map and args.sigma is None):
        raise SheafkitError("pass exactly one of --lambda and --sigma; --map needs --sigma")
    grid = dynamics.Grid(args.grid_n, args.length)
    potential = _parse_potential(args.potential, grid)

    lam = args.lam
    if args.sigma is not None:
        probe = dynamics.physical_params(grid, mass=args.mass, hbar=args.hbar)
        map_spec = _parse_map(args.map) if args.map else None
        lam = dynamics.lambda_from_sigma(args.sigma, probe, map_spec)
    params = dynamics.physical_params(
        grid, mass=args.mass, hbar=args.hbar, lam=lam, potential=potential
    )
    initial = _parse_initial(args.initial, grid, params)
    window = _parse_window(args.window) if args.window is not None else None
    if args.dump and not Path(args.dump).parent.is_dir():
        raise SheafkitError(f"bad --dump {args.dump!r}; its directory does not exist")
    records, frames = dynamics.evolve(
        initial,
        params,
        grid,
        t_final=args.t_final,
        dt=args.dt,
        record_every=args.record_every,
        window=window,
        visibility_rel_floor=args.vis_rel_floor,
        collect_frames=args.dump is not None,
        step_budget=args.budget_steps,
    )
    if args.dump:
        write_frame_dump(args.dump, frames)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "norm", "mean_x", "width", "visibility"])
    for r in records:
        writer.writerow(
            [f"{r.time:.9g}", f"{r.norm:.12g}", f"{r.mean_x:.12g}",
             f"{r.width:.12g}", f"{r.visibility:.12g}"]
        )
    csv_text = buf.getvalue()
    results = {
        "lambda": lam,
        "records": [
            {
                "t": r.time,
                "norm": r.norm,
                "mean_x": r.mean_x,
                "width": r.width,
                "visibility": r.visibility,
            }
            for r in records
        ],
    }
    emit(args, {}, results, csv_text, started)
    return EXIT_OK


def cmd_fixtures(args: argparse.Namespace) -> int:
    lines = []
    for name in FIXTURE_NAMES:
        resource = files("sheafkit") / "fixtures" / f"{name}.json"
        digest = hashlib.sha256(resource.read_bytes()).hexdigest()[:12]
        lines.append(f"{name}  sha256:{digest}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing.


def _add_report_options(parser: argparse.ArgumentParser, formats: tuple[str, str]) -> None:
    """--format (the first name is the default) and the report's own options."""
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--output", default=None, help="write the report to a file")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed recorded in the report for reproducibility")
    parser.add_argument("--no-timings", action="store_true",
                        help="omit wall-clock timings (byte-identical reruns)")


def _add_model_command(sub, name: str, analyze, summary: str, formats: tuple[str, str],
                       **budgets: int) -> argparse.ArgumentParser:
    """A subcommand that runs ``analyze`` on one model; ``budgets`` maps each
    --budget-* it consults to its default."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("model")
    parser.add_argument("--mode", choices=["rational", "float"], default=None,
                        help="override the model's numeric mode")
    _add_report_options(parser, formats)
    for budget, default in budgets.items():
        parser.add_argument(f"--budget-{budget}", type=int, default=default)
    parser.set_defaults(func=run_model_command, analyze=analyze)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheafkit", description="contextuality analysis toolkit"
    )
    parser.add_argument("--version", action="version", version=f"sheafkit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    _add_model_command(sub, "check", cmd_check,
                       "compatibility, gluing, and noncontextuality checks",
                       ("json", "text"), globals=GLOBAL_LIMIT, nodes=NODE_BUDGET,
                       pivots=PIVOT_BUDGET)
    _add_model_command(sub, "fraction", cmd_fraction,
                       "noncontextual/contextual fraction (exact LP)",
                       ("json", "text"), globals=GLOBAL_LIMIT, pivots=PIVOT_BUDGET)
    _add_model_command(sub, "cohomology", cmd_cohomology,
                       "per-section obstruction verdicts and invariants",
                       ("json", "csv"), matrix=MATRIX_LIMIT)
    p_logic = _add_model_command(sub, "logic", cmd_logic,
                                 "seven-valued classification of a proposition",
                                 ("json", "text"))
    p_logic.add_argument("--prop", required=True,
                         help="proposition, e.g. '(x=0 & y=0) | (x=1 & y=1)'")

    p_evolve = sub.add_parser("evolve", help="integrate the lambda-interpolated dynamics")
    _add_report_options(p_evolve, ("csv", "json"))
    p_evolve.add_argument("--lambda", dest="lam", type=float, default=None)
    p_evolve.add_argument("--sigma", type=float, default=None,
                          help="pick lambda by the sigma map at the run's hbar; hbar stays")
    p_evolve.add_argument("--map", default=None, help="JSON [[sigma,lambda],...] table")
    p_evolve.add_argument("--mass", type=float, default=1.0)
    p_evolve.add_argument("--hbar", type=float, default=1.0,
                          help="hbar of the run, also with --sigma")
    p_evolve.add_argument("--grid-n", type=int, default=512)
    p_evolve.add_argument("--length", type=float, default=16.0)
    p_evolve.add_argument("--dt", type=float, default=1.5e-4)
    p_evolve.add_argument("--t-final", type=float, default=1.0)
    p_evolve.add_argument("--potential", default="free")
    p_evolve.add_argument("--initial", default="gaussian:0,0.5")
    p_evolve.add_argument("--record-every", type=int, default=100)
    p_evolve.add_argument("--window", default=None, help="visibility window 'lo,hi'")
    p_evolve.add_argument("--vis-rel-floor", type=float, default=0.0)
    p_evolve.add_argument("--dump", default=None, help="binary density-frame dump path")
    p_evolve.add_argument("--budget-steps", type=int, default=STEP_BUDGET)
    p_evolve.set_defaults(func=cmd_evolve)

    p_fix = sub.add_parser("fixtures", help="bundled fixture library")
    p_fix.add_argument("action", choices=["list"])
    p_fix.set_defaults(func=cmd_fixtures)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SheafkitError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
