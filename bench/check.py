"""Independent checker for benchmark op outputs.

Standard library only, and no ``sheafkit`` import.  ``problems(op, code,
stdout)`` compares one CLI invocation against its reference and returns a
list of mismatches (empty when the output is correct).  It never raises on
a bad report: a report that cannot be parsed is itself a mismatch.

References:

* ``fixture``: the bundled ``fixtures/*.expected.json`` files, which the
  stdlib oracle ``make_expected.py`` derives by brute force;
* ``cycle``: a PR-like n-cycle mixed with white noise at visibility v has
  contextual fraction max(0, 1 - n(1 - v)/2) (Abramsky, Barbosa & Mansfield,
  PRL 119, 050504, 2017); it is noncontextual iff that is 0 and strongly
  contextual iff v = 1;
* ``global_projection``: tables of a distribution on global assignments are
  noncontextual, with contextual fraction 0;
* ``avn``: all-versus-nothing models are cohomologically strongly contextual
  (Abramsky, Barbosa, Kishida, Lal & Mansfield, CSL 2015), so every section's
  obstruction is non-vanishing; ``global_mixture``: every section of a
  mixture of global assignments extends, so every obstruction vanishes;
* ``gaussian`` and ``two_gaussian``: the lambda-system is the Schroedinger
  equation with hbar_eff = sqrt(lambda) * hbar, so free packets spread in
  closed form; the norm stays 1, the centre stays where it started, and the
  records fall on the grid of times the step and record interval give.

Tolerance tests are written ``not abs(got - want) <= tol``, so a NaN fails.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from fractions import Fraction
from pathlib import Path

EXIT_OK, EXIT_INVALID, EXIT_CONTEXTUAL = 0, 2, 10

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "sheafkit" / "fixtures"

NORM_TOL = 1e-9
#: Relative width tolerance for single packets (the seed agrees to ~1e-9).
WIDTH_TOL = 1e-7
#: Two packets at lambda < 1 carry the rounding-level ill-conditioning of the
#: curvature term at fringe minima; the seed's width is within ~1e-5 there.
WIDTH_TOL_TWO_PACKET_NONLINEAR = 1e-4
#: Windowed visibility of the two-packet run at lambda = 1.
VISIBILITY_TOL = 1e-7
#: Record times, relative to the time step.
TIME_TOL = 1e-6
#: Floor the CLI clamps the density to before taking the visibility.
VISIBILITY_FLOOR = 1e-12
DEFAULT_DT = 1.5e-4
DEFAULT_RECORD_EVERY = 100


@functools.cache
def expected(fixture: str) -> dict:
    return json.loads((FIXTURE_DIR / f"{fixture}.expected.json").read_text())


def problems(op, code: int | None, stdout: str) -> list[str]:
    """Mismatches between one op's output and its reference."""
    try:
        report = json.loads(stdout)
        results = report["results"]
        return _CHECKERS[op.ref["kind"]](op, code, results)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, ZeroDivisionError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]


def _expect(out: list[str], what: str, got, want) -> None:
    if got != want:
        out.append(f"{what}: got {got!r}, want {want!r}")


# ---------------------------------------------------------------------------
# Combinatorial references.


def _context_label(members) -> str:
    return "{" + ",".join(members) + "}"


def _section_label(outcomes) -> str:
    if all(o < 10 for o in outcomes):
        return "".join(str(o) for o in outcomes)
    return ",".join(str(o) for o in outcomes)


def _check_fixture(op, code, results) -> list[str]:
    exp = expected(op.ref["fixture"])
    out: list[str] = []
    sub = op.subcommand
    if not exp["compatible"]:
        _expect(out, "exit code", code, EXIT_INVALID)
        if sub == "check":
            got = {(tuple(v["pair"]), Fraction(v["discrepancy"])) for v in results["violations"]}
            want = {(tuple(v["pair"]), Fraction(v["discrepancy"])) for v in exp["violations"]}
            _expect(out, "violations", got, want)
        else:
            _expect(out, "error", results.get("error"), "incompatible model")
        return out
    if sub == "check":
        _expect(out, "exit code", code, EXIT_OK if exp["noncontextual"] else EXIT_CONTEXTUAL)
        for key in ("compatible", "noncontextual", "logically_contextual", "strongly_contextual"):
            _expect(out, key, results[key], exp[key])
    elif sub == "fraction":
        cf = Fraction(exp["contextual_fraction"])
        _expect(out, "exit code", code, EXIT_OK if cf == 0 else EXIT_CONTEXTUAL)
        _expect(out, "contextual_fraction", Fraction(results["contextual_fraction"]), cf)
        _expect(out, "noncontextual_fraction", Fraction(results["noncontextual_fraction"]),
                Fraction(exp["noncontextual_fraction"]))
    elif sub == "cohomology":
        want = {
            (_context_label(e["context"]), _section_label(e["section"])): e["vanishes"]
            for e in exp["obstructions"]
        }
        got = {(r["context"], r["section"]): r["vanishes"] for r in results["sections"]}
        _expect(out, "sections", got, want)
        any_nonvanishing = not all(want.values())
        _expect(out, "exit code", code, EXIT_CONTEXTUAL if any_nonvanishing else EXIT_OK)
    elif sub == "logic":
        logic = exp["logic_x_eq_y"]
        _expect(out, "exit code", code, EXIT_OK)
        want_profile = {_context_label(ctx): value for ctx, value in logic["profile"].items()}
        _expect(out, "profile", results["profile"], want_profile)
        _expect(out, "attained values", sorted(results["witnesses"]), sorted(logic["attained"]))
    else:
        out.append(f"no fixture reference for {sub!r}")
    return out


def _check_cycle(op, code, results) -> list[str]:
    n, v = op.ref["n"], Fraction(op.ref["v"])
    cf = max(Fraction(0), 1 - n * (1 - v) / 2)
    return _check_lp_verdict(op, code, results, cf, strongly=(v == 1))


def _check_global_projection(op, code, results) -> list[str]:
    return _check_lp_verdict(op, code, results, Fraction(0), strongly=False)


def _check_lp_verdict(op, code, results, cf: Fraction, strongly: bool) -> list[str]:
    out: list[str] = []
    _expect(out, "exit code", code, EXIT_OK if cf == 0 else EXIT_CONTEXTUAL)
    if op.subcommand == "check":
        _expect(out, "compatible", results["compatible"], True)
        _expect(out, "noncontextual", results["noncontextual"], cf == 0)
        _expect(out, "strongly_contextual", results["strongly_contextual"], strongly)
        if strongly:
            _expect(out, "logically_contextual", results["logically_contextual"], True)
    else:
        _expect(out, "contextual_fraction", Fraction(results["contextual_fraction"]), cf)
        _expect(out, "noncontextual_fraction", Fraction(results["noncontextual_fraction"]), 1 - cf)
    return out


def _check_sections(op, code, results, vanishes: bool) -> list[str]:
    out: list[str] = []
    rows = results["sections"]
    _expect(out, "section count", len(rows), op.ref["sections"])
    wrong = [f"{r['context']}:{r['section']}" for r in rows if r["vanishes"] is not vanishes]
    if wrong:
        out.append(f"sections with vanishes != {vanishes}: {wrong[:4]}")
    _expect(out, "exit code", code, EXIT_OK if vanishes else EXIT_CONTEXTUAL)
    return out


def _check_avn(op, code, results) -> list[str]:
    return _check_sections(op, code, results, vanishes=False)


def _check_global_mixture(op, code, results) -> list[str]:
    return _check_sections(op, code, results, vanishes=True)


# ---------------------------------------------------------------------------
# Dynamics references (mass = hbar = 1, as the CLI defaults).


def spread_width(sigma0: float, lam: float, t: float) -> float:
    """Width of a free Gaussian packet: sigma0 sqrt(1 + lam (t / 2 sigma0^2)^2)."""
    return sigma0 * math.sqrt(1.0 + lam * (t / (2.0 * sigma0**2)) ** 2)


def two_packet_width(separation: float, sigma0: float, lam: float, t: float) -> float:
    """Width of two far-apart packets at +-separation/2 with zero phase.

    <x^2> grows by (hbar_eff t / m)^2 <|psi'|^2>, and the overlap of the
    packets (exp(-separation^2 / 8 sigma0^2)) is below double precision.
    """
    half = separation / 2.0
    return math.sqrt(half**2 + spread_width(sigma0, lam, t) ** 2)


def two_packet_visibility(separation: float, sigma0: float, t: float, n: int,
                          length: float, window: tuple[float, float]) -> float:
    """Windowed fringe visibility of the free two-packet state at lambda = 1.

    Each packet evolves as (1 + i tau)^(-1/2) exp(-(x -+ a)^2 / 4 sigma0^2
    (1 + i tau)) with tau = t / 2 sigma0^2; the pair's norm squared is
    2 sqrt(2 pi) sigma0 at all times.  Sampled on the CLI's grid points in
    the window and clamped like the CLI does.
    """
    a = separation / 2.0
    z = 1.0 + 1j * t / (2.0 * sigma0**2)
    pref = 1.0 / cmath.sqrt(z)
    norm2 = 2.0 * math.sqrt(2.0 * math.pi) * sigma0
    dx = length / n
    lo, hi = window
    dens = []
    for j in range(n):
        x = (j - n // 2) * dx
        if lo <= x <= hi:
            psi = pref * (cmath.exp(-((x - a) ** 2) / (4 * sigma0**2 * z))
                          + cmath.exp(-((x + a) ** 2) / (4 * sigma0**2 * z)))
            dens.append(max(abs(psi) ** 2 / norm2, VISIBILITY_FLOOR))
    top, bottom = max(dens), min(dens)
    return (top - bottom) / (top + bottom)


def _close(out: list[str], what: str, got, want: float, tol: float) -> None:
    """Mismatch unless ``got`` is a number within ``tol`` of ``want``; NaN is never within."""
    if not (isinstance(got, (int, float)) and abs(got - want) <= tol):
        out.append(f"{what}: got {got!r}, want {want!r}")


def _check_records(out: list[str], op, code, results, width_of, centre: float,
                   width_tol: float) -> list:
    """Exit code, record times, norm, centre and width of every record.

    The centre may drift by ``width_tol`` times the width, the same share
    the width itself may be off by.
    """
    _expect(out, "exit code", code, EXIT_OK)
    records = results["records"]
    steps = round(op.ref["t_final"] / DEFAULT_DT)
    record_steps = list(range(0, steps + 1, DEFAULT_RECORD_EVERY))
    if steps % DEFAULT_RECORD_EVERY:
        record_steps.append(steps)
    _expect(out, "record count", len(records), len(record_steps))
    for r, step in zip(records, record_steps):
        t = step * DEFAULT_DT
        _close(out, f"t of record {step}", r["t"], t, TIME_TOL * DEFAULT_DT)
        _close(out, f"norm at t={t}", r["norm"], 1.0, NORM_TOL)
        want = width_of(t)
        _close(out, f"width at t={t}", r["width"], want, width_tol * want)
        _close(out, f"mean_x at t={t}", r["mean_x"], centre, width_tol * want)
    return records


def _check_gaussian(op, code, results) -> list[str]:
    out: list[str] = []
    ref = op.ref
    _check_records(out, op, code, results,
                   lambda t: spread_width(ref["sigma0"], ref["lambda"], t), ref["mu"], WIDTH_TOL)
    return out


def _check_two_gaussian(op, code, results) -> list[str]:
    out: list[str] = []
    ref = op.ref
    lam = ref["lambda"]
    tol = WIDTH_TOL if lam == 1.0 else WIDTH_TOL_TWO_PACKET_NONLINEAR
    records = _check_records(
        out, op, code, results,
        lambda t: two_packet_width(ref["separation"], ref["sigma0"], lam, t), 0.0, tol)
    # Visibility below lambda = 1 is ill-conditioned and has no reference.
    if lam == 1.0 and records:
        final = records[-1]
        want = two_packet_visibility(ref["separation"], ref["sigma0"], final["t"], ref["n"],
                                     ref["length"], tuple(ref["window"]))
        _close(out, f"visibility at t={final['t']}", final["visibility"], want, VISIBILITY_TOL)
    return out


_CHECKERS = {
    "fixture": _check_fixture,
    "cycle": _check_cycle,
    "global_projection": _check_global_projection,
    "avn": _check_avn,
    "global_mixture": _check_global_mixture,
    "gaussian": _check_gaussian,
    "two_gaussian": _check_two_gaussian,
}
