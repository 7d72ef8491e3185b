"""Seeded inputs for the four benchmark workloads.

Standard library only, and no ``sheafkit`` import: the inputs (and the
references the checker needs) must not change when the program does.  One
``Op`` is one CLI invocation plus the reference its output is checked
against.  ``make_pass`` returns the same ops and writes byte-identical model
files for the same (workload, seed); every pass of a run replays them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("cli_fixtures", "lp_cycles", "cohomology_bell", "dynamics_grid")

FIXTURES = ("prbox", "bell_uniform", "triangle_anticorrelated", "deterministic", "signalling")
COMPATIBLE_FIXTURES = ("prbox", "bell_uniform", "triangle_anticorrelated", "deterministic")
README_PROP = "(x=0 & y=0) | (x=1 & y=1)"

#: Visibilities of the noisy n-cycles (weight of the PR-like box).
CYCLE_V = (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10), Fraction(1))
CYCLE_N = (4, 5, 6, 7, 8)
#: Projections of random global distributions, all on the 4-cycle.
GLOBAL_PROJECTIONS = 4
#: Bell m x m x d shapes; AvN models exist for d = 2 only.
BELL_SHAPES = ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3))
AVN_COPIES = 2
DYN_GRID_N = (512, 1024, 2048, 4096)
DYN_LAMBDAS = ("0", "0.5", "1")


@dataclass
class Op:
    argv: list[str]
    ref: dict = field(default_factory=dict)

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _write_model(path: Path, observables, cover, tables) -> None:
    data = {
        "scenario": {
            "observables": [{"id": oid, "arity": arity} for oid, arity in observables],
            "cover": [list(c) for c in cover],
        },
        "mode": "rational",
        "tables": [
            {"context": list(ctx), "probs": {k: str(p) for k, p in sorted(probs.items()) if p}}
            for ctx, probs in tables
        ],
    }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# cli_fixtures: the bundled fixtures, every documented behaviour.


def _cli_fixture_ops(rng: random.Random) -> list[Op]:
    ops = []
    for name in FIXTURES:
        for sub in ("check", "fraction"):
            ops.append(Op([sub, name], {"kind": "fixture", "fixture": name}))
    for name in COMPATIBLE_FIXTURES:
        ops.append(Op(["cohomology", name], {"kind": "fixture", "fixture": name}))
    ops.append(Op(["logic", "triangle", "--prop", README_PROP],
                  {"kind": "fixture", "fixture": "triangle_anticorrelated"}))
    ops.append(_gaussian_op(512, 16.0, "1", 0.0, 0.5, "0.015"))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# lp_cycles: noisy PR-like n-cycles and projections of random global
# distributions.


def _cycle_scenario(n: int):
    observables = [(f"x{i}", 2) for i in range(n)]
    cover = [(f"x{i}", f"x{(i + 1) % n}") for i in range(n)]
    return observables, cover


def _noisy_cycle(path: Path, n: int, v: Fraction) -> None:
    """v * (PR-like box) + (1 - v) * white noise on the n-cycle.

    The box correlates every edge but the closing one (x_{n-1}, x_0).  Moving
    the anticorrelated edge, or relabelling outcomes, keeps every verdict but
    changes the exact simplex's pivot count by up to 2x, which would make the
    pass time depend on the seed.
    """
    observables, cover = _cycle_scenario(n)
    tables = []
    for i, ctx in enumerate(cover):
        probs = {}
        for a in (0, 1):
            for b in (0, 1):
                probs[f"{a}{b}"] = (1 - v) / 4 + (v / 2 if a ^ b == (i == n - 1) else 0)
        tables.append((ctx, probs))
    _write_model(path, observables, cover, tables)


def _global_projection(path: Path, n: int, k: int, rng: random.Random) -> None:
    """Tables of a random distribution on k global assignments."""
    observables, cover = _cycle_scenario(n)
    assignments = [[rng.randrange(2) for _ in range(n)] for _ in range(k)]
    weights = [rng.randint(1, 9) for _ in range(k)]
    total = sum(weights)
    tables = []
    for i, ctx in enumerate(cover):
        probs: dict[str, Fraction] = {}
        for g, w in zip(assignments, weights):
            key = f"{g[i]}{g[(i + 1) % n]}"
            probs[key] = probs.get(key, Fraction(0)) + Fraction(w, total)
        tables.append((ctx, probs))
    _write_model(path, observables, cover, tables)


def _lp_cycle_ops(rng: random.Random, out: Path) -> list[Op]:
    ops = []
    for n in CYCLE_N:
        for vi, v in enumerate(CYCLE_V):
            path = out / f"cycle{n}_v{v.numerator}-{v.denominator}.json"
            _noisy_cycle(path, n, v)
            # A fixed check/fraction pattern: the two LPs differ in cost per
            # pivot, so a seeded choice would move the pass time.
            sub = "check" if (n + vi) % 2 else "fraction"
            ops.append(Op([sub, str(path)], {"kind": "cycle", "n": n, "v": str(v)}))
    # Pivot counts on random projections spread widely from seed to seed, by
    # 2x already at n = 5 and up to 20x at n = 8.  On the 4-cycle they stay
    # among the pass's cheapest ops, where they move no timing metric.
    for i in range(GLOBAL_PROJECTIONS):
        sub = ("check", "fraction")[i % 2]
        path = out / f"cycle4_globals{i}.json"
        _global_projection(path, 4, 4, rng)
        ops.append(Op([sub, str(path)], {"kind": "global_projection"}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cohomology_bell: all-versus-nothing parity models and mixtures of global
# assignments on Bell m x m x d scenarios.


def _bell_scenario(m: int, d: int):
    observables = [(f"a{i}", d) for i in range(1, m + 1)] + [(f"b{j}", d) for j in range(1, m + 1)]
    cover = [(f"a{i}", f"b{j}") for i in range(1, m + 1) for j in range(1, m + 1)]
    return observables, cover


def _avn(path: Path, m: int, rng: random.Random) -> None:
    """Uniform on a_i xor b_j = f(i, j), f not of the form g(i) xor h(j)."""
    observables, cover = _bell_scenario(m, 2)
    while True:
        f = [[rng.randrange(2) for _ in range(m)] for _ in range(m)]
        if any(f[i][j] ^ f[i][0] ^ f[0][j] ^ f[0][0] for i in range(m) for j in range(m)):
            break
    half = Fraction(1, 2)
    tables = [
        (cover[i * m + j], {f"{a}{a ^ f[i][j]}": half for a in (0, 1)})
        for i in range(m)
        for j in range(m)
    ]
    _write_model(path, observables, cover, tables)


def _global_mixture(path: Path, m: int, d: int, rng: random.Random) -> int:
    """Uniform mixture of global assignments; returns the support size.

    The d^2 constant assignments (a = x everywhere, b = y everywhere) make
    every section supported; d^2 more are drawn at random.  The support, and
    so the cost of the cohomology, is then the same for every seed.
    """
    observables, cover = _bell_scenario(m, d)
    assignments = [([x] * m, [y] * m) for x in range(d) for y in range(d)]
    assignments += [
        ([rng.randrange(d) for _ in range(m)], [rng.randrange(d) for _ in range(m)])
        for _ in range(d * d)
    ]
    weight = Fraction(1, len(assignments))
    tables = []
    for i in range(m):
        for j in range(m):
            probs: dict[str, Fraction] = {}
            for a, b in assignments:
                key = f"{a[i]}{b[j]}"
                probs[key] = probs.get(key, Fraction(0)) + weight
            tables.append((cover[i * m + j], probs))
    _write_model(path, observables, cover, tables)
    return sum(len(probs) for _, probs in tables)


def _bell_ops(rng: random.Random, out: Path) -> list[Op]:
    ops = []
    for m, d in BELL_SHAPES:
        if d == 2:
            for copy in range(AVN_COPIES):
                path = out / f"bell{m}x{m}x{d}_avn{copy}.json"
                _avn(path, m, rng)
                ops.append(Op(["cohomology", str(path)], {"kind": "avn", "sections": 2 * m * m}))
        path = out / f"bell{m}x{m}x{d}_mix.json"
        support = _global_mixture(path, m, d, rng)
        ops.append(Op(["cohomology", str(path)], {"kind": "global_mixture", "sections": support}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# dynamics_grid: free Gaussian packets over grid sizes and lambdas, plus the
# README two-packet run.


def _gaussian_op(n: int, length: float, lam: str, mu: float, sigma0: float, t_final: str) -> Op:
    argv = ["evolve", "--lambda", lam, "--grid-n", str(n), "--length", f"{length:g}",
            "--t-final", t_final, "--initial", f"gaussian:{mu:g},{sigma0:g}",
            "--format", "json"]
    return Op(argv, {"kind": "gaussian", "lambda": float(lam), "mu": mu, "sigma0": sigma0,
                     "t_final": float(t_final), "n": n})


def _dynamics_ops(rng: random.Random) -> list[Op]:
    ops = []
    for n in DYN_GRID_N:
        for lam in DYN_LAMBDAS:
            # length N/32 keeps dx = 1/32, so the default dt = 1.5e-4 is stable
            mu = rng.randint(-20, 20) / 20
            ops.append(_gaussian_op(n, n / 32, lam, mu, 0.5, "0.15"))
    for lam in ("1", "0.5"):
        argv = ["evolve", "--lambda", lam, "--initial", "two-gaussian:8,0.15",
                "--t-final", "0.6", "--grid-n", "1024", "--length", "32",
                "--window=-0.5,0.5", "--format", "json"]
        ops.append(Op(argv, {"kind": "two_gaussian", "lambda": float(lam), "separation": 8.0,
                             "sigma0": 0.15, "n": 1024, "length": 32.0,
                             "window": [-0.5, 0.5], "t_final": 0.6}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------


def make_pass(workload: str, seed: int, out: Path) -> list[Op]:
    """The ops of one pass; model files go to ``out``."""
    rng = _rng(workload, seed)
    if workload == "cli_fixtures":
        return _cli_fixture_ops(rng)
    if workload == "lp_cycles":
        return _lp_cycle_ops(rng, out)
    if workload == "cohomology_bell":
        return _bell_ops(rng, out)
    if workload == "dynamics_grid":
        return _dynamics_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_op(workload: str, out: Path) -> Op:
    """The workload's smallest input, run untimed during set-up."""
    if workload == "cli_fixtures":
        return Op(["check", "deterministic"], {"kind": "fixture", "fixture": "deterministic"})
    rng = random.Random(f"{workload}:warmup")
    if workload == "lp_cycles":
        path = out / "warmup.json"
        _noisy_cycle(path, 4, Fraction(1))
        return Op(["check", str(path)], {"kind": "cycle", "n": 4, "v": "1"})
    if workload == "cohomology_bell":
        path = out / "warmup.json"
        _avn(path, 2, rng)
        return Op(["cohomology", str(path)], {"kind": "avn", "sections": 8})
    if workload == "dynamics_grid":
        return _gaussian_op(512, 16.0, "1", 0.0, 0.5, "0.15")
    raise ValueError(f"unknown workload {workload!r}")
