"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and time budgets are pinned in the assertions.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

import sheafkit as sk
from sheafkit import cli, dynamics
from sheafkit.cohomology import build_coboundary_matrices, obstruction, obstruction_report
from sheafkit.ctxlogic import SevenValue, ThreeValue, classify, not_, or_, parse_proposition, seven_value_of
from helpers import (
    brute_force_extends,
    deterministic_support,
    pr_box_model,
    random_global_model,
    random_scenario,
    random_support_model,
    triangle_anticorrelated_model,
)

F = Fraction


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        print(f"ACCEPTANCE {number} {name}: FAIL (over budget: {elapsed:.1f}s > {budget_s}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget_s}s budget")
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def load_expected(name: str) -> dict:
    from importlib.resources import files

    return json.loads((files("sheafkit") / "fixtures" / f"{name}.expected.json").read_text())


def run_cli_json(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_gluing_hierarchy(capsys):
    with criterion(1, "gluing hierarchy on bundled fixtures", 1.0):
        for name in ("prbox", "triangle_anticorrelated", "bell_uniform", "deterministic"):
            expected = load_expected(name)
            code, report = run_cli_json(capsys, ["check", name, "--no-timings"])
            res = report["results"]
            assert res["strongly_contextual"] == expected["strongly_contextual"], name
            assert res["logically_contextual"] == expected["logically_contextual"], name
            assert res["noncontextual"] == expected["noncontextual"], name
            expected_code = cli.EXIT_OK if expected["noncontextual"] else cli.EXIT_CONTEXTUAL
            assert code == expected_code, name
        # the signalling fixture must be rejected, not analyzed
        expected = load_expected("signalling")
        assert expected["compatible"] is False
        code, report = run_cli_json(capsys, ["check", "signalling", "--no-timings"])
        assert code == cli.EXIT_INVALID
        got = {
            (tuple(v["pair"]), v["discrepancy"])
            for v in report["results"]["violations"]
        }
        want = {
            (tuple(v["pair"]), str(F(v["discrepancy"])))
            for v in expected["violations"]
        }
        assert got == want


def test_criterion_2_contextual_fraction(capsys):
    with criterion(2, "contextual fraction exact values", 5.0):
        code, report = run_cli_json(capsys, ["fraction", "prbox", "--no-timings"])
        assert code == cli.EXIT_CONTEXTUAL
        assert report["results"]["contextual_fraction"] == "1"

        code, report = run_cli_json(capsys, ["fraction", "deterministic", "--no-timings"])
        assert code == cli.EXIT_OK
        assert report["results"]["contextual_fraction"] == "0"

        expected = load_expected("triangle_anticorrelated")
        code, report = run_cli_json(
            capsys, ["fraction", "triangle_anticorrelated", "--no-timings"]
        )
        assert report["results"]["contextual_fraction"] == expected["contextual_fraction"]
        # and exactly, through the library (rational mode)
        assert sk.contextual_fraction(
            triangle_anticorrelated_model()
        ).contextual_fraction == F(expected["contextual_fraction"])


def test_criterion_3_cohomology_soundness():
    with criterion(3, "obstruction vanishes on every extendable section", 60.0):
        rng = random.Random(20260810)
        violations = 0
        extendable_checked = 0
        models = 0
        while models < 200:
            sc = random_scenario(rng, max_observables=4)
            if models % 2 == 0:
                supp = sk.support_of(random_global_model(rng, sc))
            else:
                supp = random_support_model(rng, sc)
            models += 1
            mats = build_coboundary_matrices(supp)
            for ci, ctx in enumerate(sc.cover):
                for section in supp.support(ctx):
                    if brute_force_extends(supp, ci, section):
                        extendable_checked += 1
                        if not obstruction(supp, ci, section, mats).vanishes:
                            violations += 1
        assert models >= 200
        assert extendable_checked > 400
        assert violations == 0


def test_criterion_4_cohomological_witness():
    with criterion(4, "non-vanishing witness on contextual fixtures", 60.0):
        pr = obstruction_report(sk.support_of(pr_box_model()))
        assert len(pr.entries) == 8 and all(not e.vanishes for e in pr.entries)
        tri = obstruction_report(sk.support_of(triangle_anticorrelated_model()))
        assert len(tri.entries) == 6 and all(not e.vanishes for e in tri.entries)
        # exact chain-complex identity on a fresh batch of generated models
        rng = random.Random(4)
        for _ in range(100):
            sc = random_scenario(rng)
            supp = random_support_model(rng, sc)
            mats = build_coboundary_matrices(supp)
            assert mats.d1.matmul(mats.d0).is_zero()


def test_criterion_5_seven_valued_logic():
    with criterion(5, "seven-valued classification", 1.0):
        values = [ThreeValue.F, ThreeValue.U, ThreeValue.T]
        for k in (1, 2, 3, 4):
            ctxs = tuple(sk.Context((f"c{i}",)) for i in range(k))
            counts = {v: 0 for v in SevenValue}
            for combo in itertools.product(values, repeat=k):
                cls = classify(dict(zip(ctxs, combo)))
                assert cls.value.attained == frozenset(combo)
                counts[cls.value] += 1
            assert sum(counts.values()) == 3**k
            reachable = {v for v in SevenValue if len(v.attained) <= k}
            assert {v for v, n in counts.items() if n} == reachable
        # excluded middle fails exactly at the indeterminate value
        assert or_(ThreeValue.U, not_(ThreeValue.U)) == ThreeValue.U
        # the anticorrelated-triangle equality proposition lands in mode vi
        supp = sk.support_of(triangle_anticorrelated_model())
        cls, prof = seven_value_of(supp, parse_proposition("(x=0 & y=0) | (x=1 & y=1)"))
        assert cls.value == SevenValue.FALSE_AND_INDETERMINATE
        assert cls.value.mode == "vi"
        expected = load_expected("triangle_anticorrelated")["logic_x_eq_y"]
        got_profile = {"".join(c.members): v.name[0] for c, v in prof.items()}
        assert got_profile == expected["profile"]


def test_criterion_6_boolean_restoration():
    with criterion(6, "Boolean values on deterministic glueable models", 10.0):
        rng = random.Random(66)
        u_seen = 0
        checked = 0
        for _ in range(200):
            sc = random_scenario(rng)
            assignment = {o: rng.randint(0, 1) for o in sc.observable_ids}
            supp = deterministic_support(sc, assignment)
            for ctx in sc.cover:
                obs = list(ctx.members)
                for _ in range(6):
                    text = f"{rng.choice(obs)}={rng.randint(0, 1)}"
                    for _ in range(rng.randint(0, 3)):
                        op = rng.choice(["&", "|", "->"])
                        if rng.random() < 0.3:
                            text = f"!({text})"
                        text = f"({text}) {op} {rng.choice(obs)}={rng.randint(0, 1)}"
                    value = sk.eval_in_context(supp, ctx, parse_proposition(text))
                    checked += 1
                    if value == ThreeValue.U:
                        u_seen += 1
        assert checked > 1000
        assert u_seen == 0


def test_criterion_7_dynamics_quantum_limit():
    with criterion(7, "free packet spreading and second-order accuracy", 60.0):
        grid = sk.Grid(512, 16.0)
        params = sk.physical_params(grid, lam=1.0)
        sigma0 = 0.5
        st = dynamics.gaussian_state(grid, params, 0.0, sigma0)
        recs, _ = sk.evolve(st, params, grid, t_final=1.0, dt=1.5e-4, record_every=650)
        assert recs[-1].time >= 1.0 - 1e-9
        for r in recs:
            expected = sigma0 * np.sqrt(1 + (r.time / (2 * sigma0**2)) ** 2)
            assert abs(r.width - expected) / expected < 0.01

        # norm drift over 1e4 steps
        recs, _ = sk.evolve(st, params, grid, t_final=1.5, dt=1.5e-4, record_every=10**9)
        assert abs(recs[-1].norm - 1.0) < 1e-8

        # second-order convergence under dt halving (the free lam=1 run is
        # exact by construction, so the splitting error is measured on a
        # harmonic coherent state with an analytic solution)
        omega = 2.0
        pot = dynamics.harmonic_potential(grid, omega**2)
        sig = np.sqrt(1.0 / (2 * omega))

        def err(dt):
            p = sk.physical_params(grid, lam=1.0, potential=pot)
            s0 = dynamics.gaussian_state(grid, p, 1.0, sig)
            _, frames = sk.evolve(s0, p, grid, t_final=0.5, dt=dt,
                                  record_every=10**9, collect_frames=True)
            mu_t = np.cos(omega * 0.5)
            ana = np.exp(-((grid.x - mu_t) ** 2) / (2 * sig**2))
            ana /= ana.sum() * grid.dx
            return np.max(np.abs(frames[-1] - ana))

        ratio = err(1.6e-4) / err(0.8e-4)
        assert 3.0 < ratio < 5.5


# Frozen regression values for the lambda sweep (rel-floor 0.02; grid 1024 x
# 32; packets at +-4 with width 0.15; window [-0.5, 0.5]; t = 0.6), recorded
# from evolve.  For lambda > 0 the lambda-system is the Schroedinger equation
# with hbar_eff = sqrt(lambda) * hbar, so a pair released at rest gives
# vis_lambda(t) = vis_1(sqrt(lambda) * t); every entry agrees with that closed
# form (_sweep_closed_form) to below 1e-12, and moves by less than 1e-11 under
# dt/2 and under a 1e-13 relative perturbation of the initial density.
SWEEP_FROZEN = [
    0.0,
    0.0,
    0.0,
    0.0,
    0.23196575986981918,
    0.6115903842296158,
    0.7731520412320212,
    0.8489805369321182,
    0.8894071750051876,
    0.9131106147088149,
    0.9285292744429579,
]


def _sweep_run(lam: float) -> float:
    grid = sk.Grid(1024, 32.0)
    params = sk.physical_params(grid, lam=lam)
    st = dynamics.two_gaussian_state(grid, params, separation=8.0, sigma0=0.15)
    recs, _ = sk.evolve(
        st, params, grid, t_final=0.6, dt=1.5e-4, record_every=10**9,
        window=(-0.5, 0.5), visibility_rel_floor=0.02,
    )
    return recs[-1].visibility


def _sweep_closed_form(lam: float) -> float:
    # free two-packet density at time sqrt(lam) * 0.6 (hbar = m = 1), sampled
    # on the sweep grid and clamped like _sweep_run
    grid = sk.Grid(1024, 32.0)
    tau = np.sqrt(lam) * 0.6 / (2 * 0.15**2)
    psi = sum(
        np.exp(-((grid.x - a) ** 2) / (4 * 0.15**2 * (1 + 1j * tau))) / np.sqrt(1 + 1j * tau)
        for a in (-4.0, 4.0)
    )
    rho = np.abs(psi) ** 2
    rho /= rho.sum() * grid.dx
    obs = sk.compute_observables(rho, grid, window=(-0.5, 0.5), visibility_rel_floor=0.02)
    return obs.visibility


def test_criterion_8_dynamics_classical_limit():
    with criterion(8, "classical limit and lambda sweep", 120.0):
        # zero-momentum packet is static at lambda = 0
        grid = sk.Grid(512, 16.0)
        params = sk.physical_params(grid, lam=0.0)
        st = dynamics.gaussian_state(grid, params, 0.0, 0.5)
        _, frames = sk.evolve(st, params, grid, t_final=0.5, dt=1.5e-4,
                              record_every=500, collect_frames=True)
        drift = max(np.max(np.abs(f - frames[0])) for f in frames)
        assert drift < 1e-6

        # interference appears at lambda = 1 and not at lambda = 0
        sweep = [_sweep_run(round(0.1 * i, 1)) for i in range(11)]
        assert sweep[0] < 0.1
        assert sweep[-1] > 0.9
        # monotone within sampling noise (0.02 slack)
        for a, b in zip(sweep, sweep[1:]):
            assert b >= a - 0.02
        # frozen regression fixture
        for got, want in zip(sweep, SWEEP_FROZEN):
            assert abs(got - want) < 1e-6
        # closed form vis_lambda(t) = vis_1(sqrt(lambda) t); NaN fails
        for i, got in enumerate(sweep):
            assert abs(got - _sweep_closed_form(round(0.1 * i, 1))) <= 1e-9


def test_criterion_9_determinism(capsys):
    with criterion(9, "byte-identical reports under a fixed seed", 30.0):
        for args in (
            ["check", "prbox", "--no-timings", "--seed", "11"],
            ["fraction", "triangle_anticorrelated", "--no-timings", "--seed", "11"],
            ["cohomology", "prbox", "--no-timings", "--seed", "11"],
            ["logic", "triangle_anticorrelated", "--prop", "x=0 | y=1",
             "--no-timings", "--seed", "11"],
            ["evolve", "--lambda", "0.5", "--initial", "two-gaussian:4,0.4",
             "--t-final", "0.02", "--dt", "1e-4", "--record-every", "100",
             "--no-timings", "--seed", "11"],
        ):
            code_a = cli.main(args)
            out_a = capsys.readouterr().out
            code_b = cli.main(args)
            out_b = capsys.readouterr().out
            assert code_a == code_b
            assert out_a == out_b
            assert out_a
