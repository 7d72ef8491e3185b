"""Shared scenario/model builders and independent oracles for the tests.

The oracles here deliberately avoid the library's decision paths: global
search is plain itertools enumeration, rational rank is a fresh Gaussian
elimination, LP answers are checked through duality certificates and against
a dense tableau, a section's obstruction is re-decided by its own integer
system, H1 is re-derived in kernel coordinates, the incidence and both
coboundary matrices are rebuilt one projected section at a time (an
obstruction witness is checked against that D0), and the dynamics is re-run
by the plain four-FFT split step.
"""

from __future__ import annotations

import itertools
import json
import random
import struct
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

import sheafkit as sk
from sheafkit import dynamics, simplex
from sheafkit.errors import SolverBudgetExceeded
from sheafkit.intlinalg import ZMat, kernel_basis, smith_normal_form
from sheafkit.presheaf import model_from_dict

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Standard scenarios and models.


def triangle_scenario() -> sk.MeasurementScenario:
    return sk.build_scenario(
        [("x", 2), ("y", 2), ("z", 2)], [["x", "y"], ["y", "z"], ["z", "x"]]
    )


def bell_scenario(m: int = 2, d: int = 2) -> sk.MeasurementScenario:
    """Bell m x m x d: observables a1..am, b1..bm of arity d, cover {ai, bj}."""
    sides = [[f"{side}{i}" for i in range(1, m + 1)] for side in "ab"]
    return sk.build_scenario(
        [(o, d) for side in sides for o in side],
        [[a, b] for a in sides[0] for b in sides[1]],
    )


def fixture_model(name: str) -> sk.EmpiricalModel:
    """A bundled fixture, read from the package."""
    from importlib.resources import files

    return read_model(Path(str(files("sheafkit") / "fixtures" / f"{name}.json")))


def pr_box_model() -> sk.EmpiricalModel:
    sc = bell_scenario()
    tables = {}
    for c in sc.cover:
        if set(c.members) == {"a2", "b2"}:
            tables[c.members] = {(0, 1): HALF, (1, 0): HALF}
        else:
            tables[c.members] = {(0, 0): HALF, (1, 1): HALF}
    return sk.build_model(sc, tables)


def triangle_anticorrelated_model() -> sk.EmpiricalModel:
    sc = triangle_scenario()
    return sk.build_model(
        sc, {c.members: {(0, 1): HALF, (1, 0): HALF} for c in sc.cover}
    )


def deterministic_model(assignment: dict[str, int] | None = None) -> sk.EmpiricalModel:
    sc = bell_scenario()
    g = assignment or {"a1": 0, "a2": 1, "b1": 0, "b2": 1}
    tables = {
        c.members: {tuple(g[m] for m in c.members): Fraction(1)} for c in sc.cover
    }
    return sk.build_model(sc, tables)


# ---------------------------------------------------------------------------
# Random generators (seeded by the caller).


def random_scenario(rng: random.Random, max_observables: int = 4) -> sk.MeasurementScenario:
    n = rng.randint(2, max_observables)
    ids = [f"o{i}" for i in range(n)]
    while True:
        k = rng.randint(1, min(4, n + 1))
        candidates = []
        for _ in range(k):
            size = rng.randint(1, n)
            candidates.append(tuple(sorted(rng.sample(ids, size))))
        # drop dominated candidates, keep one copy each
        maximal = [
            c
            for c in sorted(set(candidates))
            if not any(set(c) < set(d) for d in candidates)
        ]
        covered = {m for c in maximal for m in c}
        if covered == set(ids):
            return sk.build_scenario([(i, 2) for i in ids], maximal)


def random_global_model(
    rng: random.Random, scenario: sk.MeasurementScenario, sparse: bool = False
) -> sk.EmpiricalModel:
    """Project a random rational global distribution; noncontextual by build."""
    columns = sk.build_incidence(scenario).columns
    weights = [
        Fraction(0) if (sparse and rng.random() < 0.5) else Fraction(rng.randint(0, 8))
        for _ in columns
    ]
    if sum(weights) == 0:
        weights[rng.randrange(len(weights))] = Fraction(1)
    total = sum(weights)
    dist = {g: w / total for g, w in zip(columns, weights)}
    return sk.model_from_global_weights(scenario, dist)


def random_box_mixture(rng: random.Random) -> sk.EmpiricalModel:
    """v * (PR-like box on an n-cycle) + (1 - v) * a random global projection.

    The box is perfectly correlated on every edge except an odd number of
    anticorrelated ones, so no global assignment fits its support; small v
    stays noncontextual and large v does not.
    """
    n = rng.randint(3, 5)
    scenario = sk.build_scenario(
        [(f"x{i}", 2) for i in range(n)], [[f"x{i}", f"x{(i + 1) % n}"] for i in range(n)]
    )
    odd = set(rng.sample(range(n), rng.choice([1, 3])))
    v = Fraction(rng.randint(0, 10), 10)
    noise = random_global_model(rng, scenario)
    tables = {}
    for i, ctx in enumerate(scenario.cover):
        table = {}
        for s, q in noise.table(ctx).items():
            box = HALF if (s[0] ^ s[1]) == (i in odd) else Fraction(0)
            table[s] = v * box + (1 - v) * q
        tables[ctx.members] = table
    return sk.build_model(scenario, tables)


def noisy_cycle_model(n: int, v: Fraction) -> sk.EmpiricalModel:
    """v * (PR-like box) + (1 - v) * white noise on the n-cycle.

    The box correlates every edge but the closing one, (x_{n-1}, x_0): the
    model is contextual exactly when v exceeds the noncontextual bound.
    """
    scenario = sk.build_scenario(
        [(f"x{i}", 2) for i in range(n)], [[f"x{i}", f"x{(i + 1) % n}"] for i in range(n)]
    )
    tables = {}
    for i, ctx in enumerate(scenario.cover):
        tables[ctx.members] = {
            (x, y): (1 - v) / 4 + (v / 2 if (x ^ y) == (i == n - 1) else 0)
            for x in (0, 1)
            for y in (0, 1)
        }
    return sk.build_model(scenario, tables)


def bell_model(m: int, d: int, tables: dict) -> sk.EmpiricalModel:
    """Bell m x m x d scenario; tables[(i, j)] maps (a_i, b_j) to a probability."""
    sc = sk.build_scenario(
        [(f"a{i}", d) for i in range(m)] + [(f"b{j}", d) for j in range(m)],
        [[f"a{i}", f"b{j}"] for i in range(m) for j in range(m)],
    )
    return sk.build_model(sc, {(f"a{i}", f"b{j}"): t for (i, j), t in tables.items()})


def avn_model() -> sk.EmpiricalModel:
    """Bell 3 x 3 x 2 all-versus-nothing: a_i xor b_j = 1 only at (2, 2),
    which no g(i) xor h(j) fits.  Its cover has triangles, so D1 is not empty."""
    return bell_model(3, 2, {
        (i, j): {(a, a ^ (i == j == 2)): HALF for a in (0, 1)} for i in range(3) for j in range(3)
    })


def deterministic_support(scenario: sk.MeasurementScenario,
                          assignment: dict[str, int]) -> sk.SupportModel:
    """Singleton supports: the restrictions of one global assignment."""
    g = tuple(assignment[m] for m in scenario.observable_ids)
    return sk.support_of(sk.model_from_global_weights(scenario, {g: Fraction(1)}))


def zmat(rows: Sequence[Sequence[int]], n: int | None = None) -> ZMat:
    """An integer matrix from its rows; ``n`` gives the width of an empty one."""
    rows = [list(r) for r in rows]
    return ZMat(len(rows), len(rows[0]) if n is None else n, rows)


# ---------------------------------------------------------------------------
# The file formats of docs/formats.md, written and read back.


def scenario_to_dict(scenario: sk.MeasurementScenario) -> dict:
    return {
        "observables": [{"id": o.id, "arity": o.arity} for o in scenario.observables],
        "cover": [list(c.members) for c in scenario.cover],
    }


def model_to_dict(model: sk.EmpiricalModel) -> dict:
    """A model file with an inline scenario and only the nonzero entries."""
    tables = []
    for ctx in model.scenario.cover:
        probs = {
            sk.section_label(sec): str(p) if model.mode == "rational" else p
            for sec, p in model.table(ctx).items()
            if p != 0
        }
        tables.append({"context": list(ctx.members), "probs": probs})
    return {"scenario": scenario_to_dict(model.scenario), "mode": model.mode, "tables": tables}


def read_model(path: Path) -> sk.EmpiricalModel:
    """A model file; a scenario path inside it is relative to the file."""
    return model_from_dict(json.loads(path.read_text()), base_dir=path.parent)


def read_frame_dump(path: Path) -> list[np.ndarray]:
    """The frames of an ``evolve --dump`` file, after checking its header."""
    raw = path.read_bytes()
    magic, version, n_points, count = struct.unpack("<4sIII", raw[:16])
    assert (magic, version) == (b"SLAM", 1)
    body = np.frombuffer(raw[16:], dtype="<f8")
    return [body[i * n_points : (i + 1) * n_points].copy() for i in range(count)]


def float_copy(model: sk.EmpiricalModel) -> dict:
    """The model's file form with every probability rounded to a float."""
    data = model_to_dict(model)
    data["mode"] = "float"
    for entry in data["tables"]:
        entry["probs"] = {k: float(Fraction(v)) for k, v in entry["probs"].items()}
    return data


def random_support_model(rng: random.Random, scenario: sk.MeasurementScenario) -> sk.SupportModel:
    """Rejection-sample possibilistically compatible supports."""
    while True:
        supports = {}
        for ctx in scenario.cover:
            sections = sk.enumerate_sections(ctx, scenario)
            chosen = [s for s in sections if rng.random() < 0.6]
            if not chosen:
                chosen = [rng.choice(sections)]
            supports[ctx] = frozenset(chosen)
        if _supports_compatible(scenario, supports):
            return sk.SupportModel(scenario, supports)


def _supports_compatible(scenario, supports) -> bool:
    for ca, cb in itertools.combinations(scenario.cover, 2):
        overlap = ca.intersect(cb)
        if not overlap.members:
            continue
        restricted_a, _ = sk.restriction_map(supports[ca], ca, overlap)
        restricted_b, _ = sk.restriction_map(supports[cb], cb, overlap)
        if restricted_a != restricted_b:
            return False
    return True


# ---------------------------------------------------------------------------
# Independent oracles.


def brute_force_globals(support_model: sk.SupportModel) -> list[dict[str, int]]:
    """All globally consistent assignments, by exhaustive enumeration."""
    scenario = support_model.scenario
    ids = scenario.observable_ids
    out = []
    for outs in itertools.product(*(range(scenario.arity(i)) for i in ids)):
        g = dict(zip(ids, outs))
        ok = True
        for ctx in scenario.cover:
            if tuple(g[m] for m in ctx.members) not in support_model.support(ctx):
                ok = False
                break
        if ok:
            out.append(g)
    return out


def brute_force_extends(support_model: sk.SupportModel, ctx_index: int,
                        section: tuple[int, ...]) -> bool:
    scenario = support_model.scenario
    ctx = scenario.cover[ctx_index]
    target = dict(zip(ctx.members, section))
    for g in brute_force_globals(support_model):
        if all(g[m] == target[m] for m in ctx.members):
            return True
    return False


def free_column_vanishes(matrices, context_index: int, section: tuple[int, ...]) -> bool:
    """One section's obstruction, decided by its own integer system.

    Solves D0 r = 0 with the context's block pinned to the section's
    generator and every other context's columns free: one Smith form per
    section, where the library needs one per context.
    """
    d0 = matrices.d0
    fixed = matrices.vertex_basis.index((context_index, section))
    free = [c for c, (vi, _) in enumerate(matrices.vertex_basis) if vi != context_index]
    a = ZMat(d0.m, len(free), [[row[c] for c in free] for row in d0.a])
    return smith_normal_form(a).solve([-row[fixed] for row in d0.a]) is not None


def assert_witness(reference, context_index: int, section: tuple[int, ...], witness) -> None:
    """``witness`` is a compatible integer family through the section.

    ``reference`` is ``reference_coboundary`` of the support model: the
    witness is one integer per vertex-basis entry, D0 sends it to zero, and
    on the context's block it is the section's generator.
    """
    vertex_basis, _, _, d0, _ = reference
    assert isinstance(witness, tuple) and len(witness) == len(vertex_basis)
    assert all(type(w) is int for w in witness)
    assert all(sum(a * w for a, w in zip(row, witness)) == 0 for row in d0.a)
    block = [(int(s == section), w)
             for (vi, s), w in zip(vertex_basis, witness) if vi == context_index]
    assert sum(e for e, _ in block) == 1 and all(e == w for e, w in block)


def kernel_coordinate_invariants(d_out: ZMat, d_in: ZMat) -> tuple[int, list[int]]:
    """ker(d_out) / im(d_in) as (free rank, torsion divisors), the long way.

    Writes each column of d_in in an integer kernel basis K of d_out, by
    solving K x = column, and reads the quotient off the Smith form of those
    coordinates.  It needs no saturation argument, and no V^-1.
    """
    kernel = kernel_basis(smith_normal_form(d_out))
    r = len(kernel)
    basis = smith_normal_form(ZMat(d_out.n, r, [[k[i] for k in kernel] for i in range(d_out.n)]))
    coords = [basis.solve([row[j] for row in d_in.a]) for j in range(d_in.n)]
    if None in coords:
        raise ValueError("im(d_in) is not inside ker(d_out)")
    nf = smith_normal_form(ZMat(r, d_in.n, [[x[i] for x in coords] for i in range(r)]))
    return r - nf.rank, [d for d in nf.divisors if d != 1]


def project(section: tuple[int, ...], domain: Iterable[str],
            subcontext: Iterable[str]) -> tuple[int, ...]:
    """Plain restriction: the outcomes of the domain members the subcontext
    names, in the domain's order; no check that it names only those."""
    wanted = set(subcontext)
    return tuple(o for m, o in zip(domain, section, strict=True) if m in wanted)


def reference_incidence(scenario: sk.MeasurementScenario):
    """(rows, columns, column_rows) built one global and context at a time:
    each context's rows enumerated, each global projected and looked up."""
    columns = tuple(sk.enumerate_sections(sk.Context(scenario.observable_ids), scenario, 2**24))
    rows: list[tuple[int, tuple[int, ...]]] = []
    per_context = []
    for ci, ctx in enumerate(scenario.cover):
        first = len(rows)
        sections = sk.enumerate_sections(ctx, scenario)
        rows.extend((ci, s) for s in sections)
        row_of = {s: first + r for r, s in enumerate(sections)}
        per_context.append([row_of[project(g, scenario.observable_ids, ctx)] for g in columns])
    return tuple(rows), columns, tuple(zip(*per_context))


def reference_coboundary(support_model: sk.SupportModel):
    """(vertex, edge and triangle bases, D0, D1) filled one section at a time.

    The cells are the non-empty pairwise and triple overlaps of the cover,
    found here by set intersection of member ids and listed in scenario order.
    A cell's basis is the sorted set of its vertices' projected sections; each
    face section adds its sign at the row of its projection, found by index.
    """
    ids = support_model.scenario.observable_ids
    cover = support_model.scenario.cover
    supp = [support_model.support(ctx) for ctx in cover]
    vertex_basis = [(vi, s) for vi in range(len(supp)) for s in supp[vi]]

    def overlap(indices):
        """The cell's members, in scenario order."""
        common = set.intersection(*(set(cover[i].members) for i in indices))
        return tuple(m for m in ids if m in common)

    edges = [e for e in itertools.combinations(range(len(cover)), 2) if overlap(e)]
    triangles = [t for t in itertools.combinations(range(len(cover)), 3) if overlap(t)]

    def basis_of(faces, target):
        return sorted({project(s, domain, target) for domain, group in faces for s in group})

    edge_sections = [basis_of([(cover[i], supp[i]), (cover[j], supp[j])], overlap((i, j)))
                     for i, j in edges]
    edge_basis = [(ei, s) for ei, secs in enumerate(edge_sections) for s in secs]
    triangle_basis = [
        (ti, s)
        for ti, t in enumerate(triangles)
        for s in basis_of([(cover[v], supp[v]) for v in t], overlap(t))
    ]
    vcol = {key: idx for idx, key in enumerate(vertex_basis)}
    erow = {key: idx for idx, key in enumerate(edge_basis)}
    trow = {key: idx for idx, key in enumerate(triangle_basis)}

    d0 = ZMat.zeros(len(edge_basis), len(vertex_basis))
    for ei, (i, j) in enumerate(edges):
        for vi, sign in ((j, 1), (i, -1)):
            for s in supp[vi]:
                d0.a[erow[(ei, project(s, cover[vi], overlap((i, j))))]][vcol[(vi, s)]] += sign

    d1 = ZMat.zeros(len(triangle_basis), len(edge_basis))
    edge_index = {e: ei for ei, e in enumerate(edges)}
    for ti, (i, j, k) in enumerate(triangles):
        for pair, sign in (((j, k), 1), ((i, k), -1), ((i, j), 1)):
            ei = edge_index[pair]
            for s in edge_sections[ei]:
                row = trow[(ti, project(s, overlap(pair), overlap((i, j, k))))]
                d1.a[row][erow[(ei, s)]] += sign
    return tuple(vertex_basis), tuple(edge_basis), tuple(triangle_basis), d0, d1


def q_rank(rows: list[list[Fraction]]) -> int:
    """Rational rank by fresh Gaussian elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    rank, cols = 0, len(m[0])
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def incidence_times(incidence: sk.IncidenceMatrix, x) -> list:
    """incidence . x, read off the rows of each column."""
    totals = [0] * len(incidence.rows)
    for rows, w in zip(incidence.column_rows, x):
        for r in rows:
            totals[r] += w
    return totals


def dense_rows(column_rows, m: int) -> list[list[int]]:
    """The m x n 0/1 matrix whose column j has ones in the rows column_rows[j]."""
    return [[int(r in rows) for rows in column_rows] for r in range(m)]


def verify_fraction_certificate(model: sk.EmpiricalModel, report: sk.FractionReport) -> None:
    """Optimality of the fraction LP via exact weak-duality certificates."""
    incidence = report.incidence
    p = sk.gluing.probability_vector(model, incidence)
    # primal feasibility
    assert all(w >= 0 for w in report.weights)
    assert all(lhs <= pr for lhs, pr in zip(incidence_times(incidence, report.weights), p))
    assert sum(report.weights) == report.noncontextual_fraction
    # dual feasibility: y >= 0 and y.M >= 1 componentwise
    assert all(y >= 0 for y in report.dual)
    for rows in incidence.column_rows:
        assert sum(report.dual[r] for r in rows) >= 1
    # equal objectives close the duality gap
    dual_obj = sum(y * pi for y, pi in zip(report.dual, p))
    assert dual_obj == report.noncontextual_fraction


def verify_farkas_certificate(model: sk.EmpiricalModel, report: sk.FractionReport) -> None:
    """y - 1/k, from the fraction dual y and k cover contexts, proves
    incidence.x = p, x >= 0 infeasible."""
    assert not report.noncontextual
    incidence = report.incidence
    p = sk.gluing.probability_vector(model, incidence)
    k = len(model.scenario.cover)
    y = [yi - Fraction(1, k) for yi in report.dual]
    for rows in incidence.column_rows:
        assert sum(y[r] for r in rows) >= 0
    assert sum(yi * pi for yi, pi in zip(y, p)) < 0


def verify_global_distribution(model: sk.EmpiricalModel, report: sk.FractionReport) -> None:
    """The weights are nonnegative and reproduce every table exactly."""
    assert report.noncontextual
    p = sk.gluing.probability_vector(model, report.incidence)
    assert all(w >= 0 for w in report.weights)
    assert incidence_times(report.incidence, report.weights) == p


def dense_tableau_maximize(c, a, b, mode="rational", budget=simplex.PIVOT_BUDGET):
    """max c.x s.t. A x <= b, x >= 0 on a dense tableau [A | I | b].

    The textbook primal simplex with Bland's rule (first improving column,
    ratio ties to the smallest basis index), rewriting every row and the
    reduced-cost row at each pivot.  On a unit-cost 0/1 program,
    ``simplex.maximize_leq`` of A's column rows must take the same pivots
    and return the same ``LPResult``.
    """
    if any(bi < 0 for bi in b):
        raise ValueError("maximize_leq requires b >= 0")
    tol = Fraction(0) if mode == "rational" else simplex.FLOAT_TOL
    num = Fraction if mode == "rational" else float
    zero, one = num(0), num(1)
    m, n = len(a), len(c)
    rows = [[num(v) for v in a[i]] + [one if k == i else zero for k in range(m)] + [b[i]]
            for i in range(m)]
    red = list(c) + [zero] * (m + 1)
    basis = [n + i for i in range(m)]
    pivots = 0
    while True:
        if pivots > budget:
            raise SolverBudgetExceeded(f"simplex exceeded {budget} pivots")
        enter = next((j for j in range(n + m) if red[j] > tol), -1)
        if enter < 0:
            break
        leave, best = -1, None
        for i in range(m):
            coef = rows[i][enter]
            if coef > tol:
                ratio = rows[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        assert leave >= 0, "the program is unbounded"
        piv = rows[leave][enter]
        prow = rows[leave] = [v / piv for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                coef = rows[i][enter]
                rows[i] = [v - coef * p for v, p in zip(rows[i], prow)]
        coef = red[enter]
        red = [r - coef * p for r, p in zip(red, prow)]
        basis[leave] = enter
        pivots += 1
    x = [zero] * n
    for i, col in enumerate(basis):
        if col < n:
            x[col] = rows[i][-1]
    objective = sum(c[j] * x[j] for j in range(n))
    # y_i = cost(slack i) - reduced cost(slack i), and slacks cost zero
    dual = [zero - red[n + i] for i in range(m)]
    return simplex.LPResult(x, objective, dual, pivots)


# ---------------------------------------------------------------------------
# Dynamics: the position-space split step.


def reference_advance_field(psi, dt, params, grid):
    """One Strang step fft -> K/2 -> ifft -> P -> fft -> K/2 -> ifft.

    The kinetic phase is rebuilt on every call and the field returns to
    position space twice per step; at lam = 0 the potential is V - Q.
    ``params`` carry the field's hbar (``dynamics._field_params``).
    """
    kinetic_half = np.exp(-1j * params.hbar * grid.k**2 * dt / (4.0 * params.mass))
    psi = np.fft.ifft(kinetic_half * np.fft.fft(psi))
    v_eff = params.potential
    if params.lam == 0.0:
        v_eff = v_eff - sk.quantum_potential(np.abs(psi) ** 2, grid, params)
    psi = psi * np.exp(-1j * v_eff * dt / params.hbar)
    return np.fft.ifft(kinetic_half * np.fft.fft(psi))


def reference_step(state, dt, params, grid):
    """``dynamics.step`` on ``reference_advance_field``, without its checks."""
    field = dynamics._field_params(params)
    psi = sk.polar_decompose(state.rho, state.s, field)
    rho, s = sk.polar_compose(reference_advance_field(psi, dt, field, grid), field)
    return sk.LambdaState(rho, s, state.time + dt)


def reference_evolve(initial, params, grid, t_final, dt, record_every=1):
    """``dynamics.evolve`` on ``reference_advance_field``: records and frames."""
    field = dynamics._field_params(params)
    psi = sk.polar_decompose(initial.rho, initial.s, field)
    rho = np.abs(psi) ** 2
    records, frames = [sk.compute_observables(rho, grid, initial.time)], [rho.copy()]
    baseline = dynamics._coarse_subfloor(rho)
    n_steps = int(round(t_final / dt))
    for i in range(1, n_steps + 1):
        psi = reference_advance_field(psi, dt, field, grid)
        rho = np.abs(psi) ** 2
        dynamics._collapse_guard(baseline, rho)
        if i % record_every == 0 or i == n_steps:
            records.append(sk.compute_observables(rho, grid, initial.time + i * dt))
            frames.append(rho.copy())
    return records, frames
