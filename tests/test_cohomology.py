import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

import sheafkit as sk
from sheafkit import cli, cohomology, intlinalg
from sheafkit.cohomology import (
    build_coboundary_matrices,
    cech_invariants,
    obstruction,
    obstruction_report,
)
from sheafkit.errors import SizeLimitExceeded
from sheafkit.intlinalg import ZMat
from helpers import (
    HALF,
    assert_witness,
    avn_model,
    bell_model,
    bell_scenario,
    brute_force_extends,
    deterministic_model,
    fixture_model,
    free_column_vanishes,
    kernel_coordinate_invariants,
    model_to_dict,
    noisy_cycle_model,
    pr_box_model,
    q_rank,
    random_global_model,
    random_scenario,
    random_support_model,
    reference_coboundary,
    triangle_anticorrelated_model,
    triangle_scenario,
)

F = Fraction


# --- degree-0 coboundary on indicator families --------------------------------


def _full_support_matrices(sc):
    """Coboundary matrices of the model with every section supported."""
    tables = {}
    for c in sc.cover:
        sections = sk.enumerate_sections(c, sc)
        tables[c.members] = {s: F(1, len(sections)) for s in sections}
    return build_coboundary_matrices(sk.support_of(sk.build_model(sc, tables)))


def _image_of_picks(sc, mats, picks):
    """D0 times the family with one 1 per context, at the picked outcomes."""
    family = [int(s == picks[sc.cover[vi].members]) for vi, s in mats.vertex_basis]
    assert sum(family) == len({vi for vi, _ in mats.vertex_basis})
    return [sum(a * w for a, w in zip(row, family)) for row in mats.d0.a]


def test_coboundary_of_compatible_family_is_zero():
    # the restrictions of one global assignment agree on every overlap
    sc = triangle_scenario()
    mats = _full_support_matrices(sc)
    g = {"x": 0, "y": 1, "z": 0}
    picks = {c.members: tuple(g[m] for m in c.members) for c in sc.cover}
    assert mats.d0.m and not any(_image_of_picks(sc, mats, picks))


def test_coboundary_pr_box_family():
    sc = bell_scenario()
    mats = _full_support_matrices(sc)
    # family: 00 in (a1,b1), 01 in (a1,b2), 00 in (a2,b1), 00 in (a2,b2)
    picks = {
        ("a1", "b1"): (0, 0),
        ("a1", "b2"): (0, 1),
        ("a2", "b1"): (0, 0),
        ("a2", "b2"): (0, 0),
    }
    image = _image_of_picks(sc, mats, picks)
    # the edges are the non-empty pairwise overlaps, in (i, j) order
    edges = [m for a, b in itertools.combinations(sc.cover, 2) if (m := a.intersect(b).members)]
    by_edge = {}
    for value, (ei, _) in zip(image, mats.edge_basis):
        by_edge.setdefault(edges[ei], []).append(value)
    # both (a1,*) picks restrict to a1=0: zero difference on edge {a1}
    assert by_edge[("a1",)] == [0, 0]
    # edge {b2}: (a2,b2) gives b2=0 but (a1,b2) gives b2=1: +-1 on its two rows
    assert sorted(by_edge[("b2",)]) == [-1, 1]


def test_coboundary_no_edges():
    sc = sk.build_scenario([("a", 2), ("b", 2)], [["a"], ["b"]])
    mats = _full_support_matrices(sc)
    assert (mats.d0.m, mats.d0.n) == (0, 4)
    assert _image_of_picks(sc, mats, {("a",): (0,), ("b",): (0,)}) == []


# --- coboundary matrices ---------------------------------------------------------


def test_matrices_single_context():
    sc = sk.build_scenario([("a", 2)], [["a"]])
    model = sk.build_model(sc, {("a",): {(0,): HALF, (1,): HALF}})
    mats = build_coboundary_matrices(sk.support_of(model))
    assert mats.d0.m == 0 and mats.d0.n == 2
    assert mats.d1.m == 0 and mats.d1.n == 0


def test_matrices_triangle_dimensions():
    supp = sk.support_of(triangle_anticorrelated_model())
    mats = build_coboundary_matrices(supp)
    # vertex basis: 2 supported sections per context
    assert mats.d0.n == 6
    # each edge holds the two restrictions of the anticorrelated sections
    assert mats.d0.m == 6
    assert all(v in (-1, 0, 1) for row in mats.d0.a for v in row)


def test_matrices_bell_no_triangles():
    supp = sk.support_of(pr_box_model())
    mats = build_coboundary_matrices(supp)
    assert mats.d1.m == 0
    assert mats.d1.n == mats.d0.m


def _star_model(leaves):
    """Cover {x, y_i}: every triple of contexts meets in x, so D1 outgrows D0."""
    sc = sk.build_scenario(
        [("x", 2)] + [(f"y{i}", 2) for i in range(leaves)],
        [["x", f"y{i}"] for i in range(leaves)],
    )
    return sk.build_model(sc, {("x", f"y{i}"): {(0, 0): HALF, (1, 1): HALF} for i in range(leaves)})


def test_matrix_budget_bounds_d1(tmp_path, capsys):
    model = _star_model(10)
    supp = sk.support_of(model)
    mats = build_coboundary_matrices(supp)
    assert (mats.d0.m, mats.d0.n, mats.d1.m, mats.d1.n) == (90, 20, 240, 90)
    # D0 alone (1,800 entries) fits the budget; D1 (21,600) does not
    with pytest.raises(SizeLimitExceeded):
        build_coboundary_matrices(supp, limit=5000)
    build_coboundary_matrices(supp, limit=21600)

    path = tmp_path / "star.json"
    path.write_text(json.dumps(model_to_dict(model)))
    argv = ["cohomology", str(path), "--no-timings", "--budget-matrix"]
    assert cli.main(argv + ["5000"]) == cli.EXIT_INVALID
    assert "size budget" in capsys.readouterr().err
    assert cli.main(argv + ["21600"]) == cli.EXIT_OK


def test_matrices_match_reference():
    rng = random.Random(1617)
    supports = [
        random_support_model(rng, random_scenario(rng, max_observables=5)) for _ in range(60)
    ]
    # the faces of a tetrahedron: four triangles in the nerve
    ids = ["o0", "o1", "o2", "o3"]
    tetrahedron = sk.build_scenario(
        [(o, 2) for o in ids], [[o for o in ids if o != x] for x in ids]
    )
    supports += [random_support_model(rng, tetrahedron) for _ in range(20)]
    for n in range(4, 11):
        supports += [sk.support_of(noisy_cycle_model(n, v)) for v in (F(0), F(1))]
    for m, d in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
        sc = bell_scenario(m, d)
        columns = sk.build_incidence(sc).columns
        few = {g: F(1, 4) for g in rng.sample(columns, 4)}
        supports += [
            sk.support_of(sk.model_from_global_weights(sc, few)),
            sk.support_of(random_global_model(rng, sc, sparse=True)),
        ]
    supports.append(sk.support_of(avn_model()))
    triangles = 0
    for supp in supports:
        mats = build_coboundary_matrices(supp)
        triangles += bool(mats.triangle_basis)
        got = (mats.vertex_basis, mats.edge_basis, mats.triangle_basis, mats.d0, mats.d1)
        assert got == reference_coboundary(supp)
    assert triangles >= 20


def test_d1_after_d0_is_zero_with_triangles():
    sc = sk.build_scenario(
        [("a", 2), ("b", 2), ("c", 2), ("d", 2)],
        [["a", "b"], ["a", "c"], ["a", "d"]],
    )
    rng = random.Random(3)
    for _ in range(10):
        model = random_global_model(rng, sc)
        mats = build_coboundary_matrices(sk.support_of(model))
        assert {ti for ti, _ in mats.triangle_basis} == {0}
        assert mats.d1.matmul(mats.d0).is_zero()


def test_d1_after_d0_zero_on_random_models():
    rng = random.Random(17)
    for _ in range(40):
        sc = random_scenario(rng)
        supp = random_support_model(rng, sc)
        mats = build_coboundary_matrices(supp)
        assert mats.d1.matmul(mats.d0).is_zero()


# --- obstruction -------------------------------------------------------------------


def test_deterministic_model_obstructions_vanish_with_witness():
    supp = sk.support_of(deterministic_model())
    mats = build_coboundary_matrices(supp)
    reference = reference_coboundary(supp)
    for ci, ctx in enumerate(supp.scenario.cover):
        for section in supp.support(ctx):
            res = obstruction(supp, ci, section, mats)
            assert res.vanishes
            # the witness is a genuine compatible family through the section
            assert_witness(reference, ci, section, res.witness)


def test_fixture_witnesses_verify():
    seen = {True: 0, False: 0}
    for name in ("bell_uniform", "deterministic", "prbox", "triangle_anticorrelated"):
        supp = sk.support_of(fixture_model(name))
        reference = reference_coboundary(supp)
        for e in obstruction_report(supp).entries:
            seen[e.vanishes] += 1
            if e.vanishes:
                assert_witness(reference, e.context_index, e.section, e.witness)
            else:
                assert e.witness is None
    assert all(seen.values()), seen


def test_pr_box_all_obstructions_nonvanishing():
    supp = sk.support_of(pr_box_model())
    report = obstruction_report(supp)
    assert len(report.entries) == 8
    assert all(not e.vanishes for e in report.entries)


def test_triangle_all_obstructions_nonvanishing():
    supp = sk.support_of(triangle_anticorrelated_model())
    report = obstruction_report(supp)
    assert len(report.entries) == 6
    assert all(not e.vanishes for e in report.entries)


def test_nonvanishing_verdicts_confirmed_by_rational_infeasibility():
    # rational infeasibility implies integer infeasibility, so the oracle
    # must agree wherever it is conclusive
    for model in (pr_box_model(), triangle_anticorrelated_model()):
        supp = sk.support_of(model)
        mats = build_coboundary_matrices(supp)
        for ci, ctx in enumerate(supp.scenario.cover):
            for section in supp.support(ctx):
                fixed = mats.vertex_basis.index((ci, section))
                free = [c for c, (vi, _) in enumerate(mats.vertex_basis) if vi != ci]
                a = [[F(mats.d0.a[r][c]) for c in free] for r in range(mats.d0.m)]
                b = [-F(mats.d0.a[r][fixed]) for r in range(mats.d0.m)]
                ra = q_rank(a)
                rab = q_rank([row + [bv] for row, bv in zip(a, b)])
                assert rab > ra, "oracle inconclusive; expected rational infeasibility"
                res = obstruction(supp, ci, section, mats)
                assert not res.vanishes


def test_obstruction_requires_supported_section():
    supp = sk.support_of(pr_box_model())
    bad = (0, 1)  # over {a1, b1}, where the PR box supports 00 and 11
    with pytest.raises(ValueError):
        obstruction(supp, 0, bad, build_coboundary_matrices(supp))


def test_soundness_on_random_models():
    # whenever a section extends to a global support section, the
    # obstruction must vanish and its witness must verify
    rng = random.Random(404)
    checked = 0
    for _ in range(60):
        sc = random_scenario(rng)
        supp = random_support_model(rng, sc)
        mats = build_coboundary_matrices(supp)
        reference = reference_coboundary(supp)
        for ci, ctx in enumerate(sc.cover):
            for section in supp.support(ctx):
                if brute_force_extends(supp, ci, section):
                    res = obstruction(supp, ci, section, mats)
                    assert res.vanishes
                    assert_witness(reference, ci, section, res.witness)
                    checked += 1
    assert checked > 100


def test_report_takes_one_smith_form_per_context_plus_two(monkeypatch):
    # D0 serves the kernel, H0 and H1's torsion; D1 gives its rank; one
    # projection per context decides all of its sections
    original = intlinalg.smith_normal_form
    calls = []

    def counted(mat):
        calls.append((mat.m, mat.n))
        return original(mat)

    monkeypatch.setattr(cohomology, "smith_normal_form", counted)
    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    avn = sk.support_of(avn_model())
    assert build_coboundary_matrices(avn).triangle_basis  # so D1 is not empty
    for supp in (sk.support_of(pr_box_model()), avn):
        calls.clear()
        report = obstruction_report(supp)
        assert len(report.entries) > len(supp.scenario.cover)
        assert len(calls) == len(supp.scenario.cover) + 2, calls


def test_report_agrees_with_free_column_oracle():
    rng = random.Random(9090)
    models = [
        random_support_model(rng, random_scenario(rng, max_observables=5)) for _ in range(200)
    ]
    models.append(sk.support_of(avn_model()))
    # uniform mixture of the nine constant assignments and two more
    assignments = [((x, x), (y, y)) for x in range(3) for y in range(3)]
    assignments += [((0, 1), (2, 0)), ((1, 2), (0, 2))]
    tables = {}
    for i in range(2):
        for j in range(2):
            t = tables.setdefault((i, j), {})
            for a, b in assignments:
                t[(a[i], b[j])] = t.get((a[i], b[j]), 0) + F(1, len(assignments))
    models.append(sk.support_of(bell_model(2, 3, tables)))
    models += [sk.support_of(pr_box_model()), sk.support_of(triangle_anticorrelated_model())]

    seen = {"triangles": 0, True: 0, False: 0}
    for supp in models:
        mats = build_coboundary_matrices(supp)
        reference = reference_coboundary(supp)
        seen["triangles"] += bool(mats.triangle_basis)
        for e in obstruction_report(supp).entries:
            assert e.vanishes == free_column_vanishes(mats, e.context_index, e.section)
            seen[e.vanishes] += 1
            if e.vanishes:
                assert_witness(reference, e.context_index, e.section, e.witness)
    assert all(seen.values()), seen


# --- invariants ---------------------------------------------------------------------


def test_invariants_single_context():
    sc = sk.build_scenario([("a", 3)], [["a"]])
    model = sk.build_model(sc, {("a",): {(0,): F(1, 3), (1,): F(1, 3), (2,): F(1, 3)}})
    inv = cech_invariants(build_coboundary_matrices(sk.support_of(model)))
    assert inv.h0_rank == 3
    assert inv.h1_rank == 0 and inv.h1_torsion == ()


def test_invariants_glueable_model_has_kernel():
    inv = cech_invariants(build_coboundary_matrices(sk.support_of(deterministic_model())))
    assert inv.h0_rank >= 1


def test_invariants_frozen_fixture_values():
    # regression values; free ranks independently confirmed by rational rank
    pr = cech_invariants(build_coboundary_matrices(sk.support_of(pr_box_model())))
    assert (pr.h0_rank, pr.h1_rank, pr.h1_torsion) == (1, 1, ())
    tri = cech_invariants(build_coboundary_matrices(sk.support_of(triangle_anticorrelated_model())))
    assert (tri.h0_rank, tri.h1_rank, tri.h1_torsion) == (1, 1, ())


def test_invariant_free_ranks_match_rational_ranks():
    rng = random.Random(2718)
    cases = [
        sk.support_of(pr_box_model()),
        sk.support_of(triangle_anticorrelated_model()),
        sk.support_of(deterministic_model()),
    ]
    cases += [random_support_model(rng, random_scenario(rng)) for _ in range(20)]
    for supp in cases:
        mats = build_coboundary_matrices(supp)
        inv = cech_invariants(mats)
        d0q = [[F(v) for v in row] for row in mats.d0.a]
        d1q = [[F(v) for v in row] for row in mats.d1.a]
        r0 = q_rank(d0q)
        r1 = q_rank(d1q)
        assert inv.h0_rank == mats.d0.n - r0
        assert inv.h1_rank == (mats.d0.m - r1) - r0


def test_torsion_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(5050)
    for _ in range(12):
        sc = random_scenario(rng)
        supp = random_support_model(rng, sc)
        mats = build_coboundary_matrices(supp)
        inv = cech_invariants(mats)
        # ker D1 is saturated in C1, so H1's torsion is that of C1 / im D0
        if mats.d0.m and mats.d0.n:
            snf = sympy_snf(sympy.Matrix(mats.d0.a))
            diag = [snf[i, i] for i in range(min(snf.shape)) if snf[i, i] != 0]
            expected = tuple(abs(d) for d in diag if abs(d) > 1)
            assert inv.h1_torsion == expected
        else:
            assert inv.h1_torsion == ()


def test_invariants_match_kernel_coordinates_on_random_supports():
    rng = random.Random(6060)
    cases = [random_support_model(rng, random_scenario(rng)) for _ in range(20)]
    avn = avn_model()
    for _ in range(20):
        # Bell 3 x 3 x 2 has triangles: noncontextual supports and their
        # mixtures with the all-versus-nothing model
        glob = random_global_model(rng, avn.scenario, sparse=True)
        cases.append(sk.support_of(glob))
        cases.append(sk.support_of(sk.build_model(avn.scenario, {
            c.members: {
                s: (avn.table(c).get(s, 0) + glob.table(c).get(s, 0)) / 2
                for s in set(avn.table(c)) | set(glob.table(c))
            }
            for c in avn.scenario.cover
        })))
    cases += [sk.support_of(avn_model()), sk.support_of(_star_model(4))]
    with_triangles = 0
    for supp in cases:
        mats = build_coboundary_matrices(supp)
        inv = cech_invariants(mats)
        h1_rank, torsion = kernel_coordinate_invariants(mats.d1, mats.d0)
        assert (inv.h1_rank, inv.h1_torsion) == (h1_rank, tuple(torsion))
        with_triangles += bool(mats.triangle_basis)
    assert with_triangles >= 10, with_triangles


def test_cech_invariants_require_chain_complex():
    supp = sk.support_of(pr_box_model())
    mats = build_coboundary_matrices(supp)
    bad = ZMat(1, mats.d0.m, [[row[0] for row in mats.d0.a]])  # D1 . D0 has (D0^T D0)[0][0] > 0
    with pytest.raises(ValueError):
        cech_invariants(dataclasses.replace(mats, d1=bad))


def test_invariants_independent_of_cover_order():
    model = pr_box_model()
    sc = model.scenario
    perm = [2, 0, 3, 1]
    cover = [sc.cover[i].members for i in perm]
    permuted_sc = sk.build_scenario([(o.id, o.arity) for o in sc.observables], cover)
    tables = {
        permuted_sc.cover[i].members: {
            s: p for s, p in model.table(sc.cover[perm[i]]).items()
        }
        for i in range(4)
    }
    permuted = sk.build_model(permuted_sc, tables)
    a = cech_invariants(build_coboundary_matrices(sk.support_of(model)))
    b = cech_invariants(build_coboundary_matrices(sk.support_of(permuted)))
    assert (a.h0_rank, a.h1_rank, a.h1_torsion) == (b.h0_rank, b.h1_rank, b.h1_torsion)
