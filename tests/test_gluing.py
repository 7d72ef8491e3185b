import random
from fractions import Fraction

import pytest

import sheafkit as sk
from sheafkit import simplex
from sheafkit.errors import IncompatibleModel, InvalidModel, SizeLimitExceeded
from sheafkit.presheaf import model_from_dict
from helpers import (
    HALF,
    bell_scenario,
    brute_force_extends,
    brute_force_globals,
    dense_rows,
    deterministic_model,
    float_copy,
    model_to_dict,
    noisy_cycle_model,
    pr_box_model,
    project,
    random_box_mixture,
    random_global_model,
    random_scenario,
    random_support_model,
    reference_incidence,
    triangle_anticorrelated_model,
    triangle_scenario,
    verify_farkas_certificate,
    verify_fraction_certificate,
    verify_global_distribution,
)

F = Fraction


# --- global assignments: the incidence columns --------------------------------


def test_incidence_columns_count_global_assignments():
    two = sk.build_scenario([("a", 2), ("b", 2)], [["a", "b"]])
    assert len(sk.build_incidence(two).columns) == 4
    assert len(sk.build_incidence(triangle_scenario()).columns) == 8
    assert len(sk.build_incidence(bell_scenario()).columns) == 16


def test_incidence_columns_lex_and_unique():
    sc = triangle_scenario()
    columns = sk.build_incidence(sc).columns
    assert all(len(g) == len(sc.observable_ids) for g in columns)
    assert list(columns) == sorted(set(columns))


def test_incidence_columns_limit():
    sc = sk.build_scenario([(f"o{i}", 2) for i in range(8)], [[f"o{i}" for i in range(8)]])
    with pytest.raises(SizeLimitExceeded, match="global assignments"):
        sk.build_incidence(sc, limit=100)


# --- sheaf condition on supports ---------------------------------------------


def test_anticorrelated_triangle_strongly_contextual():
    supp = sk.support_of(triangle_anticorrelated_model())
    verdict = sk.sheaf_check(supp)
    assert verdict.strongly_contextual
    assert verdict.logically_contextual
    assert verdict.noncontextual is False
    assert verdict.global_support_section is None
    assert verdict.nonextendable_section is not None


def test_deterministic_model_glues_uniquely():
    supp = sk.support_of(deterministic_model())
    verdict = sk.sheaf_check(supp)
    assert not verdict.strongly_contextual
    assert not verdict.logically_contextual
    assert supp.scenario.observable_ids == ("a1", "a2", "b1", "b2")
    assert verdict.global_support_section == (0, 1, 0, 1)
    assert verdict.global_section_unique is True


def test_pr_box_strongly_contextual():
    verdict = sk.sheaf_check(sk.support_of(pr_box_model()))
    assert verdict.strongly_contextual


def test_sheaf_check_matches_brute_force_on_random_models():
    rng = random.Random(2024)
    for _ in range(80):
        sc = random_scenario(rng)
        supp = random_support_model(rng, sc)
        verdict = sk.sheaf_check(supp)
        globals_ = brute_force_globals(supp)
        assert verdict.strongly_contextual == (not globals_)
        expected_logical = not globals_ or any(
            not brute_force_extends(supp, ci, s)
            for ci, ctx in enumerate(sc.cover)
            for s in supp.support(ctx)
        )
        assert verdict.logically_contextual == expected_logical
        if verdict.global_support_section is not None:
            g = dict(zip(sc.observable_ids, verdict.global_support_section))
            assert g in globals_
            assert verdict.global_section_unique == (len(globals_) == 1)


def test_sheaf_check_matches_brute_force_on_larger_scenarios():
    rng = random.Random(909)
    for _ in range(10):
        sc = random_scenario(rng, max_observables=8)
        supp = random_support_model(rng, sc)
        verdict = sk.sheaf_check(supp)
        assert verdict.strongly_contextual == (not brute_force_globals(supp))


def test_sheaf_check_node_budget():
    supp = sk.support_of(pr_box_model())
    with pytest.raises(SizeLimitExceeded):
        sk.sheaf_check(supp, node_budget=2)


def test_logically_but_not_strongly_contextual_model():
    # Hardy-style supports: (a1,b1)=00 is possible locally but forces
    # b2=1, a2=1 on the neighbouring contexts, where (a2,b2)=11 is
    # forbidden; other sections still glue, so the model is logically but
    # not strongly contextual.
    sc = bell_scenario()

    def supp(ctx, forbidden):
        return frozenset(
            s for s in sk.enumerate_sections(ctx, sc) if s != forbidden
        )

    by_members = {c.members: c for c in sc.cover}
    supports = {
        by_members[("a1", "b1")]: supp(by_members[("a1", "b1")], None),
        by_members[("a1", "b2")]: supp(by_members[("a1", "b2")], (0, 0)),
        by_members[("a2", "b1")]: supp(by_members[("a2", "b1")], (0, 0)),
        by_members[("a2", "b2")]: supp(by_members[("a2", "b2")], (1, 1)),
    }
    model = sk.SupportModel(sc, supports)
    verdict = sk.sheaf_check(model)
    assert verdict.logically_contextual
    assert not verdict.strongly_contextual
    assert verdict.global_support_section is not None
    ci, section = verdict.nonextendable_section
    assert sc.cover[ci].members == ("a1", "b1")
    assert section == (0, 0)
    assert not brute_force_extends(model, ci, section)


# --- incidence ---------------------------------------------------------------


def test_incidence_single_context_identity():
    sc = sk.build_scenario([("a", 2)], [["a"]])
    inc = sk.build_incidence(sc)
    assert len(inc.rows) == 2 and len(inc.columns) == 2
    assert inc.column_rows == ((0,), (1,))


def test_incidence_shapes_and_column_sums():
    inc = sk.build_incidence(triangle_scenario())
    assert len(inc.rows) == 12 and len(inc.columns) == 8
    assert all(len(set(rows)) == 3 for rows in inc.column_rows)

    inc_bell = sk.build_incidence(bell_scenario())
    assert len(inc_bell.rows) == 16 and len(inc_bell.columns) == 16
    assert all(len(set(rows)) == 4 for rows in inc_bell.column_rows)


def test_incidence_one_entry_per_context_per_column():
    sc = bell_scenario()
    inc = sk.build_incidence(sc)
    for g, rows in zip(inc.columns, inc.column_rows, strict=True):
        # one row per context, in cover order, the section g restricts to
        assert [inc.rows[r] for r in rows] == [
            (ci, project(g, sc.observable_ids, ctx)) for ci, ctx in enumerate(sc.cover)
        ]


def test_incidence_matches_reference():
    rng = random.Random(1616)
    scenarios = [random_scenario(rng, max_observables=5) for _ in range(60)]
    scenarios += [noisy_cycle_model(n, F(0)).scenario for n in range(4, 11)]
    scenarios += [bell_scenario(m, d) for m, d in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3))]
    for sc in scenarios:
        inc = sk.build_incidence(sc)
        assert (inc.rows, inc.columns, inc.column_rows) == reference_incidence(sc)


# --- noncontextuality LP -------------------------------------------------------


def test_projected_models_are_noncontextual_with_exact_preimage():
    rng = random.Random(99)
    for _ in range(20):
        sc = random_scenario(rng)
        model = random_global_model(rng, sc)
        res = sk.contextual_fraction(model)
        assert res.noncontextual
        verify_global_distribution(model, res)


def test_pr_box_not_noncontextual_with_farkas_certificate():
    model = pr_box_model()
    res = sk.contextual_fraction(model)
    assert not res.noncontextual
    verify_farkas_certificate(model, res)


def test_uniform_independent_model_noncontextual():
    sc = bell_scenario()
    quarter = F(1, 4)
    model = sk.build_model(
        sc, {c.members: {o: quarter for o in [(0, 0), (0, 1), (1, 0), (1, 1)]} for c in sc.cover}
    )
    res = sk.contextual_fraction(model)
    assert res.noncontextual
    assert sum(res.weights) == 1


# --- contextual fraction --------------------------------------------------------


def test_fraction_noncontextual_model_zero():
    report = sk.contextual_fraction(deterministic_model())
    assert report.contextual_fraction == 0
    assert report.noncontextual_fraction == 1
    verify_fraction_certificate(deterministic_model(), report)


def test_fraction_pr_box_one():
    model = pr_box_model()
    report = sk.contextual_fraction(model)
    assert report.contextual_fraction == 1
    verify_fraction_certificate(model, report)


def test_fraction_triangle_frozen_value():
    # No global assignment is consistent with perfect anticorrelation on an
    # odd cycle, so every weight is forced to zero: the oracle value is 1.
    model = triangle_anticorrelated_model()
    report = sk.contextual_fraction(model)
    assert report.contextual_fraction == F(1)
    verify_fraction_certificate(model, report)


def test_fraction_intermediate_value():
    # 3/4 PR box + 1/4 uniform noise lies strictly between the local bound
    # (mixing weight 1/2) and the box itself: CF = 2v - 1 = 1/2 exactly.
    pr = pr_box_model()
    sc = pr.scenario
    v, quarter = F(3, 4), F(1, 4)
    tables = {}
    for c in sc.cover:
        tables[c.members] = {
            s: v * p + (1 - v) * quarter for s, p in pr.table(c).items()
        }
    mixed = sk.build_model(sc, tables)
    report = sk.contextual_fraction(mixed)
    assert report.contextual_fraction == HALF
    verify_fraction_certificate(mixed, report)


def test_fraction_at_local_boundary_is_zero():
    # at mixing weight exactly 1/2 the mixture is noncontextual
    pr = pr_box_model()
    sc = pr.scenario
    quarter = F(1, 4)
    tables = {
        c.members: {s: HALF * p + HALF * quarter for s, p in pr.table(c).items()}
        for c in sc.cover
    }
    boundary = sk.build_model(sc, tables)
    report = sk.contextual_fraction(boundary)
    assert report.contextual_fraction == 0
    verify_fraction_certificate(boundary, report)


def test_fraction_zero_iff_noncontextual_random():
    rng = random.Random(5)
    for _ in range(15):
        sc = random_scenario(rng)
        model = random_global_model(rng, sc, sparse=True)
        report = sk.contextual_fraction(model)
        assert (report.contextual_fraction == 0) == report.noncontextual
        verify_fraction_certificate(model, report)


def test_float_fraction_agrees_with_rational_on_cycles():
    # Rounding may steer Bland's rule to other pivots on degenerate models,
    # but the float CF stays within 1e-9 of the exact one, with its verdict,
    # which check (classify_contextuality) shares.  Round-off below the
    # tolerance reads as zero: no negative CF, no weight <= FLOAT_TOL.
    models = [
        noisy_cycle_model(n, v)
        for n in range(4, 9)
        for v in (F(0), HALF, F(3, 4), F(9, 10), F(1))
    ]
    rng = random.Random(808)
    models += [random_box_mixture(rng) for _ in range(12)]
    verdicts = []
    for model in models:
        exact = sk.contextual_fraction(model)
        approx_model = model_from_dict(float_copy(model))
        approx = sk.contextual_fraction(approx_model)
        assert abs(approx.contextual_fraction - float(exact.contextual_fraction)) <= 1e-9
        assert approx.noncontextual == exact.noncontextual
        assert approx.noncontextual == sk.classify_contextuality(approx_model).noncontextual
        assert approx.contextual_fraction >= 0
        assert all(w == 0 or w > simplex.FLOAT_TOL for w in approx.weights)
        verdicts.append(exact.noncontextual)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def test_ten_cycle_fraction_matches_closed_form():
    # CF of the noisy n-cycle is max(0, 1 - n (1 - v) / 2); the 10-cycle LP
    # has 40 rows and 1024 globals
    report = sk.contextual_fraction(noisy_cycle_model(10, F(9, 10)))
    assert report.contextual_fraction == F(1, 2) and not report.noncontextual
    report = sk.contextual_fraction(noisy_cycle_model(10, HALF))
    assert report.contextual_fraction == 0 and report.noncontextual


def test_hierarchy_on_compatible_models():
    rng = random.Random(31)
    models = [pr_box_model(), triangle_anticorrelated_model(), deterministic_model()]
    models += [random_global_model(rng, random_scenario(rng)) for _ in range(10)]
    models += [random_box_mixture(rng) for _ in range(12)]
    contextual = 0
    for model in models:
        verdict = sk.sheaf_check(sk.support_of(model))
        lp = sk.contextual_fraction(model)
        if verdict.strongly_contextual:
            assert verdict.logically_contextual
        if verdict.logically_contextual:
            assert not lp.noncontextual
        if lp.noncontextual:
            verify_global_distribution(model, lp)
        else:
            verify_farkas_certificate(model, lp)
            contextual += 1
    assert 4 < contextual < len(models) - 4


def test_classify_contextuality_fills_noncontextual():
    verdict = sk.classify_contextuality(deterministic_model())
    assert verdict.noncontextual is True
    verdict = sk.classify_contextuality(pr_box_model())
    assert verdict.noncontextual is False


def test_classify_rejects_incompatible():
    sc = bell_scenario()
    quarter = F(1, 4)
    tables = {c.members: {o: quarter for o in [(0, 0), (0, 1), (1, 0), (1, 1)]} for c in sc.cover}
    tables[("a1", "b1")] = {(0, 0): F(1)}
    model = sk.build_model(sc, tables)
    with pytest.raises(IncompatibleModel) as exc:
        sk.classify_contextuality(model)
    # the exception carries the violations that the compatibility check found
    assert exc.value.violations == sk.check_compatibility(model)
    assert exc.value.violations


def test_relabeling_invariance():
    # permuting outcome labels of one observable changes nothing
    model = triangle_anticorrelated_model()
    sc = model.scenario
    flipped_tables = {}
    for c in sc.cover:
        table = {}
        for s, p in model.table(c).items():
            outs = tuple(1 - o if m == "y" else o for m, o in zip(c.members, s))
            table[outs] = p
        flipped_tables[c.members] = table
    flipped = sk.build_model(sc, flipped_tables)

    v1 = sk.sheaf_check(sk.support_of(model))
    v2 = sk.sheaf_check(sk.support_of(flipped))
    assert (v1.strongly_contextual, v1.logically_contextual) == (
        v2.strongly_contextual, v2.logically_contextual
    )
    assert (
        sk.contextual_fraction(model).contextual_fraction
        == sk.contextual_fraction(flipped).contextual_fraction
    )


def test_round_trip_through_fraction_weights():
    # weights returned for a noncontextual model form a global distribution
    rng = random.Random(77)
    sc = random_scenario(rng)
    model = random_global_model(rng, sc)
    report = sk.contextual_fraction(model)
    assert sum(report.weights) == 1
    weights = dict(zip(report.incidence.columns, report.weights))
    rebuilt = sk.model_from_global_weights(sc, weights)
    for c in sc.cover:
        assert rebuilt.table(c) == model.table(c)


def test_global_weights_must_be_a_mapping():
    # a list cannot say which global each weight is for: a short one would
    # leave the remaining globals out
    with pytest.raises(InvalidModel):
        sk.model_from_global_weights(bell_scenario(), [1])


@pytest.mark.parametrize("key", [(0, 1, 0), (0, 1, 0, 1, 1), "0101"],
                         ids=["short", "long", "string"])
def test_global_weights_need_outcome_tuples_over_every_observable(key):
    # a key of the wrong length would otherwise project onto the wrong outcomes
    with pytest.raises(InvalidModel):
        sk.model_from_global_weights(bell_scenario(), {key: F(1)})


def test_fraction_cross_checked_against_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(808)
    models = [pr_box_model(), triangle_anticorrelated_model(), deterministic_model()]
    models += [random_global_model(rng, random_scenario(rng), sparse=True) for _ in range(8)]
    # noisy PR boxes sit at various depths inside/outside the polytope
    pr = pr_box_model()
    for v in (F(1, 4), F(5, 8), F(9, 10)):
        tables = {
            c.members: {
                s: v * p + (1 - v) * F(1, 4) for s, p in pr.table(c).items()
            }
            for c in pr.scenario.cover
        }
        models.append(sk.build_model(pr.scenario, tables))
    for model in models:
        report = sk.contextual_fraction(model)
        inc = report.incidence
        p = [float(x) for x in sk.gluing.probability_vector(model, inc)]
        c = [-1.0] * len(inc.columns)
        res = scipy_opt.linprog(
            c, A_ub=dense_rows(inc.column_rows, len(inc.rows)), b_ub=p,
            bounds=(0, None), method="highs",
        )
        assert res.status == 0
        assert abs(float(report.noncontextual_fraction) - (-res.fun)) < 1e-9


def test_simplex_random_lps_match_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")
    from sheafkit import simplex

    rng = random.Random(2121)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        # unit costs and 0/1 columns, each hitting at least one row
        a = [sorted(rng.sample(range(m), rng.randint(1, m))) for _ in range(n)]
        b = [F(rng.randint(0, 9)) for _ in range(m)]
        res = simplex.maximize_leq(a, b)
        ref = scipy_opt.linprog(
            [-1.0] * n,
            A_ub=dense_rows(a, m),
            b_ub=[float(x) for x in b],
            bounds=(0, None),
            method="highs",
        )
        assert ref.status == 0
        assert abs(float(res.objective) - (-ref.fun)) < 1e-8


def test_float_mode_gluing():
    data = model_to_dict(pr_box_model())
    data["mode"] = "float"
    for entry in data["tables"]:
        entry["probs"] = {k: 0.5 for k in entry["probs"]}
    model = model_from_dict(data)
    assert model.mode == "float"
    report = sk.contextual_fraction(model)
    assert not report.noncontextual
    assert abs(report.contextual_fraction - 1.0) < 1e-7
