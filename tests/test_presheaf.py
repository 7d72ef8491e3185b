import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sheafkit as sk
from sheafkit.errors import (
    EmptySupport,
    InvalidModel,
    NotASubcontext,
    OutcomeOutOfRange,
    ParseError,
    SizeLimitExceeded,
)
from sheafkit.presheaf import model_from_dict
from helpers import (
    HALF,
    bell_scenario,
    fixture_model,
    model_to_dict,
    pr_box_model,
    project,
    random_global_model,
    random_scenario,
    read_model,
    scenario_to_dict,
    triangle_scenario,
)


# --- section enumeration and restriction -----------------------------------


def test_enumerate_sections_counts_and_order():
    sc = sk.build_scenario([("a", 2), ("b", 2)], [["a", "b"]])
    ctx = sc.cover[0]
    assert sk.enumerate_sections(ctx, sc) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    sc3 = sk.build_scenario([("x", 2), ("y", 2), ("z", 3)], [["x", "y", "z"]])
    assert len(sk.enumerate_sections(sc3.cover[0], sc3)) == 12

    single = sk.build_scenario([("a", 2)], [["a"]])
    assert sk.enumerate_sections(single.cover[0], single) == [(0,), (1,)]


def test_enumerate_sections_size_limit():
    sc = sk.build_scenario([(f"o{i}", 2) for i in range(24)], [[f"o{i}" for i in range(24)]])
    with pytest.raises(SizeLimitExceeded):
        sk.enumerate_sections(sc.cover[0], sc, limit=2**10)


def test_section_label():
    assert sk.section_label((0, 1, 9)) == "019"
    assert sk.section_label((11, 1)) == "11,1"
    assert sk.section_label(()) == ""


def _restrict(section, domain, subcontext):
    """The restriction of one section, through ``restriction_map``."""
    (restricted,), positions = sk.restriction_map((section,), domain, subcontext)
    assert positions == (0,)
    return restricted


def test_restrict_examples():
    assert _restrict((0, 1), ("a", "b"), ("a",)) == (0,)
    assert _restrict((0, 1), ("a", "b"), ("b", "a")) == (0, 1)
    assert _restrict((1, 0), ("x", "y"), ("y",)) == (0,)


def test_restrict_rejects_noncontainment():
    with pytest.raises(NotASubcontext):
        sk.restriction_map(((0,),), ("a",), ("b",))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_restrict_functoriality(data):
    members = tuple(f"m{i}" for i in range(data.draw(st.integers(2, 5))))
    section = tuple(data.draw(st.integers(0, 3)) for _ in members)
    mid = tuple(m for m in members if data.draw(st.booleans()))
    small = tuple(m for m in mid if data.draw(st.booleans()))
    via = _restrict(_restrict(section, members, mid), mid, small)
    direct = _restrict(section, members, small)
    assert via == direct
    assert _restrict(section, members, members) == section


def _check_restriction_map(sections, domain, subcontext):
    restricted, positions = sk.restriction_map(sections, domain, subcontext)
    assert len(positions) == len(sections)
    # distinct, in lexicographic order, and each one some section's
    assert list(restricted) == sorted(set(restricted))
    assert set(positions) == set(range(len(restricted)))
    for section, r in zip(sections, positions, strict=True):
        assert (restricted[r] == _restrict(section, domain, subcontext)
                == project(section, domain, subcontext))


def test_restriction_map_agrees_with_restrict_section_by_section():
    rng = random.Random(1618)
    scenarios = [random_scenario(rng, max_observables=5) for _ in range(40)]
    scenarios += [
        bell_scenario(2, 3),
        sk.build_scenario([("x", 3), ("y", 2), ("z", 4)], [["x", "y", "z"]]),
    ]
    for sc in scenarios:
        for ctx in sc.cover:
            sections = [s for s in sk.enumerate_sections(ctx, sc) if rng.random() < 0.7]
            rng.shuffle(sections)
            # a random subset, listed in random (so not scenario) order
            subcontext = rng.sample(ctx.members, rng.randint(0, len(ctx)))
            _check_restriction_map(sections, ctx, subcontext)
            _check_restriction_map(sections, ctx, sc.context(subcontext) if subcontext else ())


def test_restriction_map_pools_two_contexts_as_an_edge_sees_them():
    # each context's sections are restricted from that context, then the
    # restrictions are pooled into the overlap's basis by a map onto itself
    supp = sk.support_of(pr_box_model())
    a1b2, a2b2 = supp.scenario.cover[1], supp.scenario.cover[3]
    overlap = a1b2.intersect(a2b2)
    pooled = []
    for ctx in (a1b2, a2b2):
        restricted, positions = sk.restriction_map(supp.support(ctx), ctx, overlap)
        pooled += [restricted[r] for r in positions]
    restricted, positions = sk.restriction_map(pooled, overlap, overlap)
    assert restricted == ((0,), (1,))
    assert positions == (0, 1, 1, 0)  # 00, 11 | 01, 10

    sc = bell_scenario(2, 3)
    for ca in sc.cover:
        for cb in sc.cover:
            overlap = ca.intersect(cb)
            if ca != cb and overlap.members:
                _check_restriction_map(sk.enumerate_sections(ca, sc), ca, overlap)
                _check_restriction_map(sk.enumerate_sections(cb, sc), cb, overlap)


def test_restriction_map_rejects_noncontainment():
    assert sk.restriction_map([(0, 1), (1, 1)], ("a", "b"), ("b",)) == (((1,),), (0, 0))
    with pytest.raises(NotASubcontext):
        sk.restriction_map([(0, 1)], ("a", "b"), ("b", "c"))
    with pytest.raises(NotASubcontext):
        sk.restriction_map([(0, 1)], ("a", "b"), ("a", "z"))


# --- model construction ------------------------------------------------------


def test_build_model_validates_sum():
    sc = sk.build_scenario([("a", 2)], [["a"]])
    with pytest.raises(InvalidModel):
        sk.build_model(sc, {("a",): {(0,): Fraction(1, 3)}})


def test_build_model_rejects_negative():
    sc = sk.build_scenario([("a", 2)], [["a"]])
    with pytest.raises(InvalidModel):
        sk.build_model(sc, {("a",): {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)}})


def test_build_model_rejects_missing_table():
    sc = triangle_scenario()
    with pytest.raises(InvalidModel):
        sk.build_model(sc, {sc.cover[0].members: {(0, 1): HALF, (1, 0): HALF}})


def test_build_model_rejects_a_context_tabled_twice_or_off_the_cover():
    sc = sk.build_scenario([("a", 2), ("b", 2), ("c", 2)], [["a", "b"], ["b", "c"]])
    table = {(0, 0): 1}
    with pytest.raises(InvalidModel, match="two tables"):
        sk.build_model(sc, {("a", "b"): table, ("b", "a"): table, ("b", "c"): table})
    with pytest.raises(InvalidModel, match="non-cover"):
        sk.build_model(sc, {("a", "b"): table, ("b", "c"): table, ("a",): {(0,): 1}})


def test_build_model_rejects_float_in_rational_mode():
    sc = sk.build_scenario([("a", 2)], [["a"]])
    with pytest.raises(InvalidModel):
        sk.build_model(sc, {("a",): {(0,): 0.5, (1,): 0.5}})


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_build_model_rejects_zero_denominator(mode):
    sc = sk.build_scenario([("a", 2)], [["a"]])
    with pytest.raises(InvalidModel):
        sk.build_model(sc, {("a",): {(0,): "1/0"}}, mode=mode)


def test_build_model_rejects_out_of_range_outcome():
    sc = sk.build_scenario([("a", 2)], [["a"]])
    with pytest.raises(OutcomeOutOfRange):
        sk.build_model(sc, {("a",): {(2,): Fraction(1)}})


@pytest.mark.parametrize("key", [(0.9, 1), (True, 1), (0, 1, 0), (0,), "01"],
                         ids=["float", "bool", "long", "short", "string"])
def test_build_model_rejects_keys_that_are_not_integer_sections(key):
    # a float or bool outcome is not read as the integer it rounds to
    sc = sk.build_scenario([("a", 2), ("b", 2)], [["a", "b"]])
    with pytest.raises(InvalidModel):
        sk.build_model(sc, {("a", "b"): {key: Fraction(1)}})


def test_tables_are_dense():
    model = pr_box_model()
    for ctx in model.scenario.cover:
        assert len(model.table(ctx)) == 4


def test_float_mode_tolerance():
    sc = sk.build_scenario([("a", 2)], [["a"]])
    model = sk.build_model(sc, {("a",): {(0,): 0.5 + 4e-10, (1,): 0.5}}, mode="float")
    assert model.mode == "float"
    with pytest.raises(InvalidModel):
        sk.build_model(sc, {("a",): {(0,): 0.51, (1,): 0.5}}, mode="float")


# --- marginalization ----------------------------------------------------------


def test_marginalize_uniform():
    sc = sk.build_scenario([("a", 2), ("b", 2)], [["a", "b"]])
    model = sk.build_model(
        sc, {("a", "b"): {o: Fraction(1, 4) for o in [(0, 0), (0, 1), (1, 0), (1, 1)]}}
    )
    marg = sk.marginalize(model.table(sc.cover[0]), sc.cover[0], ("a",))
    assert all(p == HALF for p in marg.values())


def test_marginalize_point_mass():
    sc = sk.build_scenario([("a", 2), ("b", 2)], [["a", "b"]])
    model = sk.build_model(sc, {("a", "b"): {(0, 1): Fraction(1)}})
    marg = sk.marginalize(model.table(sc.cover[0]), sc.cover[0], ("b",))
    assert marg == {(0,): 0, (1,): 1}


def test_marginalize_pr_box_context():
    model = pr_box_model()
    ctx = model.scenario.cover[0]
    marg = sk.marginalize(model.table(ctx), ctx, ("a1",))
    assert marg == {(0,): HALF, (1,): HALF}


def test_marginalize_rejects_noncontainment():
    model = pr_box_model()
    with pytest.raises(NotASubcontext):
        sk.marginalize(model.table(model.scenario.cover[0]), model.scenario.cover[0], ("a2",))


def test_marginalize_composes():
    sc = sk.build_scenario([("a", 2), ("b", 2), ("c", 2)], [["a", "b", "c"]])
    rng = random.Random(7)
    model = random_global_model(rng, sc)
    table = model.table(sc.cover[0])
    two_step = sk.marginalize(sk.marginalize(table, sc.cover[0], ("a", "b")), ("a", "b"), ("a",))
    direct = sk.marginalize(table, sc.cover[0], ("a",))
    assert two_step == direct


def _plain_marginal(table, domain, subcontext):
    out = {}
    for section, p in table.items():
        sub = project(section, domain, subcontext)
        out[sub] = out.get(sub, 0) + p
    return out


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_marginals_and_global_projections_match_plain_sums_on_fixtures(mode):
    rng = random.Random(1619)
    for name in ("prbox", "bell_uniform", "triangle_anticorrelated", "deterministic", "signalling"):
        model = fixture_model(name)
        sc = model.scenario
        for ctx in sc.cover:
            for other in sc.cover:
                overlap = ctx.intersect(other)
                assert sk.marginalize(model.table(ctx), ctx, overlap) == _plain_marginal(
                    model.table(ctx), ctx, overlap
                )
        columns = sk.build_incidence(sc).columns
        raw = [rng.randint(0, 3) for _ in columns]
        raw[0] += 1
        if mode == "rational":
            weights = [Fraction(w, sum(raw)) for w in raw]
        else:
            weights = [w / sum(raw) for w in raw]
        # float sums keep their order, so the tables match bit for bit
        expected = sk.build_model(
            sc,
            {ctx: _plain_marginal(dict(zip(columns, weights)), sc.observable_ids, ctx)
             for ctx in sc.cover},
            mode,
        )
        assert sk.model_from_global_weights(sc, dict(zip(columns, weights)), mode) == expected


# --- compatibility -------------------------------------------------------------


def test_pr_box_compatible():
    assert sk.check_compatibility(pr_box_model()) == ()


def test_single_context_compatible():
    sc = sk.build_scenario([("a", 2)], [["a"]])
    model = sk.build_model(sc, {("a",): {(0,): Fraction(1)}})
    assert not sk.check_compatibility(model)


def test_signalling_model_flagged():
    sc = bell_scenario()
    quarter = Fraction(1, 4)
    tables = {c.members: {o: quarter for o in [(0, 0), (0, 1), (1, 0), (1, 1)]} for c in sc.cover}
    tables[("a1", "b1")] = {(0, 0): Fraction(1)}
    model = sk.build_model(sc, tables)
    violations = sk.check_compatibility(model)
    assert violations
    assert {v.discrepancy for v in violations} == {HALF}
    flagged = {v.overlap.members for v in violations}
    assert flagged == {("a1",), ("b1",)}


def test_projected_global_distributions_are_compatible():
    rng = random.Random(123)
    for _ in range(25):
        sc = random_scenario(rng)
        model = random_global_model(rng, sc)
        assert not sk.check_compatibility(model)


# --- supports -------------------------------------------------------------------


def test_pr_box_supports():
    supp = sk.support_of(pr_box_model())
    for ctx in supp.scenario.cover:
        assert len(supp.support(ctx)) == 2


def test_uniform_full_support_and_deterministic_singletons():
    sc = bell_scenario()
    quarter = Fraction(1, 4)
    uniform = sk.build_model(
        sc, {c.members: {o: quarter for o in [(0, 0), (0, 1), (1, 0), (1, 1)]} for c in sc.cover}
    )
    supp = sk.support_of(uniform)
    assert all(len(supp.support(c)) == 4 for c in sc.cover)

    det = sk.build_model(sc, {c.members: {(0, 0): Fraction(1)} for c in sc.cover})
    dsupp = sk.support_of(det)
    assert all(len(dsupp.support(c)) == 1 for c in sc.cover)


def test_support_model_orders_sections_lexicographically():
    sc = bell_scenario()
    supp = sk.SupportModel(sc, {c: set(sk.enumerate_sections(c, sc)) for c in sc.cover})
    for ctx in sc.cover:
        assert isinstance(supp.support(ctx), tuple)
        assert supp.support(ctx) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_support_threshold_and_empty_support():
    sc = sk.build_scenario([("a", 2)], [["a"]])
    model = sk.build_model(sc, {("a",): {(0,): HALF, (1,): HALF}})
    assert len(sk.support_of(model).support(sc.cover[0])) == 2
    floats = sk.build_model(sc, {("a",): {(0,): 1.0, (1,): 1e-13}}, "float")
    assert sk.support_of(floats).support(sc.cover[0]) == ((0,),)
    # a hand-built model skips build_model's validation, so its tables may be all zero
    zeros = {s: Fraction(0) for s in sk.enumerate_sections(sc.cover[0], sc)}
    with pytest.raises(EmptySupport):
        sk.support_of(sk.EmpiricalModel(sc, "rational", {sc.cover[0]: zeros}))


# --- JSON model format -----------------------------------------------------------


def test_model_json_roundtrip(tmp_path):
    model = pr_box_model()
    data = model_to_dict(model)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    loaded = read_model(path)
    assert loaded.mode == "rational"
    assert loaded.scenario == model.scenario
    for ctx in model.scenario.cover:
        assert loaded.table(ctx) == model.table(ctx)


def test_model_file_with_scenario_path(tmp_path):
    sc = sk.build_scenario([("a", 2)], [["a"]])
    (tmp_path / "scen.json").write_text(json.dumps(scenario_to_dict(sc)))
    model_data = {
        "scenario": "scen.json",
        "mode": "rational",
        "tables": [{"context": ["a"], "probs": {"0": "1/2", "1": "1/2"}}],
    }
    (tmp_path / "model.json").write_text(json.dumps(model_data))
    model = read_model(tmp_path / "model.json")
    assert model.scenario == sc


def test_model_key_order_follows_declared_context(tmp_path):
    # keys are read in the order the context is written in the file
    data = {
        "scenario": {
            "observables": [{"id": "a", "arity": 2}, {"id": "b", "arity": 2}],
            "cover": [["a", "b"]],
        },
        "tables": [{"context": ["b", "a"], "probs": {"01": "1"}}],
    }
    model = model_from_dict(data)
    ctx = model.scenario.cover[0]
    assert model.table(ctx)[1, 0] == 1  # a=1, b=0


def test_model_parser_rejections():
    base = {
        "scenario": {
            "observables": [{"id": "a", "arity": 2}],
            "cover": [["a"]],
        },
        "tables": [{"context": ["a"], "probs": {"0": "1"}}],
    }
    bad_top = dict(base, surprise=1)
    with pytest.raises(ParseError):
        model_from_dict(bad_top)
    bad_table = dict(base, tables=[{"context": ["a"], "probs": {"0": "1"}, "x": 1}])
    with pytest.raises(ParseError):
        model_from_dict(bad_table)
    bad_key = dict(base, tables=[{"context": ["a"], "probs": {"00": "1"}}])
    with pytest.raises(ParseError):
        model_from_dict(bad_key)
    bad_sum = dict(base, tables=[{"context": ["a"], "probs": {"0": "1/3"}}])
    with pytest.raises(ParseError):
        model_from_dict(bad_sum)


def test_model_float_mode_json():
    data = {
        "scenario": {
            "observables": [{"id": "a", "arity": 2}],
            "cover": [["a"]],
        },
        "mode": "float",
        "tables": [{"context": ["a"], "probs": {"0": 0.25, "1": 0.75}}],
    }
    model = model_from_dict(data)
    assert model.mode == "float"
    assert not sk.check_compatibility(model)


def test_comma_separated_keys_for_wide_arity():
    data = {
        "scenario": {
            "observables": [{"id": "a", "arity": 12}, {"id": "b", "arity": 2}],
            "cover": [["a", "b"]],
        },
        "tables": [{"context": ["a", "b"], "probs": {"11,1": "1"}}],
    }
    model = model_from_dict(data)
    ctx = model.scenario.cover[0]
    assert model.table(ctx)[11, 1] == 1
