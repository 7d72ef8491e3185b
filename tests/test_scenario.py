import itertools

import pytest

import sheafkit as sk
from sheafkit.errors import (
    DominatedContext,
    DuplicateObservable,
    EmptyCover,
    InvalidScenario,
    ParseError,
    UnknownObservable,
)
from helpers import bell_scenario, scenario_to_dict, triangle_scenario


def test_triangle_scenario_builds():
    sc = triangle_scenario()
    assert sc.observable_ids == ("x", "y", "z")
    assert [c.members for c in sc.cover] == [("x", "y"), ("y", "z"), ("x", "z")]
    assert sc.arity("x") == 2


def test_single_context_scenario():
    sc = sk.build_scenario([("a", 2)], [["a"]])
    assert len(sc.cover) == 1


def test_dominated_context_rejected():
    with pytest.raises(DominatedContext):
        sk.build_scenario([("a", 2), ("b", 2)], [["a"], ["a", "b"]])


def test_duplicate_observable_rejected():
    with pytest.raises(DuplicateObservable):
        sk.build_scenario([("a", 2), ("a", 3)], [["a"]])
    with pytest.raises(DuplicateObservable):
        sk.build_scenario([("a", 2)], [["a", "a"]])


def test_unknown_observable_rejected():
    with pytest.raises(UnknownObservable):
        sk.build_scenario([("a", 2)], [["a", "q"]])


def test_empty_cover_rejected():
    with pytest.raises(EmptyCover):
        sk.build_scenario([("a", 2)], [])


def test_uncovered_observable_rejected():
    with pytest.raises(InvalidScenario):
        sk.build_scenario([("a", 2), ("b", 2)], [["a"]])


def test_arity_below_two_rejected():
    with pytest.raises(InvalidScenario):
        sk.Observable("a", 1)


def test_context_canonical_order():
    sc = bell_scenario()
    assert sc.context(["b1", "a1"]).members == ("a1", "b1")


def test_nerve_triangle():
    nerve = sk.build_nerve(triangle_scenario())
    assert len(nerve.vertices) == 3
    assert sorted(e.context.members for e in nerve.edges) == [("x",), ("y",), ("z",)]
    assert nerve.triangles == ()


def test_nerve_single_context():
    nerve = sk.build_nerve(sk.build_scenario([("a", 2)], [["a"]]))
    assert (len(nerve.vertices), len(nerve.edges), len(nerve.triangles)) == (1, 0, 0)


def test_nerve_bell():
    nerve = sk.build_nerve(bell_scenario())
    assert len(nerve.vertices) == 4
    assert sorted(e.context.members for e in nerve.edges) == [
        ("a1",), ("a2",), ("b1",), ("b2",)
    ]
    assert nerve.triangles == ()


def test_nerve_has_nonempty_triple_overlap():
    sc = sk.build_scenario(
        [("a", 2), ("b", 2), ("c", 2), ("d", 2)],
        [["a", "b"], ["a", "c"], ["a", "d"]],
    )
    nerve = sk.build_nerve(sc)
    assert len(nerve.edges) == 3
    assert len(nerve.triangles) == 1
    tri = nerve.triangles[0]
    assert tri.context.members == ("a",)
    # every triangle face is present among the edges
    faces = {(tri.i, tri.j), (tri.i, tri.k), (tri.j, tri.k)}
    assert faces <= {(e.i, e.j) for e in nerve.edges}


def test_nerve_edges_equal_pairwise_intersections():
    sc = bell_scenario()
    nerve = sk.build_nerve(sc)
    by_pair = {(e.i, e.j): e.context for e in nerve.edges}
    for i, j in itertools.combinations(range(len(sc.cover)), 2):
        inter = sc.cover[i].intersect(sc.cover[j])
        if inter.members:
            assert by_pair[(i, j)].members == inter.members
        else:
            assert (i, j) not in by_pair


def test_scenario_json_roundtrip(tmp_path):
    sc = bell_scenario()
    data = scenario_to_dict(sc)
    path = tmp_path / "scenario.json"
    path.write_text(__import__("json").dumps(data))
    loaded = sk.load_scenario(path)
    assert loaded == sc


def test_scenario_parser_rejects_unknown_keys():
    with pytest.raises(ParseError):
        sk.scenario.scenario_from_dict(
            {"observables": [{"id": "a", "arity": 2}], "cover": [["a"]], "extra": 1}
        )
    with pytest.raises(ParseError):
        sk.scenario.scenario_from_dict(
            {"observables": [{"id": "a", "arity": 2, "note": "x"}], "cover": [["a"]]}
        )


def test_scenario_parser_type_errors():
    with pytest.raises(ParseError):
        sk.scenario.scenario_from_dict({"observables": [{"id": "a", "arity": "2"}], "cover": [["a"]]})
    with pytest.raises(ParseError):
        sk.load_scenario("/nonexistent/path.json")
