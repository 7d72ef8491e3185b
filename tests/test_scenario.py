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


@pytest.mark.parametrize("arity", [2.5, 2.0, True, "2"])
def test_non_integer_arity_rejected(arity):
    with pytest.raises(InvalidScenario):
        sk.Observable("a", arity)
    with pytest.raises(InvalidScenario):
        sk.build_scenario([("a", arity), ("b", 2)], [["a", "b"]])


def test_context_canonical_order():
    sc = bell_scenario()
    assert sc.context(["b1", "a1"]).members == ("a1", "b1")


def nerve_cells(sc):
    """(number of vertices, edge contexts, triangle contexts, D1) of the
    nerve of the full support model.  A cell's vertices are read off the
    nonzero entries of its rows in D0 (and D1, through the edges), and its
    context is their intersection; its sections have that many outcomes."""
    supports = {ctx: sk.enumerate_sections(ctx, sc) for ctx in sc.cover}
    mats = sk.build_coboundary_matrices(sk.SupportModel(sc, supports))

    def faces(basis, d, face_basis):
        cells = {}
        for (cell, _), row in zip(basis, d.a, strict=True):
            cells.setdefault(cell, set()).update(face_basis[c][0] for c, v in enumerate(row) if v)
        return [cells[cell] for cell in sorted(cells)]

    edge_vertices = faces(mats.edge_basis, mats.d0, mats.vertex_basis)
    triangle_vertices = [set().union(*(edge_vertices[e] for e in edges))
                         for edges in faces(mats.triangle_basis, mats.d1, mats.edge_basis)]

    def contexts(vertex_sets, basis):
        members = [tuple(m for m in sc.observable_ids if all(m in sc.cover[v] for v in vs))
                   for vs in vertex_sets]
        assert all(len(s) == len(members[cell]) for cell, s in basis)
        return members

    vertices = len({vi for vi, _ in mats.vertex_basis})
    return (vertices, contexts(edge_vertices, mats.edge_basis),
            contexts(triangle_vertices, mats.triangle_basis), mats)


def test_nerve_triangle():
    vertices, edges, triangles, _ = nerve_cells(triangle_scenario())
    assert vertices == 3
    assert sorted(edges) == [("x",), ("y",), ("z",)]
    assert triangles == []


def test_nerve_single_context():
    vertices, edges, triangles, _ = nerve_cells(sk.build_scenario([("a", 2)], [["a"]]))
    assert (vertices, len(edges), len(triangles)) == (1, 0, 0)


def test_nerve_bell():
    vertices, edges, triangles, _ = nerve_cells(bell_scenario())
    assert vertices == 4
    assert sorted(edges) == [("a1",), ("a2",), ("b1",), ("b2",)]
    assert triangles == []


def test_nerve_has_nonempty_triple_overlap():
    sc = sk.build_scenario(
        [("a", 2), ("b", 2), ("c", 2), ("d", 2)],
        [["a", "b"], ["a", "c"], ["a", "d"]],
    )
    _, edges, triangles, mats = nerve_cells(sc)
    assert len(edges) == 3
    assert triangles == [("a",)]
    # every triangle face is present among the edges: D1 reaches all three
    faces = {mats.edge_basis[c][0] for row in mats.d1.a for c, v in enumerate(row) if v}
    assert faces == {0, 1, 2}


def test_nerve_edges_equal_pairwise_intersections():
    sc = bell_scenario()
    _, edges, _, _ = nerve_cells(sc)
    overlaps = (sc.cover[i].intersect(sc.cover[j])
                for i, j in itertools.combinations(range(len(sc.cover)), 2))
    assert edges == [inter.members for inter in overlaps if inter.members]


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
