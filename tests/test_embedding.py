import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facet.embedding import (
    EmbeddedGraph,
    EmbeddingError,
    FaceProfile,
    PegParseError,
    SurgeryError,
    contract_edge,
    contract_face,
    delete_edge,
    delete_vertex,
    face_profiles,
    facial_distance,
    facial_neighborhood,
    generate,
    identify_edges,
    medial,
    parse_peg,
    random_plane_graph,
    serialize_peg,
    subdivide_edge,
)
from facet.reducibility import catalog as reduction_catalog

from helpers import (
    pendant_path_host,
    reference_faces,
    reference_gap_table,
    reference_in_two_thread,
    reference_run_counts,
    standard_catalog,
)


TWO_TRIANGLES = (
    "peg 1\nvertices 6\nedges 6\n"
    "e 0 0 1\ne 1 1 2\ne 2 2 0\n"
    "e 3 3 4\ne 4 4 5\ne 5 5 3\n"
    "rot 0 0 5\nrot 1 1 2\nrot 2 3 4\n"
    "rot 3 6 11\nrot 4 7 8\nrot 5 9 10\n"
)

K2_PEG = "peg 1\nvertices 2\nedges 1\ne 0 0 1\nrot 0 0\nrot 1 1\n"


def face_lengths(g):
    return sorted(len(w.darts) for w in g.faces())


class TestFaces:
    def test_triangle_two_faces(self):
        g = generate("cycle", 3)
        assert face_lengths(g) == [3, 3]
        assert g.n - g.m + len(g.faces()) == 2

    def test_c8_two_faces(self):
        g = generate("cycle", 8)
        assert face_lengths(g) == [8, 8]

    def test_k4_four_triangles(self):
        g = generate("k4")
        triples = {frozenset(w.edges) for w in g.faces()}
        assert triples == {
            frozenset({0, 1, 3}),
            frozenset({0, 2, 4}),
            frozenset({1, 2, 5}),
            frozenset({3, 4, 5}),
        }

    def test_single_edge_one_face(self):
        g = EmbeddedGraph.build(2, [(0, 1)], [[0], [1]])
        walks = g.faces()
        assert len(walks) == 1
        assert len(walks[0].darts) == 2

    def test_len_is_the_dart_count(self):
        # FaceWalk is a 4-field tuple; its len must still be the walk's.
        g = generate("theta", 1, 2, 4)
        assert sorted(len(w) for w in g.faces()) == [3, 5, 6]
        assert all(len(w) == len(w.darts) for w in g.faces())

    def test_loop_two_unit_faces(self):
        g = generate("cycle", 1)
        assert face_lengths(g) == [1, 1]
        assert g.degrees[0] == 2  # loop counts twice

    def test_face_walk_base_vertices(self):
        g = generate("cycle", 5)
        for walk in g.faces():
            for i, d in enumerate(walk.darts):
                assert g._tails[d] == walk.vertices[i]

    def test_cached_tables_leave_equality_and_repr_alone(self):
        g, fresh = generate("prism", 4), generate("prism", 4)
        before = repr(g)
        assert g.faces() is g.faces()
        assert g.edge_gap_table(3) is g.edge_gap_table(3)
        g.vertex_gap_table(3), g.face_of_dart[0]
        assert g.two_thread is g.two_thread
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == before


class TestDistance:
    def test_c10_antipodal(self):
        g = generate("cycle", 10)
        assert facial_distance(g, 0, 5) == 5

    def test_adjacent_edges(self):
        g = generate("cycle", 10)
        assert facial_distance(g, 0, 1) == 1

    def test_diagonal_zero(self):
        g = generate("k4")
        assert all(facial_distance(g, e, e) == 0 for e in range(g.m))

    def test_disconnected_pair_infinite(self):
        g = parse_peg(TWO_TRIANGLES)
        assert g.warnings == ("disconnected: 2 components",)  # not fatal
        assert not g.is_connected
        assert g.component_count == 2
        assert facial_distance(g, 0, 3) == math.inf

    def test_neighborhood_excludes_self(self):
        g = generate("cycle", 7)
        nbhd = facial_neighborhood(g, 3, 0)
        assert 0 not in nbhd
        assert nbhd == {1, 2, 3, 4, 5, 6}  # every pair within 3 on C7


class TestPeg:
    def test_roundtrip_catalog(self):
        for name, g in standard_catalog():
            assert parse_peg(serialize_peg(g)) == g, name

    def test_comments_and_blank_lines(self):
        g = generate("cycle", 3)
        text = "# header\n" + serialize_peg(g).replace(
            "peg 1\n", "peg 1\n\n# mid\n"
        )
        assert parse_peg(text) == g

    @pytest.mark.parametrize(
        "text, quoted",
        [
            ("peg 2\nvertices 0\nedges 0\n", "peg 2"),
            # the comment and the outer blanks go, the inner ones stay
            ("# c\n\n  peg   2  # x\nvertices 0\n", "peg   2"),
        ],
        ids=["plain", "stripped"],
    )
    def test_bad_header(self, text, quoted):
        with pytest.raises(PegParseError, match=rf"^expected header 'peg 1', got '{quoted}'$"):
            parse_peg(text)

    def test_missing_rotation(self):
        with pytest.raises(
            PegParseError, match=r"^rotation lines must cover every vertex exactly once$"
        ):
            parse_peg("peg 1\nvertices 1\nedges 0\n")

    def test_dart_out_of_range(self):
        with pytest.raises(PegParseError, match=r"^dart 3 out of range at vertex 1$"):
            parse_peg(
                "peg 1\nvertices 2\nedges 1\ne 0 0 1\nrot 0 0\nrot 1 3\n"
            )

    @pytest.mark.parametrize(
        "line, quoted",
        [("e 0 0 # one end", "'e 0 0'"), ("  e\t0   0  #x", "'e\\t0   0'")],
    )
    def test_malformed_line_quotes_it_without_the_comment(self, line, quoted):
        with pytest.raises(PegParseError, match=f"^malformed line {re.escape(quoted)}$"):
            parse_peg(f"peg 1\nvertices 2\nedges 1\n{line}\nrot 0 0\nrot 1 1\n")

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("edges 1\n", "vertices 2\nedges 1\n", "'vertices' declared twice"),
            ("edges 1\n", "edges 1\nedges 1\n", "'edges' declared twice"),
            ("vertices 2\n", "vertices 2 9\n", "malformed line 'vertices 2 9'"),
            ("edges 1\n", "edges 1 1\n", "malformed line 'edges 1 1'"),
            ("e 0 0 1\n", "e 0 0 1 7\n", "malformed line 'e 0 0 1 7'"),
        ],
        ids=["vertices-twice", "edges-twice", "vertices-field", "edges-field", "e-field"],
    )
    def test_repeated_declaration_or_extra_field_rejected(self, old, new, message):
        assert parse_peg(K2_PEG).m == 1
        with pytest.raises(PegParseError, match=f"^{re.escape(message)}$"):
            parse_peg(K2_PEG.replace(old, new))

    @pytest.mark.parametrize(
        "old, new",
        [
            ("e 0 0 1", "e 0_0 0 1"),
            ("e 0 0 1", "e 0 0 +1"),
            ("e 0 0 1", "e \u0660 0 1"),
            ("vertices 2", "vertices +2"),
            ("rot 1 1", "rot 1 \uff11"),
        ],
        ids=["underscore", "plus", "arabic-indic", "count", "fullwidth-dart"],
    )
    def test_ids_are_ascii_decimal(self, old, new):
        # int() takes each of these tokens; in a comment they are harmless
        with pytest.raises(PegParseError, match=f"^malformed line {re.escape(repr(new))}$"):
            parse_peg(K2_PEG.replace(old, new))
        assert parse_peg(K2_PEG.replace(old, f"{old} # {new}")) == parse_peg(K2_PEG)

    def test_nonplanar_rotation_rejected(self):
        # K4 with two darts swapped at vertex 0 embeds on the torus only
        endpoints = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        rotations = [[4, 2, 0], [1, 8, 6], [7, 10, 3], [5, 11, 9]]
        with pytest.raises(
            EmbeddingError,
            match=r"^rotation system is not a plane embedding: "
            r"component 0 has V-E\+F = 4-6\+2$",
        ):
            EmbeddedGraph.build(4, endpoints, rotations)

    def test_nonplanar_component_is_named_with_its_own_counts(self):
        # a plane triangle, then the torus K4 above on vertices 3..6
        endpoints = [(0, 1), (1, 2), (2, 0), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]
        rotations = [[0, 5], [1, 2], [3, 4], [10, 8, 6], [7, 14, 12], [13, 16, 9], [11, 17, 15]]
        with pytest.raises(
            EmbeddingError,
            match=r"^rotation system is not a plane embedding: "
            r"component 1 has V-E\+F = 4-6\+2$",
        ):
            EmbeddedGraph.build(7, endpoints, rotations)
        # an isolated vertex first: its component counts one empty face
        shifted = [(u - 2, v - 2) for u, v in endpoints[3:]]
        with pytest.raises(
            EmbeddingError,
            match=r"^rotation system is not a plane embedding: "
            r"component 1 has V-E\+F = 4-6\+2$",
        ):
            EmbeddedGraph.build(5, shifted, [[], *([d - 6 for d in r] for r in rotations[3:])])

    def test_isolated_vertices_beside_a_plane_component_build(self):
        # each isolated vertex is a component with one empty face
        g = EmbeddedGraph.build(5, [(1, 2), (2, 3), (3, 1)], [[], [0, 5], [1, 2], [3, 4], []])
        assert (g.component_count, len(g.faces())) == (3, 2)

    @pytest.mark.parametrize(
        "n, endpoints, rotation, message",
        [
            (-1, [], [], "negative vertex count"),
            (2, [], [[]], "expected 2 rotation lists, got 1"),
            (2, [(0, 2)], [[0], [1]], "edge 0 endpoint out of range"),
            (2, [(0, 1)], [[0], [3]], "dart 3 out of range at vertex 1"),
            (2, [(0, 1)], [[0], [2]], "dart 2 out of range at vertex 1"),
            (2, [(0, 1)], [[0], [-1]], "dart -1 out of range at vertex 1"),
            (2, [(0, 1)], [[0, 0], [1]], "dart 0 listed twice"),
            (2, [(0, 1)], [[1], [0]], "dart 1 listed at vertex 0, belongs to 1"),
            (3, [(0, 1), (1, 2)], [[0], [], []], "missing darts [1, 2, 3]"),
            (2, [(0, 1)] * 3, [[0, 2, 4], []], "missing darts [1, 3, 5]"),
            (2, [(0, 1)], [[], [1]], "missing darts [0]"),
            # the checks run dart by dart in rotation order
            (2, [(0, 1)], [[0, 0, 5], [1]], "dart 0 listed twice"),
            (2, [(0, 1)], [[5, 0, 0], [1]], "dart 5 out of range at vertex 0"),
            (2, [(0, 1)], [[1, 1], [0]], "dart 1 listed at vertex 0, belongs to 1"),
            (2, [(0, 1)], [[0, -1], [1]], "dart -1 out of range at vertex 0"),
        ],
    )
    def test_construction_error_messages(self, n, endpoints, rotation, message):
        with pytest.raises(EmbeddingError, match=f"^{re.escape(message)}$"):
            EmbeddedGraph.build(n, endpoints, rotation)
        if len(rotation) == n:
            # parse_peg reports the same text
            text = "".join(
                ["peg 1\n", f"vertices {n}\n", f"edges {len(endpoints)}\n"]
                + [f"e {e} {u} {v}\n" for e, (u, v) in enumerate(endpoints)]
                + [f"rot {v} {' '.join(map(str, r))}\n" for v, r in enumerate(rotation)]
            )
            with pytest.raises(PegParseError, match=f"^{re.escape(message)}$"):
                parse_peg(text)

    @pytest.mark.parametrize(
        "n, endpoints, rotation, message",
        [
            (2.0, [(0, 1)], [[0], [1]], "vertex count 2.0 is not an integer"),
            ("2", [(0, 1)], [[0], [1]], "vertex count '2' is not an integer"),
            (True, [], [[]], "vertex count True is not an integer"),
            (2, [(0, 1.0)], [[0], [1]], "edge 0 endpoint out of range"),
            (2, [(0, "1")], [[0], [1]], "edge 0 endpoint out of range"),
            (2, [(0, True)], [[0], [1]], "edge 0 endpoint out of range"),
            (2, [(0, 1)], [[0], [1.0]], "dart 1.0 out of range at vertex 1"),
            (2, [(0, 1)], [[0], ["1"]], "dart '1' out of range at vertex 1"),
            (2, [(0, 1)], [[0], [True]], "dart True out of range at vertex 1"),
            (2, [(0, 1.9)], [[0], [1.2]], "edge 0 endpoint out of range"),
        ],
        ids=[
            "n-float", "n-str", "n-bool", "endpoint-float", "endpoint-str",
            "endpoint-bool", "dart-float", "dart-str", "dart-bool", "fractional",
        ],
    )
    def test_non_int_ids_refused_not_coerced(self, n, endpoints, rotation, message):
        with pytest.raises(EmbeddingError, match=f"^{re.escape(message)}$"):
            EmbeddedGraph.build(n, endpoints, rotation)

    @pytest.mark.parametrize(
        "endpoints, rotation, message",
        [
            ([(0, 1, 1)], [[0], [1]], "edge 0 has 3 endpoints, not 2"),
            ([(0, 1)], [0, [1]], "rotation of vertex 0 is 0, not a sequence"),
            ([(0, 1), (1,)], [[0, 2], [1, 3]], "edge 1 has 1 endpoints, not 2"),
            ([(0, 1), 1], [[0], [1]], "edge 1 is 1, not a sequence"),
            ([(0, 1)], None, "endpoints and rotation must be sequences of sequences"),
        ],
        ids=["three-ends", "int-rotation", "one-end", "int-edge", "no-rotation"],
    )
    def test_malformed_shape_refused(self, endpoints, rotation, message):
        with pytest.raises(EmbeddingError, match=f"^{re.escape(message)}$"):
            EmbeddedGraph.build(2, endpoints, rotation)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: facial_distance(g, 0, g.m), "edge id 6 out of range"),
        (lambda g: facial_distance(g, g.m, 0), "edge id 6 out of range"),
        (lambda g: delete_edge(g, g.m), "edge id 6 out of range"),
        (lambda g: delete_vertex(g, g.n), "vertex id 4 out of range"),
        (lambda g: contract_face(g, len(g.faces())), "face id 4 out of range"),
        (lambda g: identify_edges(g, 0, 5, len(g.faces())), "face id 4 out of range"),
        # face_walk indexes a list, so a negative face must be refused first
        (lambda g: contract_face(g, -1), "face id -1 out of range"),
        (lambda g: identify_edges(g, 0, 5, -1), "face id -1 out of range"),
    ],
    ids=[
        "distance-f", "distance-e", "delete-edge", "delete-vertex",
        "contract-face", "identify-face", "contract-face-negative", "identify-face-negative",
    ],
)
def test_id_at_the_end_of_its_range_refused(call, message):
    with pytest.raises(EmbeddingError, match=f"^{message}$"):
        call(generate("k4"))


class TestSurgery:
    def test_subdivide_triangle(self):
        res = subdivide_edge(generate("cycle", 3), 0)
        assert (res.graph.n, res.graph.m) == (4, 4)
        assert face_lengths(res.graph) == [4, 4]
        assert res.edge_map == (0, 1, 2)

    def test_contract_k4_edge(self):
        res = contract_edge(generate("k4"), 0)
        assert (res.graph.n, res.graph.m) == (3, 5)
        assert face_lengths(res.graph) == [2, 2, 3, 3]

    def test_contract_loop_refused(self):
        g = generate("cycle", 1)
        with pytest.raises(SurgeryError):
            contract_edge(g, 0)

    def test_contract_face_refuses_non_simple_walks(self):
        k2 = EmbeddedGraph.build(2, [(0, 1)], [[0], [1]])
        with pytest.raises(SurgeryError, match="walk repeats an edge"):
            contract_face(k2, 0)
        # two triangles meeting at vertex 0: the outer walk passes it twice
        bowtie = EmbeddedGraph.build(
            5,
            [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],
            [[0, 5, 6, 11], [1, 2], [3, 4], [7, 8], [9, 10]],
        )
        outer = next(w.index for w in bowtie.faces() if len(w) == 6)
        with pytest.raises(SurgeryError, match="walk repeats a vertex"):
            contract_face(bowtie, outer)

    def test_contract_inner_face_prism5(self):
        g = generate("prism", 5)
        inner = next(
            w.index for w in g.faces() if set(w.edges) == set(range(5, 10))
        )
        res = contract_face(g, inner)
        assert (res.graph.n, res.graph.m) == (6, 10)
        assert face_lengths(res.graph) == [3, 3, 3, 3, 3, 5]

    def test_identify_c6_dumbbell(self):
        # gluing opposite edges of a hexagon leaves two digons and a
        # length-6 outer walk through the merged bridge
        g = generate("cycle", 6)
        res = identify_edges(g, 0, 3, 0)
        assert (res.graph.n, res.graph.m) == (4, 5)
        assert face_lengths(res.graph) == [2, 2, 6]
        assert res.edge_map[3] == res.edge_map[0]

    def test_identify_prism8_ring(self):
        g = generate("prism", 8)
        ring = next(
            w.index for w in g.faces() if set(w.edges) == set(range(8, 16))
        )
        res = identify_edges(g, 8, 12, ring)
        assert (res.graph.n, res.graph.m) == (14, 23)
        assert face_lengths(res.graph) == [3, 3] + [4] * 8 + [8]
        assert res.graph.n - res.graph.m + len(res.graph.faces()) == 2

    def test_identify_needs_disjoint_edges(self):
        g = generate("cycle", 6)
        with pytest.raises(SurgeryError):
            identify_edges(g, 0, 1, 0)  # adjacent edges share a vertex

    @pytest.mark.parametrize("seed", range(12))
    def test_identify_faces_follow_the_docstring(self, seed):
        # With the walk read as e, P1, f, P2, the result's faces are every
        # other face with twin(a_f) replaced by a_e, plus P1 and P2, as
        # cyclic dart sequences through edge_map.  Every ordered pair of
        # positions on every face is tried; a pair that breaks a
        # precondition must raise.
        g = random_plane_graph(seed, max_ops=12)

        def cyclic(darts):
            i = darts.index(min(darts))
            return tuple(darts[i:] + darts[:i])

        glued = 0
        for walk in g.faces():
            k = len(walk)
            for i, j in itertools.product(range(k), repeat=2):
                e, f = walk.edges[i], walk.edges[j]
                ends = {walk.vertices[i], walk.vertices[(i + 1) % k]}
                ends |= {walk.vertices[j], walk.vertices[(j + 1) % k]}
                if walk.edges.count(e) != 1 or walk.edges.count(f) != 1 or len(ends) != 4:
                    with pytest.raises(SurgeryError):
                        identify_edges(g, e, f, walk.index)
                    continue
                res = identify_edges(g, e, f, walk.index)
                a_e, t_f = walk.darts[i], walk.darts[j] ^ 1
                p1 = [walk.darts[(i + t) % k] for t in range(1, (j - i) % k)]
                p2 = [walk.darts[(j + t) % k] for t in range(1, (i - j) % k)]
                expected = [
                    [a_e if d == t_f else d for d in other.darts]
                    for other in g.faces()
                    if other.index != walk.index
                ] + [p1, p2]
                emap = res.edge_map
                assert emap[f] == emap[e]
                assert (res.graph.n, res.graph.m) == (g.n - 2, g.m - 1)
                assert sorted(
                    cyclic([2 * emap[d >> 1] + (d & 1) for d in darts])
                    for darts in expected
                ) == sorted(cyclic(list(w.darts)) for w in res.graph.faces())
                glued += 1
        assert glued

    def test_isolated_vertices_survive(self):
        # survivors are read off the new rotations, empty ones included
        k2 = EmbeddedGraph.build(2, [(0, 1)], [[0], [1]])
        res = delete_edge(k2, 0)
        assert (res.graph.n, res.graph.rotation, res.edge_map) == (2, ((), ()), (None,))
        c6 = generate("cycle", 6)
        g = EmbeddedGraph.build(7, c6.endpoints, [*c6.rotation, []])
        res = identify_edges(g, 0, 3, 0)
        assert (res.graph.n, res.graph.m) == (5, 5)
        assert res.graph.rotation[4] == ()
        assert res.graph.warnings == ("disconnected: 2 components",)


class TestWarnings:
    def test_connected_graph_has_none(self, catalog):
        assert all(g.warnings == () for g in catalog.values())

    def test_delete_cut_vertex(self):
        path = EmbeddedGraph.build(3, [(0, 1), (1, 2)], [[0], [1, 2], [3]])
        res = delete_vertex(path, 1)
        assert res.graph.warnings == ("disconnected: 2 components",)

    def test_subdivide_disconnected(self):
        g = parse_peg(TWO_TRIANGLES)
        assert subdivide_edge(g, 0).graph.warnings == ("disconnected: 2 components",)

    def test_medial_of_disconnected(self):
        m = medial(parse_peg(TWO_TRIANGLES))
        assert m.warnings == ("disconnected: 2 components",)

    def test_parse_builds_once(self, monkeypatch):
        calls = []
        build = EmbeddedGraph.build

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(EmbeddedGraph, "build", staticmethod(counted))
        g = parse_peg(TWO_TRIANGLES)
        assert g.warnings == ("disconnected: 2 components",)
        assert len(calls) == 1


def test_medial_of_k4_is_octahedron():
    m = medial(generate("k4"))
    assert (m.n, m.m) == (6, 12)
    assert all(m.degrees[v] == 4 for v in range(m.n))
    assert face_lengths(m) == [3] * 8


def test_medial_is_four_regular_on_catalog(catalog):
    for name, g in catalog.items():
        if g.m == 0:
            continue
        m = medial(g)
        assert m.m == 2 * g.m, name
        assert all(m.degrees[v] == 4 for v in range(m.n)), name
        assert m.n - m.m + len(m.faces()) == 2, name


def test_catalog_shape(catalog):
    assert len(catalog) == 39
    for name, g in catalog.items():
        assert g.n - g.m + len(g.faces()) == 2, name
        assert g.is_connected, name


def surgery_results(g):
    """The graph of every surgery on ``g`` that its preconditions allow:
    per edge delete, subdivide and contract (not a loop), per vertex
    delete, and per face contract and identify its first edge with each
    edge two or more steps on."""
    out = []
    for e in range(g.m):
        out += [delete_edge(g, e).graph, subdivide_edge(g, e).graph]
        if g.endpoints[e][0] != g.endpoints[e][1]:
            out.append(contract_edge(g, e).graph)
    out += [delete_vertex(g, v).graph for v in range(g.n)]
    for walk in g.faces():
        calls = [(contract_face, walk.index)]
        calls += [(identify_edges, walk.edges[0], f, walk.index) for f in walk.edges[2:]]
        for surgery, *args in calls:
            try:
                out.append(surgery(g, *args).graph)
            except SurgeryError:
                pass
    return out


def assert_faces_match_reference(g, label):
    ref = reference_faces(g)
    # copies made without build compute sigma, the face labels and the
    # walks on first use instead; the first builds its walks before
    # anything else is read, the last walks each face alone and never
    # builds faces()
    copies = [EmbeddedGraph(g.n, g.endpoints, g.rotation) for _ in range(3)]
    copies[0].faces()
    for h in (g, *copies[:2]):
        assert h.sigma == ref["sigma"], label
        assert h.face_of_dart == ref["face_of_dart"], label
        walks = [(w.index, w.darts, w.edges, w.vertices) for w in h.faces()]
        assert walks == ref["walks"], label
    alone = [copies[2].face_walk(f) for f in range(len(ref["walks"]))]
    assert alone == list(g.faces()), label
    assert "_faces" not in vars(copies[2]), label


def odd_hosts():
    """Walks that repeat an edge or a vertex and graphs of several
    components: a bridge path, a lone loop, a loop beside a pendant
    edge, two isolated vertices beside a triangle, two triangles, and
    an edgeless graph."""
    yield "pendant-path", pendant_path_host()
    yield "loop", generate("cycle", 1)
    yield "loop-and-pendant", EmbeddedGraph.build(2, [(0, 1), (1, 1)], [[0], [1, 2, 3]])
    yield "isolated", EmbeddedGraph.build(
        5, [(1, 2), (2, 3), (3, 1)], [[], [0, 5], [1, 2], [3, 4], []]
    )
    yield "two-triangles", EmbeddedGraph.build(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
        [[0, 5], [1, 2], [3, 4], [6, 11], [7, 8], [9, 10]],
    )
    yield "edgeless", EmbeddedGraph.build(3, [], [[], [], []])


@pytest.mark.parametrize(
    "hosts", ["catalog", "prisms", "odd", *(f"random-{s}" for s in range(0, 100, 10))]
)
def test_faces_match_reference(hosts, catalog):
    if hosts == "catalog":
        graphs = list(catalog.items())
    elif hosts == "prisms":
        graphs = [(f"prism-{n}", generate("prism", n)) for n in range(3, 13)]
    elif hosts == "odd":
        graphs = list(odd_hosts())
    else:
        first = int(hosts.split("-")[1])
        graphs = [(f"random-{s}", random_plane_graph(s)) for s in range(first, first + 10)]
    surgeries = 0
    for name, g in graphs:
        assert_faces_match_reference(g, name)
        for i, h in enumerate(surgery_results(g)):
            assert_faces_match_reference(h, (name, i))
            surgeries += 1
    assert surgeries > 10 * len(graphs)


def test_face_profile_run_counts():
    g = generate("theta", 2, 3, 4)
    for p in face_profiles(g):
        # s1/s2 only count runs of length exactly 1 and 2
        assert p.s1 + 2 * p.s2 <= max(p.n2, 0) + 2


def gap_hosts():
    """Random graphs, prisms whose rings are far longer than 2*ell+1, the
    standard catalog (cycles 3..14 put a face at every length around
    2*ell+1, where the two ranges of the bounded walk meet), the
    reduction hosts, and walks that repeat an edge: a bridge path, a
    lone loop and a loop beside a pendant edge."""
    for seed in range(150):
        yield random_plane_graph(seed)
    for n in range(3, 51):
        yield generate("prism", n)
    for _, g in standard_catalog():
        yield g
    for config in reduction_catalog():
        yield config.host
    yield pendant_path_host()
    yield generate("cycle", 1)
    yield EmbeddedGraph.build(2, [(0, 1), (1, 1)], [[0], [1, 2, 3]])


def test_gap_tables_and_distance_match_reference():
    for g in gap_hosts():
        half = max(len(walk) for walk in g.faces()) // 2
        ref = {key: reference_gap_table(g, key) for key in ("edges", "vertices")}
        for key, table in (("edges", g.edge_gap_table), ("vertices", g.vertex_gap_table)):
            # ell at or above every half face length keeps the whole table
            for ell in (1, 2, 3, 4, max(half, 1)):
                want = {p: wit for p, wit in ref[key].items() if wit[0] <= ell}
                assert table(ell) == want
        full = ref["edges"]
        for e in range(g.m):
            for f in range(g.m):
                hit = full.get((min(e, f), max(e, f)))
                want = 0 if e == f else math.inf if hit is None else hit[0]
                assert facial_distance(g, e, f) == want


@pytest.mark.parametrize("key", ["edge_gap_table", "vertex_gap_table"])
@pytest.mark.parametrize("ell", [0, -1])
def test_gap_table_ell_below_one_rejected(key, ell):
    with pytest.raises(ValueError, match="ell must be >= 1"):
        getattr(generate("prism", 4), key)(ell)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="^unknown family 'wheel'$"):
        generate("wheel", 5)


def test_neighborhood_ell_zero_rejected():
    with pytest.raises(ValueError, match="ell must be >= 1"):
        facial_neighborhood(generate("prism", 4), 0, 0)


def test_distance_builds_no_gap_table():
    g = random_plane_graph(3, max_ops=40)
    for e in range(g.m):
        for f in range(g.m):
            facial_distance(g, e, f)
    g.edge_gap_table(2), g.vertex_gap_table(3)
    assert sorted(g._gap_tables) == [("edges", 2), ("vertices", 3)]


def test_face_profiles_cached_and_runs_match_reference():
    hosts = [g for _, g in standard_catalog()] + [pendant_path_host()]
    hosts += [generate("cycle", 1), generate("cycle", 2)]
    hosts += [random_plane_graph(seed) for seed in range(60)]
    for g in hosts:
        assert face_profiles(g) is face_profiles(g)
        assert len(face_profiles(g)) == len(g.faces())
        for walk, p in zip(g.faces(), face_profiles(g)):
            two = [g.degrees[x] == 2 for x in walk.vertices]
            assert p.length == len(walk)
            assert (p.s1, p.s2) == reference_run_counts(two)


@pytest.mark.parametrize(
    "n, profile",
    [(1, FaceProfile(1, 1, 1, 0)), (2, FaceProfile(2, 2, 0, 1)), (5, FaceProfile(5, 5, 0, 0))],
    ids=["loop", "C2", "C5"],
)
def test_walk_of_two_vertices_only_is_one_run(n, profile):
    # A loop at a 2-vertex, a 2-cycle and a 5-cycle: both walks hold
    # 2-vertices only, so each is one run of its full length, counted by
    # s1 at length 1, by s2 at length 2 and by neither beyond.
    g = generate("cycle", n)
    assert face_profiles(g) == (profile, profile)
    for walk in g.faces():
        two = [g.degrees[x] == 2 for x in walk.vertices]
        assert (profile.s1, profile.s2) == reference_run_counts(two)


def test_two_thread_flags_match_reference():
    # Subdivided prisms put 2-vertices alone and in threads of 2 and 3;
    # cycle 1 is a loop (its one neighbor is itself), cycle 2 a digon.
    rng = random.Random(11)
    hosts = [g for _, g in standard_catalog()] + [pendant_path_host()]
    hosts += [generate("cycle", k) for k in (1, 2, 3)]
    hosts += [random_plane_graph(seed) for seed in range(60)]
    for i in range(60):
        g = generate("prism", 3 + i % 5)
        for _ in range(rng.randrange(1, 8)):
            g = subdivide_edge(g, rng.randrange(g.m)).graph
        hosts.append(g)
    seen = set()
    for g in hosts:
        want = tuple(reference_in_two_thread(g, v) for v in range(g.n))
        assert g.two_thread == want
        seen.update(want)
    assert seen == {True, False}


@settings(max_examples=60)
@given(seed=st.integers(0, 10_000))
def test_random_plane_graph_invariants(seed):
    g = random_plane_graph(seed)
    assert g.is_connected
    assert g.n - g.m + len(g.faces()) == 2
    assert all(g.degrees[v] >= 2 for v in range(g.n))
    assert parse_peg(serialize_peg(g)) == g


@settings(max_examples=80)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_facial_distance_symmetric(seed, data):
    g = random_plane_graph(seed)
    e = data.draw(st.integers(0, g.m - 1))
    f = data.draw(st.integers(0, g.m - 1))
    assert facial_distance(g, e, f) == facial_distance(g, f, e)
    if e == f:
        assert facial_distance(g, e, f) == 0
    else:
        assert facial_distance(g, e, f) >= 1


@settings(max_examples=40)
@given(seed=st.integers(0, 5_000), ell=st.integers(1, 4), data=st.data())
def test_neighborhood_matches_distance(seed, ell, data):
    g = random_plane_graph(seed)
    e = data.draw(st.integers(0, g.m - 1))
    nbhd = facial_neighborhood(g, ell, e)
    for f in range(g.m):
        d = facial_distance(g, e, f)
        assert (f in nbhd) == (f != e and d <= ell)
