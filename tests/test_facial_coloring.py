"""Conflict graphs, verification, and the exact chromatic solver."""

import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from facet import facial_coloring
from facet.choosability import SearchBudgetError
from facet.embedding import (
    EmbeddedGraph,
    facial_distance,
    generate,
    parse_peg,
    random_plane_graph,
    serialize_peg,
)
from facet.facial_coloring import (
    ColoringError,
    Violation,
    chromatic_index,
    conflict_graph,
    parse_coloring,
    serialize_coloring,
    verify,
    verify_vertex,
)
from facet.facial_coloring import (
    _conflict_masks,
    _degree_order,
    _face_clique,
    _first_fit,
    _greedy_clique,
)
from facet.reducibility import catalog as reduction_catalog

from helpers import (
    brute_chromatic,
    pendant_path_host,
    reference_chromatic_index,
    reference_gap_table,
    reference_parse_coloring,
    reference_verify,
    reference_verify_vertex,
    standard_catalog,
)


def _random_graphs_up_to_24_edges(count=300):
    """The first ``count`` seeded random plane graphs with at most 24 edges."""
    out = []
    seed = 0
    while len(out) < count:
        g = random_plane_graph(seed, max_ops=9)
        if g.m <= 24:
            out.append((seed, g))
        seed += 1
    return out


class TestConflictGraph:
    def test_cycle_adjacency_matches_distance(self, catalog):
        g = catalog["cycle-8"]
        cg = conflict_graph(g, 3)
        for e in range(g.m):
            expect = {
                f for f in range(g.m) if f != e and facial_distance(g, e, f) <= 3
            }
            assert set(cg.adjacency[e]) == expect

    def test_ell_zero_rejected(self, catalog):
        with pytest.raises(ValueError):
            conflict_graph(catalog["cycle-3"], 0)


class TestVerify:
    def test_c7_shift_coloring_violations(self, catalog):
        g = catalog["cycle-7"]
        coloring = {e: e % 4 + 1 for e in range(7)}
        v = verify(g, 3, coloring)
        assert not v.ok
        got = [(w.e, w.f, w.color, w.face, w.gap) for w in v.violations]
        assert got == [(0, 4, 1, 0, 3), (1, 5, 2, 0, 3), (2, 6, 3, 0, 3)]

    def test_id_at_the_end_of_its_range_rejected(self, catalog):
        g = catalog["cycle-7"]
        for check, kind, count in ((verify, "edge", g.m), (verify_vertex, "vertex", g.n)):
            with pytest.raises(ColoringError, match=f"^{kind} id {count} out of range$"):
                check(g, 3, {count: 1}, require_total=False)

    def test_bool_ids_and_colors_rejected(self, catalog):
        # bool is an int subclass: True must not pass as id 1 or color 1
        g = catalog["cycle-7"]
        for check, kind in ((verify, "edge"), (verify_vertex, "vertex")):
            with pytest.raises(ColoringError, match=f"^{kind} id True out of range$"):
                check(g, 3, {True: 1, 2: 1}, require_total=False)
            with pytest.raises(ColoringError, match=f"^color True on {kind} 0 not"):
                check(g, 3, {0: True, 1: 1}, require_total=False)

    def test_require_total_reports_missing(self, catalog):
        g = catalog["cycle-7"]
        v = verify(g, 3, {0: 1, 3: 2})
        assert not v.ok
        assert v.missing == (1, 2, 4, 5, 6)
        assert v.violations == ()
        assert verify(g, 3, {0: 1, 3: 2}, require_total=False).ok

    def test_vertex_ell_zero_rejected(self, catalog):
        # ell = 0 would leave no close pair, so any coloring would pass
        with pytest.raises(ValueError, match="ell must be >= 1"):
            verify_vertex(catalog["cycle-5"], 0, dict.fromkeys(range(5), 1))

    def test_proper_total_coloring_accepted(self, catalog):
        g = catalog["cycle-7"]
        v = verify(g, 3, {e: e + 1 for e in range(7)})
        assert v.ok and v.violations == () and v.missing == ()

    def test_violations_are_every_close_same_color_pair_in_pair_order(self, catalog):
        rng = random.Random(5)
        for name, g in catalog.items():
            for ell in (1, 2, 3):
                coloring = {e: rng.randint(1, 3) for e in range(g.m)}
                got = [(w.e, w.f, w.gap) for w in verify(g, ell, coloring).violations]
                want = [
                    (a, b, facial_distance(g, a, b))
                    for a in range(g.m)
                    for b in range(a + 1, g.m)
                    if facial_distance(g, a, b) <= ell and coloring[a] == coloring[b]
                ]
                assert got == want, (name, ell)
                vcol = {v: rng.randint(1, 3) for v in range(g.n)}
                pairs = [(w.e, w.f) for w in verify_vertex(g, ell, vcol).violations]
                assert pairs == sorted(
                    key
                    for key, (gap, _) in reference_gap_table(g, "vertices").items()
                    if gap <= ell and vcol[key[0]] == vcol[key[1]]
                ), (name, ell)

    def test_planted_clashes_keep_pair_order_and_witnesses(self):
        # Long faces, where the bounded walk skips most positions: every
        # violation keeps the full gap table's witness, in pair order.
        rng = random.Random(11)
        hosts = [generate("prism", n) for n in (9, 17, 30)]
        hosts += [random_plane_graph(seed, max_ops=70) for seed in (5, 34)]
        for g in hosts:
            full = sorted(reference_gap_table(g, "edges").items())
            coloring = {e: e + 1 for e in range(g.m)}
            for (a, b), _ in rng.sample([it for it in full if it[1][0] <= 3], 6):
                coloring[b] = coloring[a]
            want = tuple(
                Violation(a, b, coloring[a], face, gap)
                for (a, b), (gap, face) in full
                if gap <= 3 and coloring[a] == coloring[b]
            )
            assert len(want) >= 2
            assert verify(g, 3, coloring).violations == want

    def test_bad_edge_id_rejected(self, catalog):
        with pytest.raises(ColoringError):
            verify(catalog["cycle-3"], 3, {9: 1})

    def test_nonpositive_color_rejected(self, catalog):
        with pytest.raises(ColoringError):
            verify(catalog["cycle-3"], 3, {0: 0})

    def test_noninteger_color_rejected(self, catalog):
        with pytest.raises(ColoringError):
            verify(catalog["cycle-3"], 3, {0: "red"})


def _oracle_hosts():
    """The standard catalog, the reduction hosts, seeded random graphs
    (two with faces far longer than 2*ell+1), and walks that repeat an
    edge or a vertex: a bridge path, a lone loop and a loop beside a
    pendant edge; last, isolated vertices, which no walk visits, beside a
    triangle."""
    hosts = [g for _, g in standard_catalog()]
    hosts += [config.host for config in reduction_catalog()]
    hosts += [random_plane_graph(seed) for seed in range(30)]
    hosts += [random_plane_graph(seed, max_ops=30) for seed in (5, 34)]
    hosts.append(pendant_path_host())
    hosts.append(generate("cycle", 1))
    hosts.append(EmbeddedGraph.build(2, [(0, 1), (1, 1)], [[0], [1, 2, 3]]))
    hosts.append(EmbeddedGraph.build(5, [(1, 2), (2, 3), (3, 1)], [[], [0, 5], [1, 2], [3, 4], []]))
    return hosts


def _oracle_colorings(rng, count, pairs):
    """Colorings of ids ``0..count-1``: 1-4 random colors, all distinct,
    one clash planted on a pair of ``pairs`` (any gap), and a random
    partial coloring."""
    out = [{x: rng.randint(1, k) for x in range(count)} for k in (1, 2, 3, 4)]
    out.append({x: x + 1 for x in range(count)})
    planted = {x: x + 1 for x in range(count)}
    if pairs:
        a, b = rng.choice(pairs)
        planted[b] = planted[a]
    out.append(planted)
    out.append({x: rng.randint(1, 3) for x in range(count) if rng.random() < 0.6})
    return out


class TestVerifyAgainstOracle:
    """``verify`` and ``verify_vertex`` scan only the walks that repeat a
    color; the oracles judge the same coloring on the full gap table."""

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_verdict_equals_full_table_verdict(self, ell):
        rng = random.Random(2500 + ell)
        for g in _oracle_hosts():
            for check, ref, key, count in (
                (verify, reference_verify, "edges", g.m),
                (verify_vertex, reference_verify_vertex, "vertices", g.n),
            ):
                pairs = sorted(reference_gap_table(g, key))
                for coloring in _oracle_colorings(rng, count, pairs):
                    for total in (True, False):
                        got = check(g, ell, coloring, require_total=total)
                        assert got == ref(g, ell, coloring, require_total=total), (
                            key, g.n, g.m, ell, coloring, total,
                        )

    def test_equal_gap_on_two_faces_names_the_first(self, catalog):
        # (a, b) lies at its least gap on two walks: the witness is the
        # first of them in face order, as in the full table
        ties = 0
        for name in ("cycle-7", "theta-2-2-3", "theta-1-3-4", "prism-4", "k4"):
            g = catalog[name]
            for (a, b), (gap, face) in reference_gap_table(g, "edges").items():
                at = [
                    w.index
                    for w in g.faces()
                    if a in w.edges and b in w.edges
                    and min(_walk_gaps(w.edges, a, b)) == gap
                ]
                if gap > 3 or len(at) < 2:
                    continue
                ties += 1
                coloring = {e: e + 1 for e in range(g.m)}
                coloring[b] = coloring[a]
                want = (Violation(a, b, coloring[a], at[0], gap),)
                assert face == at[0]
                assert verify(g, 3, coloring).violations == want
                assert verify(g, 3, coloring) == reference_verify(g, 3, coloring)
        assert ties >= 10

    def test_only_walks_that_repeat_a_color_are_scanned(self, catalog, monkeypatch):
        scanned = []

        def spy(walks, key, ell):
            scanned.append(sorted(w.index for w in walks))
            return real(walks, key, ell)

        real = facial_coloring._close_pairs
        monkeypatch.setattr(facial_coloring, "_close_pairs", spy)
        g = catalog["prism-5"]
        assert verify(g, 3, {e: e + 1 for e in range(g.m)}).ok
        assert verify_vertex(g, 3, {v: v + 1 for v in range(g.n)}).ok
        assert scanned == [[], []]
        for walk in g.faces():
            a, b = walk.edges[0], walk.edges[2]
            coloring = {e: e + 1 for e in range(g.m)}
            coloring[b] = coloring[a]
            verify(g, 3, coloring)
            assert scanned[-1] == [
                w.index for w in g.faces() if a in w.edges and b in w.edges
            ]
        # The outer walk of a host with bridges repeats edges and vertices
        # but no color, so an all-distinct coloring scans no walk; a clash
        # keeps only the walks through the clashing ids that repeat a color.
        g = pendant_path_host()
        del scanned[:]
        assert verify(g, 3, {e: e + 1 for e in range(g.m)}).ok
        assert verify_vertex(g, 3, {v: v + 1 for v in range(g.n)}).ok
        assert scanned == [[], []]
        for a, b in ((0, 3), (4, 5), (0, 1)):
            coloring = {e: e + 1 for e in range(g.m)}
            coloring[b] = coloring[a]
            verify(g, 3, coloring)
            assert scanned[-1] == [
                w.index for w in g.faces()
                if {a, b} & set(w.edges) and len(set(map(coloring.get, w.edges))) < len(w)
            ]

    def test_all_distinct_coloring_builds_no_walk(self):
        # the face labels validate the graph; verify reads no walk, and a
        # clash walks only its candidate faces, never the full faces()
        for g in (parse_peg(serialize_peg(generate("prism", 9))), pendant_path_host()):
            assert verify(g, 3, {e: e + 1 for e in range(g.m)}).ok
            assert verify_vertex(g, 3, {v: v + 1 for v in range(g.n)}).ok
            assert "_faces" not in vars(g)
            assert not verify(g, 3, {e: 1 for e in range(g.m)}).ok
            assert not verify_vertex(g, 3, {v: 1 for v in range(g.n)}).ok
            assert "_faces" not in vars(g)

    def test_ell_zero_rejected_when_no_walk_repeats_a_color(self, catalog):
        g = catalog["prism-5"]
        for check, count in ((verify, g.m), (verify_vertex, g.n)):
            for coloring in ({x: x + 1 for x in range(count)}, {}):
                with pytest.raises(ValueError, match="^ell must be >= 1$"):
                    check(g, 0, coloring)


def _walk_gaps(seq, a, b):
    """Cyclic gaps between the occurrences of ``a`` and ``b`` in ``seq``."""
    k = len(seq)
    return [
        min(abs(i - j), k - abs(i - j))
        for i, x in enumerate(seq)
        if x == a
        for j, y in enumerate(seq)
        if y == b
    ]


class TestChromaticIndex:
    def test_c7_needs_seven(self, catalog):
        chi, witness = chromatic_index(catalog["cycle-7"], 3)
        assert chi == 7
        assert len(set(witness.values())) == 7

    def test_c8_needs_four(self, catalog):
        chi, witness = chromatic_index(catalog["cycle-8"], 3)
        assert chi == 4
        assert verify(catalog["cycle-8"], 3, witness).ok

    def test_witness_is_proper_and_tight(self, catalog):
        for name in ["k4", "theta-1-2-2", "cycle-10"]:
            g = catalog[name]
            chi, witness = chromatic_index(g, 3)
            assert verify(g, 3, witness).ok
            assert len(set(witness.values())) == chi
            assert set(witness) == set(range(g.m))

    def test_matches_brute_force_on_small_graphs(self, catalog):
        small = [n for n, g in catalog.items() if g.m <= 12]
        assert len(small) >= 15
        for name in small:
            g = catalog[name]
            for ell in (1, 2, 3):
                cg = conflict_graph(g, ell)
                expect = brute_chromatic(cg.adjacency)
                got, _ = chromatic_index(g, ell)
                assert got == expect, (name, ell)

    def test_budget_gate(self, catalog):
        with pytest.raises(SearchBudgetError, match="conflict graph has 7 nodes"):
            chromatic_index(catalog["cycle-7"], 3, max_nodes=5)
        # exactly at the budget the solver runs
        assert chromatic_index(catalog["cycle-7"], 3, max_nodes=7)[0] == 7

    @staticmethod
    def _assert_matches_reference(label, g, ell, *cap):
        # chi is pinned by the oracle; the witness is any optimal coloring
        chi, witness = chromatic_index(g, ell)
        assert chi == reference_chromatic_index(g, ell, *cap)[0], (label, ell)
        assert verify(g, ell, witness).ok, (label, ell)
        assert set(witness) == set(range(g.m)), (label, ell)
        assert len(set(witness.values())) == chi, (label, ell)

    def test_matches_reference_solver_on_catalog(self, catalog):
        for name, g in catalog.items():
            for ell in (1, 2, 3):
                self._assert_matches_reference(name, g, ell, 3 * ell + 1)

    def test_matches_reference_solver_on_random_graphs(self):
        graphs = _random_graphs_up_to_24_edges()
        assert len(graphs) == 300
        for seed, g in graphs:
            self._assert_matches_reference(seed, g, 1 + seed % 3)

    def test_face_clique_is_a_clique_below_chi(self, catalog):
        graphs = list(catalog.items()) + _random_graphs_up_to_24_edges(60)
        for name, g in graphs:
            for ell in (1, 2, 3):
                clique = _face_clique(g, ell)
                cg = conflict_graph(g, ell)
                assert all(f in cg.adjacency[e] for e in clique for f in clique - {e})
                assert len(clique) <= chromatic_index(g, ell)[0], (name, ell)

    def test_face_clique_reads_whole_short_walks_and_windows_of_long_ones(self, catalog):
        assert len(_face_clique(catalog["cycle-7"], 3)) == 7
        assert len(_face_clique(catalog["cycle-8"], 3)) == 4
        assert len(_face_clique(catalog["cycle-8"], 1)) == 2

    @pytest.mark.parametrize("seed", [0, 9, 16, 21, 35])
    def test_seeds_the_clique_bound_missed_solve_fast(self, seed):
        # On seeds 9, 16 and 35 the greedy clique gives 4 where chi is 7;
        # only the face bound lets the search stop at its first 7-coloring.
        # On seeds 0 and 21 both bounds give 7 but first fit needs 8, so
        # the search itself has to find the 7-coloring.
        g = random_plane_graph(seed, max_ops=18)
        start = time.monotonic()
        chi, witness = chromatic_index(g, 3)
        elapsed = time.monotonic() - start
        assert chi == 7 and verify(g, 3, witness).ok
        assert elapsed < 2.0, (seed, elapsed)


class TestSearchSeeds:
    """The node order, first-fit incumbent and greedy clique that
    :func:`chromatic_index` starts its search from."""

    @pytest.mark.parametrize("name", ["cycle-7", "k4", "theta-2-3-4", "prism-4"])
    @pytest.mark.parametrize("policy", ["degree", "id"])
    def test_first_fit_is_proper(self, catalog, name, policy):
        g = catalog[name]
        masks = _conflict_masks(g, 3)
        order = _degree_order(masks) if policy == "degree" else list(range(g.m))
        coloring = _first_fit(masks, order)
        assert sorted(coloring) == list(range(g.m))
        assert min(coloring.values()) == 0
        assert verify(g, 3, {e: c + 1 for e, c in coloring.items()}).ok

    def test_first_fit_follows_the_order(self, catalog):
        # every pair of cycle-7's edges conflicts at ell = 3
        masks = _conflict_masks(catalog["cycle-7"], 3)
        order = [6, 2, 0, 5, 1, 4, 3]
        assert _first_fit(masks, order) == {e: i for i, e in enumerate(order)}

    def test_degree_order_is_degree_descending_then_id(self, catalog):
        for name, g in catalog.items():
            masks = _conflict_masks(g, 2)
            order = _degree_order(masks)
            assert sorted(order) == list(range(g.m)), name
            keys = [(-masks[e].bit_count(), e) for e in order]
            assert keys == sorted(keys), name

    @pytest.mark.parametrize("name", ["cycle-7", "k4", "theta-2-3-4", "prism-4"])
    def test_greedy_clique_is_a_clique_below_chi(self, catalog, name):
        g = catalog[name]
        for ell in (1, 2, 3):
            masks = _conflict_masks(g, ell)
            clique = _greedy_clique(masks, _degree_order(masks))
            members = [e for e in range(g.m) if clique >> e & 1]
            assert members, (name, ell)
            assert all(masks[e] >> f & 1 for e in members for f in members if e != f)
            assert len(members) <= chromatic_index(g, ell)[0], (name, ell)


class TestBoundIsTight:
    """theta(ell, ell, ell+1), two vertices joined by paths of ell, ell
    and ell+1 edges, needs all 3*ell+1 colors."""

    def test_theta_conflict_graph_is_complete(self):
        for ell in range(1, 13):
            g = generate("theta", ell, ell, ell + 1)
            m = 3 * ell + 1
            assert g.m == m
            assert len(g.edge_gap_table(ell)) == m * (m - 1) // 2, ell
            chi, witness = chromatic_index(g, ell)
            assert chi == m and verify(g, ell, witness).ok, ell

    def test_only_these_catalog_thetas_reach_the_bound(self, catalog):
        for ell in (1, 2, 3):
            reach = [
                name for name, g in catalog.items()
                if chromatic_index(g, ell)[0] >= 3 * ell + 1
            ]
            assert reach == [f"theta-{ell}-{ell}-{ell + 1}"], ell


class TestColoringFiles:
    def test_roundtrip(self):
        coloring = {4: 2, 0: 9, 2: 1}
        assert parse_coloring(serialize_coloring(coloring)) == coloring

    def test_serialize_sorted_by_edge(self):
        text = serialize_coloring({2: 1, 0: 3})
        assert text.splitlines() == ["c 0 3", "c 2 1"]

    def test_parse_skips_comments_and_blanks(self):
        assert parse_coloring("# hi\n\nc 0 1\n  c 3 4\n") == {0: 1, 3: 4}

    def test_parse_malformed_line(self):
        with pytest.raises(ColoringError, match="malformed"):
            parse_coloring("c 0\n")

    @pytest.mark.parametrize("line", ["c 0 \u0663", "c \u0660 1", "c 0 \uff13"])
    def test_parse_ids_are_ascii_decimal(self, line):
        # a regex \d would take these digits, as int() would
        with pytest.raises(ColoringError, match="^malformed coloring line"):
            parse_coloring(f"c 1 2\n{line}\n")

    def test_parse_duplicate_edge(self):
        with pytest.raises(ColoringError, match="twice"):
            parse_coloring("c 0 1\nc 0 2\n")

    @pytest.mark.parametrize("text", [
        "c 0 1\n", "c 0 1", "c 0 1\r\nc 1 2\r\n", "\n\n  \t\n", "", "# only\n",
        "c 3 4 # note\n", "c 3 4#c 5 6\n", "  c\t007   010  \n", "c 0 1\nc 0 2\n",
        "c 0 1\nc 1 2\nc 1 2\n", "c\u30000\u30001\n", "c 0\xa01\n", "c 0\x1f1\n",
        "c\x1f0 1 x\n", "c 0 \u00b2\n", "c \u0661 1\n", "c 0 1\u00b2\n", "c 0\n", "c\n",
        "c 0 1 2\n", "c 0 1 2 3\n", "c0 1\n", "C 0 1\n", "cc 0 1\n", "c -1 2\n",
        "c +1 2\n", "c 1_0 2\n", "c 0 1\x0bc 1 2\n", "c 0 1\x1cc 0 3\n", "x\n",
        "c 0 1\u2028c 2 3\n", "c 0 1\r# c 0 1\rc 1 1\r",
    ])
    def test_parse_matches_regex_reader(self, text):
        assert _parse_outcome(parse_coloring, text) == _parse_outcome(
            reference_parse_coloring, text
        )

    @settings(max_examples=400, deadline=None)
    @given(lines=st.lists(st.one_of(
        st.text(st.sampled_from(list("c019 \t#x-+_") + ["\u3000", "\xa0", "\x1f",
                "\u00b2", "\u0661", "\uff11", "\r", "\x85"]), max_size=12),
        st.builds("c {} {}{}".format, st.integers(0, 30), st.integers(0, 9),
                  st.sampled_from(["", " ", " 1", "#", " # c 0 1", "\xa0", "\u0661"])),
    ), max_size=6), end=st.sampled_from(["\n", "\r\n"]))
    def test_parse_matches_regex_reader_on_fuzzed_lines(self, lines, end):
        text = end.join(lines)
        assert _parse_outcome(parse_coloring, text) == _parse_outcome(
            reference_parse_coloring, text
        )


def _parse_outcome(reader, text):
    """``reader(text)``, or the type and message of the error it raised."""
    try:
        return reader(text)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), ell=st.integers(1, 3))
def test_random_graphs_first_fit_vs_exact(seed, ell):
    g = random_plane_graph(seed, max_ops=5)
    masks = _conflict_masks(g, ell)
    first = _first_fit(masks, _degree_order(masks))
    assert verify(g, ell, {e: c + 1 for e, c in first.items()}).ok
    if g.m <= 12:
        chi, witness = chromatic_index(g, ell)
        assert verify(g, ell, witness).ok
        assert chi <= len(set(first.values()))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), ell=st.integers(1, 3))
def test_exact_matches_brute_force(seed, ell):
    g = random_plane_graph(seed, max_ops=4)
    assume(g.m <= 12)
    chi, witness = chromatic_index(g, ell)
    assert chi == brute_chromatic(conflict_graph(g, ell).adjacency)
    assert verify(g, ell, witness).ok
    assert len(set(witness.values())) == chi
