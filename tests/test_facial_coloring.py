"""Conflict graphs, verification, and the exact chromatic solver."""

import math
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from facet.embedding import (
    facial_distance,
    facial_neighborhood,
    generate,
    random_plane_graph,
)
from facet.facial_coloring import (
    ColoringError,
    SolverBudgetError,
    Violation,
    available_colors,
    chromatic_index,
    conflict_graph,
    default_palette,
    greedy_color,
    parse_coloring,
    recolor_candidates,
    serialize_coloring,
    verify,
    verify_vertex,
)
from facet.facial_coloring import _face_clique

from helpers import brute_chromatic, reference_chromatic_index, reference_gap_table


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

    def test_witness_keys_sorted_pairs(self, catalog):
        cg = conflict_graph(catalog["k4"], 2)
        for a, b in cg.pairs():
            assert a < b
            gap, face, pi, pj = cg.witness[(a, b)]
            assert gap <= 2 and face >= 0 and pi >= 0 and pj >= 0

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

    def test_violation_positions_name_real_walk_slots(self, catalog):
        g = catalog["cycle-7"]
        v = verify(g, 3, {e: e % 4 + 1 for e in range(7)})
        for w in v.violations:
            walk = g.faces()[w.face]
            edges = [d >> 1 for d in walk.darts]
            assert edges[w.pos_e] == w.e
            assert edges[w.pos_f] == w.f

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
                    for key, (gap, _, _, _) in reference_gap_table(g, "vertices").items()
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
                Violation(a, b, coloring[a], face, gap, pa, pb)
                for (a, b), (gap, face, pa, pb) in full
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


class TestAvailableColors:
    def test_c8_partial_frozen_sets(self, catalog):
        g = catalog["cycle-8"]
        av = available_colors(g, 3, {0: 1, 1: 2})
        full = set(default_palette(3))
        # a colored edge keeps its own color available for recoloring
        assert av[0] == full - {2}
        assert av[1] == full - {1}
        assert av[2] == full - {1, 2}
        assert av[4] == full - {2}
        assert av[5] == full - {1}

    def test_improper_partial_rejected(self, catalog):
        # the first clashing pair in pair order is named
        with pytest.raises(ColoringError, match="improper: edges 0 and 2 share color 1$"):
            available_colors(catalog["cycle-8"], 3, {0: 1, 2: 1, 4: 1})

    def test_custom_palette(self, catalog):
        av = available_colors(catalog["cycle-3"], 1, {0: 7}, palette=(7, 8, 9))
        assert av[1] == {8, 9}
        assert av[0] == {7, 8, 9}


class TestRecolorCandidates:
    def test_k4_frozen_set(self, catalog):
        g = catalog["k4"]
        got = recolor_candidates(g, {0: 5, 3: 1}, 0)
        assert got == frozenset({2, 3, 4, 6, 7, 8, 9, 10})

    def test_candidates_keep_coloring_proper(self, catalog):
        g = catalog["k4"]
        partial = {0: 5, 3: 1}
        for c in recolor_candidates(g, partial, 0):
            patched = dict(partial)
            patched[0] = c
            assert verify(g, 3, patched, require_total=False).ok

    def test_both_endpoints_qualify_is_ambiguous(self, catalog):
        with pytest.raises(ColoringError, match="ambiguous"):
            recolor_candidates(catalog["k4"], {0: 5}, 0)

    def test_no_qualifying_endpoint(self, catalog):
        with pytest.raises(ColoringError, match="3-valent"):
            recolor_candidates(catalog["cycle-7"], {0: 1}, 0)

    def test_uncolored_edge_rejected(self, catalog):
        with pytest.raises(ColoringError, match="must be colored"):
            recolor_candidates(catalog["k4"], {}, 0)

    def test_matches_neighborhood_formula(self):
        # A(uu1) & A(uu2) minus the colors near uv alone, each neighborhood
        # from its own facial_neighborhood scan
        rng = random.Random(0)
        checked = 0
        for seed in range(150):
            g = random_plane_graph(seed)
            ell = 1 + seed % 3
            palette = default_palette(ell)
            partial = {e: rng.choice(palette) for e in range(g.m) if rng.random() < 0.5}
            for uv in partial:
                try:
                    got = recolor_candidates(g, partial, uv, ell)
                except ColoringError:
                    continue
                companions = []
                for w in set(g.endpoints[uv]):
                    others = {d >> 1 for d in g.rotation[w]} - {uv}
                    if g.degree(w) == 3 and len(others) == 2 and not others & set(partial):
                        companions.append(sorted(others))
                [(uu1, uu2)] = companions
                near = [facial_neighborhood(g, ell, e) for e in (uu1, uu2, uv)]
                colors = [{partial[f] for f in n if f in partial} for n in near]
                outside = {partial[f] for f in near[2] - near[0] - near[1] if f in partial}
                want = set(palette) - colors[0] - colors[1] - outside
                assert got == want, (seed, uv)
                checked += 1
        assert checked > 50

    @pytest.mark.parametrize("ell", [0, -1])
    def test_ell_below_one_rejected(self, catalog, ell):
        with pytest.raises(ValueError, match="ell must be >= 1"):
            recolor_candidates(catalog["k4"], {0: 5, 3: 1}, 0, ell=ell)


class TestGreedy:
    @pytest.mark.parametrize("name", ["cycle-7", "k4", "theta-2-3-4", "prism-4"])
    @pytest.mark.parametrize("policy", ["degree", "id"])
    def test_greedy_is_proper(self, catalog, name, policy):
        g = catalog[name]
        coloring = greedy_color(g, 3, policy=policy)
        assert verify(g, 3, coloring).ok
        assert min(coloring.values()) >= 1

    def test_unknown_policy(self, catalog):
        with pytest.raises(ValueError, match="policy"):
            greedy_color(catalog["cycle-3"], 1, policy="rainbow")

    def test_max_colors_cap(self, catalog):
        with pytest.raises(ColoringError, match="more than"):
            greedy_color(catalog["cycle-7"], 3, max_colors=3)


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

    def test_upper_bound_is_advisory_only(self, catalog):
        chi, witness = chromatic_index(catalog["cycle-7"], 3, upper_bound=3)
        assert chi == 7
        assert verify(catalog["cycle-7"], 3, witness).ok

    def test_budget_gate(self, catalog):
        with pytest.raises(SolverBudgetError):
            chromatic_index(catalog["cycle-7"], 3, max_nodes=5)

    def test_matches_reference_solver_on_catalog(self, catalog):
        for name, g in catalog.items():
            for ell in (1, 2, 3):
                got = chromatic_index(g, ell, upper_bound=3 * ell + 1)
                assert got == reference_chromatic_index(g, ell, 3 * ell + 1), (name, ell)

    def test_matches_reference_solver_on_random_graphs(self):
        graphs = _random_graphs_up_to_24_edges()
        assert len(graphs) == 300
        for seed, g in graphs:
            ell = 1 + seed % 3
            got = chromatic_index(g, ell)
            assert got == reference_chromatic_index(g, ell), (seed, ell)

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

    @pytest.mark.parametrize("seed", [9, 16, 35])
    def test_seeds_the_clique_bound_missed_solve_fast(self, seed):
        # The greedy clique gives 4 on these graphs where chi is 7; only
        # the face bound lets the search stop at its first 7-coloring.
        g = random_plane_graph(seed, max_ops=18)
        start = time.monotonic()
        chi, witness = chromatic_index(g, 3)
        elapsed = time.monotonic() - start
        assert chi == 7 and verify(g, 3, witness).ok
        assert elapsed < 2.0, (seed, elapsed)


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

    def test_parse_duplicate_edge(self):
        with pytest.raises(ColoringError, match="twice"):
            parse_coloring("c 0 1\nc 0 2\n")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), ell=st.integers(1, 3))
def test_random_graphs_greedy_vs_exact(seed, ell):
    g = random_plane_graph(seed, max_ops=5)
    greedy = greedy_color(g, ell)
    assert verify(g, ell, greedy).ok
    if g.m <= 12:
        chi, witness = chromatic_index(g, ell)
        assert verify(g, ell, witness).ok
        assert chi <= len(set(greedy.values()))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), ell=st.integers(1, 3))
def test_exact_matches_brute_force(seed, ell):
    g = random_plane_graph(seed, max_ops=4)
    assume(g.m <= 12)
    chi, witness = chromatic_index(g, ell)
    assert chi == brute_chromatic(conflict_graph(g, ell).adjacency)
    assert verify(g, ell, witness).ok
    assert len(set(witness.values())) == chi
