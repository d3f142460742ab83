"""List coloring and Gallai trees."""

import itertools
import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from facet import choosability
from facet._cached import cached_attribute
from facet.choosability import (
    ListColoringError,
    SearchBudgetError,
    SimpleGraph,
    blocks,
    degree_feasible_colorable,
    is_gallai_tree,
    list_color,
)

from helpers import (
    count_blocks,
    reference_degree_feasible_colorable,
    reference_degree_guarantee,
    reference_gallai_tree,
    reference_list_color,
)


def cycle(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return SimpleGraph.from_edges(n, itertools.combinations(range(n), 2))


def path(n):
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def bowtie():
    # two triangles glued at vertex 2
    return SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])


class TestSimpleGraph:
    def test_from_edges_dedupes(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.degrees[1] == 2

    def test_loop_rejected(self):
        with pytest.raises(ListColoringError, match="loop"):
            SimpleGraph.from_edges(2, [(1, 1)])

    @pytest.mark.parametrize(
        "n, edge",
        [(2, (0, 2)), (2, (2, 0)), (3, (0, True)), (3, (0, 1.0))],
        ids=["second-at-end", "first-at-end", "bool", "float"],
    )
    def test_out_of_range_rejected(self, n, edge):
        with pytest.raises(ListColoringError, match=f"^{re.escape(f'edge {edge} out of range')}$"):
            SimpleGraph.from_edges(n, [edge])

    def test_connectivity(self):
        assert cycle(4).is_connected
        assert not SimpleGraph.from_edges(3, [(0, 1)]).is_connected
        assert SimpleGraph.from_edges(1, []).is_connected


class TestBlocks:
    def test_bowtie(self):
        dec = blocks(bowtie())
        assert sorted(sorted(b) for b in dec) == [[0, 1, 2], [2, 3, 4]]

    def test_path(self):
        dec = blocks(path(4))
        assert sorted(sorted(b) for b in dec) == [[0, 1], [1, 2], [2, 3]]

    def test_biconnected_graph_is_one_block(self):
        assert blocks(cycle(5)) == (frozenset(range(5)),)

    def test_isolated_vertex_is_singleton_block(self):
        assert frozenset({2}) in blocks(SimpleGraph.from_edges(3, [(0, 1)]))


class TestGallaiTree:
    @pytest.mark.parametrize(
        "g, expect",
        [
            (complete(4), True),
            (cycle(5), True),
            (cycle(4), False),
            (bowtie(), True),
            (path(4), True),
            (SimpleGraph.from_edges(1, []), True),
        ],
    )
    def test_classification(self, g, expect):
        assert is_gallai_tree(g) is expect

    def test_needs_connected(self):
        with pytest.raises(ListColoringError, match="connected"):
            is_gallai_tree(SimpleGraph.from_edges(3, [(0, 1)]))


class TestListColor:
    def test_k3_with_pair_lists_refused(self):
        assert list_color(complete(3), [{1, 2}] * 3) is None

    def test_c4_with_pair_lists_colored(self):
        got = list_color(cycle(4), [{1, 2}] * 4)
        assert got is not None
        for v in range(4):
            assert got[v] in {1, 2}
            assert got[v] != got[(v + 1) % 4]

    def test_colors_tried_in_repr_order(self):
        # "10" sorts before "9", so 10 is the first color tried.
        assert list_color(path(2), [[9, 10], [7, 9, 10]]) == {0: 10, 1: 7}
        assert list_color(path(2), [[9, 10], [10]]) == {1: 10, 0: 9}

    def test_respects_lists(self):
        got = list_color(path(3), [{5}, {5, 6}, {6, 7}])
        assert got == {0: 5, 1: 6, 2: 7}

    def test_list_count_mismatch(self):
        with pytest.raises(ListColoringError, match="one list per vertex"):
            list_color(path(3), [{1}, {2}])

    def test_budget(self):
        with pytest.raises(SearchBudgetError):
            list_color(path(30), [{1, 2}] * 30)
        # exactly at the budget the search runs
        assert len(list_color(path(30), [{1, 2}] * 30, max_nodes=30)) == 30

    @pytest.mark.parametrize("fn", [list_color, degree_feasible_colorable])
    def test_one_shot_iterators_refused(self, fn):
        # building the palette would use them up, leaving empty lists
        for lists in ([iter([1, 2]), iter([1, 2])], [[1, 2], (c for c in (1, 2))]):
            with pytest.raises(ListColoringError, match="collection"):
                fn(path(2), lists)

    @pytest.mark.parametrize("fn", [list_color, degree_feasible_colorable])
    @pytest.mark.parametrize(
        "lists", [[None, [1]], [5, [1]], [[[1]], [1]]], ids=["none", "int", "unhashable"]
    )
    def test_non_collection_or_unhashable_color_refused(self, fn, lists):
        with pytest.raises(ListColoringError, match="collection of colors"):
            fn(path(2), lists)


class TestDegreeFeasible:
    def test_k3_tight_lists_not_guaranteed_not_colorable(self):
        guaranteed, colorable, coloring = degree_feasible_colorable(
            complete(3), [{1, 2}] * 3
        )
        assert (guaranteed, colorable, coloring) == (False, False, None)

    def test_c4_tight_lists_guaranteed_and_colored(self):
        guaranteed, colorable, coloring = degree_feasible_colorable(
            cycle(4), [{1, 2}] * 4
        )
        assert guaranteed and colorable
        assert all(coloring[v] != coloring[(v + 1) % 4] for v in range(4))

    def test_slack_forces_guarantee(self):
        # K3 again, one list strictly bigger than the degree
        guaranteed, colorable, coloring = degree_feasible_colorable(
            complete(3), [{1, 2, 3}, {1, 2}, {1, 2}]
        )
        assert guaranteed and colorable
        assert len(set(coloring.values())) == 3

    def test_list_below_degree_rejected(self):
        with pytest.raises(ListColoringError, match="smaller than its degree"):
            degree_feasible_colorable(complete(3), [{1}, {1, 2}, {1, 2}])

    def test_needs_connected(self):
        with pytest.raises(ListColoringError, match="connected"):
            degree_feasible_colorable(SimpleGraph.from_edges(2, []), [{1}, {1}])

    def test_list_count_mismatch(self):
        with pytest.raises(ListColoringError, match="^one list per vertex required$"):
            degree_feasible_colorable(path(3), [{1, 2}, {1, 2}])

    def test_repeated_colors_count_once(self):
        # [1, 1] has one color, below degree 2, though its length is 2
        for g, lists in [
            (complete(3), [[1, 1, 2], [2, 1, 2], [1, 2]]),
            (complete(3), [[1, 1, 2, 3], [2, 2, 1], [1, 2]]),
            (complete(3), [[1, 1], [1, 2], [1, 2]]),
            (cycle(4), [[1, 2, 1], [2, 2, 1], [1, 2], [2, 1, 1]]),
            (path(3), [[5, 5], [5, 6, 6], [6, 6]]),
        ]:
            assert _outcome(degree_feasible_colorable, g, lists) == _outcome(
                reference_degree_feasible_colorable, g, lists
            ), lists
        with pytest.raises(ListColoringError, match="vertex 0 smaller than its degree"):
            degree_feasible_colorable(complete(3), [[1, 1], [1, 2], [1, 2]])
        rng = random.Random(9)
        for g in _small_atlas_graphs():
            for _ in range(10):
                lists = [rng.choices(range(1, 5), k=g.degrees[v] + 1) for v in range(g.n)]
                assert _outcome(degree_feasible_colorable, g, lists) == _outcome(
                    reference_degree_feasible_colorable, g, lists
                ), (g, lists)

    def test_budget(self):
        g = path(26)
        with pytest.raises(SearchBudgetError, match="26 vertices"):
            degree_feasible_colorable(g, [range(g.degrees[v]) for v in range(g.n)])


class TestDegreeGuarantee:
    @pytest.mark.parametrize(
        "g, sizes, expect",
        [
            (complete(3), [2, 2, 2], False),
            (complete(3), [3, 2, 2], True),
            (cycle(4), [2, 2, 2, 2], True),
            (bowtie(), [2, 2, 4, 2, 2], False),
            (path(3), [1, 1, 1], False),
            (SimpleGraph.from_edges(3, [(0, 1)]), [5, 5, 5], False),
        ],
        ids=["k3-tight", "k3-slack", "c4-tight", "bowtie-tight", "unfit", "disconnected"],
    )
    def test_verdict(self, g, sizes, expect):
        # the oracle, then the flag on lists of these sizes where the
        # flag's own checks accept them
        assert reference_degree_guarantee(g, sizes) is expect
        lists = [range(k) for k in sizes]
        if g.is_connected and all(k >= d for k, d in zip(sizes, g.degrees)):
            assert degree_feasible_colorable(g, lists)[0] is expect
        else:
            with pytest.raises(ListColoringError):
                degree_feasible_colorable(g, lists)

    def test_size_count_must_match(self):
        with pytest.raises(ValueError):
            reference_degree_guarantee(path(3), [2, 2])
        with pytest.raises(ListColoringError, match="one list per vertex"):
            degree_feasible_colorable(path(3), [range(2), range(2)])


class TestGraphFactCache:
    def test_tight_lists_decompose_the_graph_once(self, monkeypatch):
        calls = count_blocks(monkeypatch)
        g = bowtie()
        rng = random.Random(7)
        for _ in range(50):
            lists = [rng.sample(range(1, 6), g.degrees[v]) for v in range(g.n)]
            guaranteed, _, _ = degree_feasible_colorable(g, lists)
            assert not guaranteed
        assert len(calls) == 1

    def test_slack_lists_never_decompose_the_graph(self, monkeypatch):
        calls = count_blocks(monkeypatch)
        g = bowtie()
        rng = random.Random(8)
        for _ in range(50):
            lists = [rng.sample(range(1, 7), g.degrees[v]) for v in range(g.n)]
            lists[rng.randrange(g.n)].append(9)
            guaranteed, colorable, _ = degree_feasible_colorable(g, lists)
            assert guaranteed and colorable
        assert calls == []

    def test_cached_facts_leave_equality_and_repr_alone(self):
        g, fresh = bowtie(), bowtie()
        before = repr(g)
        assert g.is_connected and is_gallai_tree(g) and g.degrees
        list_color(g, [{1, 2, 3}] * g.n)
        assert g._search_plan is g._search_plan
        assert g._search_plan == ((2, 0, 1, 3, 4), tuple(map(tuple, g.adjacency)))
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == before

    def test_cached_fact_read_on_the_class_is_its_descriptor(self):
        assert isinstance(SimpleGraph.degrees, cached_attribute)
        assert SimpleGraph.degrees.attrname == "degrees"


def _small_atlas_graphs():
    """Every atlas graph on at most 5 vertices, connected or not."""
    out = []
    for a in nx.graph_atlas_g():
        if a.number_of_nodes() > 5:
            break
        out.append(SimpleGraph.from_edges(a.number_of_nodes(), a.edges()))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ListColoringError as exc:
        return ("raised", str(exc))


@pytest.mark.parametrize("seed", range(3))
def test_matches_uncached_reference_on_atlas(seed):
    """Tuple-for-tuple agreement with the reference routines on every
    atlas graph with n <= 5: list sizes from degree - 1 to degree + 1, so
    tight, slack and too-small lists all occur, and the errors match too.
    """
    rng = random.Random(seed)
    for g in _small_atlas_graphs():
        assert _outcome(is_gallai_tree, g) == _outcome(reference_gallai_tree, g)
        for _ in range(30):
            lists = [
                rng.sample(range(1, 7), max(0, g.degrees[v] + rng.choice((-1, 0, 0, 1))))
                for v in range(g.n)
            ]
            assert _outcome(degree_feasible_colorable, g, lists) == _outcome(
                reference_degree_feasible_colorable, g, lists
            ), (g, lists)
            assert list_color(g, lists) == reference_list_color(g, lists)


def _same_search(g, lists):
    """``list_color`` and the reference search agree on the outcome and
    on the order the vertices were colored in."""
    got, want = list_color(g, lists), reference_list_color(g, lists)
    assert got == want, (g, lists)
    if got is not None:
        assert list(got.items()) == list(want.items()), (g, lists)
        assert list(map(type, got.values())) == list(map(type, want.values()))
    return got


class TestSearchOrder:
    @pytest.mark.parametrize(
        "palette",
        [[9, 10, 100, 11, 2], [3, "3", (3,), "a", (1, 2), 10, -1]],
        ids=["repr-not-value", "mixed-types"],
    )
    def test_repr_ordered_palettes(self, palette):
        rng = random.Random(3)
        for g in (path(3), complete(3), cycle(4), cycle(5), bowtie(), complete(4)):
            for _ in range(60):
                lists = [rng.sample(palette, rng.randint(1, 3)) for _ in range(g.n)]
                _same_search(g, lists)

    def test_palettes_equal_to_an_int_palette(self):
        # {True, 2}, {1.0, 2} and {1, 2.0} equal {1, 2} as sets; after
        # {1, 2} has been searched, each must still be sorted and colored
        # from its own colors
        rng = random.Random(6)
        graphs = (path(2), path(3), complete(3), cycle(4), bowtie())
        for palette in ([1, 2], [1, 2, 3], [True, 2], [1.0, 2], [1, 2.0], [True, 2, 3]):
            for g in graphs:
                for _ in range(20):
                    lists = [rng.sample(palette, rng.randint(1, 2)) for _ in range(g.n)]
                    _same_search(g, lists)

    def test_memo_holds_int_palettes_only(self):
        memo = choosability._palette
        memo.cache_clear()
        list_color(path(2), [[1, 2], [1, 2]])
        list_color(path(2), [[2, 1], [1, 2]])
        assert memo.cache_info()[:2] == (1, 1)  # hits, misses
        for palette in ([True, 2], [1.0, 2], [1, 2.0]):
            list_color(path(2), [palette, palette])
        assert memo.cache_info()[:2] == (1, 1)

    def test_tight_lists_on_cliques_and_odd_cycles(self):
        # Degree-sized lists: both outcomes occur, and a refusal means
        # every branch was tried and taken back.
        rng = random.Random(4)
        outcomes = set()
        graphs = [complete(n) for n in range(3, 9)] + [cycle(n) for n in (3, 5, 7)]
        for g in graphs:
            palette = range(g.degrees[0] + 2)
            for _ in range(40):
                lists = [rng.sample(palette, g.degrees[v]) for v in range(g.n)]
                outcomes.add(_same_search(g, lists) is None)
        assert outcomes == {True, False}

    def test_seeded_sweep(self):
        rng = random.Random(5)
        for n in (6, 7, 8):
            for _ in range(40):
                g = random_connected(rng, n)
                for _ in range(10):
                    lists = [
                        rng.sample(range(1, 9), max(1, g.degrees[v] + rng.choice((-1, 0, 1))))
                        for v in range(n)
                    ]
                    _same_search(g, lists)


def random_connected(rng, n):
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.4:
            edges.append((u, v))
    return SimpleGraph.from_edges(n, edges)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 6))
def test_guarantee_implies_colorable(seed, n):
    rng = random.Random(seed)
    g = random_connected(rng, n)
    lists = [rng.sample(range(1, 7), g.degrees[v]) for v in range(n)]
    guaranteed, colorable, coloring = degree_feasible_colorable(g, lists)
    if guaranteed:
        assert colorable
    if colorable:
        for u, v in g.edges():
            assert coloring[u] != coloring[v]
        for v in range(n):
            assert coloring[v] in set(lists[v])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 7))
def test_guarantee_flag_matches_degree_guarantee(seed, n):
    # degree_feasible_colorable runs its own checks, then only the
    # guarantee's last condition; on valid input it must agree with the
    # three-condition oracle.
    rng = random.Random(seed)
    g = random_connected(rng, n)
    sizes = [g.degrees[v] + rng.choice((0, 0, 0, 1)) for v in range(n)]
    lists = [rng.sample(range(1, 9), k) for k in sizes]
    guaranteed, _, _ = degree_feasible_colorable(g, lists)
    assert guaranteed == reference_degree_guarantee(g, sizes)
