"""Acceptance gate: one test per stated criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Each test is self-contained and states its own
tolerance.  Criterion 6 is the slow one: about 13 s (median of three
runs, 2-vCPU shared VM, Python 3.11); criterion 3 takes about 0.5 s.
"""

import itertools
import random
import time

import networkx as nx

from facet.choosability import SimpleGraph, degree_feasible_colorable, list_color
from facet.discharging import audit
from facet.embedding import (
    facial_distance,
    medial,
    parse_peg,
    random_plane_graph,
    serialize_peg,
)
from facet.facial_coloring import (
    chromatic_index,
    conflict_graph,
    verify,
    verify_vertex,
)
from facet.nullstellensatz import CERTIFICATES, graph_polynomial_coefficient
from facet.reducibility import catalog as config_catalog
from facet.reducibility import neighborhood_audit

from helpers import brute_chromatic

PUBLISHED_COEFFICIENTS = {
    "four-vertex": 6,
    "nine-face": -3,
    "ten-face-adjacent": 1,
    "ten-face-dist3": -1,
    "ten-face-dist4": -1,
}


def test_criterion_1_certificate_coefficients_exact_and_fast():
    assert set(PUBLISHED_COEFFICIENTS) == set(CERTIFICATES)
    for name, cert in CERTIFICATES.items():
        start = time.monotonic()
        coef = graph_polynomial_coefficient(cert.pairs, cert.target)
        elapsed = time.monotonic() - start
        assert coef == PUBLISHED_COEFFICIENTS[name], name
        assert elapsed < 5.0, (name, elapsed)


def test_criterion_2_catalog_chromatic_indices(catalog):
    for name, g in catalog.items():
        chi, witness = chromatic_index(g, 3)
        assert chi <= 10, (name, chi)
        assert verify(g, 3, witness).ok, name
        if g.m <= 12:
            cg = conflict_graph(g, 3)
            assert chi == brute_chromatic(cg.adjacency), name
    assert chromatic_index(catalog["cycle-7"], 3)[0] == 7
    assert chromatic_index(catalog["cycle-8"], 3)[0] == 4


def test_criterion_3_medial_equivalence(catalog):
    for name, g in catalog.items():
        m = medial(g)
        for ell in (1, 2, 3):
            rng = random.Random(hash((name, ell)) & 0xFFFF)
            for _ in range(100):
                # medial vertex e sits on edge e, so one map colors both
                coloring = {e: rng.randint(1, 7) for e in range(g.m)}
                a = verify(g, ell, coloring).ok
                b = verify_vertex(m, ell, coloring).ok
                assert a == b, (name, ell)


def test_criterion_4_charge_conservation(catalog):
    for name, g in catalog.items():
        rep = audit(g)
        assert rep.ledger.total_initial == -12, name
        assert rep.total == -12, name
        for t in rep.ledger.transfers:
            assert t.amount > 0, (name, t)


def test_criterion_5_no_consistent_counterexample(catalog):
    graphs = list(catalog.values())
    graphs += [random_plane_graph(seed) for seed in range(200)]
    for g in graphs:
        # the final charges sum to -12, so a graph passing every
        # predicate would be a discharging anomaly
        assert audit(g).verdict == "violates-structure"


def _atlas_graphs():
    """Connected atlas graphs on <= 6 vertices as (index, SimpleGraph)."""
    out = []
    for gi, g in enumerate(nx.graph_atlas_g()):
        n = g.number_of_nodes()
        if not 1 <= n <= 6:
            continue
        if not nx.is_connected(g):
            continue
        relabel = {v: i for i, v in enumerate(sorted(g.nodes()))}
        edges = [(relabel[u], relabel[v]) for u, v in g.edges()]
        out.append((gi, SimpleGraph.from_edges(n, edges)))
    return out


def test_criterion_6_choosability_guarantee_vs_search():
    palette = range(1, 7)
    checks = 0

    def check(gi, g, lists):
        guaranteed, colorable, coloring = degree_feasible_colorable(g, lists)
        assert colorable == (coloring is not None), (gi, lists)
        if guaranteed:
            assert colorable, (gi, lists)
        if colorable:
            for u, v in g.edges():
                assert coloring[u] != coloring[v]
            for v in range(g.n):
                assert coloring[v] in lists[v], (gi, lists)

    for gi, g in _atlas_graphs():
        degrees = [g.degrees[v] for v in range(g.n)]
        if g.n <= 4:
            pools = [
                list(itertools.combinations(palette, d)) for d in degrees
            ]
            for lists in itertools.product(*pools):
                check(gi, g, lists)
                checks += 1
        else:
            rng = random.Random(gi)
            for _ in range(1000):
                check(gi, g, [rng.sample(palette, d) for d in degrees])
                checks += 1
    assert checks > 300_000
    # the two named boundary cases
    k3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert list_color(k3, [{1, 2}] * 3) is None
    c4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    got = list_color(c4, [{1, 2}] * 4)
    assert got is not None
    assert all(got[v] != got[(v + 1) % 4] for v in range(4))


def test_criterion_7_roundtrip_euler_distance_properties(catalog):
    for name, g in catalog.items():
        again = parse_peg(serialize_peg(g))
        assert again == g, name
        assert g.n - g.m + len(g.faces()) == 2, name

    rng = random.Random(701)
    pairs = 0
    while pairs < 10_000:
        g = random_plane_graph(rng.randrange(2**30), max_ops=5)
        for _ in range(min(200, g.m * g.m)):
            e = rng.randrange(g.m)
            f = rng.randrange(g.m)
            d_ef = facial_distance(g, e, f)
            assert d_ef == facial_distance(g, f, e)
            if e == f:
                assert d_ef == 0
            pairs += 1


def test_criterion_8_neighborhood_count_audits():
    configs = {c.name: c for c in config_catalog()}
    tt = configs["three-thread"]
    assert neighborhood_audit(tt.host, tt.ell, tt.colors, tt.uncolored) == {
        1: (9, 1)
    }
    fl4 = configs["face-length-4"]
    aud = neighborhood_audit(fl4.host, fl4.ell, fl4.colors, fl4.uncolored)
    assert sorted(aud) == [4, 5, 6, 7]
    for e, (count, avail) in aud.items():
        assert count <= 6, e
        assert (count, avail) == (3, 7)
