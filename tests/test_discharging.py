"""Charge bookkeeping, the discharging rules, and structure predicates."""

import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from facet import discharging
from facet.discharging import (
    ChargeLedger,
    DischargingError,
    apply_rules,
    audit,
    initial_charges,
    structure_report,
    _cycle_separating,
    _short_cycles,
    _two_connected,
)
from facet.embedding import (
    EmbeddedGraph,
    contract_edge,
    delete_edge,
    delete_vertex,
    face_profiles,
    generate,
    parse_peg,
    random_plane_graph,
    subdivide_edge,
)
from facet.reducibility import catalog as reduction_catalog

from helpers import (
    antiprism5,
    bipyramid5,
    brute_two_connected,
    count_blocks,
    list_short_cycles,
    pendant_path_host,
    reference_apply_rules,
    reference_pair_predicates,
    two_ring_host,
)


def lengths(g):
    return sorted(len(w.darts) for w in g.faces())


class TestInitialCharges:
    def test_k4_charges(self):
        led = initial_charges(generate("k4"))
        assert led.vertex_initial == (F(0),) * 4
        assert led.face_initial == (F(-3),) * 4
        assert led.total_initial == -12

    def test_cycle_charges(self):
        led = initial_charges(generate("cycle", 12))
        assert led.vertex_initial == (F(-2),) * 12
        assert led.face_initial == (F(6), F(6))
        assert led.total_initial == -12

    def test_total_is_always_minus_twelve(self, catalog):
        for name, g in catalog.items():
            assert initial_charges(g).total_initial == -12, name

    def test_disconnected_refused(self):
        g = parse_peg("peg 1\nvertices 2\nedges 0\nrot 0\nrot 1\n")
        with pytest.raises(DischargingError, match="connected"):
            initial_charges(g)

    @pytest.mark.parametrize("n", [0, 1])
    def test_edgeless_refused(self, n):
        # The one face of an edgeless graph has no walk to charge.
        rot = "".join(f"rot {v}\n" for v in range(n))
        g = parse_peg(f"peg 1\nvertices {n}\nedges 0\n{rot}")
        with pytest.raises(DischargingError, match="at least one edge"):
            initial_charges(g)
        with pytest.raises(DischargingError, match="at least one edge"):
            audit(g)


class TestRuleFiring:
    def test_cycle12_threads_funded_by_both_faces(self):
        rep = audit(generate("cycle", 12))
        assert rep.ledger.face_final == (F(-8), F(-8))
        assert all(ch == F(1, 3) for ch in rep.ledger.vertex_final)
        assert rep.total == -12
        assert rep.verdict == "violates-structure"
        assert not rep.structure.no_three_thread
        assert rep.structure.two_connected
        assert rep.ledger.negatives()

    def test_prism3_no_rule_fires(self):
        rep = audit(generate("prism", 3))
        assert rep.ledger.transfers == ()
        assert rep.ledger.vertex_final == rep.ledger.vertex_initial
        assert rep.ledger.face_final == rep.ledger.face_initial
        assert sorted(rep.ledger.face_final) == [F(-3), F(-3), F(-2), F(-2), F(-2)]
        assert not rep.structure.faces_at_least_five

    def test_k4_nothing_to_discharge(self):
        rep = audit(generate("k4"))
        assert rep.ledger.transfers == ()
        assert all(ch == 0 for ch in rep.ledger.vertex_final)
        assert rep.ledger.face_final == (F(-3),) * 4
        assert rep.structure.no_short_separating_cycle

    def test_antiprism_five_faces_refilled(self):
        # 4-valent vertices pay 1/5 into each incident pentagon
        g = antiprism5()
        assert lengths(g) == [3] * 10 + [5, 5]
        rep = audit(g)
        r1 = [t for t in rep.ledger.transfers if t.rule == "R1"]
        assert len(r1) == 10 and all(t.amount == F(1, 5) for t in r1)
        assert len(rep.ledger.transfers) == 10
        assert all(ch == F(9, 5) for ch in rep.ledger.vertex_final)
        pent = {i for i, w in enumerate(g.faces()) if len(w.darts) == 5}
        for i, ch in enumerate(rep.ledger.face_final):
            assert ch == (F(0) if i in pent else F(-3))
        assert rep.total == -12

    def test_theta344_thread_payouts(self):
        g = generate("theta", 3, 4, 4)
        assert lengths(g) == [7, 7, 8]
        rep = audit(g)
        by_rule = {}
        for t in rep.ledger.transfers:
            by_rule.setdefault(t.rule, []).append(t)
        assert len(by_rule.get("R4", [])) == 10
        assert all(t.amount == F(5, 6) for t in by_rule["R4"])
        assert len(by_rule.get("R5", [])) == 6
        assert all(t.amount == F(7, 6) for t in by_rule["R5"])
        assert "R3" not in by_rule
        fl = {
            len(g.faces()[i].darts): ch
            for i, ch in enumerate(rep.ledger.face_final)
        }
        assert fl[7] == F(-19, 6) and fl[8] == F(-5)
        assert any("3-thread" in n for n in rep.ledger.notes)
        assert rep.total == -12


@pytest.mark.parametrize(
    "args, noted",
    [
        (("theta", 2, 3, 4), [6]),
        (("theta", 1, 1, 4), [3]),
        (("cycle", 1), []),
        (("cycle", 2), [0, 1]),
        (("cycle", 5), [0, 1, 2, 3, 4]),
    ],
    ids=["three-thread", "beside-parallel-edges", "loop", "two-cycle", "five-cycle"],
)
def test_three_thread_notes(args, noted):
    # Only the middle of a 3-thread is noted; a 2-vertex on a loop is its
    # own neighbor twice and is not; on a 2-cycle both darts of a vertex
    # lead to the other 2-vertex, so both are.
    g = generate(*args)
    notes = apply_rules(g, initial_charges(g)).notes
    assert notes == tuple(
        f"3-thread present: vertex {v} has two 2-valent neighbors; "
        "thread classification is local"
        for v in noted
    )
    assert notes == reference_apply_rules(g, initial_charges(g)).notes


class TestRuleTwo:
    def test_six_face_takes_two_thirds(self):
        g = two_ring_host(3, 4, set(), set())
        assert sorted(lengths(g))[-2:] == [6, 7]
        rep = audit(g)
        six = next(i for i, w in enumerate(g.faces()) if len(w.darts) == 6)
        r2 = [t for t in rep.ledger.transfers if t.rule == "R2"]
        assert sorted(t.src for t in r2) == [("v", 0), ("v", 1)]
        assert all(t.dst == ("f", six) and t.amount == F(2, 3) for t in r2)
        assert rep.total == -12

    def test_balanced_seven_faces_split_evenly(self):
        g = two_ring_host(4, 4, {2}, {2})
        rep = audit(g)
        sevens = sorted(i for i, w in enumerate(g.faces()) if len(w.darts) == 7)
        prof = {i: p.n2 for i, p in enumerate(face_profiles(g))}
        assert [prof[i] for i in sevens] == [2, 2]
        r2 = [t for t in rep.ledger.transfers if t.rule == "R2"]
        assert len(r2) == 4 and all(t.amount == F(1, 3) for t in r2)
        assert sorted(t.dst for t in r2) == (
            [("f", sevens[0])] * 2 + [("f", sevens[1])] * 2
        )
        assert rep.total == -12

    def test_unbalanced_seven_faces_pay_the_crowded_one(self):
        g = two_ring_host(4, 4, {2}, set())
        rep = audit(g)
        prof = dict(enumerate(face_profiles(g)))
        sevens = [i for i, w in enumerate(g.faces()) if len(w.darts) == 7]
        crowded = next(i for i in sevens if prof[i].n2 == 2)
        r2 = [t for t in rep.ledger.transfers if t.rule == "R2"]
        assert len(r2) == 2
        assert all(t.amount == F(2, 3) and t.dst == ("f", crowded) for t in r2)
        assert rep.total == -12

    def test_seven_next_to_eight_takes_it_all(self):
        g = two_ring_host(4, 5, set(), set())
        rep = audit(g)
        seven = next(i for i, w in enumerate(g.faces()) if len(w.darts) == 7)
        r2 = [t for t in rep.ledger.transfers if t.rule == "R2"]
        assert len(r2) == 2
        assert all(t.amount == F(2, 3) and t.dst == ("f", seven) for t in r2)
        assert rep.total == -12

    def test_uncovered_pattern_logged_as_gap(self):
        rep = audit(two_ring_host(4, 4, set(), set()))
        assert not [t for t in rep.ledger.transfers if t.rule == "R2"]
        assert len([x for x in rep.ledger.gaps if "no case applies" in x]) == 2
        assert rep.total == -12

    def test_three_two_vertices_also_a_gap(self):
        rep = audit(two_ring_host(4, 4, {2, 3}, {2}))
        assert not [t for t in rep.ledger.transfers if t.rule == "R2"]
        assert len([x for x in rep.ledger.gaps if "no case applies" in x]) == 2

    def test_same_face_on_both_sides_is_a_gap(self):
        rep = audit(pendant_path_host())
        assert any("on both sides" in x for x in rep.ledger.gaps)

    def test_ring_two_vertices_collect_r3(self):
        # every non-thread 2-vertex gets 1 from each incident face
        g = two_ring_host(4, 4, {2}, {2})
        rep = audit(g)
        r3 = [t for t in rep.ledger.transfers if t.rule == "R3"]
        assert len(r3) == 6 and all(t.amount == F(1) for t in r3)
        # u (vertex 2) sits on both 7-faces; each extra ring 2-vertex
        # sits on one 7-face and one quad
        u_payers = sorted(t.src for t in r3 if t.dst == ("v", 2))
        sevens = sorted(i for i, w in enumerate(g.faces()) if len(w.darts) == 7)
        assert u_payers == [("f", sevens[0]), ("f", sevens[1])]


class TestStructurePredicates:
    def test_report_shape(self):
        s = structure_report(generate("k4"))
        d = s._asdict()
        assert len(d) == 23
        assert all(isinstance(v, bool) for v in d.values())
        assert list(d)[0] == "two_connected"
        assert s.all_pass is False

    def test_c7(self):
        s = structure_report(generate("cycle", 7))
        assert s.two_connected
        assert s.faces_at_least_five
        assert not s.no_three_thread

    def test_theta333_threads_on_small_faces(self):
        s = structure_report(generate("theta", 3, 3, 3))
        assert not s.no_thread_on_small_face
        assert not s.six_face_2vertex_4plus_neighbors

    def test_subdivided_k4_failures_frozen(self):
        s = structure_report(generate("subdivided_k4", 3))
        assert s.failing() == (
            "faces_at_least_five",
            "seven_face_thread_4plus_neighbor",
            "thread_at_most_one_seven_face",
            "seven_face_thread_extra_2vertex_pattern",
            "seven_seven_shared_2vertex_4plus",
            "seven_face_three_2verts_isolation",
        )

    def test_leaf_neighbor_breaks_seven_face_pattern(self):
        # 2-vertex 12 lies on a 7-face with a thread and a third 2-vertex,
        # between the 6-vertex 0 and the leaf 10; predicate 16 wants its
        # second neighbor 2-valent or 4+, and a leaf is neither.
        g = EmbeddedGraph.build(
            13,
            [(0, 1), (2, 6), (3, 11), (4, 5), (5, 0), (6, 3), (0, 7), (7, 1), (0, 4),
             (5, 8), (8, 0), (3, 9), (9, 5), (0, 12), (11, 4), (12, 10)],
            [[21, 16, 12, 26, 0, 9], [15, 1], [2], [4, 22, 11], [17, 6, 29],
             [18, 8, 25, 7], [3, 10], [13, 14], [19, 20], [23, 24], [31], [5, 28],
             [27, 30]],
        )
        assert sorted(g.degrees[w] for w in g.neighbors(12)) == [1, 6]
        assert not structure_report(g).seven_face_thread_extra_2vertex_pattern
        assert not reference_pair_predicates(g)["seven_face_thread_extra_2vertex_pattern"]

    def test_no_graph_passes_everything(self, catalog):
        for name, g in catalog.items():
            assert not structure_report(g).all_pass, name


# (n, endpoints, rotation, 2-connected?) built by hand.  Their loops and
# parallel pairs also host 1- and 2-cycles: most loops sit at vertex 0,
# the minimum, and the last one at vertex 1 lists its darts reversed.
HAND_CASES = [
    (1, [(0, 0)], [[0, 1]], False),
    (2, [(0, 1)], [[0], [1]], False),
    (2, [(0, 1), (0, 1)], [[0, 2], [1, 3]], True),
    (2, [(0, 1), (0, 0)], [[0, 2, 3], [1]], False),
    (3, [(0, 1), (1, 2)], [[0], [1, 2], [3]], False),
    (
        5,
        [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],
        [[0, 5, 6, 11], [1, 2], [3, 4], [7, 8], [9, 10]],
        False,
    ),
    (3, [(0, 1), (0, 1), (1, 2), (2, 0)], [[0, 2, 7], [3, 1, 4], [5, 6]], True),
    (3, [(0, 1), (1, 2), (2, 0), (0, 0)], [[0, 6, 7, 5], [1, 2], [3, 4]], True),
    # A loop around a pendant block meets its base once on each
    # face walk beside it, hiding the cut vertex from the walks.
    (
        5,
        [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (0, 0)],
        [[0, 5, 12, 6, 11, 13], [1, 2], [3, 4], [7, 8], [9, 10]],
        False,
    ),
    (
        4,
        [(0, 1), (1, 2), (2, 0), (0, 3), (0, 0)],
        [[0, 5, 8, 6, 9], [1, 2], [3, 4], [7]],
        False,
    ),
    (
        6,
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
        [[0, 5], [2, 1], [4, 3], [6, 11], [8, 7], [10, 9]],
        False,
    ),
    (2, [(0, 1), (1, 1)], [[0], [1, 3, 2]], False),
]
HAND_CASE_IDS = [
    "single-loop",
    "single-edge",
    "two-cycle",
    "edge-and-loop",
    "path",
    "two-triangles-one-vertex",
    "triangle-with-parallel",
    "triangle-with-loop",
    "loop-around-pendant-triangle",
    "loop-around-pendant-edge",
    "two-triangles-apart",
    "edge-and-reversed-loop",
]


class TestSeparatingCycles:
    def test_bipyramid_rim_separates_the_hubs(self):
        g = bipyramid5()
        assert lengths(g) == [3] * 10
        cycles = _short_cycles(g)
        seps = [c for c in cycles if _cycle_separating(g, c)]
        assert seps
        rims = [
            c for c in seps
            if sorted(g._tails[d] for d in c) == [0, 1, 2, 3, 4]
        ]
        assert rims
        assert not structure_report(g).no_short_separating_cycle

    @pytest.mark.parametrize("name", ["k4", "prism-3", "theta-1-1-3", "cycle-12"])
    def test_face_boundaries_do_not_separate(self, catalog, name):
        assert structure_report(catalog[name]).no_short_separating_cycle

    @staticmethod
    def cycle_hosts():
        yield bipyramid5()
        for n in range(3, 41):
            yield generate("prism", n)
        for seed in range(40):
            yield random_plane_graph(seed, max_ops=3 + seed % 8)
        for seed in (5, 12, 34):  # m = 91, 95, 104
            yield random_plane_graph(seed, max_ops=70)
        for n, endpoints, rotation, _ in HAND_CASES:
            yield EmbeddedGraph.build(n, endpoints, rotation)
        yield generate("theta", 1, 1, 3)

    def test_lazy_enumeration_matches_full_list(self):
        for g in self.cycle_hosts():
            full = list_short_cycles(g)
            lazy = _short_cycles(g)
            head = list(itertools.islice(lazy, 1))
            assert head == full[:1]
            assert head + list(lazy) == full

    def test_predicate_matches_full_scan(self):
        seen = set()
        for g in self.cycle_hosts():
            full = not any(_cycle_separating(g, c) for c in list_short_cycles(g))
            assert structure_report(g).no_short_separating_cycle == full
            seen.add(full)
        assert seen == {True, False}


def _surgery_results(g):
    for e in range(g.m):
        for op in (delete_edge, contract_edge, subdivide_edge):
            yield op(g, e).graph
    for v in range(g.n):
        yield delete_vertex(g, v).graph


class TestTwoConnected:
    @pytest.mark.parametrize(
        "n, endpoints, rotation, expected", HAND_CASES, ids=HAND_CASE_IDS
    )
    def test_hand_cases(self, n, endpoints, rotation, expected):
        g = EmbeddedGraph.build(n, endpoints, rotation)
        assert _two_connected(g) == expected
        assert brute_two_connected(g) == expected

    def test_matches_brute_force_on_random_graphs_and_surgery(self):
        verdicts = set()
        for seed in range(30):
            g = random_plane_graph(seed, max_ops=3 + seed % 8)
            for h in (g, *_surgery_results(g)):
                want = brute_two_connected(h)
                assert _two_connected(h) == want
                verdicts.add(want)
        assert verdicts == {True, False}


def test_audit_never_decomposes_into_blocks(monkeypatch):
    # Predicate 1 reads the face walks, so the audit needs no block
    # decomposition.
    calls = count_blocks(monkeypatch)
    hosts = [c.host for c in reduction_catalog()]
    hosts += [random_plane_graph(seed, max_ops=3 + seed % 12) for seed in range(20)]
    for g in hosts:
        audit(g)
        structure_report(g)
    assert calls == []


def test_pair_predicates_match_one_scan_each():
    # Predicates 14-20 share three scans in structure_report; each one
    # must still read as its own definition.  Subdivided prisms and
    # random graphs give 2-vertices and threads on 6- and 7-faces.
    rng = random.Random(5)
    hosts = [random_plane_graph(s, max_ops=3 + s % 12) for s in range(300)]
    for i in range(500):
        g = generate("prism", 3 + i % 6) if i % 3 else random_plane_graph(i, max_ops=6)
        for _ in range(rng.randrange(1, 10)):
            g = subdivide_edge(g, rng.randrange(g.m)).graph
        hosts.append(g)
    # Two 7-faces at a 2-vertex, only one of them with a second 2-vertex.
    g = generate("prism", 6)
    for e in (0, 6, 6):
        g = subdivide_edge(g, e).graph
    hosts.append(g)
    # A digon from 2-vertex 1 to vertex 0, with a 5-cycle hung at 0 on
    # each side: both sides of vertex 1 are 7-faces with five 2-vertices,
    # and its two darts lead to one 4+ neighbor, so predicate 19 fails.
    g = EmbeddedGraph.build(
        10,
        [(0, 1), (1, 0), (0, 2), (2, 3), (3, 4), (4, 5), (5, 0),
         (0, 6), (6, 7), (7, 8), (8, 9), (9, 0)],
        [(4, 13, 0, 14, 23, 3), (2, 1), (5, 6), (7, 8), (9, 10), (11, 12),
         (15, 16), (17, 18), (19, 20), (21, 22)],
    )
    assert not structure_report(g).seven_seven_shared_2vertex_4plus
    hosts.append(g)
    seen = set()
    for g in hosts:
        want = reference_pair_predicates(g)
        got = structure_report(g)._asdict()
        assert {k: got[k] for k in want} == want
        seen.update(want.items())
    assert len(seen) == 2 * len(want)


def _predicate_sweep():
    """Connected graphs with edges that, between them, pass and fail each
    of the 23 predicates: random graphs, subdivided prisms and random
    graphs, and edge deletions and contractions of the first 300."""
    hosts = [random_plane_graph(s, max_ops=3 + s % 16) for s in range(600)]
    rng = random.Random(19)
    for i in range(600):
        g = generate("prism", 3 + i % 6) if i % 3 else random_plane_graph(i, max_ops=6)
        for _ in range(rng.randrange(1, 12)):
            g = subdivide_edge(g, rng.randrange(g.m)).graph
        hosts.append(g)
    for g in hosts[:300]:
        for e in range(min(4, g.m)):
            hosts.append(delete_edge(g, e).graph)
            if g.endpoints[e][0] != g.endpoints[e][1]:
                hosts.append(contract_edge(g, e).graph)
    return [g for g in hosts if g.m and g.is_connected]


# (pass, fail) counts of each predicate over the sweep, in field order.
SWEEP_COUNTS = {
    "two_connected": (2534, 1066),
    "loopless": (3570, 30),
    "min_degree_two": (2771, 829),
    "four_vertex_two_neighbors": (3361, 239),
    "no_short_separating_cycle": (999, 2601),
    "faces_at_least_five": (745, 2855),
    "no_eight_face": (2141, 1459),
    "no_three_thread": (1025, 2575),
    "thread_far_from_2vertices_on_big_faces": (823, 2777),
    "five_faces_all_four_plus": (1211, 2389),
    "six_face_2vertex_4plus_neighbors": (1581, 2019),
    "no_thread_on_small_face": (870, 2730),
    "two_vertex_on_seven_plus_face": (1582, 2018),
    "seven_face_thread_4plus_neighbor": (2488, 1112),
    "thread_at_most_one_seven_face": (3428, 172),
    "seven_face_thread_extra_2vertex_pattern": (2109, 1491),
    "seven_face_multi_2vertices_4plus": (3444, 156),
    "six_seven_shared_2vertex": (2991, 609),
    "seven_seven_shared_2vertex_4plus": (3343, 257),
    "seven_face_three_2verts_isolation": (3337, 263),
    "nine_face_no_2vertex": (2483, 1117),
    "ten_face_two_2vertices": (2962, 638),
    "section_count_bounds": (1446, 2154),
}
# sha256 over one line of 0/1 flags per graph, in sweep and field order.
SWEEP_DIGEST = "52bef6fe9480ed5f2edcd4117e10bbd05eb886b9380b15cce33b0732dbf46736"


def test_structure_report_golden_on_sweep():
    digest = hashlib.sha256()
    counts = {name: [0, 0] for name in SWEEP_COUNTS}
    for g in _predicate_sweep():
        report = structure_report(g)._asdict()
        digest.update("".join("01"[ok] for ok in report.values()).encode() + b"\n")
        for name, ok in report.items():
            counts[name][not ok] += 1
    assert {name: tuple(c) for name, c in counts.items()} == SWEEP_COUNTS
    assert all(min(c) > 0 for c in SWEEP_COUNTS.values())
    assert digest.hexdigest() == SWEEP_DIGEST


@pytest.mark.parametrize(
    "name, predicate",
    [
        ("four-vertex", "four_vertex_two_neighbors"),
        ("face-length-4", "faces_at_least_five"),
        ("eight-face", "no_eight_face"),
        ("three-thread", "no_three_thread"),
        ("nine-face", "nine_face_no_2vertex"),
        ("ten-face-adjacent", "ten_face_two_2vertices"),
        ("ten-face-dist3", "ten_face_two_2vertices"),
        ("ten-face-dist4", "ten_face_two_2vertices"),
    ],
)
def test_catalog_host_violates_its_predicate(name, predicate):
    # Each reduction shows a minimal counterexample cannot contain its
    # host, which backs the predicate that the host violates.
    (config,) = [c for c in reduction_catalog() if c.name == name]
    assert predicate in structure_report(config.host).failing()


def _assert_matches_fraction_oracle(g, ledger):
    got, want = apply_rules(g, ledger), reference_apply_rules(g, ledger)
    assert got == want
    charges = got.vertex_final + got.face_final
    assert all(type(ch) is F for ch in charges)
    assert [type(t.amount) for t in got.transfers] == [F] * len(want.transfers)
    assert [tuple(map(type, (t.rule, t.src, t.dst))) for t in got.transfers] == [
        (str, tuple, tuple)
    ] * len(want.transfers)
    for led in (got, ledger):
        assert led.total_initial == sum(led.vertex_initial + led.face_initial, F(0))
        assert led.total_final == sum(led.vertex_final + led.face_final, F(0))
        assert type(led.total_initial) is type(led.total_final) is F
    assert got.negatives() == want.negatives()
    return got


class TestIntegerUnits:
    """``apply_rules`` runs in integer units of 1/L; its ledger must equal
    the Fraction-by-Fraction oracle's, field types included."""

    def test_matches_fraction_oracle(self, catalog):
        hosts = [random_plane_graph(s) for s in range(150)]
        hosts += [generate("prism", n) for n in range(3, 51)]
        hosts += [c.host for c in reduction_catalog()] + list(catalog.values())
        fired = set()
        for g in hosts:
            if g.m == 0 or not g.is_connected:
                continue
            led = _assert_matches_fraction_oracle(g, initial_charges(g))
            fired.update(t.rule for t in led.transfers)
        assert fired == {"R1", "R2", "R3", "R4", "R5"}

    def test_foreign_denominators(self, catalog):
        # Denominators 7 and 11 make L = 2310, not 30; a second pass
        # starts from a ledger that already holds transfers.
        for name, g in [*catalog.items(), ("antiprism", antiprism5())]:
            led = initial_charges(g)
            odd = dataclasses.replace(
                led,
                vertex_final=tuple(ch + F(1, 7) for ch in led.vertex_final),
                face_final=tuple(ch - F(3, 11) for ch in led.face_final),
            )
            once = _assert_matches_fraction_oracle(g, odd)
            twice = _assert_matches_fraction_oracle(g, once)
            shift = F(g.n, 7) - F(3 * len(g.faces()), 11)
            assert once.total_final == twice.total_final == -12 + shift, name


class TestAudit:
    def test_verdict_constants(self):
        rep = audit(generate("cycle", 12))
        assert rep.verdict in {"violates-structure", "discharging-anomaly"}

    def test_ledger_validation(self):
        g = generate("k4")
        with pytest.raises(DischargingError, match="ledger"):
            apply_rules(g, initial_charges(generate("cycle", 5)))

    def test_negatives_skip_zero_charges(self):
        zero, third = F(0), F(-1, 3)
        led = ChargeLedger((zero,) * 3, (zero,) * 2, (zero, third, F(1)), (F(-2), zero))
        assert led.negatives() == ((("v", 1), third), (("f", 0), F(-2)))

    def test_lost_charge_fails_conservation(self, monkeypatch):
        # a ledger whose final charges sum to -13 instead of -12
        def leaky(g, ledger):
            led = apply_rules(g, ledger)
            first, *rest = led.vertex_final
            return dataclasses.replace(led, vertex_final=(first - 1, *rest))

        monkeypatch.setattr(discharging, "apply_rules", leaky)
        with pytest.raises(
            DischargingError, match="^charge conservation broken: initial -12, final -13$"
        ):
            audit(generate("prism", 5))

    def test_ledger_totals_computed_once_per_ledger(self):
        led = audit(generate("prism", 7)).ledger
        initial, final = led.total_initial, led.total_final
        assert (initial, final) == (-12, -12)
        assert led.total_initial is initial and led.total_final is final

    @pytest.mark.parametrize(
        "name",
        ["cycle-7", "k4", "prism-5", "theta-2-3-4", "subdivided-k4-2"],
    )
    def test_catalog_audits_conserve_charge(self, catalog, name):
        rep = audit(catalog[name])
        assert rep.total == -12
        assert rep.verdict == "violates-structure"
        for t in rep.ledger.transfers:
            assert t.amount > 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_graph_audit_invariants(seed):
    g = random_plane_graph(seed, max_ops=6)
    rep = audit(g)
    assert rep.ledger.total_initial == -12
    assert rep.total == -12
    assert rep.verdict != "discharging-anomaly"
    assert not rep.structure.all_pass
