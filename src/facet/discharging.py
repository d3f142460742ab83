"""Exact-rational discharging over plane embeddings.

Initial charges put 2d(v) - 6 on every vertex and len(face) - 6 on every
face, which sums to -12 on a connected plane graph by Euler's formula.
Five local rules then move charge between elements; the module logs
every transfer, every input pattern the rules do not cover, and a
23-predicate structural report, so a single audit call shows whether a
concrete graph could survive as a minimal counterexample.

Arithmetic is exact and never touches floating point: while the rules
run, charges are integers in units of 1/L, with L the least common
multiple of 30 and every denominator in the incoming ledger; the ledger
itself holds :class:`fractions.Fraction` values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from facet._cached import cached_attribute
from facet.embedding import (
    EmbeddedGraph,
    _compact,
    face_profiles,
    twin,
)


class DischargingError(ValueError):
    """Input outside the procedure's domain."""


# ("v", id) for vertices, ("f", face index) for faces.
Element = tuple[str, int]


class Transfer(NamedTuple):
    rule: str
    src: Element
    dst: Element
    amount: Fraction


class Negative(NamedTuple):
    """An element whose final charge is below zero."""

    element: Element
    charge: Fraction


@dataclass(frozen=True)
class ChargeLedger:
    """Initial and final charges plus the transfer log between them."""

    vertex_initial: tuple[Fraction, ...]
    face_initial: tuple[Fraction, ...]
    vertex_final: tuple[Fraction, ...]
    face_final: tuple[Fraction, ...]
    transfers: tuple[Transfer, ...] = ()
    gaps: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @cached_attribute
    def total_initial(self) -> Fraction:
        return _exact_sum(self.vertex_initial + self.face_initial)

    @cached_attribute
    def total_final(self) -> Fraction:
        return _exact_sum(self.vertex_final + self.face_final)

    def negatives(self) -> tuple[Negative, ...]:
        """Elements whose final charge is below zero, vertices first."""
        return tuple(
            Negative((kind, i), ch)
            for kind, charges in (("v", self.vertex_final), ("f", self.face_final))
            for i, ch in enumerate(charges)
            if ch.numerator < 0
        )


def _exact_sum(charges: tuple[Fraction, ...]) -> Fraction:
    """Sum over the common denominator, in integers."""
    ratios = [ch.as_integer_ratio() for ch in charges]
    den = math.lcm(*{d for _, d in ratios})
    return Fraction(sum(n * (den // d) for n, d in ratios), den)


def initial_charges(g: EmbeddedGraph) -> ChargeLedger:
    """Assign 2d(v) - 6 and len(face) - 6; total is exactly -12.

    Refuses disconnected input: Euler's formula would shift the total by
    6 per extra component and every downstream claim is stated for
    connected graphs.  Refuses edgeless input too: its one face has no
    walk, so it would never be charged.
    """
    if not g.is_connected:
        raise DischargingError(
            "discharging needs a connected graph; this one has "
            f"{g.component_count} components"
        )
    if g.m == 0:
        raise DischargingError("discharging needs at least one edge; this graph has none")
    frac = functools.cache(Fraction)  # one Fraction per distinct charge
    vch = tuple(frac(2 * d - 6) for d in g.degrees)
    fch = tuple(frac(len(w.darts) - 6) for w in g.faces())
    return ChargeLedger(
        vertex_initial=vch,
        face_initial=fch,
        vertex_final=vch,
        face_final=fch,
    )


# Rule amounts in units of 1/30.
_R1 = 6
_R2_FULL = 20
_R2_HALF = 10
_R3 = 30
_R4 = 25
_R5 = 35


def apply_rules(g: EmbeddedGraph, ledger: ChargeLedger) -> ChargeLedger:
    """Run rules R1 to R5 and return the extended ledger.

    R1  every 4+ vertex sends 1/5 to every incident 5-face.
    R2  for each 4+ vertex v adjacent to a 2-vertex u with side faces
        a1, a2 ordered by (length asc, 2-vertex count desc, face id):
        (a) len(a1) = 6: v sends 2/3 to a1;
        (b) both length 7 with two 2-vertices each: v sends 1/3 to both;
        (c) both length 7, a1 has 2+ and a2 exactly one: 2/3 to a1;
        (d) len(a1) = 7 and len(a2) >= 8: 2/3 to a1.
        Patterns outside (a)-(d), including a1 = a2, transfer nothing
        and are logged as gaps.
    R3  every face sends 1 to each incident 2-vertex not in a 2-thread.
    R4  every 7-face sends 5/6 to each incident thread 2-vertex.
    R5  every 8+ face sends 7/6 to each incident thread 2-vertex.

    Thread membership is the local test: a 2-vertex with a 2-valent
    neighbor.  A 3-thread makes that test coarser than the notion the
    rules were designed for, so its presence is noted.
    """
    if (len(ledger.vertex_initial), len(ledger.face_initial)) != (g.n, len(g.faces())):
        raise DischargingError("ledger does not match the graph")

    prof = face_profiles(g)
    deg, thread = g.degrees, g.two_thread
    # Charges in integer units of 1/unit while the rules run.
    ratios = [ch.as_integer_ratio() for ch in ledger.vertex_final + ledger.face_final]
    unit = math.lcm(30, *{den for _, den in ratios})
    scale = unit // 30
    units = [num * (unit // den) for num, den in ratios]
    vch, fch = units[:g.n], units[g.n:]
    transfers: list[Transfer] = list(ledger.transfers)
    gaps: list[str] = list(ledger.gaps)
    notes: list[str] = list(ledger.notes)
    frac = functools.cache(lambda units: Fraction(units, unit))

    def send(rule: str, src: Element, dst: Element, amount: int) -> None:
        units = amount * scale
        kind, i = src
        (vch if kind == "v" else fch)[i] -= units
        kind, i = dst
        (vch if kind == "v" else fch)[i] += units
        transfers.append(Transfer(rule, src, dst, frac(units)))

    heads = g._heads
    for v in range(g.n):
        if deg[v] == 2:
            d1, d2 = g.rotation[v]
            a, b = heads[d1], heads[d2]
            if a != v and b != v and deg[a] == deg[b] == 2:
                notes.append(
                    f"3-thread present: vertex {v} has two 2-valent neighbors; "
                    "thread classification is local"
                )

    # R1
    for v in range(g.n):
        if deg[v] < 4:
            continue
        # a face walk visits v exactly at the darts based at v
        for f in sorted({g.face_of_dart[d] for d in g.rotation[v]}):
            if prof[f].length == 5:
                send("R1", ("v", v), ("f", f), _R1)

    # R2
    for v in range(g.n):
        if deg[v] < 4:
            continue
        for u in sorted(set(g.neighbors(v))):
            if u == v or deg[u] != 2:
                continue
            d1, d2 = g.rotation[u]  # the faces on u's two sides
            f1, f2 = g.face_of_dart[d1], g.face_of_dart[d2]
            if f1 == f2:
                gaps.append(
                    f"R2 gap: 2-vertex {u} (next to {v}) is incident with "
                    f"face {f1} on both sides"
                )
                continue
            a1, a2 = sorted((f1, f2), key=lambda f: (prof[f].length, -prof[f].n2, f))
            l1, l2 = prof[a1].length, prof[a2].length
            n1, n2 = prof[a1].n2, prof[a2].n2
            if l1 == 6:
                send("R2", ("v", v), ("f", a1), _R2_FULL)
            elif l1 == l2 == 7 and n1 == n2 == 2:
                send("R2", ("v", v), ("f", a1), _R2_HALF)
                send("R2", ("v", v), ("f", a2), _R2_HALF)
            elif l1 == l2 == 7 and n1 >= 2 and n2 == 1:
                send("R2", ("v", v), ("f", a1), _R2_FULL)
            elif l1 == 7 and l2 >= 8:
                send("R2", ("v", v), ("f", a1), _R2_FULL)
            else:
                gaps.append(
                    f"R2 gap: vertex {v}, 2-vertex {u}, faces ({a1}, {a2}) "
                    f"with lengths ({l1}, {l2}) and 2-vertex counts "
                    f"({n1}, {n2}): no case applies"
                )

    # R3, R4, R5
    for walk in g.faces():
        f = walk.index
        length = prof[f].length
        for u in sorted(set(walk.vertices)):
            if deg[u] != 2:
                continue
            if not thread[u]:
                send("R3", ("f", f), ("v", u), _R3)
            elif length == 7:
                send("R4", ("f", f), ("v", u), _R4)
            elif length >= 8:
                send("R5", ("f", f), ("v", u), _R5)

    return ChargeLedger(
        vertex_initial=ledger.vertex_initial,
        face_initial=ledger.face_initial,
        vertex_final=tuple(map(frac, vch)),
        face_final=tuple(map(frac, fch)),
        transfers=tuple(transfers),
        gaps=tuple(gaps),
        notes=tuple(notes),
    )


# -- structure predicates ---------------------------------------------------


def _two_connected(g: EmbeddedGraph) -> bool:
    """2-connectivity of the pseudograph, read from its face walks.

    A connected plane graph with at least three vertices is 2-connected
    exactly when every face is bounded by a cycle, that is, when no face
    walk visits a vertex twice (Mohar and Thomassen, *Graphs on
    Surfaces*, 2001, section 2.1).  Loops never decide the answer, but a
    loop that encloses part of the graph hides a cut vertex from the
    walks: its base appears once on each side of it.  So a graph with
    loops is first rebuilt without them.  On two vertices a 2-cycle (two
    parallel edges) counts; a single edge, a bridge, does not.
    """
    if any(u == v for u, v in g.endpoints):
        heads = g._heads
        rotations = {v: [d for d in rot if heads[d] != v] for v, rot in enumerate(g.rotation)}
        g = _compact(g, g.endpoints, rotations).graph
    if g.n == 2:
        return g.m >= 2
    return g.n > 2 and g.is_connected and all(
        len(set(w.vertices)) == len(w.vertices) for w in g.faces()
    )


# Predicate 5 looks for separating cycles of at most this many edges.
_MAX_LEN = 7


def _short_cycles(g: EmbeddedGraph) -> Iterator[list[int]]:
    """Yield the simple cycles with at most ``_MAX_LEN`` edges, as dart
    sequences.

    Loops are 1-cycles and parallel pairs 2-cycles.  Each cycle starts
    at its minimum vertex and is yielded once, in the direction whose
    first dart comes earlier in that vertex's rotation.  Enumeration is
    lazy, so a caller that stops at the first hit skips the rest of the
    search.  A step to ``w`` is cut when even a shortest way back from
    ``w`` to the start would pass ``_MAX_LEN``, which drops only paths
    that cannot close in time.
    """
    heads = g._heads

    def back_dist(s: int) -> dict[int, int]:
        # BFS over the vertices >= s.  A path at w has taken at least
        # dist[w] steps, so past _MAX_LEN // 2 no step can close in time.
        dist, frontier = {s: 0}, [s]
        for depth in range(1, _MAX_LEN // 2 + 1):
            nxt = []
            for x in frontier:
                for d in g.rotation[x]:
                    w = heads[d]
                    if w > s and w not in dist:
                        dist[w] = depth
                        nxt.append(w)
            frontier = nxt
        return dist

    def dfs(
        s: int, v: int, path: list[int], dist: dict[int, int], visited: set[int],
        at: dict[int, int],
    ) -> Iterator[list[int]]:
        for d in g.rotation[v]:
            w = heads[d]
            if w == s:
                # Met once per direction; keep the one whose first dart
                # comes first at s.  Straight back along the first edge ties.
                if at[path[0] if path else d] < at[d ^ 1]:
                    yield path + [d]
                continue
            back = dist.get(w)
            if back is None or len(path) + 1 + back > _MAX_LEN or w in visited:
                continue
            visited.add(w)
            yield from dfs(s, w, path + [d], dist, visited, at)
            visited.discard(w)

    for s in range(g.n):
        at = {d: i for i, d in enumerate(g.rotation[s])}
        yield from dfs(s, s, [], back_dist(s), {s}, at)


def _cycle_separating(g: EmbeddedGraph, cyc: list[int]) -> bool:
    """Vertices strictly on both sides of the closed curve ``cyc``?

    At every cycle vertex the non-cycle darts split into the two arcs of
    the rotation between the outgoing and incoming cycle darts; arcs are
    globally consistent in an oriented embedding, so any dart whose head
    avoids the cycle pins its component to one side.  Components never
    touching the cycle are not anchored by the rotation system and are
    ignored.
    """
    heads = g._heads
    vset = {heads[d] for d in cyc}
    sides_hit: set[int] = set()
    for i, d_out in enumerate(cyc):
        v = heads[twin(d_out)]
        d_in = twin(cyc[i - 1])
        rot = g.rotation[v]
        a = rot.index(d_out)
        side = 0
        j = (a + 1) % len(rot)
        while j != a:
            d = rot[j]
            if d == d_in:
                side = 1
            else:
                head = heads[d]
                if head not in vset:
                    sides_hit.add(side)
                    if len(sides_hit) == 2:
                        return True
            j = (j + 1) % len(rot)
    return False


def _no_short_separating_cycle(g: EmbeddedGraph) -> bool:
    return not any(_cycle_separating(g, c) for c in _short_cycles(g))


class StructureReport(NamedTuple):
    """One boolean per structural conclusion, in a fixed field order.

    Every entry states a property that must hold in a minimal
    counterexample; a True value means this graph satisfies it.  The
    comments give each predicate's number.
    """

    two_connected: bool  # 1
    loopless: bool  # 2
    min_degree_two: bool  # 3
    four_vertex_two_neighbors: bool  # 4
    no_short_separating_cycle: bool  # 5
    faces_at_least_five: bool  # 6
    no_eight_face: bool  # 7
    no_three_thread: bool  # 8
    thread_far_from_2vertices_on_big_faces: bool  # 9
    five_faces_all_four_plus: bool  # 10
    six_face_2vertex_4plus_neighbors: bool  # 11
    no_thread_on_small_face: bool  # 12
    two_vertex_on_seven_plus_face: bool  # 13
    seven_face_thread_4plus_neighbor: bool  # 14
    thread_at_most_one_seven_face: bool  # 15
    seven_face_thread_extra_2vertex_pattern: bool  # 16
    seven_face_multi_2vertices_4plus: bool  # 17
    six_seven_shared_2vertex: bool  # 18
    seven_seven_shared_2vertex_4plus: bool  # 19
    seven_face_three_2verts_isolation: bool  # 20
    nine_face_no_2vertex: bool  # 21
    ten_face_two_2vertices: bool  # 22
    section_count_bounds: bool  # 23

    def as_dict(self) -> dict[str, bool]:
        return self._asdict()

    @property
    def all_pass(self) -> bool:
        return all(self)

    def failing(self) -> tuple[str, ...]:
        return tuple(name for name, ok in zip(self._fields, self) if not ok)


def structure_report(g: EmbeddedGraph) -> StructureReport:
    """Evaluate every structural predicate on the embedding.

    Predicates 1-5 are graph-wide.  Each of the others is stated on the
    element it constrains, in one pass over the faces, one over the
    2-vertices and one over the 2-thread edges; an element that violates
    a predicate clears its entry.
    """
    walks = g.faces()
    prof = face_profiles(g)
    deg, thread = g.degrees, g.two_thread
    ok = dict.fromkeys(StructureReport._fields, True)
    ok["two_connected"] = _two_connected(g)
    ok["loopless"] = all(u != v for u, v in g.endpoints)
    ok["min_degree_two"] = all(d >= 2 for d in deg)
    # 4: a 4-vertex has at most three 2-valent neighbors
    ok["four_vertex_two_neighbors"] = all(
        len({u for u in g.neighbors(v) if u != v and deg[u] == 2}) <= 3
        for v in range(g.n)
        if deg[v] == 4
    )
    ok["no_short_separating_cycle"] = _no_short_separating_cycle(g)

    for walk, (k, n2, s1, s2) in zip(walks, prof):
        verts = walk.vertices
        # A walk through a thread vertex passes its 2-valent neighbor
        # next to it, so it holds a 2-thread exactly when it holds a
        # thread vertex.
        has_thread = n2 >= 2 and any(thread[u] for u in verts)
        if k <= 6 and has_thread:
            ok["no_thread_on_small_face"] = False  # 12
        if k < 5:
            ok["faces_at_least_five"] = False  # 6
        elif k == 5:
            if any(deg[w] < 4 for w in verts):
                ok["five_faces_all_four_plus"] = False  # 10
        elif k == 6:
            # 11: both neighbors of a 2-vertex on a 6-face are 4+
            if any(
                deg[u] == 2 and min(deg[w] for w in g.neighbors(u)) < 4 for u in verts
            ):
                ok["six_face_2vertex_4plus_neighbors"] = False
        elif k == 7 and n2 >= (3 if has_thread else 2):
            # 16: with a thread and a third 2-vertex, each 2-vertex has a
            # 4+ neighbor and its other neighbor is 2-valent or 4+;
            # 17: with no thread and 2+ 2-vertices, each has a 4+ neighbor
            for u in verts:
                if deg[u] != 2:
                    continue
                lo, hi = sorted(deg[w] for w in g.neighbors(u))
                if has_thread:
                    if not (hi >= 4 and (lo == 2 or lo >= 4)):
                        ok["seven_face_thread_extra_2vertex_pattern"] = False
                elif hi < 4:
                    ok["seven_face_multi_2vertices_4plus"] = False
        elif k >= 8:
            if k == 8:
                ok["no_eight_face"] = False  # 7
            elif k == 9 and n2:
                ok["nine_face_no_2vertex"] = False  # 21
            elif k == 10 and n2 > 2:
                ok["ten_face_two_2vertices"] = False  # 22
            # 23: section bounds on 8+ faces holding 2-vertices
            if n2 and (
                n2 > k // 2
                or s2 > (k - 2 * s1) // 5
                or (k == 11 and s2 and n2 > 4)
            ):
                ok["section_count_bounds"] = False
            # 9: within facial distance 3 of a thread at walk positions
            # (i, i + 1), that is at positions i - 3 .. i + 4, only the
            # thread itself is 2-valent
            for i in range(k if has_thread else 0):
                u, v = verts[i], verts[(i + 1) % k]
                if u != v and deg[u] == deg[v] == 2 and any(
                    deg[w] == 2 and w != u and w != v
                    for w in (verts[(i + s) % k] for s in range(-3, 5))
                ):
                    ok["thread_far_from_2vertices_on_big_faces"] = False

    heads, side = g._heads, g.face_of_dart
    for v in range(g.n):
        if deg[v] != 2:
            continue
        # v's two neighbors and the faces on its two sides, by its darts
        d1, d2 = g.rotation[v]
        a, b, f1, f2 = heads[d1], heads[d2], side[d1], side[d2]
        # 8: every 2-vertex has a 3+ neighbor (on a loop, v is its own
        # neighbor and 2-valent)
        if deg[a] < 3 and deg[b] < 3:
            ok["no_three_thread"] = False
        p1, p2 = prof[f1], prof[f2]
        # 13: every 2-vertex touches a 7+ face
        if max(p1.length, p2.length) < 7:
            ok["two_vertex_on_seven_plus_face"] = False
        if f1 == f2:
            continue
        # Between two distinct faces, 18: a 6-face and a 7-face force the
        # rest of the 7-face to be 3+; 19: two 7-faces with 2+ 2-vertices
        # each force two distinct 4+ neighbors; 20: two 7-faces, one with
        # 3+ 2-vertices: v is the other's only 2-vertex
        if {p1.length, p2.length} == {6, 7}:
            seven = walks[f1 if p1.length == 7 else f2]
            if any(w != v and deg[w] < 3 for w in seven.vertices):
                ok["six_seven_shared_2vertex"] = False
        elif p1.length == p2.length == 7:
            if min(p1.n2, p2.n2) >= 2 and (a == b or min(deg[a], deg[b]) < 4):
                ok["seven_seven_shared_2vertex_4plus"] = False
            if (p1.n2 >= 3 and p2.n2 != 1) or (p2.n2 >= 3 and p1.n2 != 1):
                ok["seven_face_three_2verts_isolation"] = False

    for e, (u, v) in enumerate(g.endpoints):
        if u == v or deg[u] != 2 or deg[v] != 2:
            continue
        # 15: a thread touches at most one 7-face; 14: a thread on a
        # 7-face has a 4+ neighbor
        sides = {g.face_of_dart[2 * e], g.face_of_dart[2 * e + 1]}
        sevens = sum(prof[f].length == 7 for f in sides)
        if sevens > 1:
            ok["thread_at_most_one_seven_face"] = False
        if sevens and not any(deg[w] >= 4 for w in g.neighbors(u) + g.neighbors(v)):
            ok["seven_face_thread_4plus_neighbor"] = False

    return StructureReport(**ok)


# -- audit ------------------------------------------------------------------

VERDICT_VIOLATES = "violates-structure"
VERDICT_ANOMALY = "discharging-anomaly"


class AuditReport(NamedTuple):
    """Discharging outcome for one connected plane graph.

    ``verdict`` is "violates-structure" when at least one structural
    predicate fails (the graph cannot be a minimal counterexample for
    structural reasons), and "discharging-anomaly" when every predicate
    holds: the final charges sum to -12, so some element ends negative,
    which would mean the rule set fails on a structurally admissible
    graph and should never occur.
    """

    ledger: ChargeLedger
    structure: StructureReport
    verdict: str

    @property
    def total(self) -> Fraction:
        return self.ledger.total_final


def audit(g: EmbeddedGraph) -> AuditReport:
    """Initial charges, rules, conservation check, structure scan."""
    ledger = apply_rules(g, initial_charges(g))
    if ledger.total_initial != -12 or ledger.total_final != -12:
        raise DischargingError(
            f"charge conservation broken: initial {ledger.total_initial}, "
            f"final {ledger.total_final}"
        )
    structure = structure_report(g)
    verdict = VERDICT_ANOMALY if structure.all_pass else VERDICT_VIOLATES
    return AuditReport(ledger=ledger, structure=structure, verdict=verdict)
