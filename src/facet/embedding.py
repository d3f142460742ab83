"""Plane pseudograph embeddings encoded as rotation systems over darts.

An edge ``e`` owns two darts ``2e`` and ``2e + 1``; dart ``2e + end`` is
incident with ``endpoints[e][end]``.  The clockwise successor function
``sigma`` is given per vertex by the rotation lists, and faces are the
orbits of the face permutation ``phi(d) = sigma(twin(d))``.  Under this
convention a face walk traverses its boundary with the face interior on
the left, which is the orientation all surgery helpers below rely on.

Loops, parallel edges, and bridges are all legal.  Every constructor
funnels through :meth:`EmbeddedGraph.build`, which checks dart coverage
and the per-component Euler characteristic, so an ``EmbeddedGraph`` in
hand is always a genus-zero embedding.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from facet._cached import cached_attribute


class EmbeddingError(ValueError):
    """Rotation system is structurally broken or not a plane embedding."""


class PegParseError(EmbeddingError):
    """Malformed PEG text."""


class SurgeryError(EmbeddingError):
    """Surgery preconditions violated."""


# (lo, hi) -> (gap, face) for the pairs at gap <= ell; see
# EmbeddedGraph.edge_gap_table.
GapTable = dict[tuple[int, int], tuple[int, int]]


def _unshaped(endpoints: object, rotation: object) -> str:
    """Names the first edge or rotation list that is not a sequence."""
    for what, rows in (("edge", endpoints), ("rotation of vertex", rotation)):
        for i, row in enumerate(rows if isinstance(rows, Sequence) else ()):
            if not isinstance(row, Iterable):
                return f"{what} {i} is {row!r}, not a sequence"
    return "endpoints and rotation must be sequences of sequences"


def twin(dart: int) -> int:
    return dart ^ 1


def edge_of(dart: int) -> int:
    return dart >> 1


class FaceWalk(NamedTuple):
    """One orbit of the face permutation.

    ``darts[i]`` is based at ``vertices[i]`` and runs along
    ``edges[i]`` toward ``vertices[(i + 1) % len]``; ``len`` is the walk's
    length, so ``_make`` and ``_replace``, which check it, do not apply.
    """

    index: int
    darts: tuple[int, ...]
    edges: tuple[int, ...]
    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.darts)


class FaceProfile(NamedTuple):
    """Per-face counts used by the charge rules.

    ``n2`` counts distinct 2-vertices on the walk.  ``s1`` and ``s2``
    count maximal cyclic runs of 2-vertices of length exactly 1 and 2;
    longer runs are counted by neither, so ``n2 == s1 + 2 * s2`` holds
    exactly when every maximal run has length at most 2.
    """

    length: int
    n2: int
    s1: int
    s2: int


@dataclass(frozen=True)
class EmbeddedGraph:
    """Immutable plane pseudograph with an explicit rotation system.

    Fields: ``n`` vertices, ``endpoints[e] = (u, v)`` per edge (order
    fixes the dart labelling), ``rotation[v]`` the clockwise dart list
    at ``v``.  :attr:`warnings` lists non-fatal diagnostics, today only
    disconnectedness, computed from the graph itself.
    """

    n: int
    endpoints: tuple[tuple[int, int], ...]
    rotation: tuple[tuple[int, ...], ...]

    # -- construction -------------------------------------------------

    @staticmethod
    def build(
        n: int,
        endpoints: Iterable[tuple[int, int]],
        rotation: Iterable[Iterable[int]],
    ) -> "EmbeddedGraph":
        """Validate and freeze a rotation system.

        Raises :class:`EmbeddingError` unless every dart appears exactly
        once, at the vertex its endpoint dictates, and every connected
        component satisfies V - E + F = 2 with F counted as face-walk
        orbits (an isolated vertex counts one empty face).  The vertex
        count, endpoints and darts must be ``int`` itself: a bool, float
        or numeric string is refused, not coerced, and so is an edge or a
        rotation list that is not a sequence.
        """
        try:
            g = EmbeddedGraph(n, tuple(map(tuple, endpoints)), tuple(map(tuple, rotation)))
        except TypeError:
            raise EmbeddingError(_unshaped(endpoints, rotation)) from None
        g._validate()
        return g

    def _validate(self) -> None:
        if type(self.n) is not int:
            raise EmbeddingError(f"vertex count {self.n!r} is not an integer")
        if self.n < 0:
            raise EmbeddingError("negative vertex count")
        if len(self.rotation) != self.n:
            raise EmbeddingError(
                f"expected {self.n} rotation lists, got {len(self.rotation)}"
            )
        for e, uv in enumerate(self.endpoints):
            try:
                u, v = uv
            except ValueError:
                raise EmbeddingError(f"edge {e} has {len(uv)} endpoints, not 2") from None
            if not (type(u) is int and type(v) is int and 0 <= u < self.n and 0 <= v < self.n):
                raise EmbeddingError(f"edge {e} endpoint out of range")
        # Each connected rotation system has V - E + F = 2 - 2g <= 2, one
        # empty face for a dartless component, so the sum over components
        # is 2 * #components exactly when every component is plane.  Sigma,
        # read first by the face labels, checks every dart.
        starts, ncomp = self._face_labels[1], self.component_count
        if self.n - self.m + len(starts) + self.rotation.count(()) != 2 * ncomp:
            comp, tails = self._component_labels, self._tails
            for c in range(ncomp):
                v = comp.count(c)
                e = sum(comp[u] == c for u, _ in self.endpoints)
                f = sum(comp[tails[d]] == c for d in starts) or 1
                if v - e + f != 2:
                    raise EmbeddingError(
                        "rotation system is not a plane embedding: component "
                        f"{c} has V-E+F = {v}-{e}+{f}"
                    )

    # -- basic accessors ----------------------------------------------

    @property
    def m(self) -> int:
        return len(self.endpoints)

    @cached_attribute
    def _tails(self) -> list[int]:
        """``_tails[d]``: the vertex dart ``d`` is based at."""
        return [x for uv in self.endpoints for x in uv]

    @cached_attribute
    def _heads(self) -> list[int]:
        """``_heads[d]``: the vertex dart ``d`` points to, its twin's base."""
        return [x for u, v in self.endpoints for x in (v, u)]

    @cached_attribute
    def degrees(self) -> list[int]:
        """``degrees[v]``: the number of darts at ``v``; a loop counts twice."""
        return [len(r) for r in self.rotation]

    @cached_attribute
    def two_thread(self) -> tuple[bool, ...]:
        """``two_thread[v]``: ``v`` is a 2-vertex with a 2-valent neighbor
        other than itself, i.e. it lies on a 2-thread."""
        deg, heads = self.degrees, self._heads
        return tuple(
            deg[v] == 2 and any(deg[heads[d]] == 2 and heads[d] != v for d in rot)
            for v, rot in enumerate(self.rotation)
        )

    def neighbors(self, v: int) -> list[int]:
        """Neighbors in rotation order (repeats for parallel edges; a loop
        contributes the vertex itself twice)."""
        heads = self._heads
        return [heads[d] for d in self.rotation[v]]

    @cached_attribute
    def _component_labels(self) -> list[int]:
        # heads read as the twins' tails, which build has already listed
        comp, rotation, tails = [-1] * self.n, self.rotation, self._tails
        nxt = 0
        for s in range(self.n):
            if comp[s] != -1:
                continue
            comp[s] = nxt
            stack = [s]
            while stack:
                x = stack.pop()
                for d in rotation[x]:
                    y = tails[d ^ 1]
                    if comp[y] == -1:
                        comp[y] = nxt
                        stack.append(y)
            nxt += 1
        return comp

    @property
    def component_count(self) -> int:
        return 1 + max(self._component_labels, default=-1)

    @property
    def is_connected(self) -> bool:
        return self.component_count <= 1

    @property
    def warnings(self) -> tuple[str, ...]:
        if self.is_connected:
            return ()
        return (f"disconnected: {self.component_count} components",)

    # -- faces ----------------------------------------------------------

    @cached_attribute
    def sigma(self) -> tuple[int, ...]:
        """Clockwise-successor permutation on darts.

        Raises :class:`EmbeddingError` for a dart that is not an int in
        range, listed twice, listed at the wrong vertex, or not listed at all.
        """
        m2 = 2 * self.m
        # out[d] < 0 marks an unlisted dart; a bad successor is checked next.
        tails = self._tails
        out = [-1] * m2
        for vtx, rot in enumerate(self.rotation):
            for d, nxt in zip(rot, rot[1:] + rot[:1]):
                if type(d) is not int or not 0 <= d < m2:
                    raise EmbeddingError(f"dart {d!r} out of range at vertex {vtx}")
                if out[d] >= 0:
                    raise EmbeddingError(f"dart {d} listed twice")
                if tails[d] != vtx:
                    raise EmbeddingError(
                        f"dart {d} listed at vertex {vtx}, belongs to {tails[d]}"
                    )
                out[d] = nxt
        if -1 in out:
            missing = [d for d in range(m2) if out[d] < 0]
            raise EmbeddingError(f"missing darts {missing[:4]}")
        return tuple(out)

    def faces(self) -> tuple[FaceWalk, ...]:
        """Face walks as phi-orbits, built on first call from the face labels."""
        return self._faces

    @cached_attribute
    def _faces(self) -> tuple[FaceWalk, ...]:
        sigma, tails = self.sigma, self._tails
        walks = []
        for start in self._face_labels[1]:
            orbit, d = [start], sigma[start ^ 1]
            while d != start:
                orbit.append(d)
                d = sigma[d ^ 1]
            edges = tuple([d >> 1 for d in orbit])
            vertices = tuple([tails[d] for d in orbit])
            walks.append(FaceWalk(len(walks), tuple(orbit), edges, vertices))
        return tuple(walks)

    @cached_attribute
    def face_of_dart(self) -> list[int]:
        """``face_of_dart[d]``: the index of the face walk through ``d``."""
        return self._face_labels[0]

    @cached_attribute
    def _face_labels(self) -> tuple[list[int], list[int]]:
        """One pass over the face permutation: each dart's face and each
        face's least dart, faces numbered in the order of that dart."""
        sigma = self.sigma
        face, starts = [-1] * (2 * self.m), []
        for d in range(len(face)):
            if face[d] < 0:
                f, x = len(starts), d
                starts.append(d)
                while face[x] < 0:
                    face[x] = f
                    x = sigma[x ^ 1]
        return face, starts

    @cached_attribute
    def _face_profiles(self) -> tuple[FaceProfile, ...]:
        profiles = []
        deg = self.degrees
        for walk in self.faces():
            # One pass: a run of 2-vertices is tallied (runs[r] counts the
            # runs of r, for r up to the walk's length and at least 2) at
            # the vertex that ends it; the run before the first other
            # vertex joins the walk's last run, and a walk of 2-vertices
            # only is one run of its full length.
            twos, runs = set(), [0] * (len(walk.darts) + 2)
            run, lead = 0, -1
            for x in walk.vertices:
                if deg[x] == 2:
                    twos.add(x)
                    run += 1
                elif lead < 0:
                    lead, run = run, 0
                else:
                    runs[run] += 1
                    run = 0
            runs[run + max(lead, 0)] += 1
            profiles.append(FaceProfile(len(walk.darts), len(twos), runs[1], runs[2]))
        return tuple(profiles)

    # -- facial distance -------------------------------------------------

    def edge_gap_table(self, ell: int) -> GapTable:
        """Edge pairs within ``ell`` of each other on a shared face walk.

        Maps ``(e, f)`` with ``e < f`` at minimal cyclic gap at most
        ``ell`` to ``(gap, face)``, ``face`` the first face walk
        realising that gap.  Pairs farther apart, or never sharing a
        face, are absent.  A face of length k costs O(k * ell), and each
        table is computed once per graph and bound.
        """
        return self._gap_table("edges", ell)

    def vertex_gap_table(self, ell: int) -> GapTable:
        """Same as :meth:`edge_gap_table` but between vertex occurrences."""
        return self._gap_table("vertices", ell)

    @cached_attribute
    def _gap_tables(self) -> dict[tuple[str, int], GapTable]:
        return {}

    def _gap_table(self, key: str, ell: int) -> GapTable:
        """:func:`_close_pairs` over every face walk, cached: the one
        definition of closeness.  ``facial_coloring.verify`` passes the
        same kernel only the walks that repeat a color."""
        tables = self._gap_tables
        if (key, ell) not in tables:
            tables[key, ell] = _close_pairs(self.faces(), key, ell)
        return tables[key, ell]


def _close_pairs(walks: Iterable[FaceWalk], key: str, ell: int) -> GapTable:
    """Gap table of ``walks`` between their ``key`` ids (``"edges"`` or
    ``"vertices"``), for the pairs at cyclic gap at most ``ell``."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    # Steps j - i > 0 at cyclic gap <= r, ascending: each pair keeps
    # its least gap and the first walk, in face order, that realises it.
    best: GapTable = {}
    steps_by_length: dict[int, list[tuple[int, int]]] = {}
    for walk in walks:
        seq = getattr(walk, key)
        k = len(seq)
        steps = steps_by_length.get(k)
        if steps is None:
            r = min(ell, k // 2)
            steps = [*range(1, r + 1), *range(max(k - r, r + 1), k)]
            steps = steps_by_length[k] = [(t, min(t, k - t)) for t in steps]
        for i, x in enumerate(seq):
            for t, gap in steps:
                j = i + t
                if j >= k:
                    break
                y = seq[j]
                if x == y:
                    continue
                pair = (x, y) if x < y else (y, x)
                cur = best.get(pair)
                if cur is None or gap < cur[0]:
                    best[pair] = (gap, walk.index)
    return best


def facial_distance(g: EmbeddedGraph, e: int, f: int) -> float:
    """Minimum cyclic gap between occurrences of ``e`` and ``f`` over all
    face walks; 0 iff ``e == f``; ``math.inf`` when no walk carries both.
    Only the walks through ``e`` are scanned: O(k) for faces of length k."""
    _check_edge(g, e)
    _check_edge(g, f)
    if e == f:
        return 0
    best = math.inf
    for index in {g.face_of_dart[2 * e], g.face_of_dart[2 * e + 1]}:
        seq = g.faces()[index].edges
        at_e = [i for i, x in enumerate(seq) if x == e]
        for j, x in enumerate(seq):
            if x == f:
                for i in at_e:
                    best = min(best, abs(i - j), len(seq) - abs(i - j))
    return best


def facial_neighborhood(g: EmbeddedGraph, ell: int, e: int) -> frozenset[int]:
    """Edges distinct from ``e`` at facial distance at most ``ell``."""
    _check_edge(g, e)
    return frozenset(
        b if a == e else a for a, b in g.edge_gap_table(ell) if e in (a, b)
    )


def _check_edge(g: EmbeddedGraph, e: int) -> None:
    if not (0 <= e < g.m):
        raise EmbeddingError(f"edge id {e} out of range")


# -- PEG text format ----------------------------------------------------


def parse_peg(text: str) -> EmbeddedGraph:
    """Parse the plane-embedded-graph text format.

    Line 1 is ``peg 1``; then exactly one ``vertices <n>`` and one
    ``edges <m>`` line, one ``e <id> <u> <v>`` line per edge and one
    ``rot <v> <darts...>`` line per vertex; only ``rot`` lines vary in
    length.  ``#`` starts a comment.  A disconnected graph parses with
    a warning; a repeated declaration or a non-planar embedding is an error.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    rows = [parts for parts in map(str.split, lines) if parts]
    if not rows:
        raise PegParseError("empty input")
    if rows[0] != ["peg", "1"]:
        raise PegParseError(f"expected header 'peg 1', got {_peg_line(lines, 0)!r}")
    # int() also takes "+1", "1_0" and non-ASCII digits; scans of the whole
    # text, not a test per token, pick the strict reader where one may occur
    num = int if text.isascii() and "_" not in text and "+" not in text else _decimal

    counts: dict[str, int] = {}
    edges: dict[int, tuple[int, int]] = {}
    rots: dict[int, tuple[int, ...]] = {}
    for k, parts in enumerate(rows[1:], 1):
        kind = parts[0]
        try:
            if kind == "e":
                _, eid, u, v = parts
                eid, u, v = num(eid), num(u), num(v)
                if eid in edges:
                    raise PegParseError(f"edge {eid} declared twice")
                edges[eid] = (u, v)
            elif kind == "rot":
                v = num(parts[1])
                if v in rots:
                    raise PegParseError(f"rotation of vertex {v} declared twice")
                rots[v] = tuple(map(num, parts[2:]))
            elif kind == "vertices" or kind == "edges":
                _, count = parts
                if kind in counts:
                    raise PegParseError(f"{kind!r} declared twice")
                counts[kind] = num(count)
            else:
                raise PegParseError(f"unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, PegParseError):
                raise
            raise PegParseError(f"malformed line {_peg_line(lines, k)!r}") from exc
    n, m = counts.get("vertices"), counts.get("edges")
    if n is None or m is None:
        raise PegParseError("missing 'vertices' or 'edges' declaration")
    # counts first, so a huge declared count fails before any range is built
    if len(edges) != m or sorted(edges) != list(range(m)):
        raise PegParseError("edge ids must cover 0..m-1 exactly")
    if len(rots) != n or sorted(rots) != list(range(n)):
        raise PegParseError("rotation lines must cover every vertex exactly once")

    try:
        return EmbeddedGraph.build(
            n, [edges[e] for e in range(m)], [rots[v] for v in range(n)]
        )
    except EmbeddingError as exc:
        raise PegParseError(str(exc)) from exc


def _decimal(token: str) -> int:
    """``int(token)`` for an ASCII ``-?[0-9]+`` token only."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{token!r} is not a decimal integer")
    return int(token)


def _peg_line(lines: list[str], k: int) -> str:
    """The ``k``-th non-blank line, comment cut and stripped, for errors."""
    return [ln.strip() for ln in lines if ln.strip()][k]


def serialize_peg(g: EmbeddedGraph) -> str:
    """Emit PEG text, edges then rotations in ascending id order."""
    out = ["peg 1", f"vertices {g.n}", f"edges {g.m}"]
    for e, (u, v) in enumerate(g.endpoints):
        out.append(f"e {e} {u} {v}")
    for v in range(g.n):
        darts = " ".join(str(d) for d in g.rotation[v])
        out.append(f"rot {v} {darts}".rstrip())
    return "\n".join(out) + "\n"


# -- surgeries -----------------------------------------------------------


class SurgeryResult(NamedTuple):
    """Surgery output: the new graph plus the edge id re-mapping.

    ``edge_map[e]`` gives the new id, or ``None`` for a removed edge;
    both identified edges map to the merged id.
    """

    graph: EmbeddedGraph
    edge_map: tuple[Optional[int], ...]


def _compact(
    g: EmbeddedGraph,
    endpoints: Sequence[tuple[int, int]],
    rotations: dict[int, Sequence[int]],
) -> SurgeryResult:
    """Renumber what survives contiguously and rebuild.

    The surviving vertices are the keys of ``rotations`` (old id ->
    clockwise darts, old labels) and the surviving edges are those with
    a dart in it; both keep their relative order.  ``endpoints[e]``
    names the ends of each surviving edge by old vertex id.
    """
    kept = sorted(rotations)
    vmap = {v: i for i, v in enumerate(kept)}
    alive = sorted({edge_of(d) for rot in rotations.values() for d in rot})
    emap: list[Optional[int]] = [None] * g.m
    for i, e in enumerate(alive):
        emap[e] = i
    built = EmbeddedGraph.build(
        len(kept),
        [(vmap[endpoints[e][0]], vmap[endpoints[e][1]]) for e in alive],
        [[2 * emap[edge_of(d)] + (d & 1) for d in rotations[v]] for v in kept],
    )
    return SurgeryResult(built, tuple(emap))


def _after(g: EmbeddedGraph, v: int, d: int) -> list[int]:
    """The darts at ``v`` clockwise after ``d``, ending just before ``d``."""
    rot = g.rotation[v]
    i = rot.index(d)
    return [*rot[i + 1:], *rot[:i]]


def delete_edge(g: EmbeddedGraph, e: int) -> SurgeryResult:
    """Remove one edge; the two flanking faces merge."""
    _check_edge(g, e)
    rotations = {
        v: [d for d in rot if edge_of(d) != e] for v, rot in enumerate(g.rotation)
    }
    return _compact(g, g.endpoints, rotations)


def subdivide_edge(g: EmbeddedGraph, e: int) -> SurgeryResult:
    """Replace edge ``e = (u, v)`` by a path u-w-v through a new vertex.

    ``e`` keeps its id as the (u, w) half; the (w, v) half gets id m.
    """
    _check_edge(g, e)
    u, v = g.endpoints[e]
    w = g.n
    new_e = g.m
    endpoints = list(g.endpoints)
    endpoints[e] = (u, w)
    endpoints.append((w, v))
    rotations = [list(r) for r in g.rotation]
    # Old dart 2e+1 sat at v; the (w, v) half takes its slot there.
    rotations[v] = [
        (2 * new_e + 1 if d == 2 * e + 1 else d) for d in rotations[v]
    ]
    rotations.append([2 * e + 1, 2 * new_e])
    built = EmbeddedGraph.build(g.n + 1, endpoints, rotations)
    return SurgeryResult(built, tuple(range(g.m)))


def contract_edge(g: EmbeddedGraph, e: int) -> SurgeryResult:
    """Contract a non-loop edge, merging its endpoints.

    The merged rotation splices the two rotations at the contracted
    darts: u's darts after ``2e`` in clockwise order, then v's darts
    after ``2e + 1``.
    """
    _check_edge(g, e)
    u, v = g.endpoints[e]
    if u == v:
        raise SurgeryError(f"cannot contract loop {e}")
    endpoints = [
        (u if a == v else a, u if b == v else b) for (a, b) in g.endpoints
    ]
    rotations = dict(enumerate(g.rotation))
    del rotations[v]
    rotations[u] = _after(g, u, 2 * e) + _after(g, v, 2 * e + 1)
    return _compact(g, endpoints, rotations)


def contract_face(g: EmbeddedGraph, face: int) -> SurgeryResult:
    """Collapse a face: delete its boundary edges, merge its vertices.

    Requires the walk to visit no vertex and no edge twice.  At walk
    position i the boundary vertex keeps the arc of darts strictly
    between its outgoing walk dart and the twin of its incoming one,
    clockwise.  Because walks run counterclockwise around the
    collapsing disk, the arcs are stitched in reverse walk order to stay
    clockwise around the merged vertex, which takes the id of the
    walk's first vertex.
    """
    walks = g.faces()
    if not (0 <= face < len(walks)):
        raise SurgeryError(f"face id {face} out of range")
    walk = walks[face]
    if len(set(walk.vertices)) != len(walk.vertices):
        raise SurgeryError("non-simple face: walk repeats a vertex")
    if len(set(walk.edges)) != len(walk):
        raise SurgeryError("non-simple face: walk repeats an edge")

    # _after(v_i, darts[i]) ends with twin(darts[i - 1]), a boundary dart.
    arcs = [_after(g, v, d)[:-1] for v, d in zip(walk.vertices, walk.darts)]
    w = walk.vertices[0]
    on_face = set(walk.vertices)
    endpoints = [
        (w if a in on_face else a, w if b in on_face else b)
        for (a, b) in g.endpoints
    ]
    rotations = {
        x: rot for x, rot in enumerate(g.rotation) if x not in on_face
    }
    rotations[w] = arcs[0] + [d for arc in reversed(arcs[1:]) for d in arc]
    return _compact(g, endpoints, rotations)


def identify_edges(g: EmbeddedGraph, e: int, f: int, face: int) -> SurgeryResult:
    """Identify two vertex-disjoint edges of one face into a single edge.

    The face walk must traverse each of ``e`` and ``f`` exactly once.
    Writing the walk as  e, P1, f, P2  with ``a_e`` (u1 -> u2) and
    ``a_f`` (w1 -> w2) the walk's darts on e and f, the quotient glues
    e onto f antiparallel: u1 ~ w2 and u2 ~ w1.  P1 and P2 close into
    the two cycles of a dumbbell, and the old face splits into two
    faces bounded by P1 and P2.  The merged edge keeps e's id and
    darts; in f's opposite face ``a_e`` takes the slot of ``twin(a_f)``.
    Each merged rotation splices the two glued corners, as
    :func:`contract_edge` does: u1 keeps ``a_e`` and its darts after it,
    then w2's darts after ``twin(a_f)``; u2 keeps ``twin(a_e)``, then
    w1's darts after ``a_f``, then u2's darts after ``twin(a_e)``.
    Every other vertex keeps its rotation.
    """
    _check_edge(g, e)
    _check_edge(g, f)
    if e == f:
        raise SurgeryError("cannot identify an edge with itself")
    walks = g.faces()
    if not (0 <= face < len(walks)):
        raise SurgeryError(f"face id {face} out of range")
    walk = walks[face]
    pos_e = [i for i, x in enumerate(walk.edges) if x == e]
    pos_f = [i for i, x in enumerate(walk.edges) if x == f]
    if len(pos_e) != 1 or len(pos_f) != 1:
        raise SurgeryError(
            f"edges {e} and {f} must each occur exactly once on face {face}"
        )
    a_e, a_f = walk.darts[pos_e[0]], walk.darts[pos_f[0]]
    t_e, t_f = twin(a_e), twin(a_f)
    tails = g._tails
    u1, u2, w1, w2 = tails[a_e], tails[t_e], tails[a_f], tails[t_f]
    if len({u1, u2, w1, w2}) != 4:
        raise SurgeryError(f"edges {e} and {f} share a vertex")

    cls = list(range(g.n))
    cls[w2] = u1
    cls[w1] = u2
    endpoints = [(cls[a], cls[b]) for a, b in g.endpoints]
    rotations = {
        x: rot for x, rot in enumerate(g.rotation) if x not in (w1, w2)
    }
    rotations[u1] = [a_e, *_after(g, u1, a_e), *_after(g, w2, t_f)]
    rotations[u2] = [t_e, *_after(g, w1, a_f), *_after(g, u2, t_e)]
    res = _compact(g, endpoints, rotations)
    emap = list(res.edge_map)
    emap[f] = emap[e]
    return SurgeryResult(res.graph, tuple(emap))


def delete_vertex(g: EmbeddedGraph, v: int) -> SurgeryResult:
    """Remove a vertex with all incident edges; faces around it merge.

    Deleting a cut vertex leaves a disconnected graph, reported through
    the result graph's :attr:`~EmbeddedGraph.warnings` rather than an error.
    """
    if not (0 <= v < g.n):
        raise EmbeddingError(f"vertex id {v} out of range")
    dead = {edge_of(d) for d in g.rotation[v]}
    rotations = {
        x: [d for d in rot if edge_of(d) not in dead]
        for x, rot in enumerate(g.rotation)
        if x != v
    }
    return _compact(g, g.endpoints, rotations)


# -- medial graph --------------------------------------------------------


def medial(g: EmbeddedGraph) -> EmbeddedGraph:
    """Medial graph: medial vertex ``i`` sits on edge ``i`` of ``g``.

    Every consecutive dart pair (d, phi(d)) on a face walk becomes one
    medial edge, so the medial has 2m edges and is 4-regular.  The
    rotation at a medial vertex lists its four corner edges clockwise:
    corner(d), corner(phi^-1(twin d)), corner(twin d), corner(phi^-1(d)).
    """
    if g.m == 0:
        raise EmbeddingError("medial of an edgeless graph is undefined")
    sig = g.sigma
    phi = [sig[d ^ 1] for d in range(2 * g.m)]
    phi_inv = [0] * len(phi)
    for d, t in enumerate(phi):
        phi_inv[t] = d
    # Medial edge id c corresponds to the corner (c, phi(c)); its dart 2c
    # sits at medial vertex edge_of(c), dart 2c+1 at edge_of(phi(c)).
    endpoints = [(edge_of(d), edge_of(phi[d])) for d in range(2 * g.m)]
    rotations = []
    for e in range(g.m):
        d, t = 2 * e, 2 * e + 1
        rotations.append(
            [
                2 * d,
                2 * phi_inv[t] + 1,
                2 * t,
                2 * phi_inv[d] + 1,
            ]
        )
    return EmbeddedGraph.build(g.m, endpoints, rotations)


# -- generators ----------------------------------------------------------


def _cycle(n: int) -> EmbeddedGraph:
    if n < 1:
        raise ValueError("cycle needs n >= 1")
    if n == 1:
        return EmbeddedGraph.build(1, [(0, 0)], [[0, 1]])
    endpoints = [(i, (i + 1) % n) for i in range(n)]
    rotations = []
    for i in range(n):
        prev = (i - 1) % n
        rotations.append([2 * i, 2 * prev + 1])
    return EmbeddedGraph.build(n, endpoints, rotations)


def _k4() -> EmbeddedGraph:
    endpoints = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    rotations = [
        [2, 4, 0],
        [1, 8, 6],
        [7, 10, 3],
        [5, 11, 9],
    ]
    return EmbeddedGraph.build(4, endpoints, rotations)


def _prism(n: int) -> EmbeddedGraph:
    """Two concentric n-cycles joined by spokes; outer cycle edges are
    ids 0..n-1, inner n..2n-1, spokes 2n..3n-1."""
    if n < 3:
        raise ValueError("prism needs n >= 3")
    endpoints = []
    for i in range(n):
        endpoints.append((i, (i + 1) % n))  # outer
    for i in range(n):
        endpoints.append((n + i, n + (i + 1) % n))  # inner
    for i in range(n):
        endpoints.append((i, n + i))  # spoke
    rotations = []
    for i in range(n):
        prev = (i - 1) % n
        rotations.append([2 * i, 2 * (2 * n + i), 2 * prev + 1])
    for i in range(n):
        prev = (i - 1) % n
        rotations.append(
            [2 * (2 * n + i) + 1, 2 * (n + i), 2 * (n + prev) + 1]
        )
    return EmbeddedGraph.build(2 * n, endpoints, rotations)


def _theta(a: int, b: int, c: int) -> EmbeddedGraph:
    """Two branch vertices joined by three internally disjoint paths of
    a, b, c edges; length-1 paths give parallel edges."""
    if min(a, b, c) < 1:
        raise ValueError("theta path lengths must be >= 1")
    n = 2
    endpoints: list[tuple[int, int]] = []
    first_dart: list[int] = []
    last_dart: list[int] = []
    for length in (a, b, c):
        inner = list(range(n, n + length - 1))
        n += length - 1
        chain = [0] + inner + [1]
        ids = []
        for t in range(length):
            ids.append(len(endpoints))
            endpoints.append((chain[t], chain[t + 1]))
        first_dart.append(2 * ids[0])
        last_dart.append(2 * ids[-1] + 1)
    rotations: list[list[int]] = [[] for _ in range(n)]
    rotations[0] = [first_dart[0], first_dart[1], first_dart[2]]
    rotations[1] = [last_dart[0], last_dart[2], last_dart[1]]
    eid = 0
    for length in (a, b, c):
        for t in range(length - 1):
            w = endpoints[eid + t][1]
            rotations[w] = [2 * (eid + t) + 1, 2 * (eid + t + 1)]
        eid += length
    return EmbeddedGraph.build(n, endpoints, rotations)


def _subdivided_k4(ell: int) -> EmbeddedGraph:
    """K4 with the three edges at one vertex each subdivided ell-1 times."""
    if ell < 1:
        raise ValueError("subdivided_k4 needs ell >= 1")
    g = _k4()
    for e in (2, 4, 5):  # the edges incident with vertex 3
        cur = e
        for _ in range(ell - 1):
            g = subdivide_edge(g, cur).graph
    return g


def generate(family: str, *params: int) -> EmbeddedGraph:
    """Build a named plane graph family member.

    Families: ``cycle(n)``, ``k4``, ``prism(n)``, ``theta(a, b, c)``,
    ``subdivided_k4(ell)``.
    """
    try:
        if family == "cycle":
            (n,) = params
            return _cycle(n)
        if family == "k4":
            if params:
                raise ValueError("k4 takes no parameters")
            return _k4()
        if family == "prism":
            (n,) = params
            return _prism(n)
        if family == "theta":
            a, b, c = params
            return _theta(a, b, c)
        if family == "subdivided_k4":
            (ell,) = params
            return _subdivided_k4(ell)
    except ValueError as exc:
        raise ValueError(f"bad parameters for family {family!r}: {exc}") from exc
    raise ValueError(f"unknown family {family!r}")


def random_plane_graph(seed: int, max_ops: int = 9) -> EmbeddedGraph:
    """Seeded random 2-connected plane pseudograph.

    Grows a cycle by repeatedly splitting a face with a path between two
    distinct boundary vertices, or subdividing an edge.  Split paths of
    length >= 2 dominate, so the result is never a triangulation.
    """
    rng = random.Random(seed)
    g = _cycle(rng.randint(4, 8))
    for _ in range(rng.randint(3, max_ops)):
        if rng.random() < 0.35 and g.m < 40:
            g = subdivide_edge(g, rng.randrange(g.m)).graph
            continue
        walk = rng.choice(g.faces())
        spots = list(range(len(walk)))
        rng.shuffle(spots)
        # every face of a loopless 2-connected graph has two distinct vertices
        i = spots[0]
        j = next(j for j in spots if walk.vertices[j] != walk.vertices[i])
        length = rng.choice((1, 2, 2, 3, 3, 4))
        g = _split_face(g, walk, i, j, length)
    return g


def _split_face(
    g: EmbeddedGraph, walk: FaceWalk, i: int, j: int, length: int
) -> EmbeddedGraph:
    """Add a path of ``length`` edges across a face, between the corners
    at walk positions ``i`` and ``j``."""
    u, v = walk.vertices[i], walk.vertices[j]
    inner = list(range(g.n, g.n + length - 1))
    chain = [u] + inner + [v]
    endpoints = list(g.endpoints)
    ids = []
    for t in range(length):
        ids.append(len(endpoints))
        endpoints.append((chain[t], chain[t + 1]))
    rotations = [list(r) for r in g.rotation] + [[] for _ in inner]

    def insert_before(vtx: int, before_dart: int, new_dart: int) -> None:
        rot = rotations[vtx]
        rot.insert(rot.index(before_dart), new_dart)

    # The new path lies inside the face: at each anchor its dart slots in
    # at the corner, i.e. immediately before the outgoing walk dart.
    insert_before(u, walk.darts[i], 2 * ids[0])
    insert_before(v, walk.darts[j], 2 * ids[-1] + 1)
    for t, w in enumerate(inner):
        rotations[w] = [2 * ids[t] + 1, 2 * ids[t + 1]]
    return EmbeddedGraph.build(g.n + len(inner), endpoints, rotations)


# -- profiles ------------------------------------------------------------


def face_profiles(g: EmbeddedGraph) -> tuple[FaceProfile, ...]:
    """Length, 2-vertex, and section counts per face, indexed by face;
    computed once per graph."""
    return g._face_profiles

