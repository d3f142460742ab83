"""The benchmark's own plane-graph code: seeded generators, PEG text, face walks.

Nothing here imports facet.  The workloads are built from these
generators, so a change to facet's own generators or catalog can never
change what the benchmark feeds it, and the output checkers use the face
walks computed here instead of trusting facet's.

A graph is a rotation system in the PEG convention: edge ``e`` owns darts
``2e`` (at ``ends[e][0]``) and ``2e + 1`` (at ``ends[e][1]``), ``rot[v]``
lists the darts at ``v`` clockwise, and faces are the orbits of
``phi(d) = sigma(d ^ 1)`` where ``sigma`` is the clockwise successor.
"""

from __future__ import annotations

import random


class Plane:
    """Mutable rotation system with the two growth moves the generators use."""

    def __init__(self, n: int, ends: list[tuple[int, int]], rot: list[list[int]]):
        self.n = n
        self.ends = ends
        self.rot = rot

    @staticmethod
    def cycle(k: int) -> "Plane":
        ends = [(i, (i + 1) % k) for i in range(k)]
        rot = [[2 * i, 2 * ((i - 1) % k) + 1] for i in range(k)]
        return Plane(k, ends, rot)

    @staticmethod
    def prism(k: int) -> "Plane":
        """Outer k-cycle (edges 0..k-1), inner k-cycle (k..2k-1), spokes."""
        ends = [(i, (i + 1) % k) for i in range(k)]
        ends += [(k + i, k + (i + 1) % k) for i in range(k)]
        ends += [(i, k + i) for i in range(k)]
        rot = [[2 * i, 2 * (2 * k + i), 2 * ((i - 1) % k) + 1] for i in range(k)]
        rot += [
            [2 * (2 * k + i) + 1, 2 * (k + i), 2 * (k + (i - 1) % k) + 1]
            for i in range(k)
        ]
        return Plane(2 * k, ends, rot)

    @property
    def m(self) -> int:
        return len(self.ends)

    def vertex_of(self, dart: int) -> int:
        return self.ends[dart >> 1][dart & 1]

    def faces(self) -> list[list[int]]:
        """Face walks as dart lists, in order of their smallest dart."""
        succ = [0] * (2 * self.m)
        for r in self.rot:
            for i, d in enumerate(r):
                succ[d] = r[(i + 1) % len(r)]
        seen = [False] * (2 * self.m)
        walks = []
        for start in range(2 * self.m):
            if seen[start]:
                continue
            walk = []
            d = start
            while not seen[d]:
                seen[d] = True
                walk.append(d)
                d = succ[d ^ 1]
            walks.append(walk)
        return walks

    def check_euler(self) -> None:
        """Raise unless every dart sits at its own endpoint once and the
        connected rotation system has V - E + F = 2."""
        placed = sorted(d for r in self.rot for d in r)
        if placed != list(range(2 * self.m)):
            raise AssertionError("rotation system does not list every dart once")
        for v, r in enumerate(self.rot):
            if any(self.vertex_of(d) != v for d in r):
                raise AssertionError(f"dart listed at the wrong vertex {v}")
        euler = self.n - self.m + len(self.faces())
        if euler != 2:
            raise AssertionError(f"V - E + F = {euler}, not 2")

    def subdivide(self, e: int) -> None:
        """Edge ``e`` = (u, v) becomes (u, w); a new edge (w, v) follows."""
        u, v = self.ends[e]
        w, f = self.n, self.m
        self.ends[e] = (u, w)
        self.ends.append((w, v))
        self.rot[v] = [2 * f + 1 if d == 2 * e + 1 else d for d in self.rot[v]]
        self.rot.append([2 * e + 1, 2 * f])
        self.n += 1

    def split(self, walk: list[int], i: int, j: int, length: int) -> None:
        """Draw a path of ``length`` edges inside the face ``walk`` between
        the corners at walk positions ``i`` and ``j`` (distinct vertices)."""
        u, v = self.vertex_of(walk[i]), self.vertex_of(walk[j])
        inner = list(range(self.n, self.n + length - 1))
        chain = [u] + inner + [v]
        ids = list(range(self.m, self.m + length))
        self.ends.extend((chain[t], chain[t + 1]) for t in range(length))
        self.rot.extend([2 * ids[t] + 1, 2 * ids[t + 1]] for t in range(length - 1))
        self.n += length - 1
        # The new dart goes in at the corner, just before the walk's
        # outgoing dart, which keeps the path inside the face.
        ru, rv = self.rot[u], self.rot[v]
        ru.insert(ru.index(walk[i]), 2 * ids[0])
        rv.insert(rv.index(walk[j]), 2 * ids[-1] + 1)

    def peg(self) -> str:
        out = ["peg 1", f"vertices {self.n}", f"edges {self.m}"]
        out += [f"e {e} {u} {v}" for e, (u, v) in enumerate(self.ends)]
        out += [f"rot {v} " + " ".join(map(str, r)) for v, r in enumerate(self.rot)]
        return "\n".join(out) + "\n"


def parse_peg(text: str) -> Plane:
    """Read back PEG text written by :meth:`Plane.peg`."""
    n = m = 0
    ends: dict[int, tuple[int, int]] = {}
    rot: dict[int, list[int]] = {}
    for line in text.splitlines():
        f = line.split()
        if not f or f[0] == "peg":
            continue
        if f[0] == "vertices":
            n = int(f[1])
        elif f[0] == "edges":
            m = int(f[1])
        elif f[0] == "e":
            ends[int(f[1])] = (int(f[2]), int(f[3]))
        elif f[0] == "rot":
            rot[int(f[1])] = [int(x) for x in f[2:]]
    return Plane(n, [ends[e] for e in range(m)], [rot[v] for v in range(n)])


def small_graph(rng: random.Random) -> Plane:
    """A 2-connected plane pseudograph grown from a 4..8 cycle by 3..9
    moves: an edge subdivision (35%) or a face split by a path of 1..4
    edges between two distinct corners."""
    g = Plane.cycle(rng.randint(4, 8))
    for _ in range(rng.randint(3, 9)):
        if rng.random() < 0.35:
            g.subdivide(rng.randrange(g.m))
            continue
        walk = rng.choice(g.faces())
        spots = list(range(len(walk)))
        rng.shuffle(spots)
        pair = next(
            (
                (i, j)
                for i in spots
                for j in spots
                if g.vertex_of(walk[i]) != g.vertex_of(walk[j])
            ),
            None,
        )
        if pair is not None:
            g.split(walk, pair[0], pair[1], rng.choice((1, 2, 2, 3, 3, 4)))
    g.check_euler()
    return g


def large_graph(rng: random.Random, target_m: int, max_face: int = 16) -> Plane:
    """A 2-connected plane graph with ``target_m`` edges and faces of
    length at most ``max_face``: a ``max_face``-cycle grown by
    subdivisions and by face splits with paths of 1..3 edges, each move
    taken only when every face it touches stays within ``max_face``."""
    g = Plane.cycle(max_face)
    while g.m < target_m:
        walks = g.faces()
        if rng.random() < 0.45:
            face_len = {}
            for w in walks:
                for d in w:
                    face_len[d] = len(w)
            e = rng.randrange(g.m)
            if max(face_len[2 * e], face_len[2 * e + 1]) < max_face:
                g.subdivide(e)
            continue
        walk = rng.choice(walks)
        k = len(walk)
        i, j = rng.randrange(k), rng.randrange(k)
        length = min(rng.choice((1, 2, 3)), target_m - g.m)
        if (
            g.vertex_of(walk[i]) == g.vertex_of(walk[j])
            or (j - i) % k + length > max_face
            or (i - j) % k + length > max_face
        ):
            continue
        g.split(walk, i, j, length)
    g.check_euler()
    return g


def close_pairs(g: Plane, ell: int) -> dict[tuple[int, int], int]:
    """Every pair of distinct edges at facial distance at most ``ell``,
    with that distance: the least cyclic gap between them on a walk."""
    out: dict[tuple[int, int], int] = {}
    for walk in g.faces():
        k = len(walk)
        for i in range(k):
            for step in range(1, min(ell, k // 2) + 1):
                a, b = walk[i] >> 1, walk[(i + step) % k] >> 1
                if a == b:
                    continue
                key = (a, b) if a < b else (b, a)
                if out.get(key, ell + 1) > step:
                    out[key] = step
    return out


def face_clique_bound(g: Plane, ell: int) -> int:
    """A lower bound on the ell-facial chromatic index: the distinct edges
    of a face walk of length at most 2*ell+1 conflict pairwise, and so do
    any ell+1 consecutive edges of a longer walk."""
    best = 1 if g.m else 0
    for walk in g.faces():
        edges = [d >> 1 for d in walk]
        if len(edges) <= 2 * ell + 1:
            best = max(best, len(set(edges)))
        else:
            for i in range(len(edges)):
                window = {edges[(i + t) % len(edges)] for t in range(ell + 1)}
                best = max(best, len(window))
    return best
