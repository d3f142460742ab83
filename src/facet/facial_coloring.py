"""Facial edge-colorings: conflict graphs, verification, exact solving.

An ell-facial edge-coloring assigns colors to edges so that any two
distinct edges at facial distance at most ell receive different colors.
The conflict graph has one node per edge and one conflict per such pair,
so verification and chromatic questions reduce to ordinary vertex
problems on it.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Iterable, NamedTuple

from facet.choosability import SearchBudgetError, SimpleGraph, list_color
from facet.embedding import EmbeddedGraph, _close_pairs


class ColoringError(ValueError):
    """Malformed or improper coloring input."""


class Violation(NamedTuple):
    """One conflicting pair sharing a color, with its witness walk."""

    e: int
    f: int
    color: int
    face: int
    gap: int


class Verdict(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...] = ()
    # ids left uncolored when a total coloring was required
    missing: tuple[int, ...] = ()


def conflict_graph(g: EmbeddedGraph, ell: int) -> SimpleGraph:
    """The ell-facial conflict graph: vertex ``e`` is edge ``e`` of ``g``."""
    return SimpleGraph.from_edges(g.m, g.edge_gap_table(ell))


def _conflict_masks(g: EmbeddedGraph, ell: int) -> list[int]:
    """Per edge, the bit mask of the edges it conflicts with."""
    masks = [0] * g.m
    for a, b in g.edge_gap_table(ell):
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def _check_ids(coloring: dict[int, int], count: int, kind: str) -> None:
    for key, color in coloring.items():
        if type(key) is not int or not 0 <= key < count:
            raise ColoringError(f"{kind} id {key!r} out of range")
        if type(color) is not int or color < 1:
            raise ColoringError(f"color {color!r} on {kind} {key} not a positive integer")


def _verdict(
    pairs: Iterable, coloring: dict[int, int], count: int, require_total: bool
) -> Verdict:
    """Judge a coloring of ids ``0..count-1`` against its close pairs."""
    bad = tuple(
        Violation(a, b, coloring[a], face, gap)
        for (a, b), (gap, face) in sorted(
            (pair, wit) for pair, wit in pairs
            if pair[0] in coloring and coloring[pair[0]] == coloring.get(pair[1])
        )
    )
    missing: tuple[int, ...] = ()
    if require_total:
        missing = tuple(x for x in range(count) if x not in coloring)
    return Verdict(ok=not bad and not missing, violations=bad, missing=missing)


def _judge(
    g: EmbeddedGraph, key: str, ell: int, coloring: dict[int, int], require_total: bool
) -> Verdict:
    """:func:`_verdict` on the close pairs of the walks whose ``key`` ids,
    read as colors, repeat one (an uncolored ``x`` reads as ``~x``), found
    through the ids whose color another id carries.  A pair sharing a
    color lies on such a walk at each of its gaps, so its least gap and
    first witness face are those of the full gap table."""
    count, kind = (g.m, "edge") if key == "edges" else (g.n, "vertex")
    _check_ids(coloring, count, kind)
    tally, side, get = Counter(coloring.values()), g.face_of_dart, coloring.get
    darts = g.rotation.__getitem__ if key == "vertices" else lambda x: (2 * x, 2 * x + 1)
    walks = []
    for f in sorted({side[d] for x, c in coloring.items() if tally[c] > 1 for d in darts(x)}):
        walk = g.face_walk(f)
        seq = getattr(walk, key)
        if len(set(map(get, seq, map(operator.invert, seq)))) < len(seq):
            walks.append(walk)
    return _verdict(_close_pairs(walks, key, ell).items(), coloring, count, require_total)


def verify(
    g: EmbeddedGraph,
    ell: int,
    coloring: dict[int, int],
    require_total: bool = True,
) -> Verdict:
    """Check a coloring; report every conflict with a witness face.

    With ``require_total`` any uncolored edge is reported in ``missing``
    and fails the verdict; without it the coloring is judged on its
    colored support alone.  The edge gap table defines closeness, but
    only the face walks that repeat a color are scanned (:func:`_judge`).
    """
    return _judge(g, "edges", ell, coloring, require_total)


def verify_vertex(
    g: EmbeddedGraph,
    ell: int,
    coloring: dict[int, int],
    require_total: bool = True,
) -> Verdict:
    """Vertex analogue: vertices at facial distance <= ell along a face
    walk must differ.  Violation fields name vertices instead of edges;
    as in :func:`verify`, only the walks that repeat a color are scanned."""
    return _judge(g, "vertices", ell, coloring, require_total)


def _degree_order(masks: list[int]) -> list[int]:
    """Conflict degree descending, id as the tiebreak."""
    return sorted(range(len(masks)), key=lambda e: (-masks[e].bit_count(), e))


def _first_fit(masks: list[int], order: list[int]) -> dict[int, int]:
    """First-fit over 0-based colors under a node order."""
    classes: list[int] = []  # classes[c]: bit mask of the edges colored c
    coloring: dict[int, int] = {}
    for e in order:
        c = 0
        while c < len(classes) and classes[c] & masks[e]:
            c += 1
        if c == len(classes):
            classes.append(0)
        classes[c] |= 1 << e
        coloring[e] = c
    return coloring


def _greedy_clique(masks: list[int], order: list[int]) -> int:
    """Greedy clique, as a bit mask, taking nodes in ``order``."""
    clique = 0
    for e in order:
        if clique & ~masks[e] == 0:
            clique |= 1 << e
    return clique


def _face_clique(g: EmbeddedGraph, ell: int) -> set[int]:
    """Largest conflict clique read off one face walk.

    Any two positions of a walk of length at most 2*ell+1 lie within
    ell of each other cyclically, and so do any ell+1 consecutive
    positions of a longer walk; their distinct edges pairwise conflict.
    """
    windows = []
    for walk in g.faces():
        seq = walk.edges
        if len(seq) <= 2 * ell + 1:
            windows.append(seq)
        else:
            ring = seq + seq[:ell]
            windows += [ring[i : i + ell + 1] for i in range(len(seq))]
    return max(map(set, windows), key=len, default=set())


def chromatic_index(
    g: EmbeddedGraph,
    ell: int,
    max_nodes: int = 40,
) -> tuple[int, dict[int, int]]:
    """Exact ell-facial chromatic index with a witness coloring.

    The lower bound is the larger of a greedy clique and
    :func:`_face_clique`; first fit in conflict degree order (id as the
    tiebreak) is the incumbent, returned when it meets the bound.
    Otherwise each k from the bound up is decided by
    :func:`~facet.choosability.list_color` on the conflict graph, with
    the i-th edge of the larger clique pinned to color i and every
    other edge offered colors 1..k; the pinning breaks the color
    symmetry.  The witness is the first coloring found.

    Raises :class:`~facet.choosability.SearchBudgetError` for instances
    above ``max_nodes`` conflict nodes; the search is exact but
    exponential, and the budget keeps misuse loud instead of slow.
    """
    masks = _conflict_masks(g, ell)
    n = g.m
    if n > max_nodes:
        raise SearchBudgetError(
            f"conflict graph has {n} nodes, budget is {max_nodes}; "
            "instance too large for the exact solver"
        )
    if n == 0:
        return 0, {}

    order = _degree_order(masks)
    clique = _greedy_clique(masks, order)
    face = _face_clique(g, ell)
    lower = max(1, clique.bit_count(), len(face))
    first = _first_fit(masks, order)
    best = 1 + max(first.values())
    if best > lower:
        if len(face) <= clique.bit_count():
            face = {e for e in range(n) if clique >> e & 1}
        pinned = {e: (i,) for i, e in enumerate(sorted(face), 1)}
        sg = conflict_graph(g, ell)
        for k in range(lower, best):
            lists = [pinned.get(e, range(1, k + 1)) for e in range(n)]
            found = list_color(sg, lists, max_nodes=max_nodes)
            if found is not None:
                return k, found
    return best, {e: c + 1 for e, c in first.items()}


# -- coloring text format --------------------------------------------------

def parse_coloring(text: str) -> dict[int, int]:
    """Parse ``c <edge> <color>`` lines of ASCII digits; ``#`` comments allowed."""
    out: dict[int, int] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        digits = "".join(parts[1:])
        if len(parts) != 3 or parts[0] != "c" or not (digits.isascii() and digits.isdigit()):
            raise ColoringError(f"malformed coloring line {line.strip()!r}")
        e, c = int(parts[1]), int(parts[2])
        if e in out:
            raise ColoringError(f"edge {e} colored twice")
        out[e] = c
    return out


def serialize_coloring(coloring: dict[int, int]) -> str:
    return "".join(f"c {e} {coloring[e]}\n" for e in sorted(coloring))
