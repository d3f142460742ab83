"""List-coloring tools: Gallai trees and degree-feasible choosability.

The degree-feasibility guarantee: a connected graph with lists of size
at least the degree at every vertex is list-colorable unless every list
is exactly degree-sized and every block of the graph is a complete graph
or an odd cycle (a Gallai tree).  ``degree_feasible_colorable`` colors
lists with slack by the guarantee's own construction (Erdős, Rubin and
Taylor): greedily, in reverse BFS order from a vertex with slack.  Tight
lists go to the exact search, whose verdict the Gallai-tree test backs.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Collection, Hashable, Iterable, Optional, Sequence

from facet._cached import cached_attribute

_MAX_NODES = 25  # the exact search's default budget, in vertices


class ListColoringError(ValueError):
    pass


class SearchBudgetError(RuntimeError):
    """Instance exceeds the exact search's size budget."""


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    adjacency: tuple[frozenset[int], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                raise ListColoringError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ListColoringError(f"loop at {u} not allowed")
            adj[u].add(v)
            adj[v].add(u)
        return SimpleGraph(n, tuple(frozenset(s) for s in adj))

    @cached_attribute
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v) for u in range(self.n) for v in self.adjacency[u] if u < v
        ]

    @cached_attribute
    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in self.adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.n

    @cached_attribute
    def _search_plan(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """``list_color``'s graph-only facts: the vertices by degree
        descending (ties by id), and each vertex's neighbors as a tuple."""
        order = sorted(range(self.n), key=lambda v: -self.degrees[v])
        return tuple(order), tuple(tuple(a) for a in self.adjacency)

    @cached_attribute
    def _coloring_plans(self) -> list:
        """``_coloring_plan`` per root, filled on first use."""
        return [None] * self.n

    @cached_attribute
    def _gallai_tree(self) -> bool:
        for blk in blocks(self):
            k = len(blk)
            inner = [len(self.adjacency[v] & blk) for v in blk]
            if not all(d == k - 1 for d in inner) and not (
                k >= 3 and k % 2 and all(d == 2 for d in inner)
            ):
                return False
        return True


def blocks(g: SimpleGraph) -> tuple[frozenset[int], ...]:
    """Block decomposition, as vertex sets: biconnected components,
    bridges as 2-sets, isolated vertices as singletons.  Iterative
    lowpoint computation with an explicit edge stack.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    out: list[frozenset[int]] = []
    counter = 0

    for root in range(g.n):
        if root in disc:
            continue
        if not g.adjacency[root]:
            out.append(frozenset((root,)))
            continue
        disc[root] = low[root] = counter
        counter += 1
        estack: list[tuple[int, int]] = []
        stack = [(root, None, iter(sorted(g.adjacency[root])))]
        while stack:
            v, parent, it = stack[-1]
            w = next(it, None)
            if w is None:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] >= disc[pv]:
                        comp: set[int] = set()
                        while estack:
                            a, b = estack.pop()
                            comp.update((a, b))
                            if (a, b) == (pv, v):
                                break
                        out.append(frozenset(comp))
                continue
            if w == parent:
                continue
            if w not in disc:
                estack.append((v, w))
                disc[w] = low[w] = counter
                counter += 1
                stack.append((w, v, iter(sorted(g.adjacency[w]))))
            elif disc[w] < disc[v]:
                estack.append((v, w))
                low[v] = min(low[v], disc[w])
    return tuple(out)


def is_gallai_tree(g: SimpleGraph) -> bool:
    """True when every block induces a complete graph or an odd cycle.

    Defined for connected graphs only; disconnected input is rejected.
    """
    if not g.is_connected:
        raise ListColoringError("Gallai-tree test needs a connected graph")
    return g._gallai_tree


# The colors sorted by repr and color i's bit 1 << i (shared; never changed),
# memoized for plain ints only: {True, 2} equals {1, 2} yet sorts apart.
@functools.lru_cache(maxsize=256)
def _palette(colors: frozenset) -> tuple[tuple, dict]:
    colors = tuple(sorted(colors, key=repr))
    return colors, {c: 1 << i for i, c in enumerate(colors)}


def _domains(lists: Sequence[Collection[Hashable]]) -> tuple[tuple, list[int]]:
    """The union of the lists as a palette, and each list as a bit mask."""
    try:
        palette = frozenset().union(*lists)
    except TypeError as exc:  # a list that is not iterable, or an unhashable color
        raise ListColoringError(f"each list must be a collection of colors: {exc}") from exc
    sort = _palette if set(map(type, palette)) <= {int} else _palette.__wrapped__
    colors, bit = sort(palette)
    domains = []
    for l in lists:
        d = 0
        for c in l:
            d |= bit[c]
        domains.append(d)
    # the union used up any one-shot iterator, which leaves its mask 0
    if 0 in domains and not all(hasattr(l, "__len__") for l in lists):
        raise ListColoringError("each list must be a collection")
    return colors, domains


def list_color(
    g: SimpleGraph,
    lists: Sequence[Collection[Hashable]],
    max_nodes: int = _MAX_NODES,
) -> Optional[dict[int, Hashable]]:
    """Exact list-coloring search; a proper assignment or ``None``.

    Backtracking with forward checking on bit masks: color ``i`` is bit
    ``i`` of the union of the lists sorted by ``repr`` (once per process
    for a palette of plain ints), and each vertex's live colors are one
    int; :func:`degree_feasible_colorable` shares this set-up.  Vertices
    are attacked fewest live colors first (degree descending, id as the
    tiebreaks), and each tries its live colors in ``repr`` order.  The
    returned dict lists the vertices in the order they were colored.
    """
    if len(lists) != g.n:
        raise ListColoringError("one list per vertex required")
    return _search(g, *_domains(lists), max_nodes)


def _search(g: SimpleGraph, colors: tuple, domains: list, max_nodes: int) -> Optional[dict]:
    """:func:`list_color`'s budget and search on :func:`_domains`' output,
    which it overwrites; a 0 mask is an empty list, not a used-up iterator."""
    if g.n > max_nodes:
        raise SearchBudgetError(f"graph has {g.n} vertices, search budget is {max_nodes}")
    if 0 in domains:
        return None
    order, nbrs = g._search_plan
    # one frame (vertex, live colors, untried colors, pruned neighbors,
    # bit) per colored vertex; a colored vertex's domain is 0, so pruning
    # and picking skip it
    stack = []
    most = len(colors) + 1  # above any domain's size
    while True:
        # fewest live colors, first in order; no free domain is empty here
        v, size = -1, most
        for u in order:
            s = domains[u].bit_count()
            if 0 < s < size:
                v, size = u, s
                if s == 1:
                    break
        if v < 0:
            return {u: colors[b.bit_length() - 1] for u, _, _, _, b in stack}
        live = untried = domains[v]
        while True:
            if untried:
                b = untried & -untried
                untried ^= b
                domains[v] = 0
                pruned = []
                for u in nbrs[v]:
                    d = domains[u]
                    if d & b:
                        if d == b:  # u would have no color left
                            break
                        domains[u] = d ^ b
                        pruned.append(u)
                else:
                    stack.append((v, live, untried, pruned, b))
                    break
            elif stack:  # v is out of colors: back to the last colored
                v, live, untried, pruned, b = stack.pop()
            else:
                return None
            # take back color b of v
            domains[v] = live
            for u in pruned:
                domains[u] |= b


def _coloring_plan(g: SimpleGraph, root: int) -> tuple:
    """Reverse BFS order from ``root``, neighbors visited by ascending id,
    as (vertex, its neighbors colored after it) pairs; cached per root."""
    plan = g._coloring_plans[root]
    if plan is None:
        order, rank = [root], {root: 0}
        for v in order:
            for u in sorted(g.adjacency[v] - rank.keys()):
                rank[u] = len(order)
                order.append(u)
        plan = g._coloring_plans[root] = tuple(
            (v, tuple(u for u in g.adjacency[v] if rank[u] < rank[v])) for v in reversed(order)
        )
    return plan


def degree_feasible_colorable(
    g: SimpleGraph, lists: Sequence[Collection[Hashable]]
) -> tuple[bool, bool, Optional[dict[int, Hashable]]]:
    """Degree-feasibility guarantee, with a coloring when there is one.

    Requires a connected graph and ``|L(v)| >= d(v)`` in distinct colors.
    Returns ``(guaranteed, colorable, coloring)``, the dict in coloring
    order.  When some list exceeds its degree, both flags are True and
    the coloring is built in reverse BFS order from the least such
    vertex: each vertex takes its first free color by ``repr``, and one
    is left, as its BFS parent is still uncolored or, at the root, its
    list has slack.  Otherwise
    :func:`list_color`'s search decides, within its vertex budget, and
    ``guaranteed`` is True when the graph is not a Gallai tree.
    """
    if not g.is_connected:
        raise ListColoringError("guarantee needs a connected graph")
    colors, domains = _domains(lists)
    sizes = list(map(int.bit_count, domains))
    if len(sizes) != g.n:
        raise ListColoringError("one list per vertex required")
    if not all(map(operator.ge, sizes, g.degrees)):
        v = next(v for v, d in enumerate(g.degrees) if sizes[v] < d)
        raise ListColoringError(f"list at vertex {v} smaller than its degree")
    slack = list(map(operator.gt, sizes, g.degrees))
    if True not in slack:
        coloring = _search(g, colors, domains, _MAX_NODES)
        return not is_gallai_tree(g), coloring is not None, coloring
    coloring = {}
    for v, later in _coloring_plan(g, slack.index(True)):
        d = domains[v]
        b = d & -d
        coloring[v] = colors[b.bit_length() - 1]
        for u in later:
            domains[u] &= ~b
    return True, True, coloring
