"""Shared graph builders for the test suite."""

import re
import sys
from fractions import Fraction

from facet import choosability
from facet.choosability import ListColoringError, SearchBudgetError, blocks
from facet.discharging import ChargeLedger, DischargingError, Negative, Transfer
from facet.embedding import (
    EmbeddedGraph,
    face_profiles,
    facial_distance,
    facial_neighborhood,
    generate,
    twin,
)
from facet.facial_coloring import ColoringError, Verdict, _check_ids, _verdict
from facet.nullstellensatz import pack, unpack


def antiprism5() -> EmbeddedGraph:
    """Two concentric pentagons joined by a band of 10 triangles.

    Outer vertices 0..4, inner 5..9; every vertex is 4-valent and lies
    on exactly one pentagonal face, which makes the 1/5-per-5-face rule
    arithmetic easy to pin down.
    """
    endpoints = []
    for i in range(5):
        endpoints.append((i, (i + 1) % 5))  # outer, ids 0..4
    for i in range(5):
        endpoints.append((5 + i, 5 + (i + 1) % 5))  # inner, ids 5..9
    for i in range(5):
        endpoints.append((i, 5 + i))  # spokes A, ids 10..14
    for i in range(5):
        endpoints.append((i, 5 + ((i - 1) % 5)))  # spokes B, ids 15..19
    rot = []
    for i in range(5):
        rot.append([2 * i, 20 + 2 * i, 30 + 2 * i, 2 * ((i - 1) % 5) + 1])
    for i in range(5):
        rot.append(
            [
                31 + 2 * ((i + 1) % 5),
                10 + 2 * i,
                11 + 2 * ((i - 1) % 5),
                21 + 2 * i,
            ]
        )
    return EmbeddedGraph.build(10, endpoints, rot)


def bipyramid5() -> EmbeddedGraph:
    """Pentagonal rim 0..4 with an inner hub 5 and an outer hub 6.

    The rim is a 5-cycle separating the hubs, the canonical positive
    case for the short-separating-cycle scan.
    """
    endpoints = []
    for i in range(5):
        endpoints.append((i, (i + 1) % 5))  # rim, ids 0..4
    for i in range(5):
        endpoints.append((5, i))  # inner spokes, ids 5..9
    for i in range(5):
        endpoints.append((6, i))  # outer spokes, ids 10..14
    rot = []
    for i in range(5):
        rot.append([2 * i, 11 + 2 * i, 2 * ((i - 1) % 5) + 1, 21 + 2 * i])
    rot.append([10, 12, 14, 16, 18])
    rot.append([20, 28, 26, 24, 22])
    return EmbeddedGraph.build(7, endpoints, rot)


def two_ring_host(
    p: int, q: int, a_deg2: set[int], b_deg2: set[int]
) -> EmbeddedGraph:
    """Two ring faces of lengths p+2 and q+2 sharing the path v1-u-v2.

    v1 = 0 and v2 = 1 are 4-valent, u = 2 is the shared 2-vertex.  Ring
    vertices a_1..a_p (ids 3..) and b_1..b_q sit on the two faces; an
    outer apex X joins v1, v2 and every ring vertex whose 1-based index
    is not in ``a_deg2`` / ``b_deg2``, so those indices stay 2-valent.
    First and last ring indices must keep their apex edge, otherwise
    they would be extra 2-vertices adjacent to v1 or v2 and the charge
    transfers under test would stop being the only ones.
    """
    assert 1 not in a_deg2 and p not in a_deg2
    assert 1 not in b_deg2 and q not in b_deg2
    v1, v2, u = 0, 1, 2
    a = [3 + i for i in range(p)]
    b = [3 + p + i for i in range(q)]
    X = 3 + p + q
    endpoints = [(v1, u), (u, v2)]
    endpoints += [(v2, a[0])]
    endpoints += [(a[i], a[i + 1]) for i in range(p - 1)]
    endpoints += [(a[-1], v1)]
    endpoints += [(v2, b[0])]
    endpoints += [(b[i], b[i + 1]) for i in range(q - 1)]
    endpoints += [(b[-1], v1)]
    a_x = [i for i in range(1, p + 1) if i not in a_deg2]
    b_x = [i for i in range(1, q + 1) if i not in b_deg2]
    x_edges = [(X, v2)]
    x_edges += [(X, b[i - 1]) for i in b_x]
    x_edges.append((X, v1))
    x_edges += [(X, a[i - 1]) for i in reversed(a_x)]
    endpoints += x_edges

    def dart(e: int, end: int) -> int:
        return 2 * e + end

    ea = list(range(2, 2 + p + 1))
    eb = list(range(3 + p, 3 + p + q + 1))
    ex0 = 4 + p + q
    x_of = {w: ex0 + k for k, (_, w) in enumerate(x_edges)}
    rot: list[list[int]] = [[] for _ in range(X + 1)]
    rot[v1] = [dart(ea[-1], 1), dart(0, 0), dart(eb[-1], 1), dart(x_of[v1], 1)]
    rot[v2] = [dart(x_of[v2], 1), dart(eb[0], 0), dart(1, 1), dart(ea[0], 0)]
    rot[u] = [dart(1, 0), dart(0, 1)]
    for i in range(1, p + 1):
        r = [dart(ea[i - 1], 1), dart(ea[i], 0)]
        if i in a_x:
            r.append(dart(x_of[a[i - 1]], 1))
        rot[a[i - 1]] = r
    for i in range(1, q + 1):
        r = [dart(eb[i - 1], 1)]
        if i in b_x:
            r.append(dart(x_of[b[i - 1]], 1))
        r.append(dart(eb[i], 0))
        rot[b[i - 1]] = r
    rot[X] = [dart(ex0 + k, 0) for k in reversed(range(len(x_edges)))]
    return EmbeddedGraph.build(X + 1, endpoints, rot)


def pendant_path_host() -> EmbeddedGraph:
    """Triangle 0-1-2 with pendants hanging off vertex 2.

    Vertex 3 is a 2-vertex on the pendant path 2-3-4 whose both sides
    see the same face; vertex 2 is 4-valent thanks to the extra pendant
    edge to 5.
    """
    endpoints = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (2, 5)]
    rot = [
        [0, 5],
        [1, 2],
        [3, 4, 6, 10],
        [7, 8],
        [9],
        [11],
    ]
    return EmbeddedGraph.build(6, endpoints, rot)


def standard_catalog() -> list[tuple[str, EmbeddedGraph]]:
    """The fixed test-graph catalog: cycles 3..14, K4, prisms 3..5,
    thetas with path lengths up to 4, subdivided K4 depths 1..3."""
    out = [(f"cycle-{n}", generate("cycle", n)) for n in range(3, 15)]
    out.append(("k4", generate("k4")))
    out += [(f"prism-{n}", generate("prism", n)) for n in range(3, 6)]
    out += [
        (f"theta-{a}-{b}-{c}", generate("theta", a, b, c))
        for a in range(1, 5)
        for b in range(a, 5)
        for c in range(b, 5)
    ]
    out += [(f"subdivided-k4-{d}", generate("subdivided_k4", d)) for d in range(1, 4)]
    return out


def brute_chromatic(adjacency) -> int:
    """Exhaustive chromatic number of a small graph given as adjacency sets.

    Canonical enumeration: node i may reuse any color seen so far or open
    exactly one fresh color, so each partition is visited once.
    """
    n = len(adjacency)
    if n == 0:
        return 0
    colors = [-1] * n

    def feasible(k: int) -> bool:
        def descend(i: int, used: int) -> bool:
            if i == n:
                return True
            banned = {colors[j] for j in adjacency[i] if j < i}
            for c in range(min(used + 1, k)):
                if c in banned:
                    continue
                colors[i] = c
                if descend(i + 1, max(used, c + 1)):
                    return True
            colors[i] = -1
            return False

        return descend(0, 0)

    k = 1
    while not feasible(k):
        k += 1
    return k


def _has_bridge(g: EmbeddedGraph) -> bool:
    for e in range(g.m):
        u, v = g.endpoints[e]
        if u == v:
            continue
        # search from u avoiding edge e
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for d in g.rotation[x]:
                if (d >> 1) == e:
                    continue
                y = g._tails[twin(d)]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if v not in seen:
            return True
    return False


def _has_cut_vertex(g: EmbeddedGraph) -> bool:
    if g.n <= 2:
        return False
    for v in range(g.n):
        rest = [x for x in range(g.n) if x != v]
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y != v and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != g.n - 1:
            return True
    return False


def count_blocks(monkeypatch) -> list:
    """Count ``choosability.blocks`` calls through every ``facet`` module
    that binds it; returns the list each call's graph is appended to."""
    calls = []
    real = choosability.blocks

    def counting(g):
        calls.append(g)
        return real(g)

    for name, module in list(sys.modules.items()):
        if name == "facet" or name.startswith("facet."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counting)
    return calls


def brute_two_connected(g: EmbeddedGraph) -> bool:
    """Reference 2-connectivity test: one graph search per vertex for a
    cut vertex and one per edge for a bridge, O(n*m) in all.

    A 2-cycle (two parallel edges) counts; a single edge, a bridge, does
    not.
    """
    return (
        g.n >= 2
        and g.is_connected
        and not _has_cut_vertex(g)
        and not _has_bridge(g)
    )


def list_short_cycles(g: EmbeddedGraph, max_len: int = 7) -> list[list[int]]:
    """Reference cycle enumeration that builds the whole list up front.

    Same search and order as ``discharging._short_cycles``: simple
    cycles with at most ``max_len`` edges as dart sequences, each once
    by edge set, started at its minimum vertex.
    """
    out: list[list[int]] = []
    seen: set[frozenset[int]] = set()

    def dfs(s: int, v: int, path: list[int], visited: set[int], used: set[int]) -> None:
        for d in g.rotation[v]:
            e = d >> 1
            if e in used:
                continue
            w = g._tails[twin(d)]
            if w == s:
                key = frozenset(used | {e})
                if key not in seen:
                    seen.add(key)
                    out.append(path + [d])
                continue
            if w < s or w in visited or len(path) + 1 >= max_len:
                continue
            visited.add(w)
            used.add(e)
            dfs(s, w, path + [d], visited, used)
            visited.discard(w)
            used.discard(e)

    for s in range(g.n):
        dfs(s, s, [], {s}, set())
    return out


def reference_connected(g) -> bool:
    """Connectivity of a ``SimpleGraph`` by a fresh search on every call."""
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        for y in g.adjacency[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == g.n


def reference_gallai_tree(g) -> bool:
    """Gallai-tree test that recomputes the block decomposition on every
    call: True when every block induces a complete graph or an odd cycle.
    """
    if not reference_connected(g):
        raise ListColoringError("Gallai-tree test needs a connected graph")

    def complete(verts):
        return all(len(g.adjacency[v] & verts) == len(verts) - 1 for v in verts)

    def odd_cycle(verts):
        if len(verts) < 3 or len(verts) % 2 == 0:
            return False
        return all(len(g.adjacency[v] & verts) == 2 for v in verts)

    return all(complete(b) or odd_cycle(b) for b in blocks(g))


def reference_list_color(g, lists, max_nodes: int = 25):
    """Reference list-coloring search, reading degrees off the adjacency
    sets at every node.

    Same search as ``choosability.list_color``: smallest remaining list
    first (degree descending, id as the tiebreaks), colors in ``repr``
    order, forward checking; so the two return the same coloring.
    """
    if len(lists) != g.n:
        raise ListColoringError("one list per vertex required")
    if g.n > max_nodes:
        raise SearchBudgetError(
            f"graph has {g.n} vertices, search budget is {max_nodes}"
        )
    domains = [set(l) for l in lists]
    assign = {}

    def pick():
        best = None
        for v in range(g.n):
            if v in assign:
                continue
            key = (len(domains[v]), -len(g.adjacency[v]), v)
            if best is None or key < best[0]:
                best = (key, v)
        return None if best is None else best[1]

    def go():
        v = pick()
        if v is None:
            return True
        for c in sorted(domains[v], key=repr):
            pruned = []
            ok = True
            for u in g.adjacency[v]:
                if u in assign:
                    continue
                if c in domains[u]:
                    domains[u].discard(c)
                    pruned.append(u)
                    if not domains[u]:
                        ok = False
            if ok:
                assign[v] = c
                if go():
                    return True
                del assign[v]
            for u in pruned:
                domains[u].add(c)
        return False

    if any(not d for d in domains):
        return None
    return dict(assign) if go() else None


def reference_degree_feasible_colorable(g, lists):
    """``choosability.degree_feasible_colorable`` built from the reference
    routines above: same checks, same error messages, same result tuple,
    with every graph-only fact recomputed per call."""
    if not reference_connected(g):
        raise ListColoringError("guarantee needs a connected graph")
    sizes = [len(set(l)) for l in lists]
    if len(sizes) != g.n:
        raise ListColoringError("one list per vertex required")
    degrees = [len(a) for a in g.adjacency]
    for v in range(g.n):
        if sizes[v] < degrees[v]:
            raise ListColoringError(f"list at vertex {v} smaller than its degree")
    slack = any(sizes[v] > degrees[v] for v in range(g.n))
    guaranteed = slack or not reference_gallai_tree(g)
    coloring = reference_list_color(g, lists)
    return guaranteed, coloring is not None, coloring


def reference_degree_guarantee(g, sizes) -> bool:
    """Whether lists of these sizes are guaranteed colorable, as three
    conditions: every size at least its degree, the graph connected, and
    some size above its degree or the graph not a Gallai tree."""
    degrees = [len(a) for a in g.adjacency]
    if len(sizes) != len(degrees):
        raise ValueError(f"{len(sizes)} sizes for {len(degrees)} vertices")
    return (
        all(k >= d for k, d in zip(sizes, degrees))
        and reference_connected(g)
        and (any(k > d for k, d in zip(sizes, degrees)) or not reference_gallai_tree(g))
    )


def reference_graph_polynomial_coefficient(nvars, pairs, target) -> int:
    """Target coefficient of ``prod (X_i - X_j)`` by the earlier kernel:
    nibble-packed monomials, pruned only where an exponent passes the
    target, with no reach bound."""
    pairs = tuple(pairs)
    if sum(target) != len(pairs):
        return 0
    tgt = tuple(target)
    poly = {0: 1}
    for i, j in pairs:
        shift_i, shift_j = 4 * (i - 1), 4 * (j - 1)
        cap_i, cap_j = tgt[i - 1], tgt[j - 1]
        nxt = {}
        for key, coef in poly.items():
            if (key >> shift_i) & 0xF < cap_i:
                k2 = key + (1 << shift_i)
                nxt[k2] = nxt.get(k2, 0) + coef
            if (key >> shift_j) & 0xF < cap_j:
                k2 = key + (1 << shift_j)
                nxt[k2] = nxt.get(k2, 0) - coef
        poly = {k: c for k, c in nxt.items() if c}
    return poly.get(pack(tgt), 0)


def reference_expand_polynomial(nvars, pairs, caps=None) -> dict[int, int]:
    """Expansion of ``prod (X_i - X_j)`` by the earlier kernel: a monomial
    is dropped only once an exponent reaches its cap, with no reach
    bound.  Uncapped, it silently drops exponents that would reach 16."""
    poly = {0: 1}
    for i, j in pairs:
        shift_i, shift_j = 4 * (i - 1), 4 * (j - 1)
        lim_i = caps[i - 1] if caps else 16
        lim_j = caps[j - 1] if caps else 16
        nxt = {}
        for key, coef in poly.items():
            if ((key >> shift_i) & 0xF) + 1 < lim_i:
                k2 = key + (1 << shift_i)
                nxt[k2] = nxt.get(k2, 0) + coef
            if ((key >> shift_j) & 0xF) + 1 < lim_j:
                k2 = key + (1 << shift_j)
                nxt[k2] = nxt.get(k2, 0) - coef
        poly = {k: c for k, c in nxt.items() if c}
    return poly


def reference_cn_witness(nvars, pairs, caps):
    """Earlier witness search: the lexicographically smallest full-degree
    monomial of :func:`reference_expand_polynomial` under the caps."""
    pairs = tuple(pairs)
    exps = [
        unpack(key, nvars)
        for key in reference_expand_polynomial(nvars, pairs, tuple(caps))
    ]
    return min((e for e in exps if sum(e) == len(pairs)), default=None)


def reference_neighborhood_audit(g, ell, colors, uncolored):
    """Per uncolored edge, ``(colored facial neighbors, colors left)``
    from one ``facial_neighborhood`` scan per edge."""
    dead = set(uncolored)
    out = {}
    for e in uncolored:
        count = len(facial_neighborhood(g, ell, e) - dead)
        out[e] = (count, colors - count)
    return out


def reference_uncovered_pairs(config):
    """Earlier ``conflicts-covered`` scan: ``facial_distance`` on every
    pair of uncolored edges.  Lists each close pair whose variables are
    not transcribed as ``(edge, edge, (var, var))``, in loop order."""
    g, uncolored = config.host, config.uncolored
    var_of = {e: i + 1 for i, e in enumerate(config.variables)}
    transcribed = {tuple(sorted(p)) for p in config.conflicts}
    missing = []
    for i, a in enumerate(uncolored):
        for b in uncolored[i + 1:]:
            if facial_distance(g, a, b) <= config.ell:
                pair = tuple(sorted((var_of[a], var_of[b])))
                if pair not in transcribed:
                    missing.append((a, b, pair))
    return missing


def reference_chromatic_index(g, ell, upper_bound=None):
    """Earlier exact solver: set adjacency, greedy-clique lower bound only,
    and a second first fit capped at ``upper_bound``; branch and bound
    over a static order with the canonical fresh-color rule, sharing no
    search code with the library solver."""
    adjacency = [set() for _ in range(g.m)]
    for (a, b), (gap, _) in reference_gap_table(g, "edges").items():
        if gap <= ell:
            adjacency[a].add(b)
            adjacency[b].add(a)
    n = g.m
    if n == 0:
        return 0, {}
    order = sorted(range(n), key=lambda e: (-len(adjacency[e]), e))

    def first_fit(max_colors=None):
        coloring = {}
        for e in order:
            used = {coloring[f] for f in adjacency[e] if f in coloring}
            c = 0
            while c in used:
                c += 1
            if max_colors is not None and c >= max_colors:
                return None
            coloring[e] = c
        return coloring

    clique = []
    for e in order:
        if all(f in adjacency[e] for f in clique):
            clique.append(e)
    lower = max(1, len(clique))
    best_col = first_fit()
    if upper_bound is not None:
        hinted = first_fit(upper_bound)
        if hinted is not None and max(hinted.values()) < max(best_col.values()):
            best_col = hinted
    best = 1 + max(best_col.values())
    if best == lower:
        return best, {e: c + 1 for e, c in best_col.items()}

    pos = {e: i for i, e in enumerate(order)}
    prior = [[f for f in adjacency[e] if pos[f] < pos[e]] for e in order]
    assign = {}
    state = {"best": best, "best_col": dict(best_col)}

    def descend(idx, used):
        if used >= state["best"]:
            return
        if idx == n:
            state["best"] = used
            state["best_col"] = dict(assign)
            return
        e = order[idx]
        banned = {assign[f] for f in prior[idx]}
        limit = min(used + 1, state["best"] - 1)
        for c in range(limit):
            if c in banned:
                continue
            assign[e] = c
            descend(idx + 1, max(used, c + 1))
            del assign[e]
            if state["best"] <= lower:
                return

    descend(0, 0)
    return state["best"], {e: c + 1 for e, c in state["best_col"].items()}


def reference_run_counts(two: list[bool]) -> tuple[int, int]:
    """Earlier section count of a face walk: maximal cyclic runs of
    2-vertices of length exactly 1 and 2, found by a scan for run starts."""
    s1 = s2 = 0
    k = len(two)
    if all(two) and k:
        return (1, 0) if k == 1 else (0, 1) if k == 2 else (0, 0)
    i = 0
    while i < k:
        if two[i] and not two[(i - 1) % k]:
            run = 0
            while run < k and two[(i + run) % k]:
                run += 1
            s1 += run == 1
            s2 += run == 2
            i += run
        else:
            i += 1
    return s1, s2


def reference_in_two_thread(g: EmbeddedGraph, v: int) -> bool:
    """Earlier per-call 2-thread test: a 2-vertex with a 2-valent neighbor
    other than itself, read off ``g.neighbors``."""
    return g.degrees[v] == 2 and any(
        g.degrees[u] == 2 and u != v for u in g.neighbors(v)
    )


def reference_faces(g: EmbeddedGraph) -> dict:
    """Face walks from the definitions: sigma takes each dart to the next
    one clockwise in its rotation list, phi = sigma after twin, and the
    faces are the phi-orbits, numbered by their lowest dart and each read
    from it.  Returns ``sigma``, ``face_of_dart`` and the walks
    as ``(index, darts, edges, vertices)`` tuples."""
    darts = 2 * len(g.endpoints)
    sigma = [None] * darts
    for rot in g.rotation:
        for i, d in enumerate(rot):
            sigma[d] = rot[(i + 1) % len(rot)]
    phi = [sigma[twin(d)] for d in range(darts)]
    face_of_dart = [None] * darts
    walks = []
    for start in range(darts):
        if face_of_dart[start] is not None:
            continue
        orbit = [start]
        while phi[orbit[-1]] != start:
            orbit.append(phi[orbit[-1]])
        for d in orbit:
            face_of_dart[d] = len(walks)
        walks.append((
            len(walks),
            tuple(orbit),
            tuple(d // 2 for d in orbit),
            tuple(g.endpoints[d // 2][d % 2] for d in orbit),
        ))
    return {
        "sigma": tuple(sigma),
        "face_of_dart": face_of_dart,
        "walks": walks,
    }


def reference_gap_table(g: EmbeddedGraph, key: str) -> dict:
    """O(k^2) gap-table oracle, unbounded: every pair of positions on
    every face walk, keeping each pair's minimal gap and the first walk
    that realises it, as ``(gap, face)``.  The library's bounded tables
    are its pairs at gap <= ell."""
    best: dict = {}
    for walk in g.faces():
        seq = walk.edges if key == "edges" else walk.vertices
        k = len(seq)
        for i in range(k):
            for j in range(i + 1, k):
                a, b = seq[i], seq[j]
                if a == b:
                    continue
                gap = min(j - i, k - (j - i))
                cur = best.get((min(a, b), max(a, b)))
                if cur is None or gap < cur[0]:
                    best[(min(a, b), max(a, b))] = (gap, walk.index)
    return best


def reference_verify(g: EmbeddedGraph, ell: int, coloring, require_total=True) -> Verdict:
    """``facial_coloring.verify`` by its definition: every close pair of
    the full edge gap table, filtered by color."""
    _check_ids(coloring, g.m, "edge")
    return _verdict(g.edge_gap_table(ell).items(), coloring, g.m, require_total)


def reference_verify_vertex(
    g: EmbeddedGraph, ell: int, coloring, require_total=True
) -> Verdict:
    """``facial_coloring.verify_vertex`` over the full vertex gap table."""
    _check_ids(coloring, g.n, "vertex")
    return _verdict(g.vertex_gap_table(ell).items(), coloring, g.n, require_total)


_COLOR_LINE = re.compile(r"^c\s+([0-9]+)\s+([0-9]+)$")


def reference_parse_coloring(text: str) -> dict[int, int]:
    """The earlier regex reader of ``c <edge> <color>`` lines: the oracle
    for ``facial_coloring.parse_coloring``, which splits each line once."""
    out: dict[int, int] = {}
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _COLOR_LINE.match(stripped)
        if not m:
            raise ColoringError(f"malformed coloring line {stripped!r}")
        e, c = int(m.group(1)), int(m.group(2))
        if e in out:
            raise ColoringError(f"edge {e} colored twice")
        out[e] = c
    return out


def reference_apply_rules(g: EmbeddedGraph, ledger: ChargeLedger) -> ChargeLedger:
    """Rules R1-R5 in ``Fraction`` arithmetic, one addition per transfer
    end: the oracle for ``discharging.apply_rules``, whose rules run in
    integer units."""
    if len(ledger.vertex_initial) != g.n or len(ledger.face_initial) != len(
        g.faces()
    ):
        raise DischargingError("ledger does not match the graph")
    prof = face_profiles(g)
    vch = list(ledger.vertex_final)
    fch = list(ledger.face_final)
    transfers = list(ledger.transfers)
    gaps = list(ledger.gaps)
    notes = list(ledger.notes)

    def send(rule, src, dst, amount):
        kind, i = src
        (vch if kind == "v" else fch)[i] -= amount
        kind, i = dst
        (vch if kind == "v" else fch)[i] += amount
        transfers.append(Transfer(rule, src, dst, amount))

    for v in range(g.n):
        if g.degrees[v] == 2:
            if all(h != v and g.degrees[h] == 2 for h in g.neighbors(v)):
                notes.append(
                    f"3-thread present: vertex {v} has two 2-valent neighbors; "
                    "thread classification is local"
                )
    for v in range(g.n):
        if g.degrees[v] < 4:
            continue
        for f in sorted(w.index for w in g.faces() if v in w.vertices):
            if prof[f].length == 5:
                send("R1", ("v", v), ("f", f), Fraction(1, 5))
    for v in range(g.n):
        if g.degrees[v] < 4:
            continue
        for u in sorted(set(g.neighbors(v))):
            if u == v or g.degrees[u] != 2:
                continue
            f1, f2 = (g.face_of_dart[d] for d in g.rotation[u])
            if f1 == f2:
                gaps.append(
                    f"R2 gap: 2-vertex {u} (next to {v}) is incident with "
                    f"face {f1} on both sides"
                )
                continue
            a1, a2 = sorted(
                (f1, f2), key=lambda f: (prof[f].length, -prof[f].n2, f)
            )
            l1, l2 = prof[a1].length, prof[a2].length
            n1, n2 = prof[a1].n2, prof[a2].n2
            if l1 == 6:
                send("R2", ("v", v), ("f", a1), Fraction(2, 3))
            elif l1 == l2 == 7 and n1 == n2 == 2:
                send("R2", ("v", v), ("f", a1), Fraction(1, 3))
                send("R2", ("v", v), ("f", a2), Fraction(1, 3))
            elif l1 == l2 == 7 and n1 >= 2 and n2 == 1:
                send("R2", ("v", v), ("f", a1), Fraction(2, 3))
            elif l1 == 7 and l2 >= 8:
                send("R2", ("v", v), ("f", a1), Fraction(2, 3))
            else:
                gaps.append(
                    f"R2 gap: vertex {v}, 2-vertex {u}, faces ({a1}, {a2}) "
                    f"with lengths ({l1}, {l2}) and 2-vertex counts "
                    f"({n1}, {n2}): no case applies"
                )
    for walk in g.faces():
        f = walk.index
        length = prof[f].length
        for u in sorted(set(walk.vertices)):
            if g.degrees[u] != 2:
                continue
            if not reference_in_two_thread(g, u):
                send("R3", ("f", f), ("v", u), Fraction(1))
            elif length == 7:
                send("R4", ("f", f), ("v", u), Fraction(5, 6))
            elif length >= 8:
                send("R5", ("f", f), ("v", u), Fraction(7, 6))
    return ChargeLedger(
        vertex_initial=ledger.vertex_initial,
        face_initial=ledger.face_initial,
        vertex_final=tuple(vch),
        face_final=tuple(fch),
        transfers=tuple(transfers),
        gaps=tuple(gaps),
        notes=tuple(notes),
    )


def reference_pair_predicates(g: EmbeddedGraph) -> dict[str, bool]:
    """Structure predicates 14-20, one scan each, from the definitions:
    the oracle for the shared scans in ``discharging.structure_report``."""
    prof = face_profiles(g)
    walks = g.faces()
    deg = g.degrees.__getitem__
    two_vertices = [v for v in range(g.n) if deg(v) == 2]
    threads = [
        e for e, (u, v) in enumerate(g.endpoints)
        if u != v and deg(u) == 2 and deg(v) == 2
    ]

    def sides(e):
        return {g.face_of_dart[2 * e], g.face_of_dart[2 * e + 1]}

    def has_thread(walk):
        k = len(walk.vertices)
        return any(
            a != b and deg(a) == 2 and deg(b) == 2
            for a, b in ((walk.vertices[i], walk.vertices[(i + 1) % k]) for i in range(k))
        )

    def two_vertices_on(walk):
        return [u for u in set(walk.vertices) if deg(u) == 2]

    def face_pair(v):
        return tuple(g.face_of_dart[d] for d in g.rotation[v])

    out = {}
    out["seven_face_thread_4plus_neighbor"] = all(
        any(
            deg(w) >= 4
            for w in g.neighbors(u) + g.neighbors(v)
            if w not in (u, v)
        )
        for e in threads
        for u, v in [g.endpoints[e]]
        if any(prof[f].length == 7 for f in sides(e))
    )
    out["thread_at_most_one_seven_face"] = all(
        sum(prof[f].length == 7 for f in sides(e)) <= 1 for e in threads
    )
    sevens = [w for w in walks if len(w.vertices) == 7]
    def pattern_ok(u):
        lo, hi = sorted(deg(x) for x in g.neighbors(u))
        return hi >= 4 and (lo == 2 or lo >= 4)

    out["seven_face_thread_extra_2vertex_pattern"] = all(
        pattern_ok(u)
        for w in sevens
        if has_thread(w) and prof[w.index].n2 >= 3
        for u in two_vertices_on(w)
    )
    out["seven_face_multi_2vertices_4plus"] = all(
        any(deg(x) >= 4 for x in g.neighbors(u))
        for w in sevens
        if not has_thread(w) and prof[w.index].n2 >= 2
        for u in two_vertices_on(w)
    )
    split = [(v, *face_pair(v)) for v in two_vertices if len(set(face_pair(v))) == 2]
    out["six_seven_shared_2vertex"] = all(
        all(deg(w) >= 3 for w in walks[b].vertices if w != v)
        for v, f1, f2 in split
        for a, b in ((f1, f2), (f2, f1))
        if prof[a].length == 6 and prof[b].length == 7
    )
    both_seven = [
        (v, prof[f1], prof[f2]) for v, f1, f2 in split
        if prof[f1].length == prof[f2].length == 7
    ]
    out["seven_seven_shared_2vertex_4plus"] = all(
        len({w for w in g.neighbors(v) if deg(w) >= 4}) >= 2
        for v, p, q in both_seven
        if p.n2 >= 2 and q.n2 >= 2
    )
    out["seven_face_three_2verts_isolation"] = all(
        not (p.n2 >= 3 and q.n2 != 1) and not (q.n2 >= 3 and p.n2 != 1)
        for v, p, q in both_seven
    )
    return out


def plain(x):
    """``json.dumps`` ``default=`` hook: a ledger ``Fraction``, ``Transfer``
    or ``Negative`` as the plain dict that ``facet discharge --json``
    writes for it.  The shapes are stated here, not read from
    ``facet.cli``."""
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, Transfer):
        return {
            "rule": x.rule,
            "src": f"{x.src[0]}:{x.src[1]}",
            "dst": f"{x.dst[0]}:{x.dst[1]}",
            "num": x.amount.numerator,
            "den": x.amount.denominator,
        }
    if isinstance(x, Negative):
        return {
            "element": f"{x.element[0]}:{x.element[1]}",
            "num": x.charge.numerator,
            "den": x.charge.denominator,
        }
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def expand_transfers(x):
    """``x`` with each ``Transfer`` and ``Negative`` in it replaced by its
    ``plain`` dict.

    ``json.dumps`` writes these NamedTuples as arrays and never passes
    them to ``default``, so an oracle expands them first."""
    if type(x) in (Transfer, Negative):
        return plain(x)
    if isinstance(x, dict):
        return {k: expand_transfers(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [expand_transfers(v) for v in x]
    return x


def reference_discharge_doc(rep) -> dict:
    """The ``discharge --json`` document of an ``AuditReport`` as plain
    dicts, lists, strings and ints, one dict per charge and transfer."""
    led = rep.ledger
    return {
        "initial": {
            "vertices": [plain(x) for x in led.vertex_initial],
            "faces": [plain(x) for x in led.face_initial],
        },
        "transfers": [plain(t) for t in led.transfers],
        "final": {
            "vertices": [plain(x) for x in led.vertex_final],
            "faces": [plain(x) for x in led.face_final],
        },
        "total": plain(rep.total),
        "gaps": list(led.gaps),
        "notes": list(led.notes),
        "negative": [
            {"element": f"{e[0]}:{e[1]}", "num": ch.numerator, "den": ch.denominator}
            for e, ch in led.negatives()
        ],
        "structure": {
            "predicates": rep.structure._asdict(),
            "all_pass": rep.structure.all_pass,
            "failing": list(rep.structure.failing()),
        },
        "verdict": rep.verdict,
    }
