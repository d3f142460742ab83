"""Reducible-configuration catalog with mechanized checking.

Each :class:`Configuration` packages a concrete host graph exhibiting a
local structure, a surgery producing a strictly smaller graph, the set
of edges whose colors are forgotten, and the bookkeeping needed to
re-extend a coloring of the smaller graph: transcribed conflicts among
the forgotten edges, guaranteed list sizes, and optionally the name of
a bundled polynomial certificate.

:func:`check` replays the whole argument on the host: the surgery runs
and shrinks, the actual facial conflicts are covered by the transcribed
ones, the geometric availability counts meet the promised list sizes,
and a named certificate matches the transcription and keeps its pinned
coefficient.  One ``extension`` step, run on every configuration, then
derives the extension argument from the transcription itself: a
monomial of the graph polynomial of the conflicts with a nonzero
coefficient and every exponent below its cap (Combinatorial
Nullstellensatz), so every coloring of the reduced graph extends.  A
catalog entry passing ``check`` is a machine-verified reduction step.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

from facet import embedding
from facet.embedding import (
    EmbeddedGraph,
    EmbeddingError,
    contract_edge,
    delete_edge,
    facial_distance,
    generate,
    parse_peg,
    serialize_peg,
)
from facet.nullstellensatz import (
    CERTIFICATES,
    EXPECTED_COEFFICIENTS,
    ExponentOverflow,
    check_certificate,
    cn_witness,
)


class ConfigurationError(ValueError):
    """Catalog entry is internally inconsistent."""


class Configuration(NamedTuple):
    """One reducible configuration.

    ``variables[i]`` is the host edge id playing certificate variable
    i+1; ``dummies`` lists 1-based variable indices whose edges are
    identified by the surgery and therefore keep a color (they carry
    cap 1 and never appear in ``conflicts``).  ``conflicts`` are 1-based
    variable pairs; ``caps[i]`` is the guaranteed number of admissible
    colors for variable i+1 once the smaller graph is colored.
    ``surgery`` is a sequence of steps, each a tuple starting with one
    of "delete_vertex", "delete_edge", "contract_edge", "contract_face",
    "identify_edges"; ids refer to the graph state at that step.
    """

    name: str
    description: str
    host: EmbeddedGraph
    ell: int
    colors: int
    surgery: tuple[tuple, ...]
    variables: tuple[int, ...]
    dummies: tuple[int, ...]
    conflicts: tuple[tuple[int, int], ...]
    caps: tuple[int, ...]
    certificate: Optional[str]

    @property
    def free(self) -> tuple[int, ...]:
        """The 1-based variables that are not dummies, in order."""
        return tuple(v for v in range(1, len(self.variables) + 1) if v not in self.dummies)

    @property
    def uncolored(self) -> tuple[int, ...]:
        """Host edges whose colors are forgotten before re-extension."""
        return tuple(self.variables[v - 1] for v in self.free)


class CheckStep(NamedTuple):
    label: str
    ok: bool
    detail: str


class CheckReport(NamedTuple):
    name: str
    ok: bool
    steps: tuple[CheckStep, ...]

    def failures(self) -> list[CheckStep]:
        return [s for s in self.steps if not s.ok]


def neighborhood_audit(
    g: EmbeddedGraph, ell: int, colors: int, uncolored: tuple[int, ...]
) -> dict[int, tuple[int, int]]:
    """Per uncolored edge: (colored facial neighbors, available colors).

    Colored edges are everything outside ``uncolored``; availability is
    ``colors`` minus the count, the worst case over adversarial
    colorings of the rest of the graph.  One pass over the gap table
    counts every uncolored edge's colored neighbors at once.
    """
    for e in uncolored:
        embedding._check_edge(g, e)
    counts = dict.fromkeys(uncolored, 0)
    for a, b in g.edge_gap_table(ell):
        if (a in counts) != (b in counts):
            counts[a if a in counts else b] += 1
    return {e: (counts[e], colors - counts[e]) for e in uncolored}


# Surgery steps by name, each run as the facet.embedding function of that
# name, with the number of integer ids it takes.
_SURGERY_ARITY = dict(
    delete_vertex=1, delete_edge=1, contract_edge=1, contract_face=1, identify_edges=3
)


def _surgery_step(step) -> tuple:
    """A checked surgery step: a known name, then exactly its integer ids."""
    kind, *ids = step if isinstance(step, (list, tuple)) and step else [None]
    if _SURGERY_ARITY.get(kind) != len(ids) or not all(type(x) is int for x in ids):
        raise ConfigurationError(
            f"surgery step {step!r} is not a known step name and its integer ids"
        )
    return (kind, *ids)


def check(config: Configuration) -> CheckReport:
    """Replay and verify every claim a configuration makes."""
    steps: list[CheckStep] = []

    def log(label: str, ok: bool, detail: str) -> None:
        steps.append(CheckStep(label, bool(ok), detail))

    g = config.host
    nvars = len(config.variables)

    # Internal consistency of the transcription.
    ok = len(config.caps) == nvars
    log("shape", ok, f"{nvars} variables, {len(config.caps)} caps")
    bad_edges = [e for e in config.variables if not 0 <= e < g.m]
    if bad_edges or not ok:
        # later steps index caps by variable and walk the host by edge
        # id, so neither survives a malformed transcription
        if bad_edges:
            log("variable-edges", False, f"edge ids {bad_edges} not in host")
        return CheckReport(name=config.name, ok=False, steps=tuple(steps))
    bad_dummies = [
        x for i, x in enumerate(config.dummies)
        if not 1 <= x <= nvars or x in config.dummies[:i]
    ]
    if bad_dummies:
        log("dummies", False, f"dummy indices {bad_dummies} repeated or not in 1..{nvars}")
    free = set(config.free)
    bad_pairs = [
        p for p in config.conflicts
        if p[0] not in free or p[1] not in free or p[0] == p[1]
    ]
    log(
        "conflict-indices",
        not bad_pairs,
        "conflicts stay on free variables" if not bad_pairs
        else f"bad pairs {bad_pairs}",
    )
    dup = len(set(config.variables)) != nvars
    log("variable-edges", not dup, "variable edges distinct")

    # Surgery runs and shrinks, and each identification joins edges that
    # are not already facially close in the graph it acts on.  An edge
    # id out of range fails the distance with the error the step would
    # raise, and a failed step leaves the steps after it unmeasured.
    reduced, identified = g, []
    try:
        for step in config.surgery:
            kind, *ids = _surgery_step(step)
            if kind == "identify_edges":
                e, f, _ = ids
                identified.append((e, f, facial_distance(reduced, e, f)))
            reduced = getattr(embedding, kind)(reduced, *ids).graph
        shrunk = (reduced.n, reduced.m) < (g.n, g.m)
        log(
            "surgery",
            shrunk,
            f"host ({g.n}v,{g.m}e) -> reduced ({reduced.n}v,{reduced.m}e)",
        )
    except (EmbeddingError, ConfigurationError) as exc:
        log("surgery", False, str(exc))
    for e, f, d in identified:
        log("identify-distance", d > config.ell, f"edges {e},{f} at facial distance {d}")

    # Actual conflicts among uncolored edges are covered.
    uncolored = config.uncolored
    var_of = {e: i + 1 for i, e in enumerate(config.variables)}
    transcribed = {tuple(sorted(p)) for p in config.conflicts}
    close = g.edge_gap_table(config.ell)
    missing = []
    for a_i, a in enumerate(uncolored):
        for b in uncolored[a_i + 1:]:
            if (min(a, b), max(a, b)) in close:
                pair = tuple(sorted((var_of[a], var_of[b])))
                if pair not in transcribed:
                    missing.append((a, b, pair))
    log(
        "conflicts-covered",
        not missing,
        "derived conflicts covered by transcription" if not missing
        else f"uncovered pairs {missing}",
    )

    # Geometric availability meets the promised caps.
    audit = neighborhood_audit(g, config.ell, config.colors, uncolored)
    short = []
    for i, e in enumerate(config.variables):
        cap = config.caps[i]
        if i + 1 not in free:
            if cap != 1:
                short.append((i + 1, "dummy cap must be 1"))
            continue
        count, avail = audit[e]
        if avail < cap:
            short.append((i + 1, f"edge {e}: {avail} available < cap {cap}"))
    log(
        "availability",
        not short,
        "all caps met" if not short else f"shortfalls {short}",
    )

    # Certificate, when present.
    if config.certificate is not None:
        cert = CERTIFICATES.get(config.certificate)
        if cert is None:
            log("certificate", False, f"unknown certificate {config.certificate!r}")
        else:
            agree = set(cert.pairs) == set(config.conflicts) and cert.caps == config.caps
            log("certificate-transcription", agree, "pairs and caps agree")
            coef = check_certificate(cert)
            want = EXPECTED_COEFFICIENTS[cert.name]
            log(
                "certificate-coefficient",
                coef == want and coef != 0,
                f"coefficient {coef}, pinned {want}",
            )
            room = all(t + 1 <= c for t, c in zip(cert.target, cert.caps))
            log("certificate-room", room, "target exponents fit below caps")

    # Every coloring of the reduced graph leaves each variable its cap of
    # colors, so a witness monomial shows the lists can be colored.  It
    # is built on the conflicts, so it needs valid ones.
    if not bad_pairs:
        try:
            wit = cn_witness(config.conflicts, config.caps)
        except ExponentOverflow as exc:
            log("extension", False, str(exc))
        else:
            log(
                "extension",
                wit is not None,
                f"witness monomial {wit}" if wit is not None
                else "no monomial below the caps has a nonzero coefficient",
            )

    return CheckReport(
        name=config.name, ok=all(s.ok for s in steps), steps=tuple(steps)
    )


# -- catalog ---------------------------------------------------------------


def _four_vertex_host() -> EmbeddedGraph:
    """A 4-vertex whose neighbors are all 2-vertices, pinned by a ring.

    Center 0, 2-vertices 1..4, ring 5..8.  Spokes get ids 0..3, the
    pendant edges 4..7, the ring 8..11, so variable i+1 is edge i.
    """
    endpoints = [
        (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 5), (2, 6), (3, 7), (4, 8),
        (5, 6), (6, 7), (7, 8), (8, 5),
    ]
    rotations = [
        [0, 2, 4, 6],
        [1, 8], [3, 10], [5, 12], [7, 14],
        [16, 9, 23],
        [18, 11, 17],
        [20, 13, 19],
        [22, 15, 21],
    ]
    return EmbeddedGraph.build(9, endpoints, rotations)


def _despoked_prism(n: int, bare: tuple[int, ...]) -> tuple[EmbeddedGraph, list[int]]:
    """Prism with the spokes at inner positions ``bare`` removed and the
    orphaned outer vertices smoothed away.  Returns the graph plus the
    surviving ids of the inner ring edges, index i for the edge between
    inner positions i and i+1."""
    g = generate("prism", n)
    # prism edge id -> its id in g, None once deleted
    emap: list[Optional[int]] = list(range(3 * n))
    steps = [(delete_edge, 2 * n + p) for p in sorted(bare)]
    # The outer vertex at position p is then 2-valent; contracting its
    # outgoing ring edge suppresses it.
    steps += [(contract_edge, p) for p in sorted(bare)]
    for surgery, e in steps:
        res = surgery(g, emap[e])
        g = res.graph
        emap = [None if x is None else res.edge_map[x] for x in emap]
    return g, emap[n:2 * n]


def _ring_assignment(
    g: EmbeddedGraph, inner_ids: list[int], two_positions: frozenset[int]
) -> tuple[int, list[int]]:
    """Locate the inner ring face and orient it so the vertex positions
    of 2-vertices match ``two_positions``; returns the face index and
    the edge id at each template position (edge p joins template
    vertices p and p+1)."""
    k = len(inner_ids)
    ring = None
    for walk in g.faces():
        if len(walk) == k and set(walk.edges) == set(inner_ids):
            ring = walk
            break
    if ring is None:
        raise ConfigurationError("inner ring face not found")
    forward = (list(ring.vertices), list(ring.edges))
    rev_v = [ring.vertices[0]] + [ring.vertices[k - t] for t in range(1, k)]
    rev_e = [ring.edges[k - 1 - t] for t in range(k)]
    for verts, edges in (forward, (rev_v, rev_e)):
        twos = [g.degrees[v] == 2 for v in verts]
        for r in range(k):
            if frozenset(
                p for p in range(k) if twos[(r + p) % k]
            ) == two_positions:
                return ring.index, [edges[(r + p) % k] for p in range(k)]
    raise ConfigurationError(
        f"no orientation puts 2-vertices at {sorted(two_positions)}"
    )


def _identified_ring_config(
    name: str,
    description: str,
    n: int,
    bare: tuple[int, ...],
    two_positions: frozenset[int],
    e_pos: int,
    f_pos: int,
    var_positions: dict[int, int],
    dummies: tuple[int, ...],
    conflicts: tuple[tuple[int, int], ...],
    caps: tuple[int, ...],
    certificate: Optional[str],
) -> Configuration:
    host, inner = _despoked_prism(n, bare)
    face, by_pos = _ring_assignment(host, inner, two_positions)
    nvars = len(caps)
    variables = [0] * nvars
    for var, pos in var_positions.items():
        variables[var - 1] = by_pos[pos]
    return Configuration(
        name=name,
        description=description,
        host=host,
        ell=3,
        colors=10,
        surgery=(("identify_edges", by_pos[e_pos], by_pos[f_pos], face),),
        variables=tuple(variables),
        dummies=dummies,
        conflicts=conflicts,
        caps=caps,
        certificate=certificate,
    )


def catalog() -> list[Configuration]:
    """The eight reducible configurations, checked by the test suite."""
    out: list[Configuration] = []

    host = _four_vertex_host()
    out.append(
        Configuration(
            name="four-vertex",
            description="4-vertex whose four neighbors are 2-vertices",
            host=host,
            ell=3,
            colors=10,
            # Deleting the center renumbers each former 2-vertex down to
            # id 0 in turn, so five identical steps clear the star.
            surgery=(("delete_vertex", 0),) * 5,
            variables=tuple(range(8)),
            dummies=(),
            conflicts=CERTIFICATES["four-vertex"].pairs,
            caps=CERTIFICATES["four-vertex"].caps,
            certificate="four-vertex",
        )
    )

    p4 = generate("prism", 4)
    face4, ring4 = _ring_assignment(p4, list(range(4, 8)), frozenset())
    out.append(
        Configuration(
            name="face-length-4",
            description="face of length 4, collapsed to a single vertex",
            host=p4,
            ell=3,
            colors=10,
            surgery=(("contract_face", face4),),
            variables=tuple(ring4),
            dummies=(),
            conflicts=((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
            caps=(4, 4, 4, 4),
            certificate=None,
        )
    )

    theta = generate("theta", 4, 4, 4)
    out.append(
        Configuration(
            name="three-thread",
            description="path of three consecutive 2-vertices",
            host=theta,
            ell=3,
            colors=10,
            surgery=(("contract_edge", 1),),
            variables=(1,),
            dummies=(),
            conflicts=(),
            caps=(1,),
            certificate=None,
        )
    )

    out.append(
        _identified_ring_config(
            name="eight-face",
            description="face of length 8, opposite edges identified",
            n=8,
            bare=(),
            two_positions=frozenset(),
            e_pos=0,
            f_pos=4,
            var_positions={1: 1, 2: 2, 3: 3, 4: 5, 5: 6, 6: 7},
            dummies=(),
            conflicts=(
                (1, 2), (1, 3), (1, 5), (1, 6),
                (2, 3), (2, 4), (2, 6),
                (3, 4), (3, 5),
                (4, 5), (4, 6),
                (5, 6),
            ),
            caps=(3, 3, 3, 3, 3, 3),
            certificate=None,
        )
    )

    out.append(
        _identified_ring_config(
            name="nine-face",
            description="face of length 9 with one 2-vertex",
            n=9,
            bare=(0,),
            two_positions=frozenset({7}),
            e_pos=0,
            f_pos=4,
            var_positions={1: 1, 2: 2, 3: 3, 4: 5, 5: 6, 6: 7, 7: 8},
            dummies=(),
            conflicts=CERTIFICATES["nine-face"].pairs,
            caps=CERTIFICATES["nine-face"].caps,
            certificate="nine-face",
        )
    )

    ten_vars = {i: i - 1 for i in range(1, 11)}
    out.append(
        _identified_ring_config(
            name="ten-face-adjacent",
            description="face of length 10, three 2-vertices, two adjacent",
            n=10,
            bare=(0, 1, 5),
            two_positions=frozenset({0, 1, 5}),
            e_pos=3,
            f_pos=7,
            var_positions=ten_vars,
            dummies=(4, 8),
            conflicts=CERTIFICATES["ten-face-adjacent"].pairs,
            caps=CERTIFICATES["ten-face-adjacent"].caps,
            certificate="ten-face-adjacent",
        )
    )

    out.append(
        _identified_ring_config(
            name="ten-face-dist3",
            description="face of length 10, 2-vertices at mutual distance 3",
            n=10,
            bare=(0, 3, 5),
            two_positions=frozenset({0, 3, 5}),
            e_pos=4,
            f_pos=8,
            var_positions=ten_vars,
            dummies=(5, 9),
            conflicts=CERTIFICATES["ten-face-dist3"].pairs,
            caps=CERTIFICATES["ten-face-dist3"].caps,
            certificate="ten-face-dist3",
        )
    )

    out.append(
        _identified_ring_config(
            name="ten-face-dist4",
            description="face of length 10, 2-vertices at mutual distance 4",
            n=10,
            bare=(0, 2, 4),
            two_positions=frozenset({0, 2, 4}),
            e_pos=4,
            f_pos=8,
            var_positions=ten_vars,
            dummies=(5, 9),
            conflicts=CERTIFICATES["ten-face-dist4"].pairs,
            caps=CERTIFICATES["ten-face-dist4"].caps,
            certificate="ten-face-dist4",
        )
    )

    return out


# -- JSON interchange -------------------------------------------------------


def configuration_to_json(config: Configuration) -> str:
    doc = {
        "name": config.name,
        "description": config.description,
        "host": serialize_peg(config.host),
        "ell": config.ell,
        "colors": config.colors,
        "surgery": [list(step) for step in config.surgery],
        "variables": list(config.variables),
        "dummies": list(config.dummies),
        "conflicts": [list(p) for p in config.conflicts],
        "caps": list(config.caps),
        "certificate": config.certificate,
    }
    return json.dumps(doc, indent=2)


def _int(x, field: str) -> int:
    """``x`` itself if it is an int; a bool, float or numeric string is
    refused rather than coerced."""
    if type(x) is not int:
        raise ConfigurationError(f"{field} must be an integer, got {x!r}")
    return x


def configuration_from_json(text: str) -> Configuration:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's stack
        raise ConfigurationError(f"bad JSON: {exc}") from exc
    try:
        if not isinstance(doc["name"], str):
            raise ConfigurationError(f"name must be a string, got {doc['name']!r}")
        if _int(doc["ell"], "ell") < 1:
            raise ConfigurationError(f"ell must be at least 1, got {doc['ell']!r}")
        if not isinstance(doc["host"], str):
            raise ConfigurationError(f"host must be a string, got {doc['host']!r}")
        certificate = doc.get("certificate")
        if certificate is not None and not isinstance(certificate, str):
            raise ConfigurationError(
                f"certificate must be null or a string, got {certificate!r}"
            )
        return Configuration(
            name=doc["name"],
            description=str(doc.get("description", "")),
            host=parse_peg(doc["host"]),
            ell=doc["ell"],
            colors=_int(doc["colors"], "colors"),
            surgery=tuple(_surgery_step(s) for s in doc["surgery"]),
            variables=tuple(_int(x, "variables") for x in doc["variables"]),
            dummies=tuple(_int(x, "dummies") for x in doc.get("dummies", [])),
            conflicts=tuple(
                (_int(a, "conflicts"), _int(b, "conflicts"))
                for a, b in doc["conflicts"]
            ),
            caps=tuple(_int(x, "caps") for x in doc["caps"]),
            certificate=certificate,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"bad configuration document: {exc}") from exc

