"""The four workloads: seeded inputs, one timed call per instance, and an
independent check of every output.

Each workload has four parts.  ``build`` makes the inputs from the seed
with the benchmark's own code (``planar``) and writes them as files where
the CLI reads files; it runs once and is not timed.  ``load`` is the
timed set-up: facet loads each input once.  ``run`` is the timed call of
one instance, issued only after the previous one returned.  ``check``
runs outside the timed region and returns a description of what is
wrong with an output, or None.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

import planar

ELL = 3
HERE = Path(__file__).resolve().parent


def cli_call(cli, argv: list[str]) -> tuple[int, str]:
    """``facet.cli.main(argv)`` in-process, with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def digest(parts: list[str]) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


class Workload:
    name = ""

    def prepare(self, inst) -> None:
        """Precompute what checking ``inst`` needs, outside set-up and timing."""


class ChiSmall(Workload):
    """``facet chi --json`` on 2-connected plane graphs with 12 <= m <= 17,
    100 per edge count.

    The exact solver is exponential, so the bound is on size and no
    instance inside it is dropped for being slow.  Past m = 17 the slow
    tail decides a run's throughput.  Timing the solver alone on a 2-vCPU
    virtual machine with Python 3.11: of 16,000 graphs with m = 18, 30 took
    over 50 ms and one over 0.2 s, against about 2 ms for a whole median
    CLI call; at m = 19, 8 of 4,214 took over 0.2 s, at m = 21, 48 of 3,681.
    """

    name = "chi-small"
    m_range = range(12, 18)
    per_m = 100

    def build(self, seed: int, workdir: Path) -> tuple[list, str]:
        rng = rng_for(self.name, seed)
        want = {m: self.per_m for m in self.m_range}
        graphs = []
        while any(want.values()):
            g = planar.small_graph(rng)
            if want.get(g.m):
                want[g.m] -= 1
                graphs.append(g)
        rng.shuffle(graphs)
        instances, texts = [], []
        for i, g in enumerate(graphs):
            text = g.peg()
            path = workdir / f"chi{i}.peg"
            path.write_text(text)
            instances.append({"i": i, "path": str(path), "peg": text, "plane": g})
            texts.append(text)
        return instances, digest(texts)

    def load(self, facet, instances) -> None:
        for inst in instances:
            facet.embedding.parse_peg(inst["peg"])

    def prepare(self, inst) -> None:
        inst["pairs"] = planar.close_pairs(inst["plane"], ELL)
        inst["bound"] = planar.face_clique_bound(inst["plane"], ELL)

    def run(self, facet, inst):
        return cli_call(facet.cli, ["chi", "--graph", inst["path"], "--json"])

    def check(self, inst, result, golden) -> str | None:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(out)
        chi = doc["chi"]
        g = inst["plane"]
        col = {int(e): c for e, c in doc["witness"].items()}
        if sorted(col) != list(range(g.m)):
            return "witness does not color every edge exactly once"
        if len(set(col.values())) != chi:
            return f"witness uses {len(set(col.values()))} colors, chi = {chi}"
        clash = [p for p in inst["pairs"] if col[p[0]] == col[p[1]]]
        if clash:
            return f"witness not 3-facial: edges {clash[0]} share a color"
        if chi < inst["bound"]:
            return f"chi = {chi} below the face-clique bound {inst['bound']}"
        if golden is not None and chi != golden[inst["i"]]:
            return f"chi = {chi}, golden value {golden[inst['i']]}"
        return None


class ReduceReplay(Workload):
    """``facet reduce --config-file F --json`` on the 8 frozen catalog
    configurations plus 7 dropped-conflict and 7 raised-cap tampered copies
    of each (no dropped conflict for three-thread, which has none): 113
    instances, so that the 90th percentile has ten beyond it."""

    name = "reduce-replay"
    tampers = 7

    def build(self, seed: int, workdir: Path) -> tuple[list, str]:
        rng = rng_for(self.name, seed)
        docs = []
        for path in sorted((HERE / "catalog").glob("*.json")):
            text = path.read_text()
            docs.append((text, None))
            doc = json.loads(text)
            droppable, availability = self._geometry(doc)
            if droppable:
                for _ in range(self.tampers):
                    bad = json.loads(text)
                    bad["conflicts"].remove(rng.choice(droppable))
                    docs.append((json.dumps(bad, indent=2), "conflicts-covered"))
            for _ in range(self.tampers):
                var = rng.choice(sorted(availability))
                bad = json.loads(text)
                bad["caps"][var - 1] = availability[var] + 1
                docs.append((json.dumps(bad, indent=2), "availability"))
        rng.shuffle(docs)
        instances, texts = [], []
        for i, (text, expect) in enumerate(docs):
            path = workdir / f"config{i}.json"
            path.write_text(text)
            instances.append({"i": i, "path": str(path), "config": text, "expect": expect})
            texts.append(f"{expect}\n{text}")
        return instances, digest(texts)

    def load(self, facet, instances) -> None:
        for inst in instances:
            facet.reducibility.configuration_from_json(inst["config"])

    @staticmethod
    def _geometry(doc) -> tuple[list, dict]:
        """Transcribed conflicts that are real facial conflicts (so dropping
        one must be caught), and each free variable's availability: colors
        minus its colored facial neighbours, as the benchmark computes them."""
        g = planar.parse_peg(doc["host"])
        ell = doc["ell"]
        near: dict[int, set[int]] = {e: set() for e in range(g.m)}
        for a, b in planar.close_pairs(g, ell):
            near[a].add(b)
            near[b].add(a)
        edge = {i + 1: e for i, e in enumerate(doc["variables"])}
        free = [v for v in edge if v not in doc["dummies"]]
        uncolored = {edge[v] for v in free}
        droppable = [
            p for p in doc["conflicts"] if edge[p[1]] in near[edge[p[0]]]
        ]
        availability = {
            v: doc["colors"] - len(near[edge[v]] - uncolored) for v in free
        }
        return droppable, availability

    def run(self, facet, inst):
        return cli_call(facet.cli, ["reduce", "--config-file", inst["path"], "--json"])

    def check(self, inst, result, golden) -> str | None:
        code, out = result
        doc = json.loads(out)
        expect = inst["expect"]
        if expect is None:
            if code != 0 or not doc["ok"]:
                return f"catalog configuration rejected (exit {code})"
            return None
        failing = [s["label"] for r in doc["reports"] for s in r["steps"] if not s["ok"]]
        if code != 1 or doc["ok"]:
            return f"tampered copy accepted (exit {code}), expected {expect} to fail"
        if expect not in failing:
            return f"tampered copy failed at {failing}, not at {expect}"
        return None


class LargeAudit(Workload):
    """``facet discharge --json`` and two ``facet verify --json`` per graph,
    each call one instance: 52 seeded plane graphs with m = 50..150 and
    faces of length <= 16, and 8 prisms with n = 17..50 (m = 51..150).
    One coloring gives every edge its own color and must be accepted; the
    other repeats one color on a seeded pair at facial distance <= 3 and
    must be rejected naming exactly that pair."""

    name = "large-audit"
    random_graphs = 52
    prisms = 8

    def build(self, seed: int, workdir: Path) -> tuple[list, str]:
        rng = rng_for(self.name, seed)
        graphs = [
            planar.large_graph(rng, 50 + round(100 * k / (self.random_graphs - 1)))
            for k in range(self.random_graphs)
        ]
        graphs += [
            planar.Plane.prism(17 + round(33 * k / (self.prisms - 1)))
            for k in range(self.prisms)
        ]
        instances, texts = [], []
        for i, g in enumerate(graphs):
            pairs = planar.close_pairs(g, ELL)
            a, b = rng.choice(sorted(pairs))
            colors = {e: e + 1 for e in range(g.m)}
            good = "".join(f"c {e} {c}\n" for e, c in colors.items())
            colors[b] = colors[a]
            bad = "".join(f"c {e} {c}\n" for e, c in colors.items())
            text = g.peg()
            files = {}
            for key, payload in (("peg", text), ("good", good), ("bad", bad)):
                files[key] = str(workdir / f"audit{i}.{key}")
                Path(files[key]).write_text(payload)
            peg = ["--graph", files["peg"], "--json"]
            instances += [
                {"argv": ["discharge", *peg], "peg": text, "expect": "total"},
                {"argv": ["verify", *peg, "--coloring", files["good"]], "expect": "accept"},
                {"argv": ["verify", *peg, "--coloring", files["bad"]], "expect": (a, b, pairs[(a, b)])},
            ]
            texts += [text, bad]
        rng.shuffle(instances)
        for i, inst in enumerate(instances):
            inst["i"] = i
        return instances, digest(texts)

    def load(self, facet, instances) -> None:
        """Each graph once: its discharge instance holds the text."""
        for inst in instances:
            if "peg" in inst:
                facet.embedding.parse_peg(inst["peg"])

    def run(self, facet, inst):
        return cli_call(facet.cli, inst["argv"])

    def check(self, inst, result, golden) -> str | None:
        code, out = result
        doc = json.loads(out)
        expect = inst["expect"]
        if expect == "total":
            total = doc["total"]
            if code != 0 or (total["num"], total["den"]) != (-12, 1):
                return f"discharge total {total['num']}/{total['den']} (exit {code}), not -12"
        elif expect == "accept":
            if code != 0 or not doc["ok"] or doc["violations"]:
                return f"all-distinct coloring rejected (exit {code})"
        else:
            named = [(v["e"], v["f"], v["gap"]) for v in doc["violations"]]
            if code != 1 or doc["ok"] or named != [expect]:
                return f"planted conflict {expect} reported as {named} (exit {code})"
        return None


class Lists(Workload):
    """``choosability.degree_feasible_colorable`` on 125 connected simple
    graphs, 5 for each n = 3..7 and edge density, with 200 list
    assignments each drawn from max degree + 1 colors: half sized exactly
    to the degree, half with one extra color at one vertex.  One instance
    is one graph's 200 calls."""

    name = "lists"
    per_density = 5
    densities = (0.0, 0.15, 0.3, 0.6, 1.0)
    assignments = 200

    def build(self, seed: int, workdir: Path) -> tuple[list, str]:
        rng = rng_for(self.name, seed)
        instances, texts = [], []
        for n in range(3, 8):
            for p in self.densities * self.per_density:
                edges = self._graph(rng, n, p)
                deg = [sum(v in e for e in edges) for v in range(n)]
                palette = max(deg) + 1
                batch = []
                for k in range(self.assignments):
                    lists = [sorted(rng.sample(range(palette), d)) for d in deg]
                    if k % 2:
                        v = rng.randrange(n)
                        lists[v] = sorted(lists[v] + [rng.choice(
                            [c for c in range(palette) if c not in lists[v]]
                        )])
                    batch.append(lists)
                instances.append({"n": n, "edges": edges, "lists": batch})
                texts.append(json.dumps([n, edges, batch]))
        rng.shuffle(instances)
        for i, inst in enumerate(instances):
            inst["i"] = i
        return instances, digest(texts)

    def load(self, facet, instances) -> None:
        for inst in instances:
            inst["graph"] = facet.choosability.SimpleGraph.from_edges(inst["n"], inst["edges"])

    @staticmethod
    def _graph(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
        """A random spanning tree plus each other pair with probability
        ``p``, so trees, cycles, cliques and mixtures all occur."""
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < p:
                edges.add((u, v))
        return sorted(edges)

    def no_slack_calls(self, instances) -> int:
        """Calls per pass whose lists are all exactly degree-sized."""
        return sum(len(inst["lists"]) - len(inst["lists"]) // 2 for inst in instances)

    def prepare(self, inst) -> None:
        inst["degrees"] = [sum(v in e for e in inst["edges"]) for v in range(inst["n"])]
        inst["uncolorable"] = {}

    def run(self, facet, inst):
        colorable = facet.choosability.degree_feasible_colorable
        g = inst["graph"]
        return [colorable(g, lists) for lists in inst["lists"]]

    def check(self, inst, result, golden) -> str | None:
        edges, deg, cache = inst["edges"], inst["degrees"], inst["uncolorable"]
        for k, (lists, (guaranteed, colorable, coloring)) in enumerate(
            zip(inst["lists"], result)
        ):
            slack = any(len(l) > d for l, d in zip(lists, deg))
            if slack and not guaranteed:
                return f"assignment {k}: lists have slack but no guarantee"
            if coloring is not None:
                if not colorable:
                    return f"assignment {k}: coloring returned with colorable = False"
                if any(coloring[v] not in lists[v] for v in range(inst["n"])):
                    return f"assignment {k}: color outside its list"
                if any(coloring[u] == coloring[v] for u, v in edges):
                    return f"assignment {k}: coloring not proper"
                continue
            if colorable or guaranteed:
                return f"assignment {k}: no coloring, yet colorable={colorable} guaranteed={guaranteed}"
            if k not in cache:
                cache[k] = not self._exhaustive(inst["n"], edges, lists)
            if not cache[k]:
                return f"assignment {k}: declared uncolorable, search finds a coloring"
        return None

    @staticmethod
    def _exhaustive(n: int, edges, lists) -> bool:
        """Whether any proper coloring from the lists exists: every choice
        tried, in vertex order, cutting a branch at its first clash."""
        nbrs = [[u for e in edges for u in e if v in e and u < v] for v in range(n)]
        pick = [None] * n

        def go(v: int) -> bool:
            if v == n:
                return True
            for c in lists[v]:
                if all(pick[u] != c for u in nbrs[v]):
                    pick[v] = c
                    if go(v + 1):
                        return True
            return False

        return go(0)


WORKLOADS = {w.name: w for w in (ChiSmall(), ReduceReplay(), LargeAudit(), Lists())}
