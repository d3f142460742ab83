"""The reducible-configuration catalog and its replay checker."""

import json
import math
import random
from pathlib import Path

import pytest

from facet.reducibility import (
    ConfigurationError,
    catalog,
    check,
    configuration_from_json,
    configuration_to_json,
    neighborhood_audit,
)
from facet import embedding, nullstellensatz
from facet.embedding import (
    EmbeddedGraph,
    EmbeddingError,
    facial_distance,
    generate,
    random_plane_graph,
)
from facet.nullstellensatz import check_certificate, cn_witness

from helpers import reference_neighborhood_audit, reference_uncovered_pairs

EXPECTED_NAMES = [
    "four-vertex",
    "face-length-4",
    "three-thread",
    "eight-face",
    "nine-face",
    "ten-face-adjacent",
    "ten-face-dist3",
    "ten-face-dist4",
]


# Every transcribed conflict whose two edges really are facially close,
# as (configuration name, pair): dropping any one must be caught.
REAL_CONFLICTS = [
    (c.name, pair)
    for c in catalog()
    for pair in c.conflicts
    if facial_distance(c.host, *(c.variables[v - 1] for v in pair)) <= c.ell
]


def _wrong_faces():
    """(name, step index, face) for every identify step of the catalog and
    every valid face id of the graph it acts on other than its own."""
    out = []
    for c in catalog():
        g = c.host
        for i, (kind, *ids) in enumerate(c.surgery):
            if kind == "identify_edges":
                out += [(c.name, i, x) for x in range(len(g.faces())) if x != ids[2]]
            g = getattr(embedding, kind)(g, *ids).graph
    return out


WRONG_FACES = _wrong_faces()
CAP_SLOTS = [(c.name, i) for c in catalog() for i in range(len(c.caps))]


# Every step of `check` on each catalog entry, as (label, ok, detail).
CHECK_STEPS = {
    "four-vertex": [
        ("shape", True, "8 variables, 8 caps"),
        ("conflict-indices", True, "conflicts stay on free variables"),
        ("variable-edges", True, "variable edges distinct"),
        ("surgery", True, "host (9v,12e) -> reduced (4v,4e)"),
        ("conflicts-covered", True, "derived conflicts covered by transcription"),
        ("availability", True, "all caps met"),
        ("certificate-transcription", True, "pairs and caps agree"),
        ("certificate-coefficient", True, "coefficient 6, pinned 6"),
        ("certificate-room", True, "target exponents fit below caps"),
        ("extension", True, "witness monomial (3, 3, 3, 3, 2, 2, 2, 2)"),
    ],
    "face-length-4": [
        ("shape", True, "4 variables, 4 caps"),
        ("conflict-indices", True, "conflicts stay on free variables"),
        ("variable-edges", True, "variable edges distinct"),
        ("surgery", True, "host (8v,12e) -> reduced (5v,8e)"),
        ("conflicts-covered", True, "derived conflicts covered by transcription"),
        ("availability", True, "all caps met"),
        ("extension", True, "witness monomial (0, 1, 2, 3)"),
    ],
    "three-thread": [
        ("shape", True, "1 variables, 1 caps"),
        ("conflict-indices", True, "conflicts stay on free variables"),
        ("variable-edges", True, "variable edges distinct"),
        ("surgery", True, "host (11v,12e) -> reduced (10v,11e)"),
        ("conflicts-covered", True, "derived conflicts covered by transcription"),
        ("availability", True, "all caps met"),
        ("extension", True, "witness monomial (0,)"),
    ],
    "eight-face": [
        ("shape", True, "6 variables, 6 caps"),
        ("conflict-indices", True, "conflicts stay on free variables"),
        ("variable-edges", True, "variable edges distinct"),
        ("surgery", True, "host (16v,24e) -> reduced (14v,23e)"),
        ("identify-distance", True, "edges 8,12 at facial distance 4"),
        ("conflicts-covered", True, "derived conflicts covered by transcription"),
        ("availability", True, "all caps met"),
        ("extension", True, "witness monomial (2, 2, 2, 2, 2, 2)"),
    ],
    "nine-face": [
        ("shape", True, "7 variables, 7 caps"),
        ("conflict-indices", True, "conflicts stay on free variables"),
        ("variable-edges", True, "variable edges distinct"),
        ("surgery", True, "host (17v,25e) -> reduced (15v,24e)"),
        ("identify-distance", True, "edges 14,10 at facial distance 4"),
        ("conflicts-covered", True, "derived conflicts covered by transcription"),
        ("availability", True, "all caps met"),
        ("certificate-transcription", True, "pairs and caps agree"),
        ("certificate-coefficient", True, "coefficient -3, pinned -3"),
        ("certificate-room", True, "target exponents fit below caps"),
        ("extension", True, "witness monomial (1, 2, 2, 2, 3, 3, 2)"),
    ],
    "ten-face-adjacent": [
        ("shape", True, "10 variables, 10 caps"),
        ("conflict-indices", True, "conflicts stay on free variables"),
        ("variable-edges", True, "variable edges distinct"),
        ("surgery", True, "host (17v,24e) -> reduced (15v,23e)"),
        ("identify-distance", True, "edges 10,14 at facial distance 4"),
        ("conflicts-covered", True, "derived conflicts covered by transcription"),
        ("availability", True, "all caps met"),
        ("certificate-transcription", True, "pairs and caps agree"),
        ("certificate-coefficient", True, "coefficient 1, pinned 1"),
        ("certificate-room", True, "target exponents fit below caps"),
        ("extension", True, "witness monomial (0, 4, 2, 0, 2, 2, 2, 0, 2, 4)"),
    ],
    "ten-face-dist3": [
        ("shape", True, "10 variables, 10 caps"),
        ("conflict-indices", True, "conflicts stay on free variables"),
        ("variable-edges", True, "variable edges distinct"),
        ("surgery", True, "host (17v,24e) -> reduced (15v,23e)"),
        ("identify-distance", True, "edges 11,15 at facial distance 4"),
        ("conflicts-covered", True, "derived conflicts covered by transcription"),
        ("availability", True, "all caps met"),
        ("certificate-transcription", True, "pairs and caps agree"),
        ("certificate-coefficient", True, "coefficient -1, pinned -1"),
        ("certificate-room", True, "target exponents fit below caps"),
        ("extension", True, "witness monomial (2, 2, 3, 3, 0, 1, 2, 2, 0, 3)"),
    ],
    "ten-face-dist4": [
        ("shape", True, "10 variables, 10 caps"),
        ("conflict-indices", True, "conflicts stay on free variables"),
        ("variable-edges", True, "variable edges distinct"),
        ("surgery", True, "host (17v,24e) -> reduced (15v,23e)"),
        ("identify-distance", True, "edges 16,12 at facial distance 4"),
        ("conflicts-covered", True, "derived conflicts covered by transcription"),
        ("availability", True, "all caps met"),
        ("certificate-transcription", True, "pairs and caps agree"),
        ("certificate-coefficient", True, "coefficient -1, pinned -1"),
        ("certificate-room", True, "target exponents fit below caps"),
        ("extension", True, "witness monomial (3, 2, 2, 3, 0, 2, 1, 2, 0, 3)"),
    ],
}


@pytest.fixture(scope="module")
def configs():
    return {c.name: c for c in catalog()}


def test_catalog_names(configs):
    assert list(configs) == EXPECTED_NAMES


@pytest.mark.parametrize(
    "step", [(), ("contract_edge",), ("contract_edge", 1, 2), ("fold_face", 0), None, 5]
)
def test_malformed_surgery_step_fails_the_surgery_step(configs, step):
    config = configs["three-thread"]._replace(surgery=(step,))
    report = check(config)
    assert not report.ok
    assert report.failures()[0].label == "surgery"


@pytest.mark.parametrize(
    "name, step, detail",
    [
        ("three-thread", ("delete_vertex", 99), "vertex id 99 out of range"),
        ("eight-face", ("identify_edges", 999, 12, 9), "edge id 999 out of range"),
        ("eight-face", ("identify_edges", 8, 999, 9), "edge id 999 out of range"),
    ],
)
def test_surgery_id_out_of_range_fails_the_surgery_step(configs, name, step, detail):
    report = check(configs[name]._replace(surgery=(step,)))
    assert not report.ok
    assert [(s.label, s.detail) for s in report.failures()] == [("surgery", detail)]
    # the failed surgery step names the bad id; no distance is asked of it
    assert "identify-distance" not in [s.label for s in report.steps]


def test_empty_surgery_fails_the_surgery_step(configs):
    report = check(configs["three-thread"]._replace(surgery=()))
    assert [(s.label, s.detail) for s in report.failures()] == [
        ("surgery", "host (11v,12e) -> reduced (11v,12e)")
    ]


def test_ell_zero_config_rejected(configs):
    # ell = 0 would leave no close pair, so every step would pass
    with pytest.raises(ValueError, match="ell must be >= 1"):
        check(configs["eight-face"]._replace(ell=0))


@pytest.mark.parametrize(
    "name", [c.name for c in catalog() if any(s[0] == "identify_edges" for s in c.surgery)]
)
def test_identify_check_caches_only_bounded_gap_tables(name):
    config = next(c for c in catalog() if c.name == name)
    g = config.host
    host = EmbeddedGraph(g.n, g.endpoints, g.rotation)
    assert check(config._replace(host=host)).ok
    assert sorted(host._gap_tables) == [("edges", config.ell)]


def test_all_configurations_check_out():
    reports = [check(c) for c in catalog()]
    assert [r.name for r in reports] == EXPECTED_NAMES
    for r in reports:
        assert r.ok, (r.name, r.failures())


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_every_step_logged_ok(configs, name):
    report = check(configs[name])
    assert report.ok
    assert report.failures() == []
    labels = [s.label for s in report.steps]
    assert labels[0] == "shape"
    assert "surgery" in labels
    assert "availability" in labels
    assert "conflicts-covered" in labels
    assert reference_uncovered_pairs(configs[name]) == []


def test_check_steps_golden():
    assert {
        r.name: [(s.label, s.ok, s.detail) for s in r.steps] for r in map(check, catalog())
    } == CHECK_STEPS


def test_identify_distance_measured_on_the_graph_the_step_acts_on(configs):
    # Edges 1 and 16 share no face of the host; once edge 0 is deleted
    # they lie 2 apart on the merged face, too close to identify at ell = 3.
    config = configs["eight-face"]._replace(
        surgery=(("delete_edge", 0), ("identify_edges", 1, 16, 0)),
    )
    assert facial_distance(config.host, 1, 16) == math.inf
    report = check(config)
    assert [(s.label, s.detail) for s in report.failures()] == [
        ("identify-distance", "edges 1,16 at facial distance 2")
    ]


def test_identification_exactly_ell_apart_fails(configs):
    # eight-face joins edges at facial distance 4; at ell = 4 that is too close
    doc = json.loads(configuration_to_json(configs["eight-face"]))
    doc["ell"] = 4
    steps = check(configuration_from_json(json.dumps(doc))).steps
    assert [(s.ok, s.detail) for s in steps if s.label == "identify-distance"] == [
        (False, "edges 8,12 at facial distance 4")
    ]


def test_each_expansion_made_once_per_process(monkeypatch):
    calls = []
    kernel = nullstellensatz._capped_expansion

    def counted(pairs, caps):
        calls.append((pairs, caps))
        return kernel(pairs, caps)

    monkeypatch.setattr(nullstellensatz, "_capped_expansion", counted)
    check_certificate.cache_clear()
    nullstellensatz._witness.cache_clear()
    for _ in range(2):
        for c in catalog():
            check(c)
    named = {c.certificate for c in catalog() if c.certificate is not None}
    # one coefficient expansion per certificate, at its target, and one
    # witness expansion per configuration, on its own conflicts and caps
    assert len(named) == 5
    certs = [nullstellensatz.CERTIFICATES[n] for n in sorted(named)]
    coefficients = [(c.pairs, tuple(t + 1 for t in c.target)) for c in certs]
    witnesses = [(c.conflicts, c.caps) for c in catalog()]
    assert sorted(calls) == sorted(coefficients + witnesses)
    assert len(calls) == 5 + 8


def test_certified_configs_replay_their_certificates(configs):
    for name, c in configs.items():
        if c.certificate is None:
            continue
        labels = [s.label for s in check(c).steps]
        assert labels[-4:] == [
            "certificate-transcription",
            "certificate-coefficient",
            "certificate-room",
            "extension",
        ], name


def test_three_thread_middle_edge_neighborhood(configs):
    c = configs["three-thread"]
    audit = neighborhood_audit(c.host, c.ell, c.colors, c.uncolored)
    # the middle edge of a three-edge thread sees exactly nine other
    # edges facially, leaving one admissible color out of ten
    assert audit == {1: (9, 1)}


@pytest.mark.parametrize("ell", [1, 2, 3, 5])
def test_audit_matches_per_edge_scan(configs, ell):
    rng = random.Random(ell)
    hosts = [(c.host, c.uncolored) for c in configs.values()]
    for g in [generate("prism", 6)] + [random_plane_graph(s) for s in range(12)]:
        for k in (1, 3, g.m):
            hosts.append((g, tuple(rng.sample(range(g.m), min(k, g.m)))))
    for g, uncolored in hosts:
        assert neighborhood_audit(g, ell, 10, uncolored) == (
            reference_neighborhood_audit(g, ell, 10, uncolored)
        )


def test_audit_rejects_ell_zero(configs):
    c = configs["three-thread"]
    with pytest.raises(ValueError, match="ell must be >= 1"):
        neighborhood_audit(c.host, 0, c.colors, c.uncolored)


def test_audit_rejects_edge_out_of_range(configs):
    c = configs["three-thread"]
    with pytest.raises(EmbeddingError, match=f"edge id {c.host.m} out of range"):
        neighborhood_audit(c.host, c.ell, c.colors, (1, c.host.m))


def test_face_length_4_neighborhoods(configs):
    c = configs["face-length-4"]
    audit = neighborhood_audit(c.host, c.ell, c.colors, c.uncolored)
    assert sorted(audit) == [4, 5, 6, 7]
    for e, (count, avail) in audit.items():
        assert count <= 6
        assert (count, avail) == (3, 7)


def test_dummy_variables_carry_cap_one(configs):
    for c in configs.values():
        for i in c.dummies:
            assert c.caps[i - 1] == 1
            for a, b in c.conflicts:
                assert i not in (a, b)


class TestJson:
    def test_roundtrip_all(self, configs):
        for c in configs.values():
            again = configuration_from_json(configuration_to_json(c))
            assert again == c
            assert check(again).ok

    def test_document_shape(self, configs):
        doc = json.loads(configuration_to_json(configs["four-vertex"]))
        assert sorted(doc) == [
            "caps", "certificate", "colors", "conflicts", "description",
            "dummies", "ell", "host", "name", "surgery", "variables",
        ]

    def test_unread_keys_ignored(self, configs):
        # files written before the extension step carry an obligations
        # list; it and any other unread key are ignored
        doc = json.loads(configuration_to_json(configs["eight-face"]))
        for extra in (["pair-merge-or-disjoint"], "nope", [1], None):
            loaded = configuration_from_json(json.dumps({**doc, "obligations": extra, "x": 1}))
            assert loaded == configs["eight-face"]

    def test_missing_key_rejected(self, configs):
        doc = json.loads(configuration_to_json(configs["four-vertex"]))
        del doc["caps"]
        with pytest.raises(ConfigurationError, match="bad configuration"):
            configuration_from_json(json.dumps(doc))

    def test_ell_one_accepted(self, configs):
        doc = json.loads(configuration_to_json(configs["four-vertex"]))
        doc["ell"] = 1
        assert configuration_from_json(json.dumps(doc)).ell == 1

    def test_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            configuration_from_json("[]")


class TestMalformedConfigs:
    def mutate(self, configs, **changes):
        doc = json.loads(configuration_to_json(configs["four-vertex"]))
        doc.update(changes)
        return configuration_from_json(json.dumps(doc))

    def test_caps_length_mismatch_fails_shape(self, configs):
        doc = json.loads(configuration_to_json(configs["four-vertex"]))
        bad = self.mutate(configs, caps=doc["caps"][:-1])
        report = check(bad)
        assert not report.ok
        assert report.steps[0].label == "shape"
        assert not report.steps[0].ok

    @pytest.mark.parametrize("edge", [12, 999], ids=["at-end", "far"])
    def test_variable_edge_out_of_host(self, configs, edge):
        doc = json.loads(configuration_to_json(configs["four-vertex"]))
        assert configs["four-vertex"].host.m == 12
        bad = self.mutate(configs, variables=[edge] + doc["variables"][1:])
        report = check(bad)
        assert not report.ok
        assert ("variable-edges", f"edge ids [{edge}] not in host") in [
            (s.label, s.detail) for s in report.failures()
        ]

    @pytest.mark.parametrize(
        "name, dummies, bad",
        [
            ("eight-face", (99,), [99]),
            ("eight-face", (0,), [0]),
            ("eight-face", (-1,), [-1]),
            ("eight-face", (0, 0), [0, 0]),
            ("ten-face-dist3", (5, 9, 9), [9]),
        ],
        ids=["past-count", "zero", "negative", "zero-twice", "repeated"],
    )
    def test_bad_dummy_index_fails_dummies(self, configs, name, dummies, bad):
        config = configs[name]
        report = check(config._replace(dummies=dummies))
        n = len(config.variables)
        assert [(s.label, s.detail) for s in report.failures()] == [
            ("dummies", f"dummy indices {bad} repeated or not in 1..{n}")
        ]

    def test_self_conflict_rejected_by_report(self, configs):
        doc = json.loads(configuration_to_json(configs["four-vertex"]))
        bad = self.mutate(configs, conflicts=[[1, 1]] + doc["conflicts"])
        report = check(bad)
        assert not report.ok
        assert any(s.label == "conflict-indices" and not s.ok for s in report.steps)

    @pytest.mark.parametrize(
        "name, dropped",
        REAL_CONFLICTS,
        ids=[f"{name}-{a}-{b}" for name, (a, b) in REAL_CONFLICTS],
    )
    def test_dropped_conflict_caught_by_coverage(self, configs, name, dropped):
        config = configs[name]
        kept = tuple(p for p in config.conflicts if sorted(p) != sorted(dropped))
        bad = config._replace(conflicts=kept)
        report = check(bad)
        assert not report.ok
        step = next(s for s in report.steps if s.label == "conflicts-covered")
        missing = reference_uncovered_pairs(bad)
        assert not step.ok
        assert step.detail == f"uncovered pairs {missing}"
        assert [pair for _, _, pair in missing] == [tuple(sorted(dropped))]

    def test_inflated_cap_caught_by_availability(self, configs):
        doc = json.loads(configuration_to_json(configs["four-vertex"]))
        caps = list(doc["caps"])
        caps[0] = 11
        bad = self.mutate(configs, caps=caps)
        report = check(bad)
        assert not report.ok
        failing = {s.label for s in report.steps if not s.ok}
        assert "availability" in failing or "certificate-transcription" in failing


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_extension_derived_without_a_certificate(configs, name):
    # the extension step reads the transcription, not the certificate,
    # so dropping the name drops only the certificate's own steps
    bare = check(configs[name]._replace(certificate=None))
    assert bare.ok
    assert [(s.label, s.ok, s.detail) for s in bare.steps] == [
        step for step in CHECK_STEPS[name] if not step[0].startswith("certificate")
    ]


@pytest.mark.parametrize(
    "name, caps",
    [("face-length-4", (3, 3, 3, 3)), ("eight-face", (2,) * 6)],
    ids=["k4-three-colors", "eight-face-two-colors"],
)
def test_caps_without_a_witness_fail_only_extension(configs, name, caps):
    # K4 is not 3-choosable, and six variables in twelve conflicts need
    # degree 12 from exponents of at most 1; the caps are still available
    config = configs[name]._replace(caps=caps)
    assert cn_witness(config.conflicts, caps) is None
    assert [(s.label, s.detail) for s in check(config).failures()] == [
        ("extension", "no monomial below the caps has a nonzero coefficient")
    ]


def test_exponent_overflow_fails_extension(configs):
    # variable 1 in 3 + 13 = 16 conflicts with cap 17 could reach X1^16,
    # past the nibble: a failing step, not a traceback
    config = configs["face-length-4"]
    config = config._replace(
        conflicts=config.conflicts + ((1, 2),) * 13, caps=(17, 4, 4, 4)
    )
    failures = [(s.label, s.detail) for s in check(config).failures()]
    assert failures[0][0] == "availability"
    assert failures[1:] == [("extension", "variable 1 is in 16 factors, past 15")]


def test_bad_conflict_skips_extension(configs):
    config = configs["eight-face"]
    report = check(config._replace(conflicts=config.conflicts + ((1, 99),)))
    assert "extension" not in [s.label for s in report.steps]
    assert [s.label for s in report.failures()] == ["conflict-indices"]


# The catalog files the benchmark replays, written before the extension
# step: each must load, unchanged, and replay exactly as its twin.
BENCH_CATALOG = sorted((Path(__file__).resolve().parents[1] / "bench" / "catalog").glob("*.json"))


def test_bench_catalog_files_cover_the_catalog():
    assert sorted(p.stem for p in BENCH_CATALOG) == sorted(EXPECTED_NAMES)


@pytest.mark.parametrize("path", BENCH_CATALOG, ids=[p.stem for p in BENCH_CATALOG])
def test_bench_catalog_file_replays_as_its_twin(configs, path):
    report = check(configuration_from_json(path.read_text()))
    assert report.ok
    assert report == check(configs[path.stem])


def test_wrong_face_cases_cover_every_identify_entry():
    assert len(WRONG_FACES) == 42
    assert {name for name, _, _ in WRONG_FACES} == {
        c.name for c in catalog() if any(s[0] == "identify_edges" for s in c.surgery)
    }


@pytest.mark.parametrize(
    "name, index, face", WRONG_FACES, ids=[f"{n}-face-{x}" for n, _, x in WRONG_FACES]
)
def test_identify_on_a_wrong_face_fails_the_surgery(configs, name, index, face):
    config = configs[name]
    surgery = list(config.surgery)
    kind, e, f, _ = surgery[index]
    surgery[index] = (kind, e, f, face)
    report = check(config._replace(surgery=tuple(surgery)))
    assert [(s.label, s.detail) for s in report.failures()] == [
        ("surgery", f"edges {e} and {f} must each occur exactly once on face {face}")
    ]


@pytest.mark.parametrize(
    "name, index", CAP_SLOTS, ids=[f"{n}-var-{i + 1}" for n, i in CAP_SLOTS]
)
def test_cap_above_colors_fails_availability(configs, name, index):
    # availability is colors minus a count, so no cap above colors is met
    config = configs[name]
    caps = list(config.caps)
    caps[index] = config.colors + 1
    report = check(config._replace(caps=tuple(caps)))
    assert report.failures()[0].label == "availability"
