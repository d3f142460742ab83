"""End-to-end runs of the facet command line."""

import contextlib
import gc
import hashlib
import io
import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import facet
from facet import cli
from facet.cli import main
from facet.discharging import Negative, Transfer, audit
from facet.embedding import (
    EmbeddedGraph,
    generate,
    parse_peg,
    random_plane_graph,
    serialize_peg,
)
from facet.facial_coloring import parse_coloring
from facet.nullstellensatz import CERTIFICATES
from facet.reducibility import (
    ConfigurationError,
    catalog,
    configuration_from_json,
    configuration_to_json,
)

from helpers import (
    expand_transfers,
    pendant_path_host,
    plain,
    reference_discharge_doc,
    reference_gap_table,
)

DISCONNECTED_PEG = (
    "peg 1\nvertices 6\nedges 6\n"
    "e 0 0 1\ne 1 1 2\ne 2 2 0\ne 3 3 4\ne 4 4 5\ne 5 5 3\n"
    "rot 0 0 5\nrot 1 2 1\nrot 2 4 3\n"
    "rot 3 6 11\nrot 4 8 7\nrot 5 10 9\n"
)

K1_PEG = "peg 1\nvertices 1\nedges 0\nrot 0\n"

# Every pair of C7's edges is within 3 on a face walk; the label is the gap.
C7_DOT = """\
graph conflicts {
  0;
  1;
  2;
  3;
  4;
  5;
  6;
  0 -- 1 [label="1"];
  0 -- 2 [label="2"];
  0 -- 3 [label="3"];
  0 -- 4 [label="3"];
  0 -- 5 [label="2"];
  0 -- 6 [label="1"];
  1 -- 2 [label="1"];
  1 -- 3 [label="2"];
  1 -- 4 [label="3"];
  1 -- 5 [label="3"];
  1 -- 6 [label="2"];
  2 -- 3 [label="1"];
  2 -- 4 [label="2"];
  2 -- 5 [label="3"];
  2 -- 6 [label="3"];
  3 -- 4 [label="1"];
  3 -- 5 [label="2"];
  3 -- 6 [label="3"];
  4 -- 5 [label="1"];
  4 -- 6 [label="2"];
  5 -- 6 [label="1"];
}
"""


@pytest.fixture()
def c7(tmp_path):
    path = tmp_path / "c7.peg"
    assert main(["gen", "cycle", "7", "--out", str(path)]) == 0
    return path


def lines(capsys):
    return capsys.readouterr().out.splitlines()


class TestVerify:
    def test_accept(self, c7, tmp_path, capsys):
        col = tmp_path / "good.col"
        col.write_text("".join(f"c {e} {e + 1}\n" for e in range(7)))
        assert main(["verify", "--graph", str(c7), "--coloring", str(col)]) == 0
        assert lines(capsys) == ["verdict = accept"]

    def test_dot_export_beside_the_verdict(self, c7, tmp_path, capsys):
        col, dot = tmp_path / "bad.col", tmp_path / "g.dot"
        col.write_text("".join(f"c {e} {e % 4 + 1}\n" for e in range(7)))
        argv = ["verify", "--graph", str(c7), "--coloring", str(col), "--dot", str(dot)]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "violation e=0 f=4 color=1 face=0 gap=3\n"
            "violation e=1 f=5 color=2 face=0 gap=3\n"
            "violation e=2 f=6 color=3 face=0 gap=3\n"
            "verdict = reject\n",
            "",
        )
        assert dot.read_bytes() == C7_DOT.encode()

    def test_reject_lists_every_violation(self, c7, tmp_path, capsys):
        col = tmp_path / "bad.col"
        col.write_text("".join(f"c {e} {e % 4 + 1}\n" for e in range(7)))
        assert main(["verify", "--graph", str(c7), "--coloring", str(col)]) == 1
        assert lines(capsys) == [
            "violation e=0 f=4 color=1 face=0 gap=3",
            "violation e=1 f=5 color=2 face=0 gap=3",
            "violation e=2 f=6 color=3 face=0 gap=3",
            "verdict = reject",
        ]

    def test_json_is_single_document(self, c7, tmp_path, capsys):
        col = tmp_path / "bad.col"
        col.write_text("".join(f"c {e} {e % 4 + 1}\n" for e in range(7)))
        code = main(
            ["verify", "--graph", str(c7), "--coloring", str(col), "--json"]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == ["chi", "missing", "ok", "violations"]
        assert doc["chi"] is None and doc["ok"] is False
        assert [v["e"] for v in doc["violations"]] == [0, 1, 2]

    def test_planted_clashes_listed_in_pair_order_with_full_witnesses(
        self, tmp_path, capsys
    ):
        g = generate("prism", 20)
        graph = tmp_path / "prism20.peg"
        graph.write_text(serialize_peg(g))
        coloring = {e: e + 1 for e in range(g.m)}
        for a, b in ((0, 1), (5, 7), (20, 22), (42, 21), (19, 59)):
            coloring[b] = coloring[a]
        col = tmp_path / "bad.col"
        col.write_text("".join(f"c {e} {c}\n" for e, c in coloring.items()))
        assert main(["verify", "--graph", str(graph), "--coloring", str(col)]) == 1
        want = [
            f"violation e={a} f={b} color={coloring[a]} face={face} gap={gap}"
            for (a, b), (gap, face) in sorted(reference_gap_table(g, "edges").items())
            if gap <= 3 and coloring[a] == coloring[b]
        ]
        assert len(want) == 5
        assert lines(capsys) == want + ["verdict = reject"]

    def test_missing_edges_reject(self, c7, capsys):
        assert main(["verify", "--graph", str(c7), "--coloring", "/dev/null"]) == 1
        out = lines(capsys)
        assert "verdict = reject" in out
        assert any(l.startswith("missing e=") for l in out)


class TestChi:
    def test_text_golden(self, c7, capsys):
        assert main(["chi", "--graph", str(c7)]) == 0
        assert lines(capsys) == ["chi = 7"]

    def test_witness_roundtrips_through_verify(self, c7, tmp_path, capsys):
        assert main(["chi", "--graph", str(c7), "--witness"]) == 0
        out = capsys.readouterr().out
        body = out.split("\n", 1)[1]
        coloring = parse_coloring(body)
        col = tmp_path / "w.col"
        col.write_text(body)
        assert len(coloring) == 7
        assert main(["verify", "--graph", str(c7), "--coloring", str(col)]) == 0

    def test_json_document(self, c7, capsys):
        assert main(["chi", "--graph", str(c7), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["chi"] == 7 and doc["ok"] is True
        assert doc["violations"] == []
        assert sorted(doc["witness"]) == [str(e) for e in range(7)]

    def test_dot_export(self, c7, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        assert main(["chi", "--graph", str(c7), "--dot", str(dot)]) == 0
        assert dot.read_text() == C7_DOT

    def test_budget_exceeded_is_input_error(self, c7, capsys):
        assert main(["chi", "--graph", str(c7), "--budget", "2"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_ell_zero_is_usage_error(self, c7, capsys):
        assert main(["chi", "--graph", str(c7), "--ell", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "facet chi: error: argument --ell: must be a positive integer"
        )

    def test_edgeless_graph_needs_no_colors(self, tmp_path, capsys):
        f = tmp_path / "k1.peg"
        f.write_text(K1_PEG)
        assert main(["chi", "--graph", str(f)]) == 0
        assert capsys.readouterr().out == "chi = 0\n"


class TestCn:
    def test_lemma_golden(self, capsys):
        assert main(["cn", "--lemma", "four-vertex"]) == 0
        assert lines(capsys) == ["coefficient = 6"]

    def test_pairs_file(self, tmp_path, capsys):
        f = tmp_path / "tri.cn"
        f.write_text("p 1 2\np 2 3\np 1 3\nt 2 1 0\n")
        assert main(["cn", "--pairs", str(f)]) == 0
        assert lines(capsys) == ["coefficient = 1"]

    def test_pairs_file_skips_blank_and_comment_lines(self, tmp_path, capsys):
        f = tmp_path / "tri.cn"
        f.write_text("# a triangle\n\np 1 2\n   \np 2 3  # second\n# none\np 1 3\nt 2 1 0\n")
        assert main(["cn", "--pairs", str(f)]) == 0
        assert lines(capsys) == ["coefficient = 1"]

    def test_zero_coefficient_exits_one(self, tmp_path, capsys):
        f = tmp_path / "zero.cn"
        f.write_text("p 1 2\nt 1 1\n")
        assert main(["cn", "--pairs", str(f)]) == 1
        assert lines(capsys) == ["coefficient = 0"]

    def test_lemma_and_pairs_conflict(self, tmp_path):
        f = tmp_path / "x.cn"
        f.write_text("p 1 2\nt 1 0\n")
        assert main(["cn", "--lemma", "four-vertex", "--pairs", str(f)]) == 2

    def test_neither_given(self):
        assert main(["cn"]) == 2

    def test_unknown_lemma(self, capsys):
        assert main(["cn", "--lemma", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("p 1 2\nt 1 0\nt 1 0\n", "line 3: duplicate target line"),
            ("p 1 2\n", "pairs file has no target line"),
        ],
        ids=["duplicate-target", "no-target"],
    )
    def test_bad_target_lines_are_input_errors(self, text, detail, tmp_path, capsys):
        f = tmp_path / "bad.cn"
        f.write_text(text)
        assert main(["cn", "--pairs", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {detail}\n"

    @pytest.mark.parametrize(
        "old, token, ln",
        [
            ("t 1 0", "1_0", 2),
            ("t 1 0", "+1", 2),
            ("p 1 2", "\u0661", 1),
            ("p 1 2", "x", 1),
            ("t 1 0", "-", 2),
            ("t 1 0", "1-", 2),
        ],
    )
    def test_ids_are_ascii_decimal(self, old, token, ln, tmp_path, capsys):
        f = tmp_path / "bad.cn"
        f.write_text("p 1 2\nt 1 0\n".replace(old, old.replace("1", token, 1)))
        assert main(["cn", "--pairs", str(f)]) == 2
        assert capsys.readouterr() == (
            "", f"error: line {ln}: {token!r} is not a decimal integer\n"
        )

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("p 1 2\np x 2\nt 1 0\n", "line 2: 'x' is not a decimal integer"),
            ("p 1 2\nt 1_0 0\n", "line 2: '1_0' is not a decimal integer"),
        ],
        ids=["letter", "underscore"],
    )
    def test_bad_number_names_its_line(self, text, detail, tmp_path, capsys):
        f = tmp_path / "bad.cn"
        f.write_text(text)
        assert main(["cn", "--pairs", str(f)]) == 2
        assert capsys.readouterr() == ("", f"error: {detail}\n")

    def test_target_exponent_past_fifteen(self, tmp_path, capsys):
        f = tmp_path / "big.cn"
        f.write_text("p 1 2\n" * 16 + "t 16 0\n")
        assert main(["cn", "--pairs", str(f)]) == 2
        assert capsys.readouterr().err == (
            "error: exponent 16 of variable 1 not in 0..15\n"
        )


class TestReduce:
    def test_all_pass(self, capsys):
        assert main(["reduce"]) == 0
        out = lines(capsys)
        assert out[0] == "PASS four-vertex"
        assert out[-1] == "all = pass"
        assert len(out) == 9

    def test_single_config(self, capsys):
        assert main(["reduce", "--config", "three-thread"]) == 0
        assert lines(capsys) == ["PASS three-thread", "all = pass"]

    def test_config_file(self, tmp_path, capsys):
        f = tmp_path / "tt.json"
        f.write_text(configuration_to_json(catalog()[2]))
        assert main(["reduce", "--config-file", str(f)]) == 0
        assert lines(capsys) == ["PASS three-thread", "all = pass"]

    def test_tampered_config_fails(self, tmp_path, capsys):
        doc = json.loads(configuration_to_json(catalog()[2]))
        doc["caps"] = [0] * len(doc["caps"])
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert main(["reduce", "--config-file", str(f)]) == 1
        out = lines(capsys)
        assert out[0].startswith("FAIL three-thread:")
        assert out[-1] == "all = fail"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("surgery", [[]]),
            ("surgery", [["contract_edge"]]),
            ("ell", 0),
            ("name", ["x"]),
            ("certificate", []),
            ("host", 5),
            ("ell", float("inf")),
            # integers are taken as they are, never coerced
            ("ell", True),
            ("ell", 3.9),
            ("ell", "3"),
            ("variables", [1.7]),
            ("caps", [True]),
            ("colors", 10.5),
            ("colors", "10"),
        ],
        ids=[
            "empty-step",
            "step-without-ids",
            "ell-zero",
            "name-not-string",
            "certificate-not-string",
            "host-not-string",
            "ell-infinite",
            "ell-bool",
            "ell-float",
            "ell-string",
            "variable-float",
            "cap-bool",
            "colors-float",
            "colors-string",
        ],
    )
    def test_malformed_config_file_is_input_error(self, key, value, tmp_path, capsys):
        config = next(c for c in catalog() if c.name == "three-thread")
        doc = json.loads(configuration_to_json(config))
        doc[key] = value
        with pytest.raises(ConfigurationError):
            configuration_from_json(json.dumps(doc))
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert main(["reduce", "--config-file", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_deeply_nested_config_file_is_input_error(self, tmp_path, capsys):
        # deeper than the JSON decoder's recursion limit
        text = "[" * 5000
        with pytest.raises(ConfigurationError):
            configuration_from_json(text)
        f = tmp_path / "nested.json"
        f.write_text(text)
        assert main(["reduce", "--config-file", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: bad JSON: ")

    @pytest.mark.parametrize(
        "name, step, detail",
        [
            ("three-thread", ["delete_vertex", 99], "vertex id 99 out of range"),
            ("eight-face", ["identify_edges", 8, 999, 9], "edge id 999 out of range"),
        ],
    )
    def test_surgery_id_out_of_range_fails(self, name, step, detail, tmp_path, capsys):
        config = next(c for c in catalog() if c.name == name)
        doc = json.loads(configuration_to_json(config))
        doc["surgery"] = [step]
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert main(["reduce", "--config-file", str(f)]) == 1
        assert lines(capsys) == [f"FAIL {name}: surgery ({detail})", "all = fail"]

    @pytest.mark.parametrize(
        "key, value, failure",
        [
            ("surgery", [["contract_face", 99]], "surgery (face id 99 out of range)"),
            ("surgery", [["identify_edges", 8, 12, 99]], "surgery (face id 99 out of range)"),
            ("certificate", "nope", "certificate (unknown certificate 'nope')"),
        ],
        ids=["contract-face", "identify-edges", "certificate"],
    )
    def test_unknown_face_or_certificate_fails(
        self, key, value, failure, tmp_path, capsys
    ):
        config = next(c for c in catalog() if c.name == "eight-face")
        doc = json.loads(configuration_to_json(config))
        doc[key] = value
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert main(["reduce", "--config-file", str(f)]) == 1
        assert lines(capsys) == [f"FAIL eight-face: {failure}", "all = fail"]

    @pytest.mark.parametrize(
        "dummies", [[99], [0], [-1], [0, 0]], ids=["past-count", "zero", "negative", "zero-twice"]
    )
    def test_bad_dummy_index_fails(self, dummies, tmp_path, capsys):
        config = next(c for c in catalog() if c.name == "eight-face")
        doc = json.loads(configuration_to_json(config))
        doc["dummies"] = dummies
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert main(["reduce", "--config-file", str(f)]) == 1
        assert lines(capsys) == [
            f"FAIL eight-face: dummies (dummy indices {dummies} repeated or not in 1..6)",
            "all = fail",
        ]

    def test_repeated_dummy_index_fails(self, tmp_path, capsys):
        config = next(c for c in catalog() if c.name == "ten-face-dist3")
        doc = json.loads(configuration_to_json(config))
        doc["dummies"] = [5, 9, 9]
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert main(["reduce", "--config-file", str(f), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [(s["label"], s["detail"]) for s in doc["reports"][0]["steps"] if not s["ok"]] == [
            ("dummies", "dummy indices [9] repeated or not in 1..10")
        ]

    def test_identification_too_close_after_earlier_step_fails(self, tmp_path, capsys):
        config = next(c for c in catalog() if c.name == "eight-face")
        doc = json.loads(configuration_to_json(config))
        doc["surgery"] = [["delete_edge", 0], ["identify_edges", 1, 16, 0]]
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert main(["reduce", "--config-file", str(f)]) == 1
        assert lines(capsys) == [
            "FAIL eight-face: identify-distance (edges 1,16 at facial distance 2)",
            "all = fail",
        ]

    def test_caps_without_a_witness_fail_extension(self, tmp_path, capsys):
        config = next(c for c in catalog() if c.name == "eight-face")
        doc = json.loads(configuration_to_json(config))
        doc["caps"] = [2] * 6
        f = tmp_path / "two.json"
        f.write_text(json.dumps(doc))
        assert main(["reduce", "--config-file", str(f)]) == 1
        assert lines(capsys) == [
            "FAIL eight-face: extension (no monomial below the caps has a nonzero coefficient)",
            "all = fail",
        ]

    def test_exponent_overflow_fails_extension(self, tmp_path, capsys):
        # variable 1 in 16 conflicts with cap 17: a failing step, exit 1
        config = next(c for c in catalog() if c.name == "face-length-4")
        doc = json.loads(configuration_to_json(config))
        doc["conflicts"] += [[1, 2]] * 13
        doc["caps"][0] = 17
        f = tmp_path / "deep.json"
        f.write_text(json.dumps(doc))
        assert main(["reduce", "--config-file", str(f), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        steps = json.loads(captured.out)["reports"][0]["steps"]
        assert steps[-1] == {
            "label": "extension", "ok": False, "detail": "variable 1 is in 16 factors, past 15"
        }

    def test_unknown_config_name(self, capsys):
        assert main(["reduce", "--config", "nope"]) == 2

    @pytest.mark.parametrize(
        "name, pair",
        [("three-thread", [1, 2]), ("face-length-4", [1, 1]), ("eight-face", [1, 99])],
        ids=["three-thread", "face-length-4", "eight-face"],
    )
    def test_bad_conflict_fails_before_extension(self, name, pair, tmp_path, capsys):
        config = next(c for c in catalog() if c.name == name)
        doc = json.loads(configuration_to_json(config))
        doc["conflicts"].append(pair)
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert main(["reduce", "--config-file", str(f)]) == 1
        assert lines(capsys) == [
            f"FAIL {name}: conflict-indices (bad pairs [{tuple(pair)}])",
            "all = fail",
        ]


class TestDischarge:
    def test_c7_text_frozen(self, c7, capsys):
        assert main(["discharge", "--graph", str(c7)]) == 0
        out = lines(capsys)
        assert out[0] == "initial total = -12"
        assert out[1] == "final total = -12"
        assert out[2] == "transfers = 14"
        assert out[3] == "gaps = 0"
        assert out[4] == "notes = 7"
        assert "negative v:0 = -1/3" in out
        assert "negative f:0 = -29/6" in out
        assert out[-1] == "verdict = violates-structure"
        assert any(l.startswith("structure failing: no_three_thread") for l in out)

    def test_json_document(self, c7, capsys):
        assert main(["discharge", "--graph", str(c7), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == [
            "final", "gaps", "initial", "negative", "notes",
            "structure", "total", "transfers", "verdict",
        ]
        assert doc["total"] == {"num": -12, "den": 1}
        assert doc["verdict"] == "violates-structure"
        assert len(doc["transfers"]) == 14
        t = doc["transfers"][0]
        assert sorted(t) == ["den", "dst", "num", "rule", "src"]
        assert doc["structure"]["all_pass"] is False

    @pytest.mark.parametrize("n", [0, 1])
    def test_edgeless_graph_is_input_error(self, n, tmp_path, capsys):
        f = tmp_path / "edgeless.peg"
        f.write_text(f"peg 1\nvertices {n}\nedges 0\n" + "rot 0\n" * n)
        assert main(["discharge", "--graph", str(f)]) == 2
        assert capsys.readouterr().err == (
            "error: discharging needs at least one edge; this graph has none\n"
        )


class TestGraphWarnings:
    def test_disconnected_graph_warns_on_stderr(self, tmp_path, capsys):
        f = tmp_path / "two-triangles.peg"
        f.write_text(DISCONNECTED_PEG)
        assert main(["chi", "--graph", str(f)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "chi = 3\n"
        assert captured.err == "warning: disconnected: 2 components\n"

    def test_catalog_graphs_write_nothing_to_stderr(self, catalog, tmp_path, capsys):
        for name, g in catalog.items():
            f = tmp_path / f"{name}.peg"
            f.write_text(serialize_peg(g))
            assert main(["chi", "--graph", str(f)]) == 0, name
            assert capsys.readouterr().err == "", name


class TestMedial:
    def test_stdout_peg(self, c7, capsys):
        assert main(["medial", "--graph", str(c7)]) == 0
        g = parse_peg(capsys.readouterr().out)
        assert (g.n, g.m) == (7, 14)

    def test_json_with_correspondence(self, c7, capsys):
        assert main(["medial", "--graph", str(c7), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == ["correspondence", "peg"]
        assert doc["correspondence"] == list(range(7))
        parse_peg(doc["peg"])

    def test_out_file(self, c7, tmp_path, capsys):
        out = tmp_path / "m.peg"
        assert main(["medial", "--graph", str(c7), "--out", str(out)]) == 0
        assert parse_peg(out.read_text()).n == 7

    def test_json_out_file_gets_the_stdout_bytes(self, c7, tmp_path, capsys):
        assert main(["medial", "--graph", str(c7), "--json"]) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "m.json"
        assert main(["medial", "--graph", str(c7), "--json", "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_bytes() == stdout.encode()

    def test_edgeless_graph_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "k1.peg"
        f.write_text(K1_PEG)
        assert main(["medial", "--graph", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: medial of an edgeless graph is undefined\n"


# First 16 hex digits of the sha256 of stdout for `medial` and
# `medial --json` on C7 and on each catalog host.
MEDIAL_STDOUT = {
    "c7": ("8c10dc10adf71f3e", "fa820ca1be0d9d46"),
    "four-vertex": ("95b42968fde29474", "d0c8461e54bff2dd"),
    "face-length-4": ("f0e88991366b7a5f", "64ddb7be0c54afd8"),
    "three-thread": ("90227625e7fed05d", "ea61df47ccab5e27"),
    "eight-face": ("f0587288d45fc378", "e44fe569a4a0df68"),
    "nine-face": ("674f1616a598de03", "f70b5d106ca486d2"),
    "ten-face-adjacent": ("75672f19cbf6c874", "c7aa9fd4bdecaa00"),
    "ten-face-dist3": ("dce4f0cbe6b80f40", "b9a9c11abc0254e2"),
    "ten-face-dist4": ("178b3d6a9c35fd61", "c0398bcee8e7c3b6"),
}


@pytest.mark.parametrize("name", MEDIAL_STDOUT)
def test_medial_stdout_frozen(name, tmp_path, capsys):
    peg = tmp_path / "g.peg"
    if name == "c7":
        peg.write_text(serialize_peg(generate("cycle", 7)))
    else:
        peg.write_text(serialize_peg(next(c.host for c in catalog() if c.name == name)))
    digests = []
    for extra in ([], ["--json"]):
        assert main(["medial", "--graph", str(peg), *extra]) == 0
        out = capsys.readouterr().out
        digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
    assert tuple(digests) == MEDIAL_STDOUT[name]


# First 16 hex digits of the sha256 of `verify` stdout at --ell 3 per
# host and coloring, for text, --json, --partial and --partial --json,
# and of the --dot file per host; see _verify_hosts and _verify_colorings.
# ACCEPT is "verdict = accept" and its --json document, twice.
ACCEPT = ("d20d39de7cb4f0e5", "6a51a984d98b3676") * 2
VERIFY_STDOUT = {
    "loop-and-bridge": {
        "distinct": ACCEPT,
        "planted": ACCEPT,
        "one": ("7774daf909bb1cd7", "a775de9b1ce6c944", "7774daf909bb1cd7", "a775de9b1ce6c944"),
        "mod3": ACCEPT,
        "half": ("1810156970af5e13", "15ee39ae62bb1723", "d20d39de7cb4f0e5", "6a51a984d98b3676"),
    },
    "pendant-path": {
        "distinct": ACCEPT,
        "planted": (
            "383d7de8b9303334", "df5935ed0f6f1621", "383d7de8b9303334", "df5935ed0f6f1621",
        ),
        "one": ("d8b5cd6868361340", "c73a17c3a9728914", "d8b5cd6868361340", "c73a17c3a9728914"),
        "mod3": ("86dc0ae6a01ea442", "ca4e8646db1df5d3", "86dc0ae6a01ea442", "ca4e8646db1df5d3"),
        "half": ("a17224027ce62cf6", "0e3039a2f21fcc72", "d20d39de7cb4f0e5", "6a51a984d98b3676"),
    },
    "prism-13": {
        "distinct": ACCEPT,
        "planted": (
            "fbf185876b3d607d", "3cc222a1ddd13d99", "fbf185876b3d607d", "3cc222a1ddd13d99",
        ),
        "one": ("42f633905b9f4355", "78c0ef05e7999aa8", "42f633905b9f4355", "78c0ef05e7999aa8"),
        "mod3": ("7fc79de2cd5840fe", "c7dcc2ddbc48de44", "7fc79de2cd5840fe", "c7dcc2ddbc48de44"),
        "half": ("51d6b42627792d62", "d46418ebb82586aa", "12b90785cc247642", "1704184101cb76f8"),
    },
    "prism-5": {
        "distinct": ACCEPT,
        "planted": (
            "fbf185876b3d607d", "3cc222a1ddd13d99", "fbf185876b3d607d", "3cc222a1ddd13d99",
        ),
        "one": ("4b295d13a50495ea", "7c70a395689976c4", "4b295d13a50495ea", "7c70a395689976c4"),
        "mod3": ("725b5c78af0a01d8", "528954757f894a5f", "725b5c78af0a01d8", "528954757f894a5f"),
        "half": ("a85bce94c858e26a", "613765b2e5254855", "8d1b83c24afdc04a", "701f62b4d7ea56bb"),
    },
    "random-34-30": {
        "distinct": ACCEPT,
        "planted": (
            "33be5332d1fb2928", "98d5d49dd3c5c722", "33be5332d1fb2928", "98d5d49dd3c5c722",
        ),
        "one": ("7a5e8d14d7cd376c", "a2e7042b786080ec", "7a5e8d14d7cd376c", "a2e7042b786080ec"),
        "mod3": ("190a629baceaf6c4", "bf1b8c9e49099689", "190a629baceaf6c4", "bf1b8c9e49099689"),
        "half": ("6efdd0a827406d3b", "8f8a892b5f5e7825", "dfee1864232ca5b6", "cb1c236a03ee0a4a"),
    },
    "random-7": {
        "distinct": ACCEPT,
        "planted": (
            "1b988a5cb4cd8223", "fe065a704ad6bed7", "1b988a5cb4cd8223", "fe065a704ad6bed7",
        ),
        "one": ("a065a477f71456df", "56eb9fa9d918ffbb", "a065a477f71456df", "56eb9fa9d918ffbb"),
        "mod3": ("9bc6aab640f74b63", "bbd36f1bbd0c2443", "9bc6aab640f74b63", "bbd36f1bbd0c2443"),
        "half": ("d58fc019fb3a4686", "f89e6380005b9c5a", "67a010745cd8fd32", "7acf2f323309caf5"),
    },
}
VERIFY_DOT = {
    "loop-and-bridge": "e269fc09a887f5cb",
    "pendant-path": "e9d8ff2195620771",
    "prism-13": "bdd3558ec946b46c",
    "prism-5": "305a98c18e3adaae",
    "random-34-30": "ceb5cf0b5497da90",
    "random-7": "8eebbc1202d5fa72",
}


def _verify_hosts() -> dict:
    return {
        "prism-5": generate("prism", 5),
        "prism-13": generate("prism", 13),
        "random-7": random_plane_graph(7),
        "random-34-30": random_plane_graph(34, max_ops=30),
        "pendant-path": pendant_path_host(),
        "loop-and-bridge": EmbeddedGraph.build(2, [(0, 1), (1, 1)], [[0], [1, 2, 3]]),
    }


def _verify_colorings(g) -> dict:
    """All distinct, one clash planted on face 0, one color, three
    colors, and three colors on the even edges only."""
    planted = {e: e + 1 for e in range(g.m)}
    walk = g.faces()[0].edges
    planted[walk[2 % len(walk)]] = planted[walk[0]]
    return {
        "distinct": {e: e + 1 for e in range(g.m)},
        "planted": planted,
        "one": dict.fromkeys(range(g.m), 1),
        "mod3": {e: e % 3 + 1 for e in range(g.m)},
        "half": {e: e % 3 + 1 for e in range(0, g.m, 2)},
    }


@pytest.mark.parametrize("name", sorted(_verify_hosts()))
def test_verify_stdout_frozen(name, tmp_path, capsys):
    g = _verify_hosts()[name]
    peg, dot = tmp_path / "g.peg", tmp_path / "g.dot"
    peg.write_text(serialize_peg(g))
    got = {}
    for label, coloring in _verify_colorings(g).items():
        col = tmp_path / f"{label}.col"
        col.write_text("".join(f"c {e} {c}\n" for e, c in coloring.items()))
        digests = []
        for extra in ([], ["--json"], ["--partial"], ["--partial", "--json"]):
            code = main(["verify", "--graph", str(peg), "--coloring", str(col), *extra])
            out = capsys.readouterr().out
            assert code == (0 if out.endswith("accept\n") or '"ok": true' in out else 1)
            digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
        got[label] = tuple(digests)
    assert main(["verify", "--graph", str(peg), "--coloring", str(col), "--dot", str(dot)]) == 1
    capsys.readouterr()
    assert got == VERIFY_STDOUT[name]
    assert hashlib.sha256(dot.read_bytes()).hexdigest()[:16] == VERIFY_DOT[name]


class TestStructure:
    def test_c7_fails_threads(self, c7, capsys):
        assert main(["structure", "--graph", str(c7)]) == 1
        out = lines(capsys)
        assert out[0] == "ok two_connected"
        assert "FAIL no_three_thread" in out
        assert out[-1] == "all = fail"
        assert len(out) == 24

    def test_json(self, c7, capsys):
        assert main(["structure", "--graph", str(c7), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_pass"] is False
        assert doc["predicates"]["two_connected"] is True
        assert "no_three_thread" in doc["failing"]


# First 16 hex digits of the sha256 of stdout for `structure`,
# `structure --json` and `discharge --json` on each catalog host.
CATALOG_HOST_STDOUT = {
    "four-vertex": ("e6b9258afda15c41", "38c7ea450b3d7b4f", "93ec139e47a91513"),
    "face-length-4": ("ca052ae17c78d1fd", "d99594013b798dbb", "3505e59f2f719260"),
    "three-thread": ("a8e0bdf1555756fc", "78e4da83beb9f9ba", "f17913cf4c1faaf1"),
    "eight-face": ("d006fe25d86aab3a", "3dfe41a60c3de802", "1f5e03790947dcc3"),
    "nine-face": ("f2fcb367b81693d7", "c5b94d56a73f1714", "a5b5475a6a46aa30"),
    "ten-face-adjacent": ("6417245b2b05d7f1", "2c7a30244d3e30cd", "10ffceb7dde98ed8"),
    "ten-face-dist3": ("b4e430de6e940db2", "50842b393653c7cb", "c3c1153b1a4380dc"),
    "ten-face-dist4": ("b4e430de6e940db2", "50842b393653c7cb", "b651b3e6119344d3"),
}


@pytest.mark.parametrize("config", catalog(), ids=lambda c: c.name)
def test_catalog_host_structure_and_discharge_stdout_frozen(config, tmp_path, capsys):
    peg = tmp_path / "host.peg"
    peg.write_text(serialize_peg(config.host))
    digests = []
    for argv, code in (
        (["structure"], 1), (["structure", "--json"], 1), (["discharge", "--json"], 0),
    ):
        assert main([argv[0], "--graph", str(peg), *argv[1:]]) == code
        out = capsys.readouterr().out
        digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
    assert tuple(digests) == CATALOG_HOST_STDOUT[config.name]


class TestDistance:
    def test_text(self, c7, capsys):
        assert main(["distance", "--graph", str(c7), "0", "3"]) == 0
        assert lines(capsys) == ["distance = 3"]

    def test_self_distance(self, c7, capsys):
        assert main(["distance", "--graph", str(c7), "1", "1"]) == 0
        assert lines(capsys) == ["distance = 0"]

    def test_infinite(self, tmp_path, capsys):
        f = tmp_path / "two.peg"
        f.write_text(DISCONNECTED_PEG)
        assert main(["distance", "--graph", str(f), "0", "3"]) == 0
        assert lines(capsys) == ["distance = inf"]

    def test_infinite_json_is_null(self, tmp_path, capsys):
        f = tmp_path / "two.peg"
        f.write_text(DISCONNECTED_PEG)
        assert main(["distance", "--graph", str(f), "0", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"distance": None, "e": 0, "f": 3}

    def test_bad_edge_id(self, c7, capsys):
        assert main(["distance", "--graph", str(c7), "0", "99"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestGen:
    @pytest.mark.parametrize(
        "args",
        [
            ["cycle", "5"],
            ["k4"],
            ["prism", "4"],
            ["theta", "2", "3", "4"],
            ["subdivided_k4", "2"],
            ["random", "--seed", "11"],
        ],
    )
    def test_families_emit_valid_peg(self, args, capsys):
        assert main(["gen"] + args) == 0
        parse_peg(capsys.readouterr().out)

    def test_random_is_seeded(self, capsys):
        assert main(["gen", "random", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "random", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first
        assert main(["gen", "random", "--seed", "8"]) == 0
        assert capsys.readouterr().out != first

    def test_random_rejects_positional_params(self, capsys):
        assert main(["gen", "random", "7"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_missing_params(self, capsys):
        assert main(["gen", "cycle"]) == 2
        assert "bad parameters" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, reason",
        [
            (["cycle", "0"], "'cycle': cycle needs n >= 1"),
            (["prism", "2"], "'prism': prism needs n >= 3"),
            (["theta", "0", "1", "1"], "'theta': theta path lengths must be >= 1"),
            (["subdivided_k4", "0"], "'subdivided_k4': subdivided_k4 needs ell >= 1"),
            (["k4", "1"], "'k4': k4 takes no parameters"),
        ],
        ids=["cycle-0", "prism-2", "theta-0", "subdivided-k4-0", "k4-param"],
    )
    def test_bad_parameters_are_input_errors(self, args, reason, capsys):
        assert main(["gen", *args]) == 2
        assert capsys.readouterr() == ("", f"error: bad parameters for family {reason}\n")

    @pytest.mark.parametrize(
        "args, graph",
        [
            (["cycle", "1"], lambda: generate("cycle", 1)),
            (["k4"], lambda: generate("k4")),
            (["random", "--seed", "4"], lambda: random_plane_graph(4)),
            (["cycle", "1", "--json"], lambda: generate("cycle", 1)),
            (["random", "--seed", "4", "--json"], lambda: random_plane_graph(4)),
        ],
        ids=["cycle-1", "k4", "random-4", "cycle-1-json", "random-4-json"],
    )
    def test_text_is_the_peg_on_stdout_or_in_out(self, args, graph, tmp_path, capsys):
        peg = serialize_peg(graph())
        expected = json.dumps({"peg": peg}, indent=2) + "\n" if "--json" in args else peg
        assert main(["gen", *args]) == 0
        assert capsys.readouterr() == (expected, "")
        path = tmp_path / "g.peg"
        assert main(["gen", *args, "--out", str(path)]) == 0
        assert capsys.readouterr() == ("", "")
        assert path.read_text() == expected

    def test_json_wraps_the_peg(self, capsys):
        assert main(["gen", "cycle", "3", "--json"]) == 0
        assert capsys.readouterr() == (
            '{\n  "peg": "peg 1\\nvertices 3\\nedges 3\\ne 0 0 1\\ne 1 1 2\\ne 2 2 0'
            '\\nrot 0 0 5\\nrot 1 2 1\\nrot 2 4 3\\n"\n}\n',
            "",
        )

    def test_unknown_family(self):
        assert main(["gen", "moebius", "5"]) == 2


def _parse_outcome(parse, argv):
    """(namespace less ``subcommand``, exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    ns, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    if ns is not None:
        ns.pop("subcommand", None)
    return ns, code, out.getvalue(), err.getvalue()


# A call each subcommand accepts, before any noise is added.
VALID_ARGV = {
    "verify": ["--graph", "g.peg", "--coloring", "c.txt"],
    "chi": ["--graph", "g.peg"],
    "cn": ["--lemma", "L"],
    "reduce": [],
    "discharge": ["--graph", "g.peg"],
    "medial": ["--graph", "g.peg"],
    "gen": ["prism", "5"],
    "structure": ["--graph", "g.peg"],
    "distance": ["--graph", "g.peg", "0", "1"],
}
ARG_VALUES = ["3", "0", "-1", "x.peg", "prism", "random", "7", ""]
ARG_NOISE = ["--", "-h", "--help", "--h", "--he", "--gr", "--c", "--nope", "-x", "extra", "nosuch"]


def _random_argv(rng, options):
    """An empty argv, or a subcommand (most often), an unknown one or a
    bare option, then up to seven tokens: the subcommand's own options,
    some abbreviated, bare, with a value or as ``--opt=value``, values and
    noise, often after a call the subcommand accepts."""
    r = rng.random()
    if r < 0.04:
        return []
    if r < 0.88:
        head = rng.choice(list(options))
        argv = [head, *VALID_ARGV[head]] if rng.random() < 0.6 else [head]
    else:
        head = rng.choice(["nosuch", "-h", "--help", "--h", "--", "--json", "CHI"])
        argv = [head]
    pool = options.get(head) or [o for opts in options.values() for o in opts]
    for _ in range(rng.randint(0, 7)):
        k = rng.random()
        if k < 0.5:
            opt = rng.choice(pool)
            if opt.startswith("--") and rng.random() < 0.25:
                opt = opt[: rng.randint(3, len(opt))]
            value = rng.choice(ARG_VALUES)
            argv += [f"{opt}={value}"] if k < 0.12 else [opt, value] if k < 0.35 else [opt]
        elif k < 0.8:
            argv.append(rng.choice(ARG_VALUES))
        else:
            argv.append(rng.choice(ARG_NOISE))
    return argv


class TestParseArgs:
    """``cli._parse_args`` against ``top.parse_args``: the same namespace
    (less ``subcommand``), exit code, stdout and stderr for every argv."""

    @staticmethod
    def _options():
        _top, subs = cli._parser()
        return {
            name: re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", p.format_usage())
            for name, p in subs.items()
        }

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["--help"],
            ["--h"],
            ["nosuch"],
            ["--", "chi"],
            ["chi"],
            ["chi", "-h"],
            ["chi", "--h"],
            ["chi", "--gr", "g.peg"],
            ["chi", "--graph=g.peg", "--ell=0"],
            ["chi", "--graph", "g.peg", "--", "x"],
            ["chi", "--graph", "g.peg", "--nope"],
            ["chi", "--graph", "g.peg", "extra"],
            ["reduce", "--c", "x"],
            ["reduce", "--config-f", "x.json", "--json"],
            ["cn", "--lemma", "L", "--pairs", "p.txt"],
            ["gen", "prism", "5", "--seed=-1"],
            ["gen", "random", "--max-ops", "0"],
            ["distance", "--graph", "g.peg", "0", "-1"],
            ["verify", "--graph", "g.peg", "--coloring", "c.txt", "--partial", "--dot", "d"],
        ],
    )
    def test_fixed_argv_match_the_top_level_parser(self, argv):
        top, _subs = cli._parser()
        assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(top.parse_args, argv)

    def test_random_argv_match_the_top_level_parser(self):
        top, _subs = cli._parser()
        options = self._options()
        assert options["chi"] == ["-h", "--graph", "--budget", "--witness", "--dot", "--json", "--ell"]
        rng = random.Random(0)
        parsed = helped = leftover = 0
        for _ in range(3000):
            argv = _random_argv(rng, options)
            got = _parse_outcome(cli._parse_args, argv)
            assert got == _parse_outcome(top.parse_args, argv), argv
            parsed += got[0] is not None
            helped += got[1] == 0
            leftover += "unrecognized arguments" in got[3]
        # clean parses, help and arguments left over all occur
        assert parsed > 200 and helped > 200 and leftover > 200, (parsed, helped, leftover)

    @pytest.mark.parametrize("name", sorted(VALID_ARGV))
    def test_a_clean_call_is_parsed_once_by_its_subcommand(self, name, monkeypatch):
        # the top-level parser, which would set ``subcommand``, never runs
        top, subs = cli._parser()
        monkeypatch.setattr(top, "parse_args", None)
        args = cli._parse_args([name, *VALID_ARGV[name]])
        assert "subcommand" not in vars(args)
        assert args.func is subs[name].get_default("func")


class TestHarness:
    def test_unknown_subcommand(self):
        assert main(["nosuch"]) == 2

    def test_no_arguments(self):
        assert main([]) == 2

    def test_missing_file(self, tmp_path, capsys):
        assert main(["chi", "--graph", str(tmp_path / "no.peg")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_peg(self, tmp_path, capsys):
        f = tmp_path / "junk.peg"
        f.write_text("not a graph\n")
        assert main(["chi", "--graph", str(f)]) == 2

    @pytest.mark.parametrize(
        "body, detail",
        [
            # huge counts are compared before any range of that size is built
            (
                "vertices 99999999999\nedges 0\n",
                "rotation lines must cover every vertex exactly once",
            ),
            (
                "vertices 1\nedges 99999999999\nrot 0\n",
                "edge ids must cover 0..m-1 exactly",
            ),
            # a valid K2 but for one repeated or overlong line
            (
                "vertices 2\nvertices 2\nedges 1\ne 0 0 1\nrot 0 0\nrot 1 1\n",
                "'vertices' declared twice",
            ),
            (
                "vertices 2\nedges 1\nedges 1\ne 0 0 1\nrot 0 0\nrot 1 1\n",
                "'edges' declared twice",
            ),
            (
                "vertices 2 9\nedges 1\ne 0 0 1\nrot 0 0\nrot 1 1\n",
                "malformed line 'vertices 2 9'",
            ),
            (
                "vertices 2\nedges 1\ne 0 0 1 7\nrot 0 0\nrot 1 1\n",
                "malformed line 'e 0 0 1 7'",
            ),
            (
                "vertices 2\nedges 1\ne 0 0 1\ne 0 0 1\nrot 0 0\nrot 1 1\n",
                "edge 0 declared twice",
            ),
            (
                "vertices 2\nedges 1\ne 0 0 1\nrot 0 0\nrot 0 0\nrot 1 1\n",
                "rotation of vertex 0 declared twice",
            ),
            ("vertices 1\nrot 0\n", "missing 'vertices' or 'edges' declaration"),
        ],
        ids=[
            "huge-vertices",
            "huge-edges",
            "vertices-twice",
            "edges-twice",
            "vertices-field",
            "e-field",
            "edge-twice",
            "rotation-twice",
            "no-edges-line",
        ],
    )
    def test_bad_declaration_is_input_error(self, body, detail, tmp_path, capsys):
        f = tmp_path / "bad.peg"
        f.write_text("peg 1\n" + body)
        assert main(["chi", "--graph", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {detail}\n"

    @pytest.mark.parametrize("text", ["", "# a comment and nothing else\n\n"])
    def test_empty_peg_is_input_error(self, text, tmp_path, capsys):
        f = tmp_path / "empty.peg"
        f.write_text(text)
        assert main(["chi", "--graph", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: empty input\n"

    def test_repeated_calls_match_fresh_processes(self, c7, capsys, monkeypatch):
        src = str(Path(facet.__file__).resolve().parents[1])
        monkeypatch.setenv("PYTHONPATH", src)
        runs = [
            ["chi"],
            ["chi", "--graph", str(c7), "--json"],
            ["discharge", "--graph", str(c7), "--json"],
        ]
        results = []
        for argv in runs:
            fresh = subprocess.run(
                [sys.executable, "-m", "facet.cli", *argv],
                capture_output=True,
                text=True,
                timeout=120,
            )
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (
                fresh.returncode,
                fresh.stdout,
                fresh.stderr,
            )
            results.append((code, captured.err))
        assert [code for code, _ in results] == [2, 0, 0]
        assert results[0][1].startswith("usage: facet chi")


_SCALARS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "\"", "\\", "\u2028", "\x00\x1f\x7f", "caf\u00e9 \U0001f600"]),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
)
_DOCS = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), kids, max_size=4),
    ),
    max_leaves=30,
)
# The ledger values ``discharge`` hands to the writer as they are.
_ELEMENTS = st.tuples(st.text(max_size=2), st.integers())
_LEDGER_LEAVES = (
    st.fractions()
    | st.builds(Transfer, st.text(max_size=4), _ELEMENTS, _ELEMENTS, st.fractions())
    | st.builds(Negative, _ELEMENTS, st.fractions())
)
_LEDGER_DOCS = st.recursive(
    _SCALARS | _LEDGER_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), kids, max_size=4),
    ),
    max_leaves=30,
)


# Each file reader: a valid document and the command that reads it.  The
# configuration (eight-face) is compact JSON, so more edits land on its
# keys and values.
READER_INPUTS = {
    "config": (
        json.dumps(json.loads(configuration_to_json(catalog()[3]))),
        ["reduce", "--config-file"],
    ),
    "peg": (serialize_peg(generate("prism", 4)), ["chi", "--graph"]),
    "pairs": ("p 1 2\np 2 3\np 1 3\nt 2 1 0\n", ["cn", "--pairs"]),
}

# Text inserted by an edit: mostly characters the three formats use.
_INSERTS = st.text(
    st.sampled_from('0123456789-.[]{}",: \nprte') | st.characters(codec="utf-8"),
    max_size=4,
)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@pytest.mark.parametrize("reader", sorted(READER_INPUTS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_input_exits_0_1_or_2(reader, data, fuzz_file):
    # up to four edits, each cutting up to 3 characters at a position
    # and inserting up to 4 there
    text, argv = READER_INPUTS[reader]
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(text)))
        cut = data.draw(st.integers(0, 3))
        text = text[:at] + data.draw(_INSERTS) + text[at + cut:]
    fuzz_file.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([*argv, str(fuzz_file)]) in (0, 1, 2)


class TestJsonWriter:
    """``cli._json_text`` writes exactly ``json.dumps(doc, indent=2,
    sort_keys=True)``."""

    @settings(max_examples=400, deadline=None)
    @given(doc=_DOCS)
    def test_matches_json_dumps(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "doc",
        [
            {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}],
            [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324],
            {"\u2028\"\\\x01": [10**40, -(10**40), True, False, None]},
        ],
    )
    def test_edge_values(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("doc", [{1: 0}, {None: 0}, {"a": [{(1, 2): 0}]}])
    def test_non_str_key_raises(self, doc):
        with pytest.raises(TypeError):
            cli._json_text(doc)

    def test_leaves_no_reference_cycle(self):
        # A cycle would keep each finished document's pieces alive until
        # the next collection and raise the peak memory of a long run.
        doc = {"a": [{"b": i, "c": [None, 1.5, True]} for i in range(50)]}
        gc.collect()
        gc.disable()
        try:
            cli._json_text(doc)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_unserializable_value_raises(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._json_text({"a": {1, 2}})

    @settings(max_examples=400, deadline=None)
    @given(doc=_LEDGER_DOCS)
    def test_ledger_leaves_match_json_dumps(self, doc):
        assert cli._json_text(doc) == json.dumps(
            expand_transfers(doc), indent=2, sort_keys=True, default=plain
        )

    def test_shared_ledger_values_at_several_depths(self):
        # The writer keeps one row text per Fraction object and depth: the
        # same object at another depth, or an equal but distinct object,
        # must still come out at its own indentation.
        q, twin = Fraction(-7, 3), Fraction(-7, 3)
        t, neg = Transfer("R2", ("v", 1), ("f", 2), q), Negative(("f", 4), q)
        doc = {
            "q": q, "t": t, "neg": neg,
            "list": [q, twin, t, neg, [q, (q, t, neg), {"q": q, "twin": twin}]],
            "tuple": (neg, q, (q, [t, q, neg]), {"deep": [q, neg, (twin, q)]}),
            "twins": [twin, Fraction(-7, 3), q, Fraction(14, -6)],
            "other": [Fraction(0), Fraction(1, 10**30), neg, Negative(("v", 0), twin)],
        }
        assert twin is not q and twin == q
        for x in (doc, [doc, doc], q, t, neg):
            assert cli._json_text(x) == json.dumps(
                expand_transfers(x), indent=2, sort_keys=True, default=plain
            )

    def test_emitted_documents_match_json_dumps(self, c7, catalog, tmp_path, monkeypatch, capsys):
        docs = []
        writer = cli._json_text
        monkeypatch.setattr(cli, "_json_text", lambda doc: docs.append(doc) or writer(doc))
        runs = [["reduce", "--json"]]
        runs += [["reduce", "--config", c.name, "--json"] for c in facet.reducibility.catalog()]
        runs += [["cn", "--lemma", name, "--json"] for name in CERTIFICATES]
        for name, g in [("c7", parse_peg(c7.read_text())), *catalog.items()]:
            peg = tmp_path / f"{name}.peg"
            peg.write_text(serialize_peg(g))
            col = tmp_path / f"{name}.col"
            col.write_text("".join(f"c {e} {e % 4 + 1}\n" for e in range(g.m)))
            graph = ["--graph", str(peg), "--json"]
            runs += [
                ["discharge", *graph],
                ["structure", *graph],
                ["verify", *graph, "--coloring", str(col)],
                ["distance", *graph, "0", str(max(g.m - 1, 0))],
            ]
            if g.m <= 20:
                runs.append(["chi", *graph])
        runs += [["gen", "prism", "5", "--json"], ["gen", "random", "--seed", "3", "--json"]]
        subcommands = set()
        for argv in runs:
            docs.clear()
            main(argv)
            out = capsys.readouterr().out
            if docs:
                subcommands.add(argv[0])
                expected = json.dumps(
                    expand_transfers(docs[0]), indent=2, sort_keys=True, default=plain
                )
                assert out == expected + "\n", argv
        assert subcommands == {
            "verify", "chi", "cn", "reduce", "discharge", "structure", "distance", "gen"
        }

    def test_discharge_matches_plain_dict_document(self, catalog, tmp_path, capsys):
        # Up to the large-audit benchmark's sizes: prisms to n = 50 and
        # random graphs with 50 or more edges.
        graphs = [random_plane_graph(seed) for seed in range(100)]
        graphs += [generate("prism", n) for n in range(3, 51)]
        large = [random_plane_graph(seed, max_ops=60) for seed in range(30)]
        graphs += [g for g in large if g.m >= 50]
        graphs += [c.host for c in facet.reducibility.catalog()]
        graphs += catalog.values()
        peg = tmp_path / "g.peg"
        filled = {"gaps": 0, "notes": 0, "negative": 0}
        for g in graphs:
            peg.write_text(serialize_peg(g))
            main(["discharge", "--graph", str(peg), "--json"])
            doc = reference_discharge_doc(audit(g))
            assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
            for key in filled:
                filled[key] += bool(doc[key])
        assert all(filled.values()), filled
