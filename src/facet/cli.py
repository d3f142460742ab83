"""Command-line front end.

One subcommand per library area, stable text output for eyeballs and a
single JSON document per invocation for scripts.  Exit codes: 0 for
success or an accepting verdict, 1 for a rejecting or negative verdict,
2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape
from typing import Optional

from facet.choosability import SearchBudgetError
from facet.discharging import (
    VERDICT_ANOMALY,
    AuditReport,
    Negative,
    StructureReport,
    Transfer,
    audit,
    structure_report,
)
from facet.embedding import (
    EmbeddedGraph,
    _decimal,
    facial_distance,
    generate,
    medial,
    parse_peg,
    random_plane_graph,
    serialize_peg,
)
from facet.facial_coloring import (
    chromatic_index,
    parse_coloring,
    serialize_coloring,
    verify,
)
from facet.nullstellensatz import CERTIFICATES, coefficient
from facet.reducibility import catalog, check, configuration_from_json

_INPUT_ERRORS = (OSError, ValueError, SearchBudgetError)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> EmbeddedGraph:
    g = parse_peg(_read(path))
    for text in g.warnings:
        print(f"warning: {text}", file=sys.stderr)
    return g


def _json_text(doc: object) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, except that a ledger
    ``Fraction``, ``Transfer`` or ``Negative`` is its ``{den, num}``,
    ``{den, dst, num, rule, src}`` or ``{den, element, num}`` object, where
    ``json.dumps`` raises on the first and writes the others, tuples, as
    arrays.  With ``indent`` set, ``json`` falls back to its slow
    pure-Python encoder; this writes the same bytes with one recursive
    call per container, appending to a list joined once.  The rules share
    a few dozen ``Fraction`` objects among a few hundred rows, so ``rows``
    keeps each one's text per depth under its identity, which is sound
    while the document keeps every value alive."""
    parts: list[str] = []
    _write_json(doc, "\n", parts.append, {})
    return "".join(parts)


def _write_json(x: object, pad: str, put, rows: dict) -> None:
    """A container writes its ``str``, ``int``, ``bool`` and ledger items
    inline; other scalars (``None``, floats with ``NaN`` and ``Infinity``,
    subclasses) go through ``json.dumps`` itself.  A key that is not a
    ``str`` raises ``TypeError``, as the escaper does.  Module-level, so
    that no closure cycle keeps a finished document alive until the next
    collection."""
    keyed = isinstance(x, dict)
    if not (keyed or isinstance(x, (list, tuple)) and type(x) not in (Transfer, Negative)):
        # a scalar, or a Transfer or Negative
        put(_row(x, pad, rows) if isinstance(x, (Fraction, tuple)) else json.dumps(x))
        return
    if not x:
        put("{}" if keyed else "[]")
        return
    inner = pad + "  "
    sep = ("{" if keyed else "[") + inner
    for k in sorted(x) if keyed else x:
        if keyed:
            put(sep + _escape(k) + ": ")
            v = x[k]
        else:
            put(sep)
            v = k
        t = type(v)
        if t is str:
            put(_escape(v))
        elif t is int:
            put(int.__repr__(v))
        elif t is bool:
            put("true" if v else "false")
        elif t is Fraction or t is Transfer or t is Negative:
            put(_row(v, inner, rows))
        else:
            _write_json(v, inner, put, rows)
        sep = "," + inner
    put(pad + ("}" if keyed else "]"))


def _row(x: Fraction | Transfer | Negative, pad: str, rows: dict) -> str:
    """A ledger value's sorted-key object.  A ``Fraction``'s text goes
    into ``rows``; a ``Negative`` is its charge's text with the element
    put in after ``den``; a ``Transfer`` reads its amount once."""
    i = pad + "  "
    if type(x) is Transfer:
        num, den = x.amount.as_integer_ratio()
        return (f'{{{i}"den": {den},{i}"dst": {_elt_json(x.dst, rows)},{i}"num": {num},'
                f'{i}"rule": {_escape(x.rule)},{i}"src": {_elt_json(x.src, rows)}{pad}}}')
    if type(x) is Negative:
        den, num = _row(x.charge, pad, rows).split(",", 1)
        return f'{den},{i}"element": {_elt_json(x.element, rows)},{num}'
    key = id(x), pad
    text = rows.get(key)
    if text is None:
        num, den = x.as_integer_ratio()
        text = rows[key] = f'{{{i}"den": {den},{i}"num": {num}{pad}}}'
    return text


def _elt_json(e: tuple[str, int], rows: dict) -> str:
    """``e``'s escaped ``kind:id`` text, kept in ``rows`` under ``e``, a
    ``(str, int)`` pair that no ``(id, pad)`` key of a ``Fraction`` equals."""
    return rows.get(e) or rows.setdefault(e, _escape(f"{e[0]}:{e[1]}"))


def _emit(args: argparse.Namespace, doc: dict, text_lines: list[str]) -> None:
    """``doc`` with ``--json``, else the lines; on stdout, or in ``--out`` if given."""
    text = _json_text(doc) + "\n" if args.json else "".join(line + "\n" for line in text_lines)
    _write_out(args, text)


def _write_out(args: argparse.Namespace, payload: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _dot_conflicts(g: EmbeddedGraph, ell: int, path: str) -> None:
    gaps = g.edge_gap_table(ell)
    lines = [
        "graph conflicts {",
        *(f"  {e};" for e in range(g.m)),
        *(f'  {a} -- {b} [label="{gaps[a, b][0]}"];' for a, b in sorted(gaps)),
        "}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


# -- subcommands ------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    coloring = parse_coloring(_read(args.coloring))
    if args.dot:
        _dot_conflicts(g, args.ell, args.dot)
    v = verify(g, args.ell, coloring, require_total=not args.partial)
    doc = {
        "ok": v.ok,
        "chi": None,
        "violations": [w._asdict() for w in v.violations],
        "missing": list(v.missing),
    }
    lines = [
        f"violation e={w.e} f={w.f} color={w.color} face={w.face} gap={w.gap}"
        for w in v.violations
    ]
    lines += [f"missing e={e}" for e in v.missing]
    lines.append("verdict = accept" if v.ok else "verdict = reject")
    _emit(args, doc, lines)
    return 0 if v.ok else 1


def _cmd_chi(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.dot:
        _dot_conflicts(g, args.ell, args.dot)
    chi, witness = chromatic_index(g, args.ell, max_nodes=args.budget)
    doc = {
        "ok": True,
        "chi": chi,
        "violations": [],
        "witness": {str(e): c for e, c in sorted(witness.items())},
    }
    lines = [f"chi = {chi}"]
    if args.witness:
        lines += serialize_coloring(witness).rstrip("\n").split("\n") if witness else []
    _emit(args, doc, lines)
    return 0


def _parse_pairs_file(text: str) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """``p <i> <j>`` conflict lines plus one ``t <k1> ... <kn>`` target."""
    pairs: list[tuple[int, int]] = []
    target: Optional[tuple[int, ...]] = None
    for ln, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        fields = stripped.split()
        try:
            if fields[0] == "p" and len(fields) == 3:
                pairs.append((_decimal(fields[1]), _decimal(fields[2])))
            elif fields[0] == "t":
                if target is not None:
                    raise ValueError("duplicate target line")
                target = tuple(map(_decimal, fields[1:]))
            else:
                raise ValueError("expected 'p i j' or 't k1 ... kn'")
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
    if target is None:
        raise ValueError("pairs file has no target line")
    return pairs, target


def _cmd_cn(args: argparse.Namespace) -> int:
    if args.lemma:
        cert = CERTIFICATES.get(args.lemma)
        if cert is None:
            known = ", ".join(sorted(CERTIFICATES))
            raise ValueError(f"unknown certificate {args.lemma!r}; known: {known}")
        pairs, target = cert.pairs, cert.target
    else:
        pairs, target = _parse_pairs_file(_read(args.pairs))
    coeff = coefficient(pairs, target)
    doc = {
        "lemma": args.lemma,
        "coefficient": coeff,
        "nonzero": coeff != 0,
    }
    _emit(args, doc, [f"coefficient = {coeff}"])
    return 0 if coeff != 0 else 1


def _cmd_reduce(args: argparse.Namespace) -> int:
    if args.config_file:
        configs = [configuration_from_json(_read(args.config_file))]
    else:
        configs = catalog()
        if args.config:
            configs = [c for c in configs if c.name == args.config]
            if not configs:
                known = ", ".join(c.name for c in catalog())
                raise ValueError(
                    f"unknown configuration {args.config!r}; known: {known}"
                )
    reports = [check(c) for c in configs]
    doc = {
        "ok": all(r.ok for r in reports),
        "reports": [
            {
                "name": r.name,
                "ok": r.ok,
                "steps": [
                    {"label": s.label, "ok": s.ok, "detail": s.detail}
                    for s in r.steps
                ],
            }
            for r in reports
        ],
    }
    lines = []
    for r in reports:
        if r.ok:
            lines.append(f"PASS {r.name}")
        else:
            first = r.failures()[0]
            lines.append(f"FAIL {r.name}: {first.label} ({first.detail})")
    lines.append("all = pass" if doc["ok"] else "all = fail")
    _emit(args, doc, lines)
    return 0 if doc["ok"] else 1


def _structure_doc(rep: StructureReport) -> dict:
    return {
        "predicates": rep._asdict(),
        "all_pass": rep.all_pass,
        "failing": list(rep.failing()),
    }


def _discharge_doc(rep: AuditReport) -> dict:
    led = rep.ledger
    return {
        "initial": {"vertices": led.vertex_initial, "faces": led.face_initial},
        "transfers": led.transfers,
        "final": {"vertices": led.vertex_final, "faces": led.face_final},
        "total": rep.total,
        "gaps": list(led.gaps),
        "notes": list(led.notes),
        "negative": led.negatives(),
        "structure": _structure_doc(rep.structure),
        "verdict": rep.verdict,
    }


def _cmd_discharge(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    rep = audit(g)
    led, doc = rep.ledger, _discharge_doc(rep)
    lines = [] if args.json else [
        f"initial total = {led.total_initial}",
        f"final total = {led.total_final}",
        f"transfers = {len(led.transfers)}",
        f"gaps = {len(led.gaps)}",
        f"notes = {len(led.notes)}",
        *(f"negative {kind}:{i} = {ch}" for (kind, i), ch in doc["negative"]),
        "structure failing: " + (", ".join(rep.structure.failing()) or "none"),
        f"verdict = {rep.verdict}",
    ]
    _emit(args, doc, lines)
    return 1 if rep.verdict == VERDICT_ANOMALY else 0


def _cmd_medial(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    m = medial(g)
    text = serialize_peg(m)
    if args.json:
        text = json.dumps({"peg": text, "correspondence": list(range(m.n))}, indent=2) + "\n"
    _write_out(args, text)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "random":
        if args.params:
            raise ValueError("family 'random' is driven by --seed, not positional parameters")
        g = random_plane_graph(args.seed, max_ops=args.max_ops)
    else:
        g = generate(args.family, *args.params)
    peg = serialize_peg(g)
    _emit(args, {"peg": peg}, peg.splitlines())
    return 0


def _cmd_structure(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    doc = _structure_doc(structure_report(g))
    lines = [("ok " if ok else "FAIL ") + name for name, ok in doc["predicates"].items()]
    lines.append("all = pass" if doc["all_pass"] else "all = fail")
    _emit(args, doc, lines)
    return 0 if doc["all_pass"] else 1


def _cmd_distance(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    d = facial_distance(g, args.e, args.f)
    finite = d != float("inf")
    doc = {"e": args.e, "f": args.f, "distance": int(d) if finite else None}
    _emit(args, doc, [f"distance = {int(d) if finite else 'inf'}"])
    return 0


# -- parser -----------------------------------------------------------------


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and its subcommand parsers by name."""
    top = argparse.ArgumentParser(
        prog="facet",
        description="facial edge-coloring toolkit for plane pseudographs",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, ell: bool = False) -> None:
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        if ell:
            p.add_argument(
                "--ell",
                type=_positive_int,
                default=3,
                help="facial distance bound (default 3)",
            )

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument(
        "--partial",
        action="store_true",
        help="accept colorings that leave edges uncolored",
    )
    p.add_argument("--dot", metavar="FILE", help="write the conflict graph as DOT")
    common(p, ell=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("chi", help="exact facial chromatic index")
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--budget",
        type=_positive_int,
        default=40,
        help="largest conflict graph the exact solver accepts",
    )
    p.add_argument("--witness", action="store_true", help="print a witness coloring")
    p.add_argument("--dot", metavar="FILE", help="write the conflict graph as DOT")
    common(p, ell=True)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("cn", help="graph-polynomial coefficient checks")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--lemma", help="named certificate from the catalog")
    grp.add_argument(
        "--pairs", metavar="FILE", help="file of 'p i j' lines and one 't ...' target"
    )
    common(p)
    p.set_defaults(func=_cmd_cn)

    p = sub.add_parser("reduce", help="replay reducible-configuration checks")
    p.add_argument("--config", help="run one catalog configuration by name")
    p.add_argument(
        "--config-file", metavar="FILE", help="run one configuration from JSON"
    )
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("discharge", help="run the charge audit on a graph")
    p.add_argument("--graph", required=True)
    common(p)
    p.set_defaults(func=_cmd_discharge)

    p = sub.add_parser("medial", help="emit the medial graph as PEG")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", metavar="FILE", help="write the output here instead of stdout")
    common(p)
    p.set_defaults(func=_cmd_medial)

    p = sub.add_parser("gen", help="emit a catalog or random graph as PEG")
    p.add_argument(
        "family",
        choices=["cycle", "k4", "prism", "theta", "subdivided_k4", "random"],
    )
    p.add_argument("params", nargs="*", type=int, help="family parameters")
    p.add_argument("--seed", type=int, default=0, help="random family seed")
    p.add_argument(
        "--max-ops", type=_positive_int, default=9, help="random growth steps"
    )
    p.add_argument("--out", metavar="FILE")
    common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("structure", help="evaluate the structural predicates")
    p.add_argument("--graph", required=True)
    common(p)
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("distance", help="facial distance between two edges")
    p.add_argument("--graph", required=True)
    p.add_argument("e", type=int)
    p.add_argument("f", type=int)
    common(p)
    p.set_defaults(func=_cmd_distance)

    return top, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``top.parse_args(argv)`` less ``subcommand``, parsed once by the named
    subcommand's parser.  The top-level parser runs only for usage and
    errors: no subcommand, an unknown one, or arguments left over."""
    top, subs = _parser()
    sub = subs.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:])
        if not extra:
            return args
    return top.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 2
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
