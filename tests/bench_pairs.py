"""Alternated benchmark pairs: a parent revision against the checkout.

Usage, from the root of a checkout:

    python3 tests/bench_pairs.py --parent HEAD~1 --workload large-audit \
        --seed 0 --pairs 10 --seconds 20 [--trace 1]

Extracts ``git archive PARENT`` into a temporary directory and runs
``bench/run.py --workload W --seed S --seconds T --trace X`` there and in
this checkout, one run at a time, for ``--pairs`` pairs.  The side that
runs first alternates: the parent goes first in odd-numbered pairs.
Each run's last stdout line is the benchmark's JSON result.

Prints one JSON document: per metric, each side's median and quartiles
over its runs, the ratio of the medians (change over parent), the
distance of the medians against the parent's interquartile range, and
the pairs the change won, where a win is a better value in the
direction ``BENCHMARK.json`` gives for the metric.  A gain holds under
the 9-in-10 rule when the change wins at least nine tenths of the
pairs and its median is better than the parent's by more than the
parent's interquartile range.  Every run's raw metrics are included.

The parent's copy lives in a temporary directory that is removed at the
end; nothing is written under ``bench/`` by this script (``bench/run.py``
keeps its scratch files in its own ``bench/.out/``, which git ignores).
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _extract(rev: str, dst: Path) -> str:
    """``git archive rev`` unpacked into ``dst``; returns the full hash."""
    full = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    tar = subprocess.run(
        ["git", "archive", "--format=tar", full], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dst, filter="data")
        else:
            archive.extractall(dst)
    return full


def _run(tree: Path, args: argparse.Namespace) -> dict:
    argv = [
        sys.executable, "bench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=1800)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench/run.py in {tree} exited with {done.returncode}")
    doc = json.loads(lines[-1])
    return {
        "failed": doc["failed"],
        "attempted": doc["attempted"],
        "metrics": {name: entry["value"] for name, entry in doc["metrics"].items()},
    }


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per metric: medians, quartiles, ratio and pairs won."""
    out = {}
    pairs = len(runs["parent"])
    for name in runs["parent"][0]["metrics"]:
        old = [r["metrics"][name] for r in runs["parent"]]
        new = [r["metrics"][name] for r in runs["change"]]
        sign = -1 if better.get(name, "lower") == "lower" else 1
        won = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        q1, q3 = _quartiles(old)
        c1, c3 = _quartiles(new)
        m_old, m_new = statistics.median(old), statistics.median(new)
        gain = sign * (m_new - m_old)
        out[name] = {
            "better": better.get(name, "lower"),
            "parent_median": m_old,
            "change_median": m_new,
            "ratio": m_new / m_old if m_old else None,
            "parent_quartiles": [q1, q3],
            "change_quartiles": [c1, c3],
            "median_gain_over_parent_iqr": gain / (q3 - q1) if q3 > q1 else None,
            "pairs_won": won,
            "gain_holds": won >= math.ceil(0.9 * pairs) and gain > q3 - q1,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="facet-parent-") as tmp:
        parent = Path(tmp)
        full = _extract(args.parent, parent)
        trees = {"parent": parent, "change": ROOT}
        for k in range(1, args.pairs + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            for side in order:
                runs[side].append(_run(trees[side], args))
            print(f"pair {k}/{args.pairs} done", file=sys.stderr, flush=True)
    print(json.dumps({
        "parent": full,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pairs": args.pairs,
        "order": "parent first in odd-numbered pairs",
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "summary": summarize(runs, better),
        "runs": runs,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
