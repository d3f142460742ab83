"""facet benchmark: four workloads timed end to end, plus a traced breakdown.

Usage, from the root of a checkout:

    python3 bench/run.py --workload chi-small --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

facet is imported from ``src/`` of the checkout; nothing needs installing.
Each workload is a closed loop of one caller in one thread: the next
instance is issued only after the previous one returned.  Inputs come
from ``--seed`` through the benchmark's own generators (``planar.py``,
the frozen ``catalog/``) and reach facet only as .peg/JSON files or list
data; ``digests.json`` pins them for seeds 0..31.  Every output is
checked outside the timed region; a failure is an exception, an
unexpected exit code, a wrong verdict or a failed check.

Times are reported at reference speed.  This machine is shared, and
its speed drifts by up to twofold for seconds to minutes at a time,
longer than best-of-several calls can filter out.  So every timed call sits between
two runs of a fixed reference kernel (``reference``: the benchmark's own
pure-Python graph code, which facet never changes), and a time is scaled
by ``REFERENCE_S`` over the mean of those two reference times.  A drift
that slows facet and the kernel alike cancels; a change to facet does
not.  The raw wall-clock figures are printed on a line of their own.

The inputs are made and written once, untimed.  Set-up (a cold import
of facet, and facet loading each input once) is repeated fifteen times,
each time between ten reference runs before and ten after; ``setup_s``
is the median of the set-ups scaled by the median of their reference
times.  The run then makes whole passes over the instances, calling each
once per pass, until ``--seconds`` of calls and at least three passes
are measured.  An instance's latency is the median over its calls of the
scaled call time.  Every workload has at least 100 instances, so the
90th percentile has ten beyond it.

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics: ``ops_per_s`` (instances over the sum of their latencies),
``latency_p50_ms``, ``latency_p90_ms``, ``setup_s`` and ``peak_rss_mb``.
The failure ratio is the result's ``failed`` over ``attempted`` calls.
With ``--trace 1`` half the time runs untraced and the rest traced, both
in whole passes; the per-layer metrics are self times and call counts
per pass over the instances, so the counts repeat exactly for a seed, and
``trace_overhead_ratio`` is the traced over the untraced time per pass.
Spans of the first traced pass go to ``bench/.out/``.

``--workload all`` runs each workload in a child process and prints
every metric of every workload.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import planar

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

SETUP_REPEATS = 15
MIN_PASSES = 3

REFERENCE_GRAPHS = [planar.small_graph(random.Random(f"reference/{i}")) for i in range(5)]
# The reference kernel's time on a quiet 2-vCPU virtual machine with
# Python 3.11 (about the median of 2000 calls); see ``reference``.
REFERENCE_S = 0.000175

# per-layer metric -> (tracer table, span or counter name, unit)
PER_LAYER = {
    "cli.main_s": ("self_s", "cli.main", "s"),
    "embedding.parse_peg_s": ("self_s", "embedding.parse_peg", "s"),
    "embedding.build_s": ("self_s", "embedding.build", "s"),
    "embedding.build_calls": ("calls", "embedding.build", "count"),
    "embedding.surgery_s": ("self_s", "embedding.surgery", "s"),
    "embedding.faces_s": ("self_s", "embedding.faces", "s"),
    "embedding.gap_table_s": ("self_s", "embedding.gap_table", "s"),
    "embedding.facial_distance_s": ("self_s", "embedding.facial_distance", "s"),
    "embedding.facial_distance_calls": ("calls", "embedding.facial_distance", "count"),
    "embedding.facial_neighborhood_calls": ("calls", "embedding.facial_neighborhood", "count"),
    "embedding.facial_neighborhood_s": ("self_s", "embedding.facial_neighborhood", "s"),
    "embedding.face_profiles_s": ("self_s", "embedding.face_profiles", "s"),
    "facial_coloring.conflict_graph_s": ("self_s", "facial_coloring.conflict_graph", "s"),
    "facial_coloring.conflict_graph_calls": ("calls", "facial_coloring.conflict_graph", "count"),
    "facial_coloring.chromatic_index_s": ("self_s", "facial_coloring.chromatic_index", "s"),
    "facial_coloring.verify_s": ("self_s", "facial_coloring.verify", "s"),
    "nullstellensatz.coefficient_s": ("self_s", "nullstellensatz.coefficient", "s"),
    "nullstellensatz.witness_s": ("self_s", "nullstellensatz.witness", "s"),
    "choosability.degree_feasible_s": ("self_s", "choosability.degree_feasible", "s"),
    "choosability.degree_feasible_calls": ("calls", "choosability.degree_feasible", "count"),
    "choosability.list_color_s": ("self_s", "choosability.list_color", "s"),
    "choosability.gallai_s": ("self_s", "choosability.gallai", "s"),
    "choosability.blocks_s": ("self_s", "choosability.blocks", "s"),
    "choosability.blocks_calls": ("calls", "choosability.blocks", "count"),
    "reducibility.check_s": ("self_s", "reducibility.check", "s"),
    "reducibility.steps": ("counts", "reducibility.steps", "count"),
    "discharging.initial_charges_s": ("self_s", "discharging.initial_charges", "s"),
    "discharging.apply_rules_s": ("self_s", "discharging.apply_rules", "s"),
    "discharging.structure_report_s": ("self_s", "discharging.structure_report", "s"),
}


def load_facet() -> SimpleNamespace:
    """Import facet afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "facet" or n.startswith("facet.")]:
        del sys.modules[name]
    mods = {
        short: importlib.import_module(f"facet.{short}")
        for short in ("cli", "embedding", "choosability", "reducibility")
    }
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"facet imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def reference() -> None:
    """The reference kernel: the benchmark's own facial-distance pairs on
    five fixed small plane graphs, about 0.2 ms of pure Python much like
    facet's own graph code.  It never changes with facet."""
    for g in REFERENCE_GRAPHS:
        planar.close_pairs(g, 3)


def reference_time() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def measure(wl, facet, instances, golden, budget, min_passes, tracer=None):
    """Whole passes over the instances, each instance called once per pass,
    until ``budget`` seconds of calls and ``min_passes`` passes are done.
    The reference kernel runs before the first call of a pass and after
    every call, before its output is checked, so each call sits between
    two reference runs.  Returns every instance's call times and the mean
    of its two reference times, one per pass, and the failures."""
    times: list[list[float]] = [[] for _ in instances]
    refs: list[list[float]] = [[] for _ in instances]
    failures = []
    passes, total = 0, 0.0
    while passes < min_passes or total < budget:
        before = reference_time()
        for k, inst in enumerate(instances):
            if tracer is not None:
                tracer.instance = inst["i"]
            t0 = time.perf_counter()
            try:
                result = wl.run(facet, inst)
                problem = None
            except Exception:
                problem = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
            after = reference_time()
            times[k].append(elapsed)
            refs[k].append((before + after) / 2)
            total += elapsed + after
            before = after
            if problem is None:
                try:
                    problem = wl.check(inst, result, golden)
                except Exception:
                    problem = traceback.format_exc(limit=3)
            if problem:
                failures.append((inst["i"], problem))
        passes += 1
        if tracer is not None:
            tracer.keep = False
    return times, refs, failures


def at_reference_speed(times: list[float], refs: list[float]) -> float:
    """A call's time on a machine that runs the reference kernel in
    ``REFERENCE_S``: the median over the calls of call time over the mean
    of the two reference times around it, scaled by ``REFERENCE_S``."""
    return REFERENCE_S * statistics.median(t / r for t, r in zip(times, refs))


def run_workload(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    pinned = json.loads((HERE / "digests.json").read_text())[wl.name].get(str(args.seed))
    golden = None
    if args.seed == 0 and wl.name == "chi-small":
        golden = json.loads((HERE / "golden_chi.json").read_text())["chi"]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        instances, inputs_digest = wl.build(args.seed, Path(tmp))
        if pinned is not None and pinned != inputs_digest:
            print(
                f"error: inputs for seed {args.seed} no longer match their pinned "
                f"digest {pinned[:12]}; the generator changed",
                file=sys.stderr,
            )
            return 2
        print(
            f"workload {wl.name}, seed {args.seed}: {len(instances)} instances, "
            f"inputs digest {inputs_digest[:12]} ({'pinned' if pinned else 'unpinned'})"
        )
        setups, setup_refs = [], []
        for _ in range(SETUP_REPEATS):
            before = [reference_time() for _ in range(10)]
            t0 = time.perf_counter()
            facet = load_facet()
            wl.load(facet, instances)
            setups.append(time.perf_counter() - t0)
            after = [reference_time() for _ in range(10)]
            setup_refs.append(statistics.median(before + after))
        for inst in instances:
            wl.prepare(inst)
        # The benchmark's own inputs and check data stay put from here on;
        # keep them out of the collections that the timed calls trigger.
        gc.collect()
        gc.freeze()
        if args.trace:
            from tracer import Tracer

            base, _, failures = measure(wl, facet, instances, golden, args.seconds / 2, 1)
            tracer = Tracer()
            tracer.install()
            try:
                traced, _, traced_failures = measure(
                    wl, facet, instances, golden, args.seconds / 2, 1, tracer
                )
            finally:
                tracer.uninstall()
            failures += traced_failures
            passes = len(traced[0])
            spans_path = OUT / f"spans-{wl.name}.jsonl"
            tracer.write_spans(spans_path)
            metrics = {}
            for name, (table, key, unit) in PER_LAYER.items():
                total = getattr(tracer, table)[key]
                # Every pass makes the same calls, so counts divide exactly.
                exact = unit == "count" and total % passes == 0
                metrics[name] = (total // passes if exact else total / passes, unit)
            traced_pass = sum(map(sum, traced)) / passes
            base_pass = sum(map(sum, base)) / len(base[0])
            metrics["trace_overhead_ratio"] = (traced_pass / base_pass, "ratio")
            print(f"traced {passes} whole passes; spans of the first in {spans_path.relative_to(ROOT)}")
            if wl.name == "lists":
                print(f"calls per pass whose lists have no slack: {wl.no_slack_calls(instances)}")
            attempted = sum(map(len, base)) + sum(map(len, traced))
        else:
            times, refs, failures = measure(
                wl, facet, instances, golden, args.seconds, MIN_PASSES
            )
            lat = [at_reference_speed(t, r) for t, r in zip(times, refs)]
            setup = [REFERENCE_S * s / r for s, r in zip(setups, setup_refs)]
            metrics = {
                "ops_per_s": (len(lat) / sum(lat), "1/s"),
                "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
                "latency_p90_ms": (1e3 * statistics.quantiles(lat, n=10)[8], "ms"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            attempted = sum(map(len, times))
            wall = [statistics.median(t) for t in times]
            slowdown = statistics.median(r for rs in refs for r in rs) / REFERENCE_S
            print(
                f"{len(times[0])} passes over {len(lat)} instances; latencies are each "
                f"instance's median of its {len(times[0])} calls at reference speed"
            )
            print(
                f"wall clock: reference kernel {slowdown:.3f} x its REFERENCE_S, "
                f"ops_per_s {len(wall) / sum(wall):.6g}, "
                f"latency_p50_ms {1e3 * statistics.median(wall):.6g}, "
                f"latency_p90_ms {1e3 * statistics.quantiles(wall, n=10)[8]:.6g}, "
                f"setup_s {statistics.median(setups):.6g}"
            )
    for inst_id, problem in failures[:5]:
        print(f"FAILED instance {inst_id}: {problem.strip().splitlines()[-1]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {len(failures)}/{attempted}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, one after another."""
    from workloads import WORKLOADS

    merged, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        doc = json.loads(lines[-1])
        correct &= doc["correct"]
        attempted += doc["attempted"]
        failed += doc["failed"]
        for metric, entry in doc["metrics"].items():
            merged[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "facet" / "__init__.py").is_file():
        print(f"error: no facet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except ImportError as exc:
        print(f"error: cannot import facet: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
