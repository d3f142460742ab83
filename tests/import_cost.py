"""Import cost of facet, module by module.

Usage, from the root of a checkout:

    python3 tests/import_cost.py [--json]

Re-imports facet from ``src/`` through ``bench/run.py``'s ``load_facet``,
as many times as that benchmark's set-up does (``SETUP_REPEATS``).  Per
module it prints the median over the repeats of the module's own load
time: finding it, reading or
compiling its source, and running its body, less the time of the facet
modules it imports in turn.  Then it prints the median time of a whole
import, the part of that spent processing ``@dataclass`` classes and
creating ``NamedTuple`` classes, and the number of gc-tracked objects
alive after all repeats, with no collection forced in between.

It measures twice: in this process, under the current environment (with
``PYTHONDONTWRITEBYTECODE=1`` each import compiles the sources again),
and in a child process that writes and then reads a bytecode cache
under a temporary ``PYTHONPYCACHEPREFIX``, after one untimed import.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import gc
import importlib.machinery
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run  # bench/run.py: load_facet, SETUP_REPEATS, SRC


class _TimedFinder:
    """Finds facet modules as the path finder does and times each load;
    ``self_s[name]`` excludes the facet modules loaded inside it."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self._stack: list[float] = []  # children's time, per open load

    def find_spec(self, name, path=None, target=None):
        if name != "facet" and not name.startswith("facet."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is not None:
            run = spec.loader.exec_module

            def exec_module(module, run=run, name=name):
                self._stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    run(module)
                finally:
                    took = time.perf_counter() - t0
                    children = self._stack.pop()
                    self.self_s[name] = took - children
                    if self._stack:
                        self._stack[-1] += took

            spec.loader.exec_module = exec_module
        return spec


class _Stopwatch:
    """Replaces ``owner.attr`` with a wrapper that adds its time to ``s``."""

    def __init__(self, owner, attr: str) -> None:
        self.owner, self.attr, self.s = owner, attr, 0.0
        self.inner = getattr(owner, attr)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return self.inner(*args, **kwargs)
            finally:
                self.s += time.perf_counter() - t0

        setattr(owner, attr, timed)

    def restore(self) -> None:
        setattr(self.owner, self.attr, self.inner)


def measure() -> dict:
    """Median times over ``run.SETUP_REPEATS`` fresh imports, in seconds."""
    finder = _TimedFinder()
    sys.meta_path.insert(0, finder)
    per_module: dict[str, list[float]] = collections.defaultdict(list)
    totals, records = [], []
    try:
        for _ in range(run.SETUP_REPEATS):
            finder.self_s.clear()
            # typing.NamedTuple builds its class through collections.namedtuple
            watches = [
                _Stopwatch(dataclasses, "_process_class"),
                _Stopwatch(collections, "namedtuple"),
            ]
            t0 = time.perf_counter()
            try:
                run.load_facet()
            finally:
                totals.append(time.perf_counter() - t0)
                for w in watches:
                    w.restore()
            records.append([w.s for w in watches])
            for name, s in finder.self_s.items():
                per_module[name].append(s)
        gc_objects = len(gc.get_objects())
    finally:
        sys.meta_path.remove(finder)
    return {
        "repeats": run.SETUP_REPEATS,
        "modules_s": {n: statistics.median(t) for n, t in sorted(per_module.items())},
        "import_s": statistics.median(totals),
        "dataclass_s": statistics.median(r[0] for r in records),
        "namedtuple_s": statistics.median(r[1] for r in records),
        "gc_objects": gc_objects,
    }


def _child() -> dict:
    """``measure`` in a fresh interpreter with a bytecode cache."""
    with tempfile.TemporaryDirectory() as cache:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPYCACHEPREFIX"] = cache
        out = subprocess.run(
            [sys.executable, __file__, "--child"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
    return json.loads(out)


def _report(title: str, result: dict) -> None:
    print(f"{title}: median of {result['repeats']} imports")
    for name, s in result["modules_s"].items():
        print(f"  {name:<24} {1e3 * s:8.3f} ms")
    print(f"  {'whole import':<24} {1e3 * result['import_s']:8.3f} ms")
    print(f"  {'dataclass processing':<24} {1e3 * result['dataclass_s']:8.3f} ms")
    print(f"  {'NamedTuple creation':<24} {1e3 * result['namedtuple_s']:8.3f} ms")
    print(f"  gc-tracked objects after the last import: {result['gc_objects']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", action="store_true", help="print one JSON document")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    if args.child:
        run.load_facet()  # the untimed import that fills the cache
        print(json.dumps(measure()))
        return 0
    here = measure()
    cached = _child()
    if args.json:
        print(json.dumps({"current_env": here, "bytecode_cache": cached}, indent=2))
    else:
        dont_write = os.environ.get("PYTHONDONTWRITEBYTECODE") or "unset"
        _report(f"this process (PYTHONDONTWRITEBYTECODE={dont_write})", here)
        _report("child process with a bytecode cache", cached)
    return 0


if __name__ == "__main__":
    sys.exit(main())
