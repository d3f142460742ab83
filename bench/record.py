"""Re-record the pinned input digests and the golden chi values.

Run from the root of a checkout whose facet the golden values should come
from (they were recorded at the commit that added the benchmark):

    python3 bench/record.py

Only needed when a generator in this directory changes on purpose; the
benchmark refuses to run a pinned seed whose inputs no longer match.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, ChiSmall, cli_call

PINNED_SEEDS = range(32)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    facet = run.load_facet()
    digests = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name, wl in WORKLOADS.items():
            digests[name] = {
                str(seed): wl.build(seed, Path(tmp))[1] for seed in PINNED_SEEDS
            }
            print(f"{name}: pinned seeds {PINNED_SEEDS.start}..{PINNED_SEEDS.stop - 1}")
        instances, _ = ChiSmall().build(0, Path(tmp))
        chi = [
            json.loads(cli_call(facet.cli, ["chi", "--graph", inst["path"], "--json"])[1])["chi"]
            for inst in instances
        ]
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    (run.HERE / "golden_chi.json").write_text(json.dumps({"seed": 0, "chi": chi}) + "\n")
    print(f"golden chi for seed 0: {len(chi)} values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
