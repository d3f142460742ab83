"""Mutation check: flip one comparison at a time and see that a test fails.

Usage, from the root of a checkout:

    python3 tests/mutate.py

Each entry of ``FLIPS`` replaces one piece of text, which must occur
exactly once, in one file of ``src/facet``.  The script first runs the
suite on an unchanged copy of the checkout as a control, which must
pass.  Then, for each flip, it runs ``pytest -x -q tests`` on a fresh
temporary copy carrying that one change.  A flip the suite fails on is
killed; one it passes survives.  Copies hold no ``__pycache__`` and the
runs write no bytecode, so no stale module can mask a flip.

Prints one line per flip and exits 1 if the control fails or any flip
survives.  Standard library only; pytest does not collect this file.
A full run takes several minutes, so it is not part of the test suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/facet, old text, new text): each flip moves one range
# or size check by one, so only a test at exactly the boundary kills it.
# Then the verifier's walk filter (with <= every walk is scanned, so only
# a test that watches the scan kills it) and the gap kernel's tie rule
# (with <= a later walk at equal gap takes the witness).  The last six:
# the JSON writer's row key without its depth, the face profile's first
# run and table size, the 3-thread note's loop guard, and the two
# neighbor tests that the per-2-vertex scan reads from its darts.  Then
# the short-cycle direction rule, where <= also yields the walk straight
# back along the first edge and > the other direction, both killed by
# test_lazy_enumeration_matches_full_list; and the Euler identity, where
# > lets a torus through, killed by test_nonplanar_rotation_rejected.
# Last, the verifier's repeated-color test, where >= makes every colored
# id a candidate and scans the walk that repeats a bridge, killed by
# test_only_walks_that_repeat_a_color_are_scanned; the face labeling's
# new-face test, where <= counts phantom faces so that no graph builds,
# killed by test_isolated_vertices_beside_a_plane_component_build; and
# the coloring reader's ASCII test, killed by
# test_parse_ids_are_ascii_decimal.  Then the CLI's leftover test, where
# a call with arguments left over would parse without an error, killed
# by test_random_argv_match_the_top_level_parser; and the face range
# check of identify_edges (its text is the same as contract_face's, so
# the flip starts on the line before), where <= hands the face count to
# face_walk, killed by test_id_at_the_end_of_its_range_refused.  Last,
# the three certificate steps of check: a transcription that always
# agrees, killed by test_dropped_conflict_fails_certificate_transcription;
# a coefficient step that reads no pin, killed by
# test_wrong_pin_fails_certificate_coefficient; and a room test that lets
# the target reach a cap, killed by
# test_target_at_a_cap_fails_certificate_room.
FLIPS = [
    ("reducibility.py", "not 0 <= e < g.m]", "not 0 <= e <= g.m]"),
    ("reducibility.py", "reduced.m) < (g.n", "reduced.m) <= (g.n"),
    ("reducibility.py", "d > config.ell,", "d >= config.ell,"),
    ("reducibility.py", '_int(doc["ell"], "ell") < 1', '_int(doc["ell"], "ell") <= 1'),
    ("embedding.py", "not 0 <= d < m2", "not 0 <= d <= m2"),
    ("embedding.py", "if not (0 <= e < g.m):", "if not (0 <= e <= g.m):"),
    ("embedding.py", "if not (0 <= v < g.n):", "if not (0 <= v <= g.n):"),
    ("choosability.py", "0 <= u < n and", "0 <= u <= n and"),
    ("choosability.py", "if g.n > max_nodes:", "if g.n >= max_nodes:"),
    ("nullstellensatz.py", "min(c - 1, r)", "min(c, r)"),
    ("facial_coloring.py", "not 0 <= key < count", "not 0 <= key <= count"),
    ("facial_coloring.py", "if n > max_nodes:", "if n >= max_nodes:"),
    ("nullstellensatz.py", "(1 <= i <= nvars and", "(1 <= i < nvars and"),
    ("nullstellensatz.py", "and 1 <= j <= nvars and", "and 1 < j <= nvars and"),
    ("facial_coloring.py", "))) < len(seq):", "))) <= len(seq):"),
    ("embedding.py", "gap < cur[0]:", "gap <= cur[0]:"),
    ("cli.py", "key = id(x), pad", "key = id(x)"),
    ("embedding.py", "elif lead < 0:", "elif lead <= 0:"),
    ("embedding.py", "(len(walk.darts) + 2)", "(len(walk.darts) + 1)"),
    ("discharging.py", "if a != v and b != v and deg[a]", "if deg[a]"),
    ("discharging.py", "deg[a] < 3 and deg[b] < 3:", "deg[a] < 3 and deg[b] <= 3:"),
    ("discharging.py", "(a == b or min(deg[a], deg[b]) < 4)", "(min(deg[a], deg[b]) < 4)"),
    ("discharging.py", "if path else d] < at[d ^ 1]:", "if path else d] <= at[d ^ 1]:"),
    ("discharging.py", "if path else d] < at[d ^ 1]:", "if path else d] > at[d ^ 1]:"),
    ("embedding.py", "rotation.count(()) != 2 * ncomp", "rotation.count(()) > 2 * ncomp"),
    ("facial_coloring.py", "tally[c] > 1", "tally[c] >= 1"),
    ("embedding.py", "if face[d] < 0:", "if face[d] <= 0:"),
    ("facial_coloring.py", "digits.isascii() and ", ""),
    ("cli.py", "if not extra:", "if extra:"),
    ("embedding.py", 'itself")\n    if not (0 <= face < len(', 'itself")\n    if not (0 <= face <= len('),
    ("reducibility.py", '"certificate-transcription", agree,', '"certificate-transcription", True,'),
    ("reducibility.py", "coef == cert.pinned and coef != 0", "coef != 0"),
    ("reducibility.py", "t + 1 <= c for t, c", "t <= c for t, c"),
]


def _copy(dst: Path) -> None:
    """The checkout without its caches; the tests read bench/ as well."""
    skip = shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".out"
    )
    shutil.copytree(ROOT, dst, ignore=skip, dirs_exist_ok=True)


def _suite_passes(tree: Path) -> bool:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    done = subprocess.run(
        argv, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    return done.returncode == 0


def _run(flip: tuple[str, str, str] | None) -> bool:
    """Whether the suite passes on a fresh copy carrying ``flip``."""
    with tempfile.TemporaryDirectory(prefix="facet-mutate-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        if flip is not None:
            name, old, new = flip
            path = tree / "src" / "facet" / name
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{name}: {old!r} occurs {text.count(old)} times, not once")
            path.write_text(text.replace(old, new))
        return _suite_passes(tree)


def main() -> int:
    if not _run(None):
        print("control: the suite fails on the unchanged copy")
        return 1
    print("control: passed", flush=True)
    survived = 0
    for flip in FLIPS:
        name, old, new = flip
        alive = _run(flip)
        survived += alive
        print(f"{'survived' if alive else 'killed':8}  {name}: {old!r} -> {new!r}", flush=True)
    print(f"{len(FLIPS) - survived} of {len(FLIPS)} flips killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
