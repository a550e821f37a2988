"""Mutation checks: each entry plants one fault in a copy of ``src/`` and
names the tests that must catch it.

Run from anywhere with ``python tests/mutants.py``.  The named tests first
run on an unchanged copy and must pass.  Then, for each entry, ``src/`` is
copied to a temporary directory and ``old`` is replaced by ``new`` in one
module; ``old`` must occur there exactly once.  The named tests run with the
copy first on ``PYTHONPATH``, in a process that checks it imported the copy,
and the mutant is killed when pytest reports failed tests (exit code 1).  The
script exits non-zero and lists every mutant that survives.  Its file name
keeps Tier-1 verify from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ROUNDS = (
    "tests/test_game.py::test_fixpoints_match_boolean_fixpoints_at_every_small_n",
    "tests/test_dynamics.py::test_peel_round_counts_on_the_golden_instances",
)
GOLDEN = (
    "tests/test_dynamics.py::test_golden_sum_witness_is_not_weakly_acyclic",
    "tests/test_dynamics.py::test_golden_max_path_is_weakly_acyclic",
)

# (what the fault is, module under src/gateway_games, old text, new text, test ids)
MUTANTS = [
    ("round: the half-block swap left out", "_engine.py",
     "x.reshape(-1, 2, half)[:, ::-1]", "x.reshape(-1, 2, half)", ROUNDS),
    ("round: the wrong block size", "_engine.py",
     "half = 1 << (b - 6)\n        np.copyto", "half = 1 << (b - 5)\n        np.copyto", ROUNDS),
    ("round: no out |= x in the reach", "_engine.py",
     "        out |= x\n", "        pass\n", ROUNDS),
    ("round: no in-word mask", "_engine.py",
     "    inword &= stay\n", "", ROUNDS),
    ("round: no mask before the left shift", "_engine.py",
     "inword |= (x & stay) << shift", "inword |= x << shift", ROUNDS),
    ("improving_tables: the sole-gateway clear dropped", "_engine.py",
     "row[0] = False", "row[0] = row[0]", GOLDEN),
    ("_sinks: mask 0 kept", "_engine.py",
     "~_unpack(movers, 1 << moves.shape[0])[1:]) + 1", "~_unpack(movers, 1 << moves.shape[0]))",
     GOLDEN),
    ("layout: read outside _engine", "dynamics.py",
     "    total = 1 << g.n\n", "    total = 1 << g.n\n    assert _engine._WORD\n",
     ("tests/test_layering.py::test_only_the_engine_reads_the_packed_layout",)),
]

# Imports the package before pytest does, so the tests use the module it names.
RUN = """import sys, gateway_games, pytest
if not gateway_games.__file__.startswith(sys.argv[1]):
    print(f"imported {gateway_games.__file__}, not the copy")
    sys.exit(10)
sys.exit(pytest.main(["-q", "-x", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def run(module: str | None, old: str, new: str, tests) -> tuple[int, str]:
    """``(pytest's exit code, its output)`` for the named tests on a copy of
    ``src/`` with ``old`` replaced by ``new`` in ``module`` (None: unchanged)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if module is not None:
            path = src / "gateway_games" / module
            text = path.read_text()
            if text.count(old) != 1:
                return -1, f"old text occurs {text.count(old)} times in {module}"
            path.write_text(text.replace(old, new))
        paths = [str(src), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run(
            [sys.executable, "-c", RUN, str(src), *tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        return proc.returncode, proc.stdout + proc.stderr


def main() -> int:
    tests = sorted({t for *_, ids in MUTANTS for t in ids})
    code, output = run(None, "", "", tests)
    if code != 0:
        print(output)
        print(f"the named tests fail on the unchanged tree (exit {code})")
        return 1
    survivors = []
    for what, module, old, new, ids in MUTANTS:
        code, output = run(module, old, new, ids)
        killed = code == 1
        print(f"{'killed' if killed else 'SURVIVED'}: {what}")
        if not killed:
            survivors.append(f"{what} (exit {code}): {output.strip().splitlines()[-1:]}")
    if survivors:
        print(f"\n{len(survivors)} of {len(MUTANTS)} mutants survived:")
        print("\n".join(survivors))
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
