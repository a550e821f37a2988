"""The installed ``gateway-games`` command.

Every other test runs the CLI through ``cli.main`` or ``python -m
gateway_games``; these check only what the entry point adds: that the command
prints the version, passes a dynamics exit code through, and refuses with
exit 2 and one ``error:`` line.  Skipped when the command is not on ``PATH``.
"""

import shutil
import subprocess

import pytest

import gateway_games

from conftest import assert_one_error

COMMAND = shutil.which("gateway-games")
pytestmark = pytest.mark.skipif(COMMAND is None, reason="gateway-games is not installed")


def run(*args, cwd) -> subprocess.CompletedProcess[str]:
    return subprocess.run([COMMAND, *map(str, args)], capture_output=True, text=True, cwd=cwd)


def test_prints_the_version(tmp_path):
    proc = run("--version", cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (0, f"{gateway_games.__version__}\n")


def test_passes_the_cycle_exit_code_through(tmp_path):
    """The MAX line at alpha 2 cycles: exit 3, with the outcome line last."""
    assert run("gen", "max-line", "--alpha", 2, "--out", "line.json", cwd=tmp_path).returncode == 0
    proc = run(
        "dynamics", "--graph", "line.json", "--variant", "max", "--alpha", 2,
        "--init", "u", "--scheduler", "fixed:w,v", cwd=tmp_path,
    )
    assert proc.returncode == 3
    assert proc.stdout.splitlines()[-1] == '{"entry_index": 0, "outcome": "cycle", "period": 4}'


def test_refuses_with_exit_2_and_one_error_line(tmp_path):
    """A max line at 10^12, about 3e12 edges, exceeds any physical memory."""
    assert_one_error(run("gen", "max-line", "--alpha", 10**12, "--out", "line.json", cwd=tmp_path))
    assert not (tmp_path / "line.json").exists()
