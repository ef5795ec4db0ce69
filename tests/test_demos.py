"""Smoke test of the demos: each runs as a script, from an empty working
directory, and prints the stdout recorded in demo_stdout/ byte for byte.

conftest puts this checkout's src/ on PYTHONPATH, which the scripts
inherit. Only the line about the plot is exempt, since it depends on
whether matplotlib is installed.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

_TESTS = Path(__file__).resolve().parent
DEMOS = sorted((_TESTS.parent / "demos").glob("*.py"))
PLOT_LINE = re.compile(rb"saved \w+\.png|matplotlib not available; skipping the plot")


def _without_plot_line(stdout: bytes) -> list[bytes]:
    return [line for line in stdout.splitlines(keepends=True)
            if not PLOT_LINE.fullmatch(line.rstrip(b"\n"))]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_prints_recorded_output(demo, tmp_path):
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                         capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr.decode()
    expected = (_TESTS / "demo_stdout" / f"{demo.stem}.txt").read_bytes()
    assert _without_plot_line(run.stdout) == _without_plot_line(expected)
