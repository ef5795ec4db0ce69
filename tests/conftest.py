"""Test-session set-up shared by every test module."""

import os
import tempfile
from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

# subprocesses that run `python -m qsdwalk.cli` import the package from
# this checkout's src/, as the tests in this process do
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

# hypothesis caches what it reads from local modules; keep that in a
# directory removed at exit rather than in .hypothesis/ of the working tree
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
