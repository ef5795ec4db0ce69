"""Machine-speed probe: fixed interpreter work timed next to the benchmark's.

The host's speed for interpreter-bound code drifts by tens of per cent over
minutes, because other tenants share its cores. After a timed
interpreter-bound piece of work the benchmark runs probe slices in the same
thread, for a share of that work's time. REF_S ÷ the slices' mean time is
the machine's speed against the reference machine (2-CPU Xeon, Python
3.11), and the work's time multiplied by it reads as it would there.

The probe uses nothing of qsdwalk, so no change to the package can change
its time. It imports only modules the CLI has already imported.
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

REF_S = 2.0e-4  # one slice on the reference machine at its usual speed

_ARGS = argparse.ArgumentParser(add_help=False)
_ARGS.add_argument("--n", type=int)
_ARGS.add_argument("--x", type=float)
_ARGS.add_argument("--mode", choices=("a", "b"))


def probe_slice() -> int:
    """Work of the kind the CLI does: argument parsing, two-element numpy
    arrays, float maths and string formatting."""
    acc, rows = 0.0, []
    for i in range(5):
        ns = _ARGS.parse_args(["--n", str(i), "--x", "0.5", "--mode", "a"])
        v = np.array([ns.x, 1.0 - ns.x])
        acc += float(np.outer(v, v).sum()) + math.sqrt(ns.n + 1.0)
        rows.append(f"{i},{acc:.6f},{v[0]:.3f}")
    return len(",".join(rows))


def probe_for(seconds: float) -> tuple[int, float]:
    """Run probe slices for about `seconds`: (slices, their total time)."""
    n = max(1, round(seconds / REF_S))
    start = time.perf_counter()
    for _ in range(n):
        probe_slice()
    return n, time.perf_counter() - start


def speed(slices: int, seconds: float) -> float:
    """Machine speed against the reference from probe slices and their time."""
    return REF_S * slices / seconds
