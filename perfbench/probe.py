"""One pass of a workload in a fresh interpreter, for its peak resident memory.

    python3 perfbench/probe.py WORKLOAD SEED THREADS OUTDIR

Runs every op of the workload once through qsdwalk.cli.main, writing each
payload into OUTDIR, then prints one JSON line: the exit codes and the
process's peak resident set in KiB. run.py starts it with src/ on
PYTHONPATH and the BLAS thread variables pinned.

The peak is VmHWM of the process's own address space. getrusage's
ru_maxrss is not used: Linux carries it across exec, so a child would
report at least the RSS of the parent that started it.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from qsdwalk.cli import main

from workloads import build


def peak_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    name, seed, threads, out_dir = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    codes = []
    with contextlib.redirect_stderr(io.StringIO()):
        for op in build(name, seed, threads).ops:
            codes.append(main(op.argv + ["--out", str(Path(out_dir, op.out))]))
    print(json.dumps({"exit_codes": codes, "peak_kib": peak_kib()}))
