"""qsdwalk benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics: steps_per_s, the median over
timed passes; setup_s, the median over fresh interpreters that import
qsdwalk.cli and finish one tiny trial; peak_rss_mib, the median peak of
fresh processes that each run one pass. setup_s, and steps_per_s on the
single-threaded referee workload, are scaled to a reference machine speed
that a fixed probe run right after the timed work measures (speed.py); the
unscaled values are kept in the record and printed on stderr.

--trace 1 times the workload untraced, at one thread (for the fan-out
speed-up) and with every layer boundary wrapped in spans, and reports the
per-layer metrics named in BENCHMARK.json.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; a human summary with machine facts and error_rate goes
to stderr, the full record to .perfbench/results/ and the spans of one
traced pass to .perfbench/spans/.

The package is imported from src/ of the checkout this file sits in; the
benchmark exits with code 2 when that source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import speed
from workloads import NAMES, build

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# BLAS/OpenMP pools stay at one thread; the workloads' own --threads is the
# only parallelism. Must be set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_REPEATS = 11
RSS_PROBES = 3

# Speed-probe time after each timed op, as a share of the op's time. Only
# interpreter-bound work is scaled: each set-up interpreter, which probes
# itself once the first call is done, and the ops of the single-threaded
# workload. Threaded workloads run numpy kernels on every CPU, and a
# one-thread probe does not track their speed.
SETUP_PROBE_SHARE = 0.5
PASS_PROBE_SHARE = 0.15
# argv: payload path, the parent's perf_counter at start (CLOCK_MONOTONIC,
# so the same clock in both processes), probe share. Prints the time the
# call was done and the probe's slices and seconds.
SETUP_CODE = (
    "import sys, time\n"
    "from qsdwalk.cli import main\n"
    "rc = main(['trial', '--state', 'zero', '--r', '2', '--seed', '1',"
    " '--out', sys.argv[1]])\n"
    "done = time.perf_counter()\n"
    "from speed import probe_for\n"
    "print(done, *probe_for(float(sys.argv[3]) * (done - float(sys.argv[2]))))\n"
    "sys.exit(rc)\n"
)


class Ledger:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {problem}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts(workload: str, seed: int, threads: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": threads,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


def child_env(*extra: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), *map(str, extra), env.get("PYTHONPATH")]))
    return env


def time_setup(tmp: Path, ledger: Ledger) -> tuple[list[float], list[float]]:
    """Time from starting a fresh interpreter until it has imported
    qsdwalk.cli and finished one tiny trial, as every CLI invocation pays
    it: (times scaled to the reference machine speed, unscaled times)."""
    env = child_env(Path(__file__).resolve().parent)
    times, raw = [], []
    for i in range(SETUP_REPEATS):
        out = tmp / f"setup-{i}.csv"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(out), repr(start), str(SETUP_PROBE_SHARE)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        problem = None
        if proc.returncode != 0:
            problem = f"exit {proc.returncode}: {proc.stderr[-300:]}"
        elif not out.exists() or out.stat().st_size == 0:
            problem = "no payload written"
        else:
            done, slices, probe_s = proc.stdout.split()[-3:]
            raw.append(float(done) - start)
            times.append(raw[-1] * speed.speed(int(slices), float(probe_s)))
        ledger.record("setup", problem)
    return times, raw


@dataclass
class Pass:
    """Outputs of running every op of a list once."""

    seconds: float = 0.0  # time inside cli.main only
    speed: float = 1.0  # machine speed against the reference, from the probe
    payloads: list[bytes] = field(default_factory=list)
    stderrs: list[str] = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)


def run_pass(main, ops, tmp: Path, probe: bool = False) -> Pass:
    result = Pass()
    slices, probe_s = 0, 0.0
    for op in ops:
        out = tmp / op.out
        out.unlink(missing_ok=True)  # a stale payload must not pass for a new one
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(sink):
                rc = main(op.argv + ["--out", str(out)])
            error = None if rc == 0 else f"exit code {rc}: {sink.getvalue()[-300:]}"
        except Exception:  # an operation that raises is counted as failed
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        result.seconds += elapsed
        if probe:
            n, t = speed.probe_for(PASS_PROBE_SHARE * elapsed)
            slices, probe_s = slices + n, probe_s + t
        result.payloads.append(out.read_bytes() if out.exists() else b"")
        result.stderrs.append(sink.getvalue())
        result.errors.append(error)
    if probe:
        result.speed = speed.speed(slices, probe_s)
    return result


class Runner:
    """Runs one workload's passes and books every op in the ledger."""

    def __init__(self, workload, tmp: Path, ledger: Ledger):
        import qsdwalk.cli

        self.workload = workload
        self.tmp = tmp
        self.ledger = ledger
        self.main = qsdwalk.cli.main
        self.reference: list[bytes] = []
        self.bad: dict[int, str] = {}

    def reference_pass(self) -> None:
        """Untimed first pass: fills lazy set-up, gives the payloads every
        later pass must reproduce byte for byte, and checks them."""
        wl = self.workload
        first = run_pass(self.main, wl.ops, self.tmp)
        self.reference = first.payloads
        try:
            self.bad = wl.check(first.payloads)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            self.bad = {i: f"unreadable payload: {exc!r}" for i in range(len(wl.ops))}
        self._book(wl.ops, first)
        if wl.cross_ops:
            cross = run_pass(self.main, wl.cross_ops, self.tmp)
            mismatch = wl.cross_check(first.stderrs, cross.payloads)
            for c, op in enumerate(wl.cross_ops):
                self.ledger.record(" ".join(op.argv), cross.errors[c] or mismatch.get(c))

    def _book(self, ops, result: Pass) -> None:
        for i, op in enumerate(ops):
            problem = result.errors[i] or self.bad.get(i)
            if problem is None and result.payloads[i] != self.reference[i]:
                problem = "payload differs from the first pass"
            self.ledger.record(" ".join(op.argv), problem)

    def timed(self, seconds: float, main=None, ops=None) -> tuple[list[float], list[float]]:
        """Steps per second of each pass, for passes started within
        `seconds`: (rates scaled to the reference machine speed, unscaled).

        Other ops (such as the same calls at another thread count) must
        still reproduce the reference payloads byte for byte."""
        ops = ops or self.workload.ops
        rates, raw = [], []
        deadline = time.perf_counter() + seconds
        while not rates or time.perf_counter() < deadline:
            result = run_pass(main or self.main, ops, self.tmp,
                              probe=not self.workload.threaded)
            self._book(ops, result)
            raw.append(self.workload.steps / result.seconds)
            rates.append(raw[-1] / result.speed)
        return rates, raw


def probe_rss(runner: Runner, seed: int, threads: int) -> list[float]:
    """Peak resident memory, in MiB, of fresh processes that each run one
    pass of the workload; their payloads must match the reference pass."""
    here = Path(__file__).resolve().parent
    peaks = []
    for i in range(RSS_PROBES):
        out = runner.tmp / f"probe-{i}"
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, str(here / "probe.py"), runner.workload.name, str(seed),
             str(threads), str(out)],
            env=child_env(here), cwd=ROOT, capture_output=True, text=True, timeout=120)
        problem = None
        if proc.returncode != 0:
            problem = f"probe exit {proc.returncode}: {proc.stderr[-300:]}"
        else:
            result = json.loads(proc.stdout.splitlines()[-1])
            peaks.append(result["peak_kib"] / 1024.0)
            for op, ref, rc in zip(runner.workload.ops, runner.reference, result["exit_codes"]):
                if rc != 0 or (out / op.out).read_bytes() != ref:
                    problem = f"{' '.join(op.argv)}: exit {rc} or payload differs"
                    break
        runner.ledger.record("rss probe pass", problem)
    return peaks


def end_to_end(runner: Runner, seconds: float, seed: int, threads: int, record: dict) -> dict:
    setup, setup_raw = time_setup(runner.tmp, runner.ledger)
    runner.reference_pass()
    rates, raw = runner.timed(seconds)
    peaks = probe_rss(runner, seed, threads)
    record["samples"] = {"setup_s": setup, "setup_s_unscaled": setup_raw,
                         "steps_per_s": rates, "steps_per_s_unscaled": raw,
                         "peak_rss_mib": peaks}
    record["unscaled"] = {"steps_per_s": statistics.median(raw),
                          "setup_s": statistics.median(setup_raw) if setup_raw else 0.0}
    return {
        "steps_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mib": statistics.median(peaks) if peaks else 0.0,
    }


def per_layer(runner: Runner, seconds: float, seed: int, record: dict) -> dict:
    import qsdwalk.cli

    import spans

    wl = runner.workload
    runner.reference_pass()
    share = seconds / (3 if wl.threaded else 2)
    untraced, _ = runner.timed(share)
    fanout = 0.0
    if wl.threaded:
        serial_ops = build(wl.name, seed, threads=1).ops
        serial, _ = runner.timed(share, ops=serial_ops)
        fanout = statistics.median(untraced) / statistics.median(serial)
        record["samples"] = {"steps_per_s_serial": serial}

    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli.main", qsdwalk.cli.main)
    spans.install(tracer)
    counts, timings, traced = [], [], []
    try:
        deadline = time.perf_counter() + share
        while not traced or time.perf_counter() < deadline:
            tracer.spans.clear()
            traced += runner.timed(0, main=traced_main)[0]
            c, t = spans.layer_metrics(spans.summarize(tracer.spans))
            counts.append(c)
            timings.append(t)
            if len(counts) == 1:
                write_spans(tracer.spans, wl.name, seed)
    finally:
        tracer.restore()
    for c in counts[1:]:
        runner.ledger.record("traced pass counts", None if c == counts[0] else
                      f"counts differ between traced passes: {c} vs {counts[0]}")

    overhead = statistics.median(traced) / statistics.median(untraced)
    metrics = dict(counts[0])
    metrics.update({k: statistics.median(t[k] for t in timings) for k in timings[0]})
    metrics["experiment.fanout_speedup"] = fanout
    metrics["trace.overhead_ratio"] = overhead
    record.setdefault("samples", {}).update(
        {"steps_per_s": untraced, "steps_per_s_traced": traced})
    record["counts"] = counts[0]
    record["timings"] = {k: v for k, v in metrics.items() if k not in counts[0]}
    record["missing_lookup_sites"] = tracer.missing
    return metrics


def write_spans(span_list, workload: str, seed: int) -> None:
    path = OUT_DIR / "spans" / f"{workload}-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, tid, start, end, work in span_list:
            fh.write(json.dumps([sid, parent, name, tid, start, end, list(work)]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "qsdwalk" / "cli.py").is_file():
        print(f"error: no qsdwalk source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import qsdwalk

    if Path(qsdwalk.__file__).resolve().parent != SRC / "qsdwalk":
        print(f"error: imported qsdwalk from {qsdwalk.__file__}, not {SRC}", file=sys.stderr)
        return 2

    threads = len(os.sched_getaffinity(0))
    workload = build(args.workload, args.seed, threads)
    record = {"machine": machine_facts(args.workload, args.seed, threads),
              "trace": args.trace, "seconds": args.seconds, "steps_per_pass": workload.steps}
    ledger = Ledger()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        runner = Runner(workload, tmp, ledger)
        if args.trace:
            values = per_layer(runner, args.seconds, args.seed, record)
            wanted = spec["per_layer"]
        else:
            values = end_to_end(runner, args.seconds, args.seed, threads, record)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update({"metrics": metrics, "attempted": ledger.attempted, "failed": ledger.failed,
                   "error_rate": ledger.failed / ledger.attempted,
                   "failures": ledger.reasons})
    results = OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(exist_ok=True)
    results.write_text(json.dumps(record, indent=1) + "\n")

    facts = record["machine"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} threads={threads} "
          f"cpus={facts['affinity']} python={facts['python']} numpy={facts['numpy']} "
          f"commit={facts['git_commit']}", file=sys.stderr)
    counts = record.get("counts", {})
    for title, names in (("exact counts", [n for n in metrics if n in counts]),
                         ("measured", [n for n in metrics if n not in counts])):
        if names:
            print(f"# {title}", file=sys.stderr)
        for name in names:
            print(f"{name:42s} {metrics[name]['value']:.6g} {metrics[name]['unit']}",
                  file=sys.stderr)
    for name, value in record.get("unscaled", {}).items():
        print(f"{name + ' (unscaled)':42s} {value:.6g} {metrics[name]['unit']}",
              file=sys.stderr)
    print(f"{'error_rate':42s} {record['error_rate']:.6g} failed/attempted "
          f"({ledger.failed}/{ledger.attempted})", file=sys.stderr)
    for reason in ledger.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
