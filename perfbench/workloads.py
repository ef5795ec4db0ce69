"""The benchmark's three workloads.

Each workload is a list of CLI invocations (one pass), the number of walk
steps one pass simulates, and a check of every payload the pass writes.
All inputs come from the workload seed given to the benchmark.

Why these three:
- table: the paper's headline run, 4 states x 100k trials x r=100. The
  batch kernels (rng.batch_uniform, walk.step_arrays) on 50k-wide arrays
  do almost all the work.
- sweep: mu = 1..10 at 10k trials. Same kernels on chunks ten times
  smaller, across 40 separate fan-outs, so per-call fixed costs in
  qsdwalk.experiment (dispatch per step, one pool per state) weigh more.
- referee: oracle-check plus 400 single trials. The scalar path and the
  dense-register oracle; the batch kernels do no work here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

# Reference values copied from tests/test_acceptance.py (EXACT_TOTAL and
# EXACT_P_H there): exact success rates and H-rate at mu=2, r=100 under the
# default rule, from branch enumeration at the decision point plus a
# binomial-mixture recursion, independent of the engine.
EXACT_TOTAL = {
    "zero": 0.7737454492538175,
    "one": 0.773218841926252,
    "plus": 0.7259927928490499,
    "minus": 0.7254661855214846,
}
EXACT_P_H = 0.45225424859373686

STATES = ("zero", "one", "plus", "minus")
SIGMAS = 4.0
AGREEMENT_TOL = 1e-10

TABLE_TRIALS = 100_000
SWEEP_TRIALS = 10_000
SWEEP_MUS = range(1, 11)
R = 100
ORACLE_CASES = 1000
ORACLE_MU_MAX = 4
ORACLE_MAX_STEPS = 20
REFEREE_SEEDS = 100
CROSS_CHECK_SEEDS = 25  # per state: trial decisions compared with a 1-trial experiment

NAMES = ("table", "sweep", "referee")


@dataclass
class Op:
    """One CLI invocation; --out is appended by the runner."""

    argv: list[str]
    out: str


@dataclass
class Workload:
    name: str
    ops: list[Op]
    steps: int
    threaded: bool  # whether the ops take --threads
    # payloads of one pass -> {op index: problem} for ops whose output is wrong
    check: Callable[[list[bytes]], dict[int, str]]
    # ops run once per benchmark run and compared, by cross_check, with the
    # stderr of the first pass: (stderrs, cross payloads) -> {cross index: problem}
    cross_ops: list[Op] = field(default_factory=list)
    cross_check: Callable[[list[str], list[bytes]], dict[int, str]] | None = None


def _sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def _within(value: float, exact: float, n: int) -> bool:
    return abs(value - exact) <= SIGMAS * _sigma(exact, n)


def _check_table(payloads: list[bytes]) -> dict[int, str]:
    records = json.loads(payloads[0])
    if [rec.get("state") for rec in records] != list(STATES):
        return {0: f"states {[rec.get('state') for rec in records]}"}
    for rec in records:
        n = rec["trials"]
        if n != TABLE_TRIALS:
            return {0: f"{rec['state']}: trials {n}"}
        if not _within(rec["total_success"], EXACT_TOTAL[rec["state"]], n):
            return {0: f"{rec['state']}: total_success {rec['total_success']} vs "
                       f"exact {EXACT_TOTAL[rec['state']]}"}
        if not _within(rec["frac_h_applied"], EXACT_P_H, n):
            return {0: f"{rec['state']}: frac_h_applied {rec['frac_h_applied']} vs "
                       f"exact {EXACT_P_H}"}
    return {}


def _check_sweep(payloads: list[bytes]) -> dict[int, str]:
    lines = payloads[0].decode().splitlines()
    if lines[:1] != ["mu,success_computational,success_hadamard"]:
        return {0: f"header {lines[:1]}"}
    rows = {int(mu): (float(c), float(h))
            for mu, c, h in (line.split(",") for line in lines[1:])}
    if sorted(rows) != list(SWEEP_MUS):
        return {0: f"mu values {sorted(rows)}"}
    # zero/one (and plus/minus) share random streams, so the pair mean's
    # sigma is at most one state's sigma; use that conservative bound
    pairs = (("computational", ("zero", "one")), ("hadamard", ("plus", "minus")))
    for col, (basis, states) in enumerate(pairs):
        exact = sum(EXACT_TOTAL[s] for s in states) / 2
        if not _within(rows[2][col], exact, SWEEP_TRIALS):
            return {0: f"mu=2 {basis} {rows[2][col]} vs exact pair mean {exact}"}
    return {}


def _parse_oracle(text: str) -> tuple[float, float, bool]:
    values = {}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        values[key.strip()] = rest.strip()
    return (float(values["max probability discrepancy"]),
            float(values["max amplitude-moduli discrepancy"]),
            values["status"].startswith("ok"))


def _trial_problem(payload: bytes) -> str | None:
    """A trial trace must have r rows and end with j0 + j1 = r."""
    lines = payload.decode().splitlines()
    if len(lines) != R + 1:
        return f"{len(lines) - 1} trace rows, expected {R}"
    fields = lines[-1].split(",")
    if int(fields[6]) + int(fields[7]) != R:
        return f"j0 + j1 = {int(fields[6]) + int(fields[7])}"
    return None


def _check_referee(payloads: list[bytes]) -> dict[int, str]:
    bad = {}
    try:
        worst_p, worst_m, ok = _parse_oracle(payloads[0].decode())
        if not (ok and worst_p < AGREEMENT_TOL and worst_m < AGREEMENT_TOL):
            bad[0] = f"oracle discrepancies {worst_p:.3e}, {worst_m:.3e}"
    except (KeyError, ValueError) as exc:
        bad[0] = f"unreadable oracle-check payload: {exc}"
    for i, payload in enumerate(payloads[1:], start=1):
        try:
            problem = _trial_problem(payload)
        except (IndexError, ValueError) as exc:
            problem = f"unreadable trial trace: {exc}"
        if problem:
            bad[i] = problem
    return bad


def _decision(stderr: str) -> tuple[str, bool]:
    """(decided label, H applied) from trial's 'classified: LABEL (basis=...' line."""
    for line in stderr.splitlines():
        if line.startswith("classified: "):
            label, _, rest = line[len("classified: "):].partition(" ")
            return label, rest.startswith("(basis=hadamard")
    raise ValueError("no 'classified:' line on stderr")


def _referee_cross_check(ops_map):
    """Trial 0 of a 1-trial experiment is the same walk as `trial` with
    that seed; compare the trial's decision (its H flag and whether the
    decided label names the prepared basis vector) with the experiment's
    counts for the sampled (state, seed) pairs."""
    def check(stderrs: list[str], cross_payloads: list[bytes]) -> dict[int, str]:
        bad = {}
        for c, (op_index, state) in enumerate(ops_map):
            try:
                label, h = _decision(stderrs[op_index])
                (rec,) = json.loads(cross_payloads[c])
                h_exp, success_exp = rec["frac_h_applied"], rec["total_success"]
                success = STATES.index(label) & 1 == STATES.index(state) & 1
            except (ValueError, KeyError, TypeError) as exc:
                bad[c] = f"unreadable output: {exc}"
                continue
            if h_exp != float(h) or success_exp != float(success):
                bad[c] = (f"{state}: trial gives h={h} success={success}, "
                          f"experiment gives {h_exp}, {success_exp}")
        return bad
    return check


def oracle_case_steps(seed: int) -> int:
    """Total walk steps of oracle-check, regenerated the way
    qsdwalk.oracle.walk_agreement draws each case's length."""
    from qsdwalk.rng import substream

    total = 0
    for i in range(ORACLE_CASES):
        rng = substream(seed, i)
        rng.uniform()  # mu
        total += 1 + int(rng.uniform() * ORACLE_MAX_STEPS)
    return total


def build(name: str, seed: int, threads: int) -> Workload:
    rnd = random.Random(f"{name}:{seed}")
    if name == "table":
        master = rnd.getrandbits(32)
        argv = ["experiment", "--trials", str(TABLE_TRIALS), "--r", str(R), "--mu", "2",
                "--threads", str(threads), "--seed", str(master)]
        return Workload(name, [Op(argv, "table.json")],
                        steps=len(STATES) * TABLE_TRIALS * R, threaded=True,
                        check=_check_table)
    if name == "sweep":
        master = rnd.getrandbits(32)
        argv = ["sweep", "--mu", f"{SWEEP_MUS[0]}..{SWEEP_MUS[-1]}",
                "--trials", str(SWEEP_TRIALS), "--r", str(R),
                "--threads", str(threads), "--seed", str(master)]
        return Workload(name, [Op(argv, "sweep.csv")],
                        steps=len(SWEEP_MUS) * len(STATES) * SWEEP_TRIALS * R,
                        threaded=True, check=_check_sweep)
    if name == "referee":
        oracle_seed = rnd.getrandbits(32)
        trial_seeds = [rnd.getrandbits(32) for _ in range(REFEREE_SEEDS)]
        ops = [Op(["oracle-check", "--cases", str(ORACLE_CASES),
                   "--mu-max", str(ORACLE_MU_MAX), "--max-steps", str(ORACLE_MAX_STEPS),
                   "--seed", str(oracle_seed)], "oracle.txt")]
        cross_ops, cross_map = [], []
        for state in STATES:
            for i, s in enumerate(trial_seeds):
                ops.append(Op(["trial", "--state", state, "--r", str(R), "--seed", str(s)],
                              f"trial-{state}-{i}.csv"))
                if i < CROSS_CHECK_SEEDS:
                    cross_map.append((len(ops) - 1, state))
                    cross_ops.append(Op(["experiment", "--states", state, "--trials", "1",
                                         "--r", str(R), "--threads", "1", "--seed", str(s)],
                                        f"cross-{state}-{i}.json"))
        steps = oracle_case_steps(oracle_seed) + len(STATES) * REFEREE_SEEDS * R
        return Workload(name, ops, steps=steps, threaded=False, check=_check_referee,
                        cross_ops=cross_ops, cross_check=_referee_cross_check(cross_map))
    raise ValueError(f"unknown workload {name!r}")
