"""Seeded Monte Carlo harness over the discrimination trial.

Trial i always draws from substream(master_seed, i), so a report is a
pure function of its config: runs are replayable, and different states,
mu values and walk variants see the same uniforms (common random
numbers, which sharpens sweep comparisons).

A trial reads four of those uniforms, not r: discriminate states how
they decide it. run_trial and decide read the same four and the same
cached tables, so scalar and batch decisions are equal by construction.

Every run is one pass. A job is one walk that every trial runs: a start
state, a mu, and the real or phase-tracking restart after H.
run_experiment passes its states, sweep_mu every mu times the four
states, phase_report every state twice. The jobs of a pass share its
rule, and those at one mu (a group) one count law, as decide asks. The
pass is a serial loop over chunks of _CHUNK_TRIALS trials that draws a
chunk's four uniforms once.

Each draw is only ever compared with a tabled threshold, and the jobs at
one mu share few of them (discriminate.draw_thresholds). So a chunk
buckets each draw by its set (the bucket of u counts the thresholds
<= u, by one broadcast compare against a short set) and folds a trial's
four buckets into one cell of the group's grid. One weighted reduction
decides every group, with two ways to count its cells: a histogram over
the pass for a grid of at most _MAX_CELLS cells, else each chunk's codes
sorted into distinct cells. One decide call then takes each occupied
cell's least draws, weighted by its trials, and scores all the group's
jobs as one stack: the rule only asks whether a draw lies below a
threshold of its set (or one <= 0 or >= 1), and a bucket spans
[T[b-1], T[b]), so every draw in it decides as its least one does. What
a pass holds does not grow with r or the trial count: every chunk draws
into one buffer, allocated once a pass, so the pages a chunk's draws
fill are not faulted in again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discriminate import (DecisionRule, StateLabel, TrialOutcome, TrialTables, check_steps,
                           check_trace_steps, decide, draw_thresholds, run_trial, trial_tables)
from .rng import batch_uniform, check_integer, check_seed, substream, substream_states
from .walk import WalkParams

_ALL_STATES = (StateLabel.ZERO, StateLabel.ONE, StateLabel.PLUS, StateLabel.MINUS)

# Trials a pass draws and counts at once; its buffers scale with this.
# Every chunk draws into one buffer of this many trials' draws (fewer
# when the run has fewer trials), allocated once a pass.
_CHUNK_TRIALS = 1 << 14
# Uniforms a trial reads: the component, j0 at step k, the component
# after step k, the vote.
_DRAWS = 4
# Cells a mu group's histogram may hold: no more than a chunk has
# trials, so a group's histogram and a chunk's bincount stay the size
# of a chunk's buffers. A larger grid is counted a chunk at a time by
# sorting its cell codes. The bound rests on that memory alone: at
# always-apply-h, k = 30 (253,760 cells), 4 x 100k trials took 14-15 ms
# in one histogram and 16-17 ms sorted (medians, 2-core VM).
_MAX_CELLS = _CHUNK_TRIALS
# Thresholds a draw is bucketed against by one broadcast compare; a
# longer set is searched. On 16k random draws the compare beat
# searchsorted at every length up to 127 (8: 26 against 306 us; 64: 185
# against 730 us; 127: 399 against 923 us; numpy 2.4, 2-core VM), so no
# crossover sets the cap: the compare's bool temporary does, a byte per
# threshold and draw (1 MiB over a chunk at 64). Its buckets are int8,
# so the cap stays below 128 in any case.
_MAX_COMPARES = 64


@dataclass(frozen=True)
class ExperimentConfig:
    states: tuple[StateLabel, ...] = _ALL_STATES
    trials: int = 100_000
    r: int = 100
    mu: int = 2
    rule: DecisionRule = DecisionRule()
    master_seed: int = 0

    def __post_init__(self):
        if not self.states:
            raise ValueError("states must not be empty")
        for state in self.states:
            if not isinstance(state, StateLabel):
                raise ValueError(f"states must hold StateLabel members, got {state!r}")
        if not isinstance(self.rule, DecisionRule):
            raise ValueError(f"rule must be a DecisionRule, got {self.rule!r}")
        object.__setattr__(self, "trials", check_integer(self.trials, "trials"))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        object.__setattr__(self, "mu", WalkParams(self.mu).mu)  # refuses a negative mu
        object.__setattr__(self, "master_seed", check_seed(self.master_seed, "master_seed"))
        object.__setattr__(self, "r", check_steps(self.r, self.rule))


@dataclass(frozen=True)
class StateReport:
    """Per-state aggregate; all fractions are of the full trial count,
    so success_given_h + failure_given_h = frac_h_applied exactly."""

    state: StateLabel
    trials: int
    frac_h_applied: float
    frac_no_h: float
    success_given_h: float
    failure_given_h: float
    success_given_no_h: float
    failure_given_no_h: float
    total_success: float
    tie_count: int


@dataclass(frozen=True)
class SweepPoint:
    mu: int
    success_computational: float
    success_hadamard: float


@dataclass(frozen=True)
class PhasePoint:
    """Success rates of the real-amplitude walk versus the
    phase-tracking variant, under shared random streams."""

    state: StateLabel
    total_success_real: float
    total_success_complex: float
    abs_diff: float


# A job is one walk every trial runs: (start state, mu, phase-tracking).
_Job = tuple[StateLabel, int, bool]


def _bucket(u: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """#{t in thresholds : t <= u} for each entry of u: one broadcast
    compare against the whole set, summed in int8 (at most
    _MAX_COMPARES < 128 of them), or searchsorted for a longer set."""
    if len(thresholds) > _MAX_COMPARES:
        return np.searchsorted(thresholds, u, side="right")
    return (u >= thresholds[:, None]).sum(axis=0, dtype=np.int8)


def _cell_codes(draws: np.ndarray, sets: tuple[np.ndarray, ...], cells: int) -> np.ndarray:
    """Each trial's cell: the buckets of its four draws as one index,
    row-major over the grid of (len(T) + 1 for T in sets), of `cells`
    cells. Built in int16 where the grid fits (every histogram's), else
    in int64, which holds every grid a caller can build."""
    code = np.zeros(draws.shape[1], dtype=np.int16 if cells <= 2**15 - 1 else np.int64)
    for u, thresholds in zip(draws, sets):
        if len(thresholds):
            code *= len(thresholds) + 1
            code += _bucket(u, thresholds)
    return code


def _sorted_cells(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct cells among a chunk's codes, sorted in place, and the
    trials in each: no wider than the chunk, whatever the grid."""
    codes.sort()
    first = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return codes[starts], np.diff(starts, append=len(codes))


def _tally_votes(tables: list[TrialTables], sets: tuple[np.ndarray, ...],
                 cells: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The votes of each job of a mu group over the given cells of its
    grid: each job decided once per cell, at its least draws (0.0 in
    bucket 0), weighted by the cell's trials."""
    buckets = np.unravel_index(cells, tuple(len(t) + 1 for t in sets))
    least = np.stack([np.concatenate(([0.0], t))[b] for t, b in zip(sets, buckets)])
    return decide(tables, least, weights)


def _job_counts(config: ExperimentConfig, jobs: list[_Job]) -> list[tuple[int, int, int, int]]:
    """Counts of every job, (h_applied, success & h, success & no h,
    ties), from one serial pass over chunks of trials. Integers keep the
    sum over chunks exact. Each mu group's cells are counted in a
    histogram, or sorted a chunk at a time if its grid outgrows a chunk."""
    by_mu: dict[int, list[int]] = {}
    for c, (_, mu, _) in enumerate(jobs):
        by_mu.setdefault(mu, []).append(c)
    params = {mu: WalkParams(mu) for mu in by_mu}
    tables = [trial_tables(state, params[mu], config.rule, config.r, phase)
              for state, mu, phase in jobs]
    # per job: trials voting bit 1, with H applied, both, and voting bit 1 or tied
    votes = np.zeros((len(jobs), 4), dtype=np.int64)
    groups = []
    for group in by_mu.values():
        group_tables = [tables[c] for c in group]
        sets = draw_thresholds(group_tables)
        cells = math.prod(len(t) + 1 for t in sets)
        hist = np.zeros(cells, dtype=np.int64) if cells <= _MAX_CELLS else None
        groups.append((group, group_tables, sets, cells, hist))
    # every chunk's draws, so their pages are faulted in once a pass
    buffer = np.empty((_DRAWS, min(_CHUNK_TRIALS, config.trials)))
    for start in range(0, config.trials, _CHUNK_TRIALS):
        size = min(_CHUNK_TRIALS, config.trials - start)
        draws = batch_uniform(substream_states(config.master_seed, start, size),
                              buffer[:, :size])
        for group, group_tables, sets, cells, hist in groups:
            codes = _cell_codes(draws, sets, cells)
            if hist is None:
                votes[group] += _tally_votes(group_tables, sets, *_sorted_cells(codes))
            else:
                hist += np.bincount(codes, minlength=cells)
    for group, group_tables, sets, _, hist in groups:
        if hist is not None:
            occupied = np.flatnonzero(hist)
            votes[group] = _tally_votes(group_tables, sets, occupied, hist[occupied])
    counts = []
    for (state, _, _), (n_one, n_h, n_one_h, n_through) in zip(jobs, votes.tolist()):
        # successes are the votes that name the prepared state's bit
        succ, succ_h = ((n_one, n_one_h) if state.bit
                        else (config.trials - n_one, n_h - n_one_h))
        counts.append((n_h, succ_h, succ - succ_h, n_through - n_one))
    return counts


def _build_report(state: StateLabel, config: ExperimentConfig,
                  counts: tuple[int, int, int, int]) -> StateReport:
    n_h, succ_h, succ_noh, ties = counts
    t = config.trials
    return StateReport(
        state=state,
        trials=t,
        frac_h_applied=n_h / t,
        frac_no_h=(t - n_h) / t,
        success_given_h=succ_h / t,
        failure_given_h=(n_h - succ_h) / t,
        success_given_no_h=succ_noh / t,
        failure_given_no_h=(t - n_h - succ_noh) / t,
        total_success=(succ_h + succ_noh) / t,
        tie_count=ties,
    )


def run_experiment(config: ExperimentConfig) -> list[StateReport]:
    """One StateReport per requested state, all from one pass.

    Success means the decided label names the same basis vector as the
    prepared one (zero/plus carry bit 0, one/minus bit 1); when H was
    applied the decision is read in the Hadamard basis, so e.g. a
    prepared zero that was rotated and classified plus counts as
    success, exactly the accounting behind the success/failure split.
    """
    counts = _job_counts(config, [(s, config.mu, False) for s in config.states])
    return [_build_report(s, config, c) for s, c in zip(config.states, counts)]


def sweep_mu(base: ExperimentConfig, mu_values) -> list[SweepPoint]:
    """The experiment across mu, averaging success per basis pair.

    Every mu times the four states is one job of a single pass, so each
    trial's draws are made once and shared by every (state, mu). Always
    runs all four states regardless of base.states, since a SweepPoint
    needs both pairs.
    """
    mu_values = list(mu_values)
    if not mu_values:
        raise ValueError("mu_values must not be empty")
    jobs = [(s, mu, False) for mu in mu_values for s in _ALL_STATES]
    # each job's total success, as its StateReport states it; the four
    # jobs of a mu come in _ALL_STATES order: zero, one, plus, minus
    ts = [(succ_h + succ_noh) / base.trials
          for _, succ_h, succ_noh, _ in _job_counts(base, jobs)]
    return [SweepPoint(mu=mu, success_computational=(ts[i] + ts[i + 1]) / 2,
                       success_hadamard=(ts[i + 2] + ts[i + 3]) / 2)
            for mu, i in zip(mu_values, range(0, len(ts), 4))]


def collect_traces(config: ExperimentConfig, sample_count: int) -> list[TrialOutcome]:
    """Full traces of the first sample_count trials, per state in config
    order. Trial i here decides as trial i of run_experiment. An r past
    discriminate.MAX_TRACE_STEPS is refused before any draw."""
    check_trace_steps(config.r, config.rule)
    sample_count = check_integer(sample_count, "sample_count")
    if sample_count < 0 or sample_count > config.trials:
        raise ValueError(
            f"sample_count must be in 0..trials={config.trials}, got {sample_count}")
    params = WalkParams(config.mu)
    outcomes = []
    for state in config.states:
        for i in range(sample_count):
            rng = substream(config.master_seed, i)
            outcomes.append(run_trial(state, params, config.rule, config.r, rng))
    return outcomes


def phase_report(config: ExperimentConfig) -> list[PhasePoint]:
    """How much the dropped per-step phase moves the success rate.

    Every state runs twice, as the real-amplitude walk and as the
    phase-tracking variant, all as jobs of one pass, so both read
    identical random streams; reports both success rates per state. The
    two differ only in where the walk restarts after H (see
    discriminate.restart_rows). States that reach the H rotation with a
    single nonzero component (zero, one) cannot show a relative phase, so
    their two rates are equal.
    """
    jobs = [(s, config.mu, phase) for phase in (False, True) for s in config.states]
    counts = _job_counts(config, jobs)
    points = []
    for state, real, cplx in zip(config.states, counts, counts[len(config.states):]):
        ts_real = (real[1] + real[2]) / config.trials
        ts_cplx = (cplx[1] + cplx[2]) / config.trials
        points.append(PhasePoint(state, ts_real, ts_cplx, abs(ts_real - ts_cplx)))
    return points
