"""Seeded Monte Carlo harness over the discrimination trial.

Trial i always draws from substream(master_seed, i), so a report is a
pure function of its config: runs are replayable, and different states,
mu values and walk variants see the same uniforms (common random
numbers, which sharpens sweep comparisons).

A trial reads four of those uniforms, not r. The qubit's two outcome
operators are diagonal and commute (c1 = s0, s1 = c0), so a record's
probability depends only on its counts: from (alpha, beta), the count
of outcome 0 over m steps is alpha^2 Bin(m, c0^2) + beta^2 Bin(m, c1^2),
and drawing the component first leaves a plain binomial. So trial i is
decided by four draws (discriminate.trial_tables holds the laws):

- u0 picks the component z from alpha^2 of the start;
- u1 inverts the CDF of Bin(k, c_z^2): the count j0 at step k, which
  decides whether H fires (DecisionRule.fires);
- if H fires and steps follow, u2 picks the component again, from
  alpha^2 of the row the walk restarts in (row_after_h); otherwise the
  record is still one mixture and the component drawn by u0 is kept;
- u3 decides the vote: the count over the r - k steps left is drawn
  from Bin(r - k, c_z'^2), so the vote names bit 1 iff u3 lies below
  that CDF at ceil(r/2) - 1 - j0, and a tie (even r) iff it lies below
  the CDF at r/2 - j0 but not the first. Both thresholds are tabled by
  (z', j0), so no trial steps r times.

discriminate.run_trial draws the same four uniforms and reads the same
cached tables, so batch and scalar decisions are equal by construction;
it then lays the steps out for the trace.

Every run is one pass. A job is one walk that every trial runs: a start
state, a mu, and the real or phase-tracking restart after H.
run_experiment passes its states, sweep_mu every mu times the four
states, phase_report every state twice. The pass is a serial loop over
chunks of _CHUNK_TRIALS trials: it draws a chunk's four uniforms once,
jobs at one mu share the inversion of u1, and each job adds a handful
of elementwise operations. What a pass holds does not grow with r or
the trial count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discriminate import (DecisionRule, StateLabel, TrialOutcome, TrialTables, check_steps,
                           run_trial, trial_tables)
from .rng import batch_uniform, check_seed, substream, substream_states
from .walk import WalkParams

_ALL_STATES = (StateLabel.ZERO, StateLabel.ONE, StateLabel.PLUS, StateLabel.MINUS)

# Trials a pass draws and counts at once; its buffers scale with this.
_CHUNK_TRIALS = 1 << 14
# Uniforms a trial reads: the component, j0 at step k, the component
# after step k, the vote.
_DRAWS = 4


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
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        WalkParams(self.mu)  # refuses a negative mu
        check_seed(self.master_seed, "master_seed")
        check_steps(self.r, self.rule)


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


def _keyed(tables: TrialTables) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A job's tables by key 2 * (z * (k + 1) + j0) + z', from the
    components z before and z' after step k and the count j0 there:
    the chance of z' = 0 and whether H fires (both the same at either
    z'), and the thresholds of the vote, below and through, of (z', j0)."""
    pair = lambda table: np.repeat(table.ravel(), 2)
    of_after = lambda table: np.tile(table.T.ravel(), 2)  # table[z', j0] at every z
    law = tables.law
    return (pair(tables.zero_after), pair(np.tile(tables.fires, 2)),
            of_after(law.below), of_after(law.through))


def _job_counts(config: ExperimentConfig, jobs: list[_Job]) -> list[tuple[int, int, int, int]]:
    """Counts of every job, (h_applied, success & h, success & no h,
    ties), from one serial pass over chunks of trials. Integers keep the
    sum over chunks exact."""
    k, r = config.rule.k, config.r
    tables = [trial_tables(state, WalkParams(mu), config.rule, r, phase)
              for state, mu, phase in jobs]
    keyed = [_keyed(t) for t in tables]
    by_mu: dict[int, list[int]] = {}
    for c, (_, mu, _) in enumerate(jobs):
        by_mu.setdefault(mu, []).append(c)
    counts = np.zeros((len(jobs), 4), dtype=np.int64)
    for start in range(0, config.trials, _CHUNK_TRIALS):
        size = min(_CHUNK_TRIALS, config.trials - start)
        u0, u1, u2, u3 = batch_uniform(substream_states(config.master_seed, start, size),
                                       np.empty((_DRAWS, size)))
        for group in by_mu.values():
            step_k = tables[group[0]].law.step_k
            # each trial's key at z' = 0, in either component
            keys = [2 * (step_k[z].count(u1) + z * (k + 1)) for z in (0, 1)]
            for c in group:
                zero_after, fires, below, through = keyed[c]
                key = np.where(u0 < tables[c].start.alpha2, *keys)
                key += u2 >= np.take(zero_after, key)
                one = u3 < np.take(below, key)  # the vote names bit 1
                h = np.take(fires, key)
                n_one, n_h, n_one_h = (np.count_nonzero(a) for a in (one, h, one & h))
                ties = np.count_nonzero(u3 < np.take(through, key)) - n_one
                # successes are the votes that name the prepared state's bit
                succ, succ_h = ((n_one, n_one_h) if jobs[c][0].bit
                                else (size - n_one, n_h - n_one_h))
                counts[c] += n_h, succ_h, succ - succ_h, ties
    return [tuple(int(v) for v in row) for row in counts]


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
    counts = _job_counts(base, jobs)
    points = []
    for i, mu in enumerate(mu_values):
        ts = {s: _build_report(s, base, c).total_success
              for s, c in zip(_ALL_STATES, counts[4 * i:4 * i + 4])}
        points.append(SweepPoint(
            mu=mu,
            success_computational=(ts[StateLabel.ZERO] + ts[StateLabel.ONE]) / 2,
            success_hadamard=(ts[StateLabel.PLUS] + ts[StateLabel.MINUS]) / 2,
        ))
    return points


def collect_traces(config: ExperimentConfig, sample_count: int) -> list[TrialOutcome]:
    """Full traces of the first sample_count trials, per state in config
    order. Trial i here decides as trial i of run_experiment."""
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
    discriminate.row_after_h). States that reach the H rotation with a
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
