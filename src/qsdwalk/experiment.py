"""Seeded Monte Carlo harness over the discrimination trial.

Trial i always draws from substream(master_seed, i), so a report is a
pure function of its config: runs are replayable, thread count never
changes results, and different states or mu values reuse the same
underlying uniforms (common random numbers, which sharpens sweep
comparisons).

The batch engine below is the throughput path. A trial's walk depends
only on its net count n = j0 - j1 and on its branch (no H, or H fired
at a given j0), so each trial holds one index into the p0 tables of
walk.walk_table and a step is a lookup, a compare and an index move.
The engine owns no rule of the procedure: whether H fires at step k
comes from DecisionRule.fires and where the walk restarts after H from
discriminate.table_after_h, the same calls discriminate.run_trial
makes, so batch and scalar decisions are bit-identical by construction
and the scalar path stays the readable reference. The phase-tracking
variant of phase_report is the same engine with other tables after H.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .discriminate import DecisionRule, StateLabel, TrialOutcome, run_trial, table_after_h
from .rng import batch_uniform, substream, substream_states
from .walk import WalkParams, walk_table

_ALL_STATES = (StateLabel.ZERO, StateLabel.ONE, StateLabel.PLUS, StateLabel.MINUS)


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
        if self.mu < 0:
            raise ValueError(f"mu must be non-negative, got {self.mu}")
        if self.r < self.rule.k:
            raise ValueError(
                f"r={self.r} is below the decision iteration k={self.rule.k}")


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


@dataclass(frozen=True)
class _Stack:
    """The p0 tables one state's trials can read, stacked row by row.

    Row 0 walks without H; row b > 0 walks from the b-th distinct start
    after H. Every row is padded with its edge values to the same
    half-width, so row b holds n = -half .. half at b*width + half + n.
    """

    p0: np.ndarray
    half: int
    fires: np.ndarray  # whether H fires at step k, by the trial's j0
    row_of_j0: np.ndarray  # row a trial enters at step k, by its j0 (0 = no H)

    @property
    def width(self) -> int:
        return 2 * self.half + 1


def _stack(state: StateLabel, config: ExperimentConfig, phase: bool) -> _Stack:
    k = config.rule.k
    base = walk_table(state.to_state(), WalkParams(config.mu))
    fires = np.array([config.rule.fires(j0) for j0 in range(k + 1)], dtype=bool)
    rows = {base: 0}
    row_of_j0 = np.zeros(k + 1, dtype=np.int64)
    if config.r > k:  # with no steps left after k, no row but 0 is read
        for j0 in np.flatnonzero(fires):
            after = table_after_h(base, 2 * int(j0) - k, k, phase)
            row_of_j0[j0] = rows.setdefault(after, len(rows))
    half = max(max(t.lo, t.hi) for t in rows)
    p0 = np.concatenate([np.pad(t.p0, (half - t.lo, half - t.hi), mode="edge")
                         for t in rows])
    return _Stack(p0, half, fires, row_of_j0)


def _chunk_counts(stack: _Stack, state: StateLabel, config: ExperimentConfig,
                  start: int, size: int) -> tuple[int, int, int, int]:
    """Run trials [start, start+size) in one array pass.

    Each trial holds a flat index into the stack: its row plus its net
    count n since the walk entered that row. Returns integer counts
    (h_applied, success & h, success & no h, ties); integers keep the
    later reduction order-independent.
    """
    k = config.rule.k
    half, width = stack.half, stack.width
    streams = substream_states(config.master_seed, start, size)
    idx = np.full(size, half, dtype=np.int64)
    # each trial's row bounds; arrays, as numpy clamps faster against them
    lo = np.zeros(size, dtype=np.int64)
    hi = np.full(size, width - 1, dtype=np.int64)
    # net count = idx + offset; rows entered at step k move the offset
    offset = -half
    h = np.zeros(size, dtype=bool)
    pos = np.empty(size, dtype=np.int64)
    p0 = np.empty(size)
    out0 = np.empty(size, dtype=np.int64)
    for j in range(1, config.r + 1):
        u = batch_uniform(streams)
        np.maximum(idx, lo, out=pos)
        np.minimum(pos, hi, out=pos)
        np.take(stack.p0, pos, out=p0, mode="clip")
        np.less(u, p0, out=out0)
        idx += out0
        idx += out0
        idx -= 1
        if j == k:
            n = idx - half
            j0 = (n + j) // 2
            h = stack.fires[j0]
            lo = stack.row_of_j0[j0] * width
            hi = lo + (width - 1)
            offset = np.where(h, n - half - lo, -half)
            idx = np.where(h, lo + half, idx)
    n = idx + offset
    success = (n < 0) == bool(state.bit)
    return (int(np.count_nonzero(h)),
            int(np.count_nonzero(h & success)),
            int(np.count_nonzero(~h & success)),
            int(np.count_nonzero(n == 0)))


def _state_counts(state: StateLabel, config: ExperimentConfig, threads: int,
                  phase: bool = False) -> tuple[int, int, int, int]:
    """Split trials into contiguous chunks and sum their counts. The
    tables are stacked once here, before the fan-out."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    stack = _stack(state, config, phase)
    if threads == 1 or config.trials < 2 * threads:
        return _chunk_counts(stack, state, config, 0, config.trials)
    bounds = np.linspace(0, config.trials, threads + 1, dtype=int)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(
            lambda se: _chunk_counts(stack, state, config, int(se[0]), int(se[1] - se[0])),
            zip(bounds[:-1], bounds[1:])))
    return tuple(sum(col) for col in zip(*parts))


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


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[StateReport]:
    """One StateReport per requested state.

    Success means the decided label names the same basis vector as the
    prepared one (zero/plus carry bit 0, one/minus bit 1); when H was
    applied the decision is read in the Hadamard basis, so e.g. a
    prepared zero that was rotated and classified plus counts as
    success, exactly the accounting behind the success/failure split.
    """
    return [_build_report(s, config, _state_counts(s, config, threads))
            for s in config.states]


def sweep_mu(base: ExperimentConfig, mu_values, threads: int = 1) -> list[SweepPoint]:
    """Rerun the experiment across mu, averaging success per basis pair.

    Always runs all four states regardless of base.states, since a
    SweepPoint needs both pairs.
    """
    mu_values = list(mu_values)
    if not mu_values:
        raise ValueError("mu_values must not be empty")
    points = []
    for mu in mu_values:
        config = dataclasses.replace(base, mu=mu, states=_ALL_STATES)
        ts = {rep.state: rep.total_success for rep in run_experiment(config, threads)}
        points.append(SweepPoint(
            mu=mu,
            success_computational=(ts[StateLabel.ZERO] + ts[StateLabel.ONE]) / 2,
            success_hadamard=(ts[StateLabel.PLUS] + ts[StateLabel.MINUS]) / 2,
        ))
    return points


def collect_traces(config: ExperimentConfig, sample_count: int) -> list[TrialOutcome]:
    """Full traces of the first sample_count trials, per state in config
    order. Trial i here is bit-identical to trial i of run_experiment."""
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


def phase_report(config: ExperimentConfig, threads: int = 1) -> list[PhasePoint]:
    """How much the dropped per-step phase moves the success rate.

    Runs the engine as the real-amplitude walk and as the
    phase-tracking variant on identical random streams and reports both
    success rates per state. The two differ only in where the walk
    restarts after H (see discriminate.table_after_h). States that reach the H
    rotation with a single nonzero component (zero, one) cannot show a
    relative phase, so their two rates are equal.
    """
    points = []
    for state in config.states:
        real = _state_counts(state, config, threads)
        cplx = _state_counts(state, config, threads, phase=True)
        ts_real = (real[1] + real[2]) / config.trials
        ts_cplx = (cplx[1] + cplx[2]) / config.trials
        points.append(PhasePoint(state, ts_real, ts_cplx, abs(ts_real - ts_cplx)))
    return points
