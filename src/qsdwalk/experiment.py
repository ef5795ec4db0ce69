"""Seeded Monte Carlo harness over the discrimination trial.

Trial i always draws from substream(master_seed, i), so a report is a
pure function of its config: runs are replayable, the thread count never
changes results, and different states, mu values and walk variants see
the same uniforms (common random numbers, which sharpens sweep
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

Every run is one pass over lanes = (job, trial). A job is one walk that
every trial runs: a start state, a mu, and the real or phase-tracking
restart after H. run_experiment passes its states, sweep_mu every mu
times the four states, phase_report every state twice. Since every job
reads trial i's draws from the same substream, a step draws once per
trial and broadcasts the draw across the jobs. The trials are cut into
contiguous chunks by _chunk_plan, a pure function of (trials, jobs,
threads): at most max(trials, jobs) lanes are live at once, and the
chunks fan out to threads only when each holds at least _FANOUT_LANES
lanes. Smaller runs stay in the calling thread, so `threads` is a cap.
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

# Below this many lanes per chunk, one step's numpy calls are too short
# for threads to overlap: they contend for the interpreter lock, and two
# threads run slower than one.
_FANOUT_LANES = 1 << 15
_INDEX = np.int32  # flat indices into the stacks and net counts


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
    """The p0 tables one job's trials can read, stacked row by row.

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


# A job is one walk every trial runs: (start state, mu, phase-tracking).
_Job = tuple[StateLabel, int, bool]


@dataclass(frozen=True)
class _Lanes:
    """The stacks of every job of a pass, concatenated into one p0 array.

    Per-job arrays have one row per job, so they broadcast against the
    (jobs, trials) lane arrays of a chunk. Job j's stack starts at flat
    index base[j]; it walks from home[j] = base[j] + half[j] (row 0, n = 0).
    """

    p0: np.ndarray
    base: np.ndarray  # (jobs, 1)
    half: np.ndarray  # (jobs, 1)
    fires: np.ndarray  # (jobs, k + 1): whether H fires, by j0
    row_start: np.ndarray  # (jobs, k + 1): where the row entered at step k starts, by j0
    bit: np.ndarray  # (jobs, 1): the prepared state's bit

    @property
    def home(self) -> np.ndarray:
        return self.base + self.half


def _lanes(config: ExperimentConfig, jobs: list[_Job]) -> _Lanes:
    stacks = [_stack(state, dataclasses.replace(config, mu=mu), phase)
              for state, mu, phase in jobs]
    base = np.cumsum([0] + [s.p0.size for s in stacks[:-1]])
    column = lambda values: np.array(values, dtype=_INDEX).reshape(-1, 1)
    return _Lanes(
        p0=np.concatenate([s.p0 for s in stacks]),
        base=column(base),
        half=column([s.half for s in stacks]),
        fires=np.stack([s.fires for s in stacks]),
        row_start=np.stack([b + s.row_of_j0 * s.width
                            for b, s in zip(base, stacks)]).astype(_INDEX),
        bit=np.array([bool(state.bit) for state, _, _ in jobs]).reshape(-1, 1),
    )


def _chunk_counts(lanes: _Lanes, config: ExperimentConfig,
                  start: int, size: int) -> np.ndarray:
    """Run trials [start, start+size) of every job in one array pass.

    Each lane holds a flat index into the concatenated stacks: its job's
    row plus its net count n since the walk entered that row. All jobs
    read trial i's draw. Returns integer counts per job, (jobs, 4):
    h_applied, success & h, success & no h, ties; integers keep the
    later reduction order-independent.
    """
    k = config.rule.k
    streams = substream_states(config.master_seed, start, size)
    home = lanes.home
    idx = np.repeat(home, size, axis=1)
    # row bounds: one row per job until step k, then one per lane
    lo = lanes.base
    hi = lo + 2 * lanes.half
    # net count = idx + offset; rows entered at step k move the offset
    offset = -home
    h = np.zeros(idx.shape, dtype=bool)
    pos = np.empty_like(idx)
    p0 = np.empty(idx.shape)
    out0 = np.empty_like(idx)
    for j in range(1, config.r + 1):
        u = batch_uniform(streams)
        np.maximum(idx, lo, out=pos)
        np.minimum(pos, hi, out=pos)
        np.take(lanes.p0, pos, out=p0, mode="clip")
        np.less(u, p0, out=out0)
        idx += out0
        idx += out0
        idx -= 1
        if j == k:
            n = idx - home
            j0 = (n + j) // 2
            h = np.take_along_axis(lanes.fires, j0, axis=1)
            lo = np.take_along_axis(lanes.row_start, j0, axis=1)
            hi = lo + 2 * lanes.half
            offset = np.where(h, n - lanes.half - lo, offset)
            idx = np.where(h, lo + lanes.half, idx)
    n = idx + offset
    success = (n < 0) == lanes.bit
    return np.stack([np.count_nonzero(h, axis=1),
                     np.count_nonzero(h & success, axis=1),
                     np.count_nonzero(~h & success, axis=1),
                     np.count_nonzero(n == 0, axis=1)], axis=1)


def _chunk_plan(trials: int, jobs: int, threads: int) -> tuple[int, list[tuple[int, int]]]:
    """(workers, chunks): contiguous (start, size) chunks of the trials.

    At most max(trials, jobs) lanes are live at once, as many as one job
    alone needs. The chunks fan out to `workers` threads only when every
    chunk holds at least _FANOUT_LANES lanes; otherwise workers is 1 and
    they run one after another in the caller.
    """
    live = max(trials, jobs)
    workers = max(1, min(threads, live // _FANOUT_LANES))
    while True:
        per = max(1, live // (workers * jobs))  # most trials in one chunk
        count = -(-trials // per)
        bounds = [trials * c // count for c in range(count + 1)]
        if workers == 1 or (workers * per * jobs <= live
                            and trials // count * jobs >= _FANOUT_LANES):
            return workers, [(a, b - a) for a, b in zip(bounds[:-1], bounds[1:])]
        workers -= 1


def _job_counts(config: ExperimentConfig, jobs: list[_Job],
                threads: int) -> list[tuple[int, int, int, int]]:
    """Counts of every job, from one pass over (job, trial) lanes. The
    tables are stacked once here, before any fan-out."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    lanes = _lanes(config, jobs)
    workers, chunks = _chunk_plan(config.trials, len(jobs), threads)
    run = lambda chunk: _chunk_counts(lanes, config, *chunk)
    if workers == 1:
        parts = [run(chunk) for chunk in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, chunks))
    return [tuple(int(c) for c in row) for row in sum(parts)]


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
    """One StateReport per requested state, all from one pass.

    Success means the decided label names the same basis vector as the
    prepared one (zero/plus carry bit 0, one/minus bit 1); when H was
    applied the decision is read in the Hadamard basis, so e.g. a
    prepared zero that was rotated and classified plus counts as
    success, exactly the accounting behind the success/failure split.
    """
    counts = _job_counts(config, [(s, config.mu, False) for s in config.states], threads)
    return [_build_report(s, config, c) for s, c in zip(config.states, counts)]


def sweep_mu(base: ExperimentConfig, mu_values, threads: int = 1) -> list[SweepPoint]:
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
    counts = _job_counts(base, jobs, threads)
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

    Every state runs twice, as the real-amplitude walk and as the
    phase-tracking variant, all as jobs of one pass, so both read
    identical random streams; reports both success rates per state. The
    two differ only in where the walk restarts after H (see
    discriminate.table_after_h). States that reach the H rotation with a
    single nonzero component (zero, one) cannot show a relative phase, so
    their two rates are equal.
    """
    jobs = [(s, config.mu, phase) for phase in (False, True) for s in config.states]
    counts = _job_counts(config, jobs, threads)
    points = []
    for state, real, cplx in zip(config.states, counts, counts[len(config.states):]):
        ts_real = (real[1] + real[2]) / config.trials
        ts_cplx = (cplx[1] + cplx[2]) / config.trials
        points.append(PhasePoint(state, ts_real, ts_cplx, abs(ts_real - ts_cplx)))
    return points
