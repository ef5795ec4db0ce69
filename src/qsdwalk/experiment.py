"""Seeded Monte Carlo harness over the discrimination trial.

Trial i always draws from substream(master_seed, i), so a report is a
pure function of its config: runs are replayable, the thread count never
changes results, and different states, mu values and walk variants see
the same uniforms (common random numbers, which sharpens sweep
comparisons).

The batch engine below is the throughput path. A trial's walk depends
only on its net count n = j0 - j1 and on its branch (no H, or H fired
at a given j0), so the p0 tables of walk.walk_table decide every step.
Each trial holds one index, g: its row's home plus the count of outcome
0 since it entered the row. Since n = 2*j0 - s after s steps, each row
is split into the entries read after an even and after an odd number
of steps, and the step-s lookup goes through one view shared by every
trial. A step is a lookup, a compare and an add. Rows are padded with
their edge values out to the reach r (less k after H) so no index needs
a clamp; where that padding would pass _ENTRY_CAP entries, the rows are
cut where p0 settles and the lookup clamps, in the same loop (_Lanes).
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
trial and broadcasts the draw across the jobs; one batch_uniform call
draws a block of steps, at most _DRAW_BLOCK draws. The trials are cut
into contiguous chunks by _chunk_plan, a pure function of (trials,
jobs, threads): at most max(trials, jobs) lanes are live at once, and
the chunks fan out to threads only when each holds at least
_FANOUT_LANES lanes. Smaller runs stay in the calling thread, so
`threads` is a cap.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .discriminate import DecisionRule, StateLabel, TrialOutcome, run_trial, table_after_h
from .rng import batch_uniform, step_offsets, substream, substream_states
from .walk import WalkParams, WalkTable, walk_table

_ALL_STATES = (StateLabel.ZERO, StateLabel.ONE, StateLabel.PLUS, StateLabel.MINUS)

# Below this many lanes per chunk, one step's numpy calls are too short
# for threads to overlap: they contend for the interpreter lock, and two
# threads run slower than one.
_FANOUT_LANES = 1 << 15
# Most p0 entries the padded rows of one pass may hold; past it the rows
# are cut where p0 settles and the lookup clamps. It also keeps every
# slot well inside _INDEX.
_ENTRY_CAP = 1 << 20
# Most uniforms one batch_uniform call draws for a chunk, as a block of
# steps; on narrow chunks this saves most of the per-call cost.
_DRAW_BLOCK = 1 << 13
_INDEX = np.int32  # slots, lane indices and counts


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


# A job is one walk every trial runs: (start state, mu, phase-tracking).
_Job = tuple[StateLabel, int, bool]


def _walk_rows(state: StateLabel, config: ExperimentConfig,
               phase: bool) -> tuple[list[WalkTable], np.ndarray, np.ndarray]:
    """The walk tables one job reads, and the rule at step k.

    Returns (tables, fires, row_of_j0). tables[0] walks from the start
    state and the others from the distinct restarts after H. fires[j0]
    says whether H fires at step k after j0 outcome-0 counts, and
    row_of_j0[j0] is the table the trial walks in from then on (0 if
    H does not fire).
    """
    k = config.rule.k
    base = walk_table(state.to_state(), WalkParams(config.mu))
    fires = np.array([config.rule.fires(j0) for j0 in range(k + 1)], dtype=bool)
    after: dict[WalkTable, int] = {}
    row_of_j0 = np.zeros(k + 1, dtype=_INDEX)
    if config.r > k:  # with no steps left after k, no table after H is read
        for j0 in np.flatnonzero(fires):
            table = table_after_h(base, 2 * int(j0) - k, k, phase)
            row_of_j0[j0] = 1 + after.setdefault(table, len(after))
    return [base, *after], fires, row_of_j0


def _row_slots(reach: int, entered: int) -> tuple[int, int]:
    """(first, count): the slots of a row entered after `entered` steps
    and read at |n| <= reach, n counted from its entry. The row keeps n
    in slot floor(nu/2) - first of parity slice nu % 2, where
    nu = n + entered % 2 has the parity of the steps done."""
    first = (entered % 2 - reach) // 2
    return first, (entered % 2 + reach) // 2 - first + 1


@dataclass(frozen=True)
class _Lanes:
    """The p0 rows of every job of a pass, laid out for a three-op step.

    A lane holds g: its row's home plus its outcome-0 count since it
    entered the row. Each row is stored as two parity slices, in the
    same slots of p0[0] and p0[1]. After s steps, a lane reads
    p0[s % 2][lead - ceil(s/2) + g]: a lookup through one view that
    every lane shares, then a compare with the draw, then g += 1 on
    outcome 0.

    Row 0 of a job walks from the start state and keeps net count n at
    nu = n. A row entered by H at step k keeps n at nu = n + k % 2, so
    that what it is read at after s steps also sits in slice s % 2. For
    odd k it is laid out unlike row 0 even where the tables are equal,
    so the two are never merged. Rows are padded with their edge values
    out to the largest |n| they are read at: r - 1 for row 0, r - 1 - k
    after H. Where that padding would pass _ENTRY_CAP entries in all,
    the rows end instead where p0 stops changing (clamp is True), and
    each lookup is clamped into its row's slots row_lo .. row_hi.

    Rows are numbered across the pass. Per-job arrays hold one job per
    line of axis 0, so they broadcast against the (jobs, trials) lane
    arrays.
    """

    p0: np.ndarray  # (2, slots): the even and the odd parity slice
    lead: int  # the view start before step 1
    clamp: bool
    row_home: np.ndarray  # (rows,): g of a lane entering the row
    row_lo: np.ndarray  # (rows,): the row's first slot
    row_hi: np.ndarray  # (rows,): the row's last slot
    home: np.ndarray  # (jobs, 1): row 0 of each job
    fires: np.ndarray  # (jobs, k + 1): whether H fires at step k, by j0
    entry: np.ndarray  # (jobs, k + 1): the row walked after step k, by j0
    bit: np.ndarray  # (jobs, 1): the prepared state's bit


def _lanes(config: ExperimentConfig, jobs: list[_Job]) -> _Lanes:
    k, r = config.rule.k, config.r
    walks = [_walk_rows(state, dataclasses.replace(config, mu=mu), phase)
             for state, mu, phase in jobs]
    # every row with the steps done when lanes enter it: 0, or k after H
    rows = [(table, k if i else 0) for tables, _, _ in walks for i, table in enumerate(tables)]
    reach = [r - 1 - entered for _, entered in rows]
    clamp = 2 * sum(_row_slots(n, entered)[1]
                    for n, (_, entered) in zip(reach, rows)) > _ENTRY_CAP
    if clamp:
        reach = [min(n, max(table.lo, table.hi) + 1) for n, (table, _) in zip(reach, rows)]
    spans = [_row_slots(n, entered) for n, (_, entered) in zip(reach, rows)]
    row_lo = np.cumsum([0] + [count for _, count in spans])
    p0 = np.empty((2, row_lo[-1]))
    for (table, entered), (first, count), lo in zip(rows, spans, row_lo):
        n = np.arange(2 * first, 2 * (first + count)) - entered % 2
        p0[:, lo:lo + count] = \
            table.p0[np.clip(n, -table.lo, table.hi) + table.lo].reshape(count, 2).T
    lead = r // 2  # ceil((r - 1) / 2), so no view starts below slot 0
    first_row = np.cumsum([0] + [len(tables) for tables, _, _ in walks[:-1]])
    index = lambda values: np.array(values, dtype=_INDEX)
    return _Lanes(
        p0=p0,
        lead=lead,
        clamp=clamp,
        # slot lead - ceil(s/2) + g is then nu = n + entered % 2, as above
        row_home=index([lo - first - lead + (entered + 1) // 2
                        for (_, entered), (first, _), lo in zip(rows, spans, row_lo)]),
        row_lo=index(row_lo[:-1]),
        row_hi=index(row_lo[1:] - 1),
        home=index(first_row).reshape(-1, 1),
        fires=np.stack([fires for _, fires, _ in walks]),
        entry=index([f + row_of_j0 for f, (_, _, row_of_j0) in zip(first_row, walks)]),
        bit=np.array([bool(state.bit) for state, _, _ in jobs]).reshape(-1, 1),
    )


def _chunk_counts(lanes: _Lanes, config: ExperimentConfig,
                  start: int, size: int) -> np.ndarray:
    """Run trials [start, start+size) of every job in one array pass.

    Draws come in blocks of at most _DRAW_BLOCK (or one step): row b of
    a block is drawn from the chunk's substream states advanced by b
    steps, so one batch_uniform call serves several steps. Every job
    reads trial i's draw. Returns integer counts per job, (jobs, 4):
    h_applied, success & h, success & no h, ties; integers keep the
    later reduction order-independent.
    """
    k, r = config.rule.k, config.r
    streams = substream_states(config.master_seed, start, size)
    depth = max(1, min(r, _DRAW_BLOCK // size))  # steps per block
    skips = step_offsets(depth).reshape(-1, 1)
    block = np.empty((depth, size), dtype=np.uint64)
    slices = tuple(lanes.p0)
    clamp = lanes.clamp
    row = lanes.home
    lo, hi = lanes.row_lo[row], lanes.row_hi[row]
    g = np.repeat(lanes.row_home[row], size, axis=1)
    offset = -lanes.row_home[row]  # g + offset is the outcome-0 count j0
    h = np.zeros(g.shape, dtype=bool)
    pos = np.empty_like(g)
    p0 = np.empty(g.shape)
    out0 = np.empty_like(g)
    for done in range(0, r, depth):
        steps = min(depth, r - done)
        np.add(streams, skips[:steps], out=block[:steps])
        u = batch_uniform(block[:steps])
        np.copyto(streams, block[steps - 1])
        for s in range(done, done + steps):
            view = lanes.lead - (s + 1) // 2
            if clamp:
                np.add(g, view, out=pos)
                np.maximum(pos, lo, out=pos)
                np.minimum(pos, hi, out=pos)
                np.take(slices[s & 1], pos, out=p0, mode="clip")
            else:
                np.take(slices[s & 1][view:], g, out=p0, mode="clip")
            np.less(u[s - done], p0, out=out0)
            g += out0
            if s + 1 == k:
                j0 = g + offset
                h = np.take_along_axis(lanes.fires, j0, axis=1)
                row = np.take_along_axis(lanes.entry, j0, axis=1)
                g = np.where(h, lanes.row_home[row], g)
                offset = j0 - g
                lo, hi = lanes.row_lo[row], lanes.row_hi[row]
    n = 2 * (g + offset) - r  # the net count since the start
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
