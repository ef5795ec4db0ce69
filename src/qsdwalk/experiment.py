"""Seeded Monte Carlo harness over the discrimination trial.

Trial i always draws from substream(master_seed, i), so a report is a
pure function of its config: runs are replayable, the thread count never
changes results, and different states, mu values and walk variants see
the same uniforms (common random numbers, which sharpens sweep
comparisons).

The batch engine below is the throughput path. A trial's walk depends
only on its net count n = j0 - j1 and on its branch (no H, or H fired
at a given j0), so the closed-form p0 of walk.WalkRow decides every
step. Each trial holds one index, g: its row's home plus the count of
outcome 0 since it entered the row. Since n = 2*j0 - s after s steps,
each row is split into the entries read after an even and after an odd
number of steps, and the step-s lookup goes through one view shared by
every trial. A step is a lookup, a compare and an add. Rows hold p0
out to the reach r (less k after H) so no index needs a clamp; where
that would pass _ENTRY_CAP entries, the rows end where p0 settles (from
x0, WalkRow.settled) and the lookup clamps, in the same loop (_Lanes).
The engine owns no rule of the procedure: whether H fires at step k
comes from DecisionRule.fires and where the walk restarts after H from
discriminate.row_after_h, the same calls discriminate.run_trial
makes on the same rows, so batch and scalar decisions are bit-identical
by construction and the scalar path stays the readable reference. The
phase-tracking variant of phase_report is the engine with other rows.

Every run is one pass over lanes = (job, trial). A job is one walk that
every trial runs: a start state, a mu, and the real or phase-tracking
restart after H. run_experiment passes its states, sweep_mu every mu
times the four states, phase_report every state twice. Since every job
reads trial i's draws from the same substream, a step draws once per
trial and broadcasts the draw across the jobs. The trials are cut into
contiguous chunks by _chunk_plan, a pure function of (trials, jobs,
threads). Workers are counted from all trials * jobs lanes of the pass,
so a 40-job mu sweep fans out though no one job's lanes would: a chunk
holds at most _CHUNK_LANES lanes (or one trial), a shared chunk at
least _FANOUT_LANES, and each worker runs as many chunks. At most
max(trials, jobs, _FANOUT_LANES) lanes are live at once, or one chunk
of about _FANOUT_LANES per worker where that is more, so a pass of up
to _FANOUT_LANES lanes runs as one chunk. Passes too small to share
stay in the calling thread, so `threads` is a cap.

_lanes lays out every table a pass steps with, once, before any
fan-out. Each worker runs one loop over a contiguous run of chunks (the
serial path is the same loop, as the only worker). It allocates its
lane and draw buffers once, for its widest chunk, and every step, the
restart at step k and the final count work in place in them. Draws come
in blocks: one batch_uniform call mixes min(r, jobs) steps of a chunk
into the worker's buffers, so a block holds no more uniforms than the
chunk has lanes and a worker's buffers cost at most 34 bytes per live
lane (58 where the lookup clamps). So a step is three numpy calls and
allocates nothing, and two workers rarely wait on each other for the
interpreter lock, which every numpy call takes and gives back.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .discriminate import (DecisionRule, StateLabel, TrialOutcome, check_steps, row_after_h,
                           run_trial)
from .rng import batch_uniform, check_seed, substream, substream_states
from .walk import QubitState, WalkParams, WalkRow

_ALL_STATES = (StateLabel.ZERO, StateLabel.ONE, StateLabel.PLUS, StateLabel.MINUS)

# Fewest lanes in a chunk that a worker thread runs beside others. Below
# it one step's numpy calls are too short for threads to overlap: they
# contend for the interpreter lock, and two threads run slower than one.
# The lanes of every job count, so a pass of many small jobs still fans
# out.
_FANOUT_LANES = 1 << 15
# Most lanes one chunk holds (unless one trial's jobs pass it), so the
# buffers a worker sizes for its widest chunk do not grow with trials.
_CHUNK_LANES = 1 << 17
# Most p0 entries the full-reach rows of one pass may hold; past it the
# rows end where p0 settles and the lookup clamps. Both branches stay: at
# a cap of 0 the clamped lookup ran the 4 x 100k-trial table 1.49x and a
# 10k-trial mu 1..10 sweep 1.47x slower than full rows (in-process medians
# of 5 rounds of 7 interleaved passes, 2 threads, 2 cores; rounds 1.33-1.57x).
_ENTRY_CAP = 1 << 20


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


def _walk_rows(state: StateLabel, params: WalkParams, rule: DecisionRule, r: int,
               phase: bool) -> tuple[list[WalkRow], np.ndarray, np.ndarray]:
    """The walk rows one job reads, and the rule at step k.

    Returns (rows, fires, row_of_j0). rows[0] walks from the start state
    and the others from the restarts after H with distinct x0, as p0
    depends on x0 alone. fires[j0] says whether H fires at step k after
    j0 outcome-0 counts, and row_of_j0[j0] is the row the trial walks in
    from then on (0 if H does not fire).
    """
    k = rule.k
    base = WalkRow.start(state.to_state(), params)
    fires = np.array([rule.fires(j0) for j0 in range(k + 1)], dtype=bool)
    after: dict[float, tuple[int, WalkRow]] = {}  # x0: (its number, the row)
    row_of_j0 = np.zeros(k + 1, dtype=np.intp)
    if r > k:  # with no steps left after k, no row after H is read
        fired = np.flatnonzero(fires)
        alpha, beta = base.amplitudes(2 * fired - k)  # the states H rotates
        for j0, a, b in zip(fired, alpha.tolist(), beta.tolist()):
            row = row_after_h(QubitState(a, b), base.params, k, phase)
            row_of_j0[j0] = 1 + after.setdefault(row.x0, (len(after), row))[0]
    return [base, *(row for _, row in after.values())], fires, row_of_j0


def _row_slots(reach: int, entered: int) -> tuple[int, int]:
    """(first, count): the slots of a row entered after `entered` steps
    and read at |n| <= reach, n counted from its entry. The row keeps n
    in slot floor(nu/2) - first of parity slice nu % 2, where
    nu = n + entered % 2 has the parity of the steps done."""
    first = (entered % 2 - reach) // 2
    return first, (entered % 2 + reach) // 2 - first + 1


@dataclass(frozen=True)
class _Lanes:
    """Every table a pass steps with, laid out once for a three-op step.

    A lane holds g: its row's home plus its outcome-0 count since it
    entered the row. Each row is stored as two parity slices, in the
    same slots of slices[0] and slices[1]. After s steps, a lane reads
    slices[s % 2][lead - ceil(s/2) + g]: a lookup through one view that
    every lane shares, then a compare with the draw, then g += 1 on
    outcome 0.

    Row 0 of a job walks from the start state and keeps net count n at
    nu = n. A row entered by H at step k keeps n at nu = n + k % 2, so
    that what it is read at after s steps also sits in slice s % 2. For
    odd k it is laid out unlike row 0 even where the two rows are equal,
    so the two are never merged. Rows hold p0 out to the largest |n|
    they are read at: r - 1 for row 0, r - 1 - k after H. Where that
    would pass _ENTRY_CAP entries in all, the rows end instead past
    WalkRow.settled, so their end slots hold the edge p0, and each lookup
    is clamped into its row's slots (bounds is not None).

    At step k a lane's g is start + j0, so g + key_shift is its key
    job * (k + 1) + j0, which indexes the per-key tables. Per-job tables
    hold one job per line of axis 0, so they broadcast against the
    (jobs, trials) lane arrays. Every index table is intp, the type
    np.take indexes with.
    """

    slices: tuple[np.ndarray, np.ndarray]  # the even and the odd parity slice
    lead: int  # the view start before step 1
    start: np.ndarray  # (jobs, 1): g of a lane entering row 0
    key_shift: np.ndarray  # (jobs, 1): key - g at step k
    n_base: np.ndarray  # (jobs, 1): n = 2 * (g + shift) - n_base at the end
    bit: np.ndarray  # (jobs, 1): the prepared state's bit
    fires: np.ndarray  # (keys,): whether H fires at step k
    # (keys,): key - g after step k, which turns g back into the key
    shift_of_key: np.ndarray
    # the first and last slot of row 0 per job, (jobs, 1), and of the row
    # walked after step k per key, (keys,); None where rows hold their reach
    bounds: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None


def _lanes(config: ExperimentConfig, jobs: list[_Job]) -> _Lanes:
    k, r = config.rule.k, config.r
    walks = [_walk_rows(state, WalkParams(mu), config.rule, r, phase)
             for state, mu, phase in jobs]
    # every row with the steps done when lanes enter it: 0, or k after H
    rows = [(row, k if i else 0) for job_rows, _, _ in walks for i, row in enumerate(job_rows)]
    reach = [r - 1 - entered for _, entered in rows]
    clamp = 2 * sum(_row_slots(n, entered)[1]
                    for n, (_, entered) in zip(reach, rows)) > _ENTRY_CAP
    if clamp:
        reach = [min(n, row.settled + 1) for n, (row, _) in zip(reach, rows)]
    spans = [_row_slots(n, entered) for n, (_, entered) in zip(reach, rows)]
    row_lo = np.cumsum([0] + [count for _, count in spans], dtype=np.intp)
    lead = r // 2  # ceil((r - 1) / 2), so no view starts below slot 0
    p0 = np.empty((2, row_lo[-1]))
    for (row, entered), (first, count), lo in zip(rows, spans, row_lo):
        n = np.arange(2 * first, 2 * (first + count)) - entered % 2
        p0[:, lo:lo + count] = row.p0(n).reshape(count, 2).T
    # slot lead - ceil(s/2) + g is then nu = n + entered % 2, as above
    row_home = np.array([lo - first - lead + (entered + 1) // 2
                         for (_, entered), (first, _), lo in zip(rows, spans, row_lo)])
    home = np.cumsum([0] + [len(job_rows) for job_rows, _, _ in walks[:-1]],
                     dtype=np.intp).reshape(-1, 1)  # row 0 of each job
    entry = home + np.stack([row_of_j0 for _, _, row_of_j0 in walks])  # (jobs, k + 1)
    fires = np.stack([fires for _, fires, _ in walks])
    start = row_home[home]
    key = np.arange(len(jobs), dtype=np.intp).reshape(-1, 1) * (k + 1)  # the key of j0 = 0
    j0 = np.arange(k + 1, dtype=np.intp)
    g_after = np.where(fires, row_home[entry], start + j0)
    bounds = None
    if clamp:
        lo, hi = row_lo[:-1], row_lo[1:] - 1
        bounds = lo[home], hi[home], lo[entry].ravel(), hi[entry].ravel()
    return _Lanes(
        slices=(p0[0], p0[1]),
        lead=lead,
        start=start,
        key_shift=key - start,
        n_base=2 * key + r,
        bit=np.array([bool(state.bit) for state, _, _ in jobs]).reshape(-1, 1),
        fires=fires.ravel(),
        shift_of_key=(key + j0 - g_after).ravel(),
        bounds=bounds,
    )


def _shaped(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first rows * cols entries of a flat buffer, as a C-contiguous
    (rows, cols) array that numpy can write into with out=."""
    return buffer[:rows * cols].reshape(rows, cols)


def _worker_counts(lanes: _Lanes, config: ExperimentConfig,
                   chunks: list[tuple[int, int]]) -> np.ndarray:
    """Run the trials of every (start, size) chunk, one chunk after another.

    The lane buffers and the draw buffers are allocated once, for the
    widest chunk, and every chunk runs in views of them: the steps, the
    restart at step k and the count reduction all work in place. A lane
    keeps g, and from step k on whether H fired and shift = (its key at
    step k) - (g after it), which turns g back into its net count at the
    end.

    Draws come in blocks of min(r, jobs) steps, so a block holds no more
    uniforms than a chunk has lanes. A chunk holds one substream state
    per trial, and row b of a block is drawn from those states advanced
    by b steps, so one batch_uniform call serves several steps and moves
    the states on past them. Every job reads trial i's draw. Returns
    integer counts per job, (jobs, 4): h_applied, success & h,
    success & no h, ties; integers keep the later reduction
    order-independent.
    """
    k, r = config.rule.k, config.r
    jobs = len(lanes.start)
    depth = min(r, jobs)
    widest = max(size for _, size in chunks)
    lane_room, draw_room = jobs * widest, depth * widest
    # g indexes np.take, which would copy any other integer type to intp
    # on every step
    g_buf, shift_buf = (np.empty(lane_room, dtype=np.intp) for _ in range(2))
    out0_buf, h_buf = np.empty(lane_room, dtype=bool), np.empty(lane_room, dtype=bool)
    u_buf = np.empty(draw_room)
    # the looked-up p0 is dead while a block is drawn, so its buffer is
    # also the mixer's work buffer
    p0_buf = np.empty(lane_room)
    bounds = lanes.bounds
    if bounds:
        pos_buf, lo_buf, hi_buf = (np.empty(lane_room, dtype=np.intp) for _ in range(3))
        lo_start, hi_start, lo_of_key, hi_of_key = bounds

    counts = np.zeros((jobs, 4), dtype=np.int64)
    for start, size in chunks:
        g, shift, p0, out0, h = (_shaped(buf, jobs, size)
                                 for buf in (g_buf, shift_buf, p0_buf, out0_buf, h_buf))
        np.copyto(g, lanes.start)
        if bounds:
            pos = _shaped(pos_buf, jobs, size)
            lo, hi = lo_start, hi_start
        states = substream_states(config.master_seed, start, size)
        for done in range(0, r, depth):
            steps = min(depth, r - done)
            u = batch_uniform(states, _shaped(u_buf, steps, size),
                              _shaped(p0_buf.view(np.uint64), steps, size))
            for s in range(done, done + steps):
                view = lanes.lead - (s + 1) // 2
                if bounds:
                    np.add(g, view, out=pos)
                    np.maximum(pos, lo, out=pos)
                    np.minimum(pos, hi, out=pos)
                    np.take(lanes.slices[s & 1], pos, out=p0, mode="clip")
                else:
                    np.take(lanes.slices[s & 1][view:], g, out=p0, mode="clip")
                np.less(u[s - done], p0, out=out0)
                g += out0
                if s + 1 == k:
                    g += lanes.key_shift
                    np.take(lanes.fires, g, out=h, mode="clip")
                    np.take(lanes.shift_of_key, g, out=shift, mode="clip")
                    if bounds:
                        lo, hi = _shaped(lo_buf, jobs, size), _shaped(hi_buf, jobs, size)
                        np.take(lo_of_key, g, out=lo, mode="clip")
                        np.take(hi_of_key, g, out=hi, mode="clip")
                    g -= shift
        g += shift
        g *= 2
        g -= lanes.n_base  # g is now n, the net count since the start
        counts[:, 0] += np.count_nonzero(h, axis=1)
        np.equal(g, 0, out=out0)
        counts[:, 3] += np.count_nonzero(out0, axis=1)
        np.less(g, 0, out=out0)
        np.equal(out0, lanes.bit, out=out0)  # success
        success = np.count_nonzero(out0, axis=1)
        out0 &= h
        h_success = np.count_nonzero(out0, axis=1)
        counts[:, 1] += h_success
        counts[:, 2] += success - h_success
    return counts


def _chunk_plan(trials: int, jobs: int, threads: int) -> tuple[int, list[tuple[int, int]]]:
    """(workers, chunks): contiguous (start, size) chunks of the trials.

    Workers come from the pass's trials * jobs lanes: each shared chunk
    holds at least _FANOUT_LANES lanes and at most _CHUNK_LANES (or one
    trial, where the jobs alone pass the cap), and the chunk count is a
    multiple of the workers, so every worker runs as many chunks. At
    most max(trials, jobs, _FANOUT_LANES) lanes are live at once, as
    many as one job alone needs or a pass too small to share, or, where
    that is more, `workers` chunks of at most twice the fewest trials
    that reach _FANOUT_LANES. A pass too small to share runs as one
    worker, its chunks one after another in the caller.
    """
    live = max(trials, jobs, _FANOUT_LANES)
    fewest = -(-_FANOUT_LANES // jobs)  # fewest trials in a shared chunk
    workers = max(1, min(threads, trials // fewest))
    if jobs > _CHUNK_LANES // 2:
        # a chunk holds one trial, so the workers must divide the trials
        while trials % workers:
            workers -= 1
    # as many chunks as the live bound asks, rounded up to the workers,
    # but no more than leave each one `fewest` trials
    count = -(-trials // max(1, min(live // workers, _CHUNK_LANES) // jobs))
    if workers > 1:
        count = min(-(-count // workers), trials // fewest // workers) * workers
    bounds = [trials * c // count for c in range(count + 1)]
    return workers, [(a, b - a) for a, b in zip(bounds[:-1], bounds[1:])]


def _job_counts(config: ExperimentConfig, jobs: list[_Job],
                threads: int) -> list[tuple[int, int, int, int]]:
    """Counts of every job, from one pass over (job, trial) lanes. The
    rows are laid out once here, before any fan-out; each worker then
    runs a contiguous run of the chunks."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    lanes = _lanes(config, jobs)
    workers, chunks = _chunk_plan(config.trials, len(jobs), threads)
    runs = [chunks[len(chunks) * w // workers:len(chunks) * (w + 1) // workers]
            for w in range(workers)]
    count = lambda run: _worker_counts(lanes, config, run)
    if workers == 1:
        parts = [count(chunks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(count, runs))
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
    discriminate.row_after_h). States that reach the H rotation with a
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
