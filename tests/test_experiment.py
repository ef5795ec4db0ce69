import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdwalk.experiment as experiment
from qsdwalk.discriminate import MAX_STEPS, MODES, DecisionRule, StateLabel, run_trial
from qsdwalk.experiment import (
    _CHUNK_LANES,
    _ENTRY_CAP,
    _FANOUT_LANES,
    ExperimentConfig,
    PhasePoint,
    SweepPoint,
    _build_report,
    _chunk_plan,
    _job_counts,
    _lanes,
    _walk_rows,
    collect_traces,
    phase_report,
    run_experiment,
    sweep_mu,
)
from qsdwalk.rng import batch_uniform, substream, substream_states
from qsdwalk.walk import QubitState, WalkParams, WalkRow

from reference import (
    EXACT_ALWAYS_MU1,
    EXACT_P_H,
    EXACT_TOTAL,
    ax_probabilities,
    reference_counts,
    reference_phase_success,
)

ALL_STATES = (StateLabel.ZERO, StateLabel.ONE, StateLabel.PLUS, StateLabel.MINUS)


def three_sigma(p: float, n: int) -> float:
    return 3 * math.sqrt(p * (1 - p) / n)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(states=())
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(mu=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(r=1, rule=DecisionRule(k=2))


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_out_of_range_master_seed_rejected(seed):
    # masked to 64 bits, these would replay seeds 2^64 - 1, 0 and 5
    with pytest.raises(ValueError, match=rf"master_seed must be in 0..2\^64-1, got {seed}$"):
        ExperimentConfig(master_seed=seed)
    assert ExperimentConfig(master_seed=2**64 - 1).master_seed == 2**64 - 1


def test_determinism():
    config = ExperimentConfig(trials=3000, master_seed=17)
    assert run_experiment(config) == run_experiment(config)


def test_thread_count_does_not_change_reports():
    config = ExperimentConfig(trials=5000, master_seed=23)
    assert run_experiment(config, threads=1) == run_experiment(config, threads=4)
    assert run_experiment(config, threads=1) == run_experiment(config, threads=3)


@pytest.mark.parametrize("mode", ["interval", "never-apply-h", "always-apply-h"])
def test_accounting_identities(mode):
    config = ExperimentConfig(trials=2000, master_seed=5,
                              rule=DecisionRule(mode=mode))
    for rep in run_experiment(config):
        assert abs(rep.frac_h_applied + rep.frac_no_h - 1.0) < 1e-12
        assert abs(rep.success_given_h + rep.failure_given_h - rep.frac_h_applied) < 1e-12
        assert abs(rep.success_given_no_h + rep.failure_given_no_h - rep.frac_no_h) < 1e-12
        assert abs(rep.success_given_h + rep.success_given_no_h - rep.total_success) < 1e-12
        assert 0 <= rep.tie_count <= rep.trials


@pytest.mark.parametrize("state", ALL_STATES)
def test_batch_engine_matches_scalar_trials(state):
    trials = 400
    config = ExperimentConfig(states=(state,), trials=trials, master_seed=99)
    rep = run_experiment(config)[0]
    params = WalkParams(config.mu)
    n_h = succ = ties = 0
    for i in range(trials):
        out = run_trial(state, params, config.rule, config.r, substream(99, i))
        n_h += out.h_applied
        succ += out.decided_state.bit == state.bit
        ties += out.tie
    assert rep.frac_h_applied == n_h / trials
    assert rep.total_success == succ / trials
    assert rep.tie_count == ties


def test_totals_match_enumeration_at_20k():
    config = ExperimentConfig(trials=20_000, master_seed=42)
    for rep in run_experiment(config, threads=2):
        exact = EXACT_TOTAL[rep.state]
        assert abs(rep.total_success - exact) < three_sigma(exact, config.trials)
        assert abs(rep.frac_h_applied - EXACT_P_H) < three_sigma(EXACT_P_H, config.trials)


def test_always_mode_mu1_matches_enumeration():
    config = ExperimentConfig(states=(StateLabel.PLUS, StateLabel.MINUS),
                              trials=20_000, mu=1, master_seed=42,
                              rule=DecisionRule(mode="always-apply-h"))
    for rep in run_experiment(config):
        assert rep.frac_h_applied == 1.0
        exact = EXACT_ALWAYS_MU1[rep.state]
        assert abs(rep.total_success - exact) < three_sigma(exact, config.trials)


def test_never_mode_mu1():
    config = ExperimentConfig(trials=10_000, mu=1, master_seed=42,
                              rule=DecisionRule(mode="never-apply-h"))
    reports = {rep.state: rep for rep in run_experiment(config)}
    for state in (StateLabel.ZERO, StateLabel.ONE):
        assert reports[state].frac_h_applied == 0.0
        assert reports[state].total_success >= 0.999
    for state in (StateLabel.PLUS, StateLabel.MINUS):
        # superposition states collapse to either computational label
        assert 0.45 <= reports[state].total_success <= 0.55


def test_tie_count_zero_at_odd_r():
    config = ExperimentConfig(trials=2000, r=101, master_seed=8)
    assert all(rep.tie_count == 0 for rep in run_experiment(config))


def test_sweep_points():
    base = ExperimentConfig(trials=4000, master_seed=314)
    points = sweep_mu(base, [1, 2, 3], threads=2)
    assert [p.mu for p in points] == [1, 2, 3]
    for p in points:
        assert 0.0 <= p.success_computational <= 1.0
        assert 0.0 <= p.success_hadamard <= 1.0
    # exact pair means at mu=2: hadamard 0.725729, computational 0.773482
    mid = points[1]
    assert abs(mid.success_hadamard - 0.725729) < three_sigma(0.7257, 2 * base.trials)
    assert abs(mid.success_computational - 0.773482) < three_sigma(0.7735, 2 * base.trials)


def test_sweep_ignores_base_states_subset():
    base = ExperimentConfig(states=(StateLabel.ZERO,), trials=500, master_seed=3)
    points = sweep_mu(base, [2])
    assert len(points) == 1


def test_sweep_rejects_empty():
    with pytest.raises(ValueError):
        sweep_mu(ExperimentConfig(trials=10, master_seed=0), [])


def test_collect_traces_alignment():
    # trace trials reuse the experiment's substreams: trial i is trial i
    config = ExperimentConfig(states=(StateLabel.MINUS,), trials=50, master_seed=12)
    outcomes = collect_traces(config, 50)
    rep = run_experiment(config)[0]
    succ = sum(o.decided_state.bit == StateLabel.MINUS.bit for o in outcomes)
    assert rep.total_success == succ / config.trials
    assert rep.tie_count == sum(o.tie for o in outcomes)


def test_collect_traces_shapes():
    # plain walks (no rotation): from zero the outcome rate stays at
    # cos^2(pi/6) = 0.75, so alpha_approx settles well above one half
    config = ExperimentConfig(states=(StateLabel.ZERO,), trials=100, mu=1,
                              master_seed=4, rule=DecisionRule(mode="never-apply-h"))
    outcomes = collect_traces(config, 3)
    assert len(outcomes) == 3
    for out in outcomes:
        assert len(out.trace) == 100
        assert out.trace[-1][4] > 0.5
    assert collect_traces(config, 0) == []
    with pytest.raises(ValueError):
        collect_traces(config, 101)


def test_collect_traces_minus_bias():
    config = ExperimentConfig(states=(StateLabel.MINUS,), trials=100, master_seed=2)
    outcomes = collect_traces(config, 100)
    below = sum(out.trace[-1][4] < 0.5 for out in outcomes)
    assert below > 50


def test_collect_traces_multi_state_order():
    config = ExperimentConfig(states=(StateLabel.ZERO, StateLabel.ONE),
                              trials=10, master_seed=1)
    outcomes = collect_traces(config, 2)
    assert len(outcomes) == 4
    # states grouped in config order; zero walks keep beta = 0 pre-H
    assert outcomes[0].trace[0][3] in (0.0, -0.0) or outcomes[0].h_applied


def test_phase_report_basis_states_unaffected():
    config = ExperimentConfig(states=(StateLabel.ZERO, StateLabel.ONE),
                              trials=5000, master_seed=7)
    for point in phase_report(config):
        assert point.abs_diff < 1e-6


def test_phase_report_plus_recorded():
    config = ExperimentConfig(states=(StateLabel.PLUS,), trials=5000, master_seed=7)
    point = phase_report(config)[0]
    assert 0.0 <= point.abs_diff <= 0.2
    assert abs(point.total_success_real - EXACT_TOTAL[StateLabel.PLUS]) \
        < three_sigma(0.726, config.trials)


def test_phase_report_deterministic():
    config = ExperimentConfig(trials=1000, master_seed=11)
    assert phase_report(config) == phase_report(config)
    assert phase_report(config) == phase_report(config, threads=4)


def assert_matches_reference(config: ExperimentConfig, threads: int = 2):
    expected = [_build_report(s, config, reference_counts(s, config)) for s in config.states]
    assert run_experiment(config, threads=threads) == expected


def real_jobs(config: ExperimentConfig) -> list:
    return [(s, config.mu, False) for s in config.states]


def row_entries(lanes) -> int:
    """p0 entries in both parity slices of a pass's rows."""
    return sum(p0.size for p0 in lanes.slices)


def reference_grid(test):
    """The (mu, mode, seed) grid of the reference-kernel comparison."""
    test = pytest.mark.parametrize("mu", [0, 1, 2, 5, 10])(test)
    test = pytest.mark.parametrize("mode", ["interval", "never-apply-h", "always-apply-h"])(test)
    return pytest.mark.parametrize("seed", [1, 42])(test)


@reference_grid
def test_counts_equal_reference_kernel(mu, mode, seed):
    assert_matches_reference(ExperimentConfig(trials=1500, mu=mu, master_seed=seed,
                                              rule=DecisionRule(mode=mode)))


@reference_grid
def test_capped_counts_equal_reference_kernel(mu, mode, seed, monkeypatch):
    # with no room for full-reach rows, every row ends where p0 settles
    # and the lookup clamps
    monkeypatch.setattr(experiment, "_ENTRY_CAP", 0)
    config = ExperimentConfig(trials=1500, mu=mu, master_seed=seed, rule=DecisionRule(mode=mode))
    assert _lanes(config, real_jobs(config)).bounds is not None
    assert_matches_reference(config)


EDGE_CONFIGS = {
    "r=1": dict(r=1, rule=DecisionRule(k=1)),
    "odd-r": dict(r=37, rule=DecisionRule(k=5, i1=0.2, i2=0.8)),
    "k=r-interval": dict(r=30, rule=DecisionRule(k=30)),
    "k=r-always": dict(r=30, rule=DecisionRule(k=30, mode="always-apply-h")),
    "interval-on-j0-grid": dict(r=40, rule=DecisionRule(k=4, i1=0.25, i2=0.75)),
    "late-k": dict(r=200, rule=DecisionRule(k=60, mode="always-apply-h")),
    # at mu=0, plus collapses to zero or one and H turns that back into
    # plus: the rows after an odd k hold the start table, laid out
    # for the other parity
    "odd-k-self-restart": dict(r=9, rule=DecisionRule(k=3, mode="always-apply-h")),
}


def edge_grid(test):
    test = pytest.mark.parametrize("edge", sorted(EDGE_CONFIGS))(test)
    return pytest.mark.parametrize("mu", [0, 2, 10])(test)


@edge_grid
def test_edge_counts_equal_reference_kernel(edge, mu):
    assert_matches_reference(ExperimentConfig(trials=1000, mu=mu, master_seed=3,
                                              **EDGE_CONFIGS[edge]))


@edge_grid
def test_capped_edge_counts_equal_reference_kernel(edge, mu, monkeypatch):
    monkeypatch.setattr(experiment, "_ENTRY_CAP", 0)
    config = ExperimentConfig(trials=1000, mu=mu, master_seed=3, **EDGE_CONFIGS[edge])
    assert _lanes(config, real_jobs(config)).bounds is not None
    assert_matches_reference(config)


def test_config_past_the_cap_equals_reference_kernel():
    # always-apply-h from plus at mu=10 restarts from some 240 distinct
    # x0 (restarts at -n and n share one, as do saturated ones), so
    # padding every row out to its reach would pass the cap
    config = ExperimentConfig(states=(StateLabel.PLUS,), trials=20, r=3000, mu=10,
                              master_seed=5, rule=DecisionRule(k=700, mode="always-apply-h"))
    rows, fires, row_of_j0 = _walk_rows(StateLabel.PLUS, WalkParams(config.mu), config.rule,
                                        config.r, phase=False)
    padded = 2 * (config.r + (len(rows) - 1) * (config.r - config.rule.k))
    assert padded > _ENTRY_CAP
    lanes = _lanes(config, real_jobs(config))
    assert lanes.bounds is not None and row_entries(lanes) < _ENTRY_CAP
    # a clamped lookup past a row's end reads its end slot, so both
    # parities there must hold the row's exact edge p0: that of (0,1) at
    # the low end and (1,0) at the high end, or the start's own p0 on a
    # side a basis start cannot leave. The bound tables name those slots:
    # row 0's per job, and the row walked after step k per key (j0 here)
    params = WalkParams(config.mu)
    edge_1, edge_0 = (ax_probabilities(QubitState(*edge), params)[0]
                      for edge in ((0.0, 1.0), (1.0, 0.0)))
    lo_start, hi_start, lo_of_key, hi_of_key = lanes.bounds
    assert fires.all()
    ends = [(rows[0], lo_start[0, 0], hi_start[0, 0])]
    ends += [(rows[i], lo, hi) for i, lo, hi in zip(row_of_j0, lo_of_key, hi_of_key)]
    assert {id(row) for row, _, _ in ends} == {id(row) for row in rows}
    for row, lo, hi in ends:
        assert [p0[lo] for p0 in lanes.slices] == [edge_1 if row.x0 < math.inf else edge_0] * 2
        assert [p0[hi] for p0 in lanes.slices] == [edge_0 if row.x0 > -math.inf else edge_1] * 2
    assert_matches_reference(config)


def test_rows_are_built_out_to_their_reach_only(monkeypatch):
    # a long always-apply-h pass: 501 restarts after H, each read at
    # |n| <= r - 1 - k, and the start row at |n| <= r - 1
    config = ExperimentConfig(states=(StateLabel.PLUS,), trials=10, r=1000, mu=40,
                              master_seed=2, rule=DecisionRule(k=500, mode="always-apply-h"))
    widths = []
    p0 = WalkRow.p0
    monkeypatch.setattr(WalkRow, "p0", lambda row, n: widths.append(n.size) or p0(row, n))
    lanes = _lanes(config, real_jobs(config))
    assert lanes.bounds is None
    # a row stored in parity slices holds at most one count past its reach
    assert widths[0] <= 2 * (config.r - 1) + 2
    assert max(widths[1:]) <= 2 * (config.r - 1 - config.rule.k) + 2
    rows = _walk_rows(StateLabel.PLUS, WalkParams(config.mu), config.rule, config.r, phase=False)[0]
    assert len(widths) == len(rows)
    assert sum(widths) == row_entries(lanes)


@pytest.mark.parametrize("mu,rule", [
    (1, DecisionRule()),
    (2, DecisionRule()),
    (5, DecisionRule(k=7, mode="always-apply-h")),
    (2, DecisionRule(k=4, i1=0.2, i2=0.8)),
    # at mu=2 and k=5 the phase-tracking walk restarts from plus
    # whatever j0 is, so plus's row after this odd k holds its start
    # table; mu=1 runs the same rule without that coincidence
    (1, DecisionRule(k=5, mode="always-apply-h")),
    (2, DecisionRule(k=5, mode="always-apply-h")),
])
def test_phase_variant_matches_complex_amplitudes(mu, rule):
    config = ExperimentConfig(states=(StateLabel.PLUS, StateLabel.MINUS), trials=2000,
                              mu=mu, rule=rule, master_seed=21)
    for point in phase_report(config, threads=2):
        assert point.total_success_complex == reference_phase_success(point.state, config)


@pytest.mark.parametrize("trials,threads", [(3, 8), (10, 4), (7, 7)])
def test_more_threads_than_trials_equal_reference_kernel(trials, threads):
    assert_matches_reference(ExperimentConfig(trials=trials, master_seed=42), threads)


@pytest.mark.parametrize("state", ALL_STATES)
@pytest.mark.parametrize("mu,r,rule", [
    (0, 100, DecisionRule()),
    (2, 25, DecisionRule(k=25)),
    (1, 25, DecisionRule(k=25, mode="always-apply-h")),
    (2, 300, DecisionRule(k=150)),  # a scalar trial draws 3 blocks, H fires in the second
])
def test_scalar_trials_match_batch_at_edges(state, mu, r, rule):
    trials = 300
    config = ExperimentConfig(states=(state,), trials=trials, r=r, mu=mu, rule=rule,
                              master_seed=77)
    rep = run_experiment(config)[0]
    outs = [run_trial(state, WalkParams(mu), rule, r, substream(77, i)) for i in range(trials)]
    assert rep.frac_h_applied == sum(o.h_applied for o in outs) / trials
    assert rep.total_success == sum(o.decided_state.bit == state.bit for o in outs) / trials
    assert rep.tie_count == sum(o.tie for o in outs)


def test_r_past_the_index_range_is_refused_before_any_step():
    # the config itself refuses, so no pass is laid out or stepped
    message = "r=5000000000 is too large: a trial takes at most 1073741823 steps"
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentConfig(trials=1, r=5_000_000_000, master_seed=1)


def test_trial_and_experiment_share_one_range_of_r():
    params = WalkParams(2)
    for r, rule in [(2**30, DecisionRule()), (100, DecisionRule(k=200))]:
        with pytest.raises(ValueError) as trial:
            run_trial(StateLabel.PLUS, params, rule, r, None)
        with pytest.raises(ValueError) as run:
            ExperimentConfig(r=r, rule=rule)
        assert str(run.value) == str(trial.value)
    assert str(trial.value) == "decision iteration k=200 exceeds r=100; need k <= r"
    # both take the largest r: the trial runs up to its first draw
    ExperimentConfig(r=2**30 - 1)

    class FirstDraw(Exception):
        pass

    def uniform():
        raise FirstDraw

    with pytest.raises(FirstDraw):
        run_trial(StateLabel.PLUS, params, DecisionRule(), 2**30 - 1,
                  SimpleNamespace(uniform=uniform))


@pytest.mark.parametrize("mu,rule,cap", [
    (2, DecisionRule(), None),
    (0, DecisionRule(), 0),
    (0, DecisionRule(k=3, mode="always-apply-h"), 0),
    (2, DecisionRule(k=5, i1=0.2, i2=0.8), 0),
])
def test_largest_r_in_the_index_range_equals_reference_kernel(monkeypatch, mu, rule, cap):
    # the largest r lays out its pass from rows that end where p0
    # settles, and each lane's first lookup reads its start's p0; the
    # same config then runs against the reference kernel at a small r
    if cap is not None:
        monkeypatch.setattr(experiment, "_ENTRY_CAP", cap)
    config = ExperimentConfig(trials=500, r=MAX_STEPS, mu=mu, rule=rule, master_seed=13)
    lanes = _lanes(config, real_jobs(config))
    assert lanes.bounds is not None
    first = lanes.lead + lanes.start
    lo, hi = lanes.bounds[:2]
    assert (lo <= first).all() and (first <= hi).all()
    starts = [WalkRow.start(state.to_state(), WalkParams(mu)) for state in config.states]
    assert lanes.slices[0][first].ravel().tolist() == [row.p0(0) for row in starts]
    assert_matches_reference(dataclasses.replace(config, r=23))


def test_tables_do_not_grow_with_r():
    small = ExperimentConfig(trials=20, r=100, mu=10, master_seed=9)
    large = dataclasses.replace(small, r=10_000)
    rows = 0
    for state in ALL_STATES:
        # a row is its start's x0 and signs, whatever the reach
        params = WalkParams(small.mu)
        job_rows, _, _ = _walk_rows(state, params, large.rule, large.r, phase=False)
        assert job_rows == _walk_rows(state, params, small.rule, small.r, phase=False)[0]
        rows += len(job_rows)
    # the lane rows are built out to the reach r, by design
    lanes = _lanes(large, real_jobs(large))
    assert lanes.bounds is None
    assert row_entries(lanes) <= rows * (2 * large.r + 2)
    assert row_entries(lanes) < _ENTRY_CAP
    for rep in run_experiment(large):
        assert rep.trials == 20
        assert abs(rep.success_given_h + rep.failure_given_h - rep.frac_h_applied) < 1e-12
        assert abs(rep.success_given_no_h + rep.failure_given_no_h - rep.frac_no_h) < 1e-12
        assert abs(rep.success_given_h + rep.success_given_no_h - rep.total_success) < 1e-12
        assert 0 <= rep.tie_count <= rep.trials


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_rejected(threads):
    config = ExperimentConfig(trials=10, master_seed=1)
    with pytest.raises(ValueError, match="threads"):
        run_experiment(config, threads=threads)
    with pytest.raises(ValueError, match="threads"):
        sweep_mu(config, [1], threads=threads)
    with pytest.raises(ValueError, match="threads"):
        phase_report(config, threads=threads)


@pytest.mark.parametrize("trials,jobs,threads,workers", [
    # a mu sweep: 400k lanes in all, though one job holds 10k; it runs as
    # 12 chunks of 833 trials, the most that each reach _FANOUT_LANES
    (10_000, 40, 2, 2),
    (10_000, 40, 3, 3),
    (100_000, 4, 1, 1),
    (100_000, 4, 2, 2),
    (100_000, 4, 3, 3),
    # 12 chunks of 8333 trials, 3 a worker; four chunks of 25k lanes
    # would each hold fewer than _FANOUT_LANES
    (100_000, 4, 4, 4),
    (100_000, 1, 4, 3),  # 100k lanes hold three chunks of _FANOUT_LANES, not four
    (65_536, 1, 2, 2),
    (65_535, 1, 2, 1),
    (1_000_000, 40, 8, 8),
    # 8M lanes: 240 chunks of 833 trials, 30 a worker
    (200_000, 40, 8, 8),
    (1, 40, 8, 1),
    (3, 8, 8, 1),
    # more jobs than trials: one trial per chunk, each past _FANOUT_LANES
    (2, 70_000, 4, 2),
    # ... as many a worker, so 6 trials share out to 3 workers, and 5 to 1
    (6, 70_000, 4, 3),
    (5, 70_000, 4, 1),
    (16_000_000, 4, 2, 2),  # chunks stop at _CHUNK_LANES, however many trials
    # passes of at most _FANOUT_LANES lanes run as one chunk
    (10, 40, 1, 1),
    (1000, 4, 2, 1),
])
def test_chunk_plan(trials, jobs, threads, workers):
    got, chunks = _chunk_plan(trials, jobs, threads)
    assert got == workers
    starts = [start for start, _ in chunks]
    sizes = [size for _, size in chunks]
    assert min(sizes) >= 1
    assert starts == [sum(sizes[:c]) for c in range(len(chunks))]
    assert sum(sizes) == trials
    # live lanes: as many as one job alone needs or a pass too small to
    # share, or, where the pass fans out wider, chunks of at most twice
    # the trials that reach _FANOUT_LANES
    live = min(workers, len(chunks)) * max(sizes) * jobs
    fewest = -(-_FANOUT_LANES // jobs)
    assert (live <= max(trials, jobs, _FANOUT_LANES)
            or (workers > 1 and max(sizes) <= 2 * fewest))
    if trials * jobs <= _FANOUT_LANES:
        assert chunks == [(0, trials)]
    if jobs <= _CHUNK_LANES:
        assert max(sizes) * jobs <= _CHUNK_LANES
    assert len(chunks) % workers == 0  # every worker runs as many chunks
    if workers > 1:
        assert len(chunks) >= workers
        assert min(sizes) * jobs >= _FANOUT_LANES


@pytest.fixture
def pool_sizes(monkeypatch) -> list[int]:
    """The max_workers of every thread pool the engine starts."""
    sizes = []

    class CountingPool(experiment.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(experiment, "ThreadPoolExecutor", CountingPool)
    return sizes


def test_fanned_out_pass_equals_serial_and_reference(pool_sizes):
    config = ExperimentConfig(trials=70_000, r=3, master_seed=6,
                              rule=DecisionRule(k=2, i1=0.2, i2=0.8))
    assert _chunk_plan(config.trials, len(config.states), 2)[0] == 2
    expected = [_build_report(s, config, reference_counts(s, config)) for s in config.states]
    for threads in (1, 2, 3):
        assert run_experiment(config, threads=threads) == expected
    # 280k lanes: six chunks of 46 668 at three threads
    assert pool_sizes == [2, 3]


def test_fanned_out_sweep_equals_serial_and_reference(pool_sizes):
    # 40 jobs of 10k trials: no job alone holds _FANOUT_LANES lanes, but
    # the pass's 400k lanes fill three chunks of them
    base = ExperimentConfig(trials=10_000, r=6, master_seed=11,
                            rule=DecisionRule(k=3, i1=0.2, i2=0.8))
    mu_values = range(1, 11)
    expected = []
    for mu in mu_values:
        at_mu = dataclasses.replace(base, mu=mu)
        ts = {s: _build_report(s, at_mu, reference_counts(s, at_mu)).total_success
              for s in ALL_STATES}
        expected.append(SweepPoint(mu, (ts[StateLabel.ZERO] + ts[StateLabel.ONE]) / 2,
                                   (ts[StateLabel.PLUS] + ts[StateLabel.MINUS]) / 2))
    for threads in (1, 2, 3):
        assert sweep_mu(base, mu_values, threads=threads) == expected
    assert pool_sizes == [2, 3]


def test_fanned_out_phase_report_equals_serial_and_reference(pool_sizes):
    # 4 states, each walked twice: 8 jobs of 12 300 trials, enough lanes
    # for three chunks of _FANOUT_LANES
    config = ExperimentConfig(trials=12_300, r=7, mu=2, master_seed=12,
                              rule=DecisionRule(k=3, mode="always-apply-h"))
    expected = []
    for state in config.states:
        real = reference_counts(state, config)
        ts_real = (real[1] + real[2]) / config.trials
        ts_cplx = reference_phase_success(state, config)
        expected.append(PhasePoint(state, ts_real, ts_cplx, abs(ts_real - ts_cplx)))
    for threads in (1, 2, 3):
        assert phase_report(config, threads=threads) == expected
    assert pool_sizes == [2, 3]


# Unequal chunks, keyed by the widest: in each half the second chunk is
# the widest, so a worker's buffers are sized by a chunk it runs later.
UNEQUAL_CHUNKS = {
    400: [(0, 300), (300, 400), (700, 37), (737, 300)],
    7: [(0, 5), (5, 7), (12, 3), (15, 7)],
}


@pytest.mark.parametrize("widest", sorted(UNEQUAL_CHUNKS))
@pytest.mark.parametrize("cap", [None, 0])
@pytest.mark.parametrize("threads", [1, 2])
def test_reused_buffers_over_unequal_chunks_equal_reference_kernel(
        widest, cap, threads, monkeypatch):
    # one worker runs every chunk (threads=1) or two chunks each
    # (threads=2), in buffers sized for its widest chunk
    chunks = UNEQUAL_CHUNKS[widest]
    monkeypatch.setattr(experiment, "_chunk_plan", lambda trials, jobs, threads: (threads, chunks))
    if cap is not None:
        monkeypatch.setattr(experiment, "_ENTRY_CAP", cap)
    # a block draws min(r, jobs) steps, so one to three states draw 1, 2
    # and 3 steps per block at r = 11: blocks end mid-walk and, at 2
    # steps, exactly at step k = 4
    for states in (ALL_STATES[:1], ALL_STATES[1:3], ALL_STATES[1:]):
        for mode in MODES:
            config = ExperimentConfig(states=states, trials=sum(size for _, size in chunks),
                                      r=11, mu=2, master_seed=8,
                                      rule=DecisionRule(k=4, i1=0.2, i2=0.8, mode=mode))
            assert (_lanes(config, real_jobs(config)).bounds is not None) == (cap == 0)
            assert_matches_reference(config, threads)


def traced_peak(config: ExperimentConfig) -> int:
    """Peak bytes numpy and Python allocate during one _job_counts call,
    less the pass's p0 rows; at these r the temporaries that evaluate the
    rows in closed form are far smaller than the lane buffers."""
    jobs = real_jobs(config)
    _job_counts(config, jobs, 1)
    tracemalloc.start()
    try:
        _job_counts(config, jobs, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(p0.nbytes for p0 in _lanes(config, jobs).slices)  # they grow with r


@pytest.mark.parametrize("cap", [None, 0])
def test_pass_memory_is_fixed_buffers(cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(experiment, "_ENTRY_CAP", cap)
    config = ExperimentConfig(trials=20_000, r=50, master_seed=4)
    workers, chunks = _chunk_plan(config.trials, 4, 1)
    size = chunks[0][1]
    # a block draws min(r, jobs) steps, so no more uniforms than the
    # chunk has lanes
    depth = min(config.r, 4)
    # 80k lanes: as many live as _FANOUT_LANES allows, 3 chunks
    assert (workers, len(chunks), size) == (1, 3, 6666)
    # per lane: g and shift (8 bytes each), the outcome and H flags (1 each),
    # the looked-up p0, which is also the mixer's work (8), and, when the
    # lookup clamps, its slot and the row's bounds (8 each); per draw of
    # a block: the uniforms (8); per trial of a chunk: its substream
    # states and substream_states' temporaries; and numpy's fixed-size
    # cast buffers
    per_lane = 26 + (24 if cap == 0 else 0)
    bound = per_lane * 4 * size + 8 * depth * size + 48 * size + (1 << 16)
    peaks = [traced_peak(dataclasses.replace(config, r=r)) for r in (50, 400)]
    assert max(peaks) <= bound
    assert peaks[1] <= peaks[0] + 4096


@pytest.mark.parametrize("cap", [None, 0])
def test_steps_allocate_nothing(cap, monkeypatch):
    # between two draws of a chunk the lanes take their steps; traced
    # memory must come back to where it was, and its peak may rise by
    # numpy's cast buffer (64 KiB) but not by one lane array
    if cap is not None:
        monkeypatch.setattr(experiment, "_ENTRY_CAP", cap)
    config = ExperimentConfig(trials=40_000, r=60, master_seed=4)
    size = _chunk_plan(config.trials, 4, 1)[1][0][1]
    lanes, depth = 4 * size, min(config.r, 4)
    marks = []

    def chunk_start(*args):
        marks.append(None)
        return substream_states(*args)

    def draw(*args):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return batch_uniform(*args)

    _job_counts(config, real_jobs(config), 1)
    monkeypatch.setattr(experiment, "substream_states", chunk_start)
    monkeypatch.setattr(experiment, "batch_uniform", draw)
    tracemalloc.start()
    try:
        _job_counts(config, real_jobs(config), 1)
    finally:
        tracemalloc.stop()
    blocks = [(a, b) for a, b in zip(marks, marks[1:]) if a and b]
    assert len(blocks) == 4 * (-(-config.r // depth) - 1)  # chunks * (blocks - 1)
    for (current, _), (after, peak) in blocks:
        assert abs(after - current) <= 1024  # a few array views, not arrays
        assert peak - current <= (1 << 16) + 4096 < 8 * lanes


@st.composite
def legal_runs(draw):
    """A legal (config, threads, mu list): small walks, every mode,
    interval bounds on and off the j0/k grid, states in any order and
    repeated, and thread counts above the trial count."""
    r = draw(st.integers(1, 60))
    k = draw(st.integers(1, r))
    bound = st.one_of(st.sampled_from([j0 / k for j0 in range(k + 1)]),
                      st.floats(0.0, 1.0))
    i1, i2 = sorted(draw(st.lists(bound, min_size=2, max_size=2, unique=True)))
    mu = st.integers(0, 6)
    config = ExperimentConfig(
        states=tuple(draw(st.lists(st.sampled_from(ALL_STATES), min_size=1, max_size=6))),
        trials=draw(st.integers(1, 40)), r=r, mu=draw(mu),
        rule=DecisionRule(k=k, i1=i1, i2=i2, mode=draw(st.sampled_from(MODES))),
        master_seed=draw(st.integers(0, 2**64 - 1)))
    return config, draw(st.integers(1, 4)), draw(st.lists(mu, min_size=1, max_size=3))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(legal_runs())
def test_legal_configs_agree_across_paths(run):
    # a block draws min(r, jobs) steps: one to six for the states of
    # run_experiment, so blocks end mid-walk at r up to 60
    check_paths_agree(*run)


def check_paths_agree(config: ExperimentConfig, threads: int, mu_values: list[int]):
    reports = run_experiment(config, threads=threads)
    params = WalkParams(config.mu)
    for state, rep in zip(config.states, reports):
        counts = reference_counts(state, config)
        assert rep == _build_report(state, config, counts)
        outs = [run_trial(state, params, config.rule, config.r,
                          substream(config.master_seed, i)) for i in range(config.trials)]
        n_h, succ_h, succ_noh, ties = counts
        assert sum(o.h_applied for o in outs) == n_h
        assert sum(o.decided_state.bit == state.bit for o in outs) == succ_h + succ_noh
        assert sum(o.tie for o in outs) == ties
        assert abs(rep.frac_h_applied + rep.frac_no_h - 1.0) < 1e-12
        assert abs(rep.success_given_h + rep.failure_given_h - rep.frac_h_applied) < 1e-12
        assert abs(rep.success_given_no_h + rep.failure_given_no_h - rep.frac_no_h) < 1e-12
        assert abs(rep.success_given_h + rep.success_given_no_h - rep.total_success) < 1e-12
        assert 0 <= rep.tie_count <= rep.trials

    # one pass over every (mu, state) gives what each run alone gives
    expected = []
    for mu in mu_values:
        at_mu = dataclasses.replace(config, mu=mu)
        ts = {s: _build_report(s, at_mu, reference_counts(s, at_mu)).total_success
              for s in ALL_STATES}
        expected.append(SweepPoint(mu, (ts[StateLabel.ZERO] + ts[StateLabel.ONE]) / 2,
                                   (ts[StateLabel.PLUS] + ts[StateLabel.MINUS]) / 2))
    assert sweep_mu(config, mu_values, threads=threads) == expected

    # phase_report's one pass gives what each (state, variant) gives as
    # the only job of a pass
    for point in phase_report(config, threads=threads):
        alone = [_job_counts(config, [(point.state, config.mu, phase)], 1)[0]
                 for phase in (False, True)]
        assert point.total_success_real == (alone[0][1] + alone[0][2]) / config.trials
        assert point.total_success_complex == (alone[1][1] + alone[1][2]) / config.trials
