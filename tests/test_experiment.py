import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdwalk.experiment as experiment
from qsdwalk.discriminate import MODES, DecisionRule, StateLabel, run_trial
from qsdwalk.experiment import (
    _ENTRY_CAP,
    _FANOUT_LANES,
    ExperimentConfig,
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
from qsdwalk.gates import SQRT2, PhaseRoot
from qsdwalk.rng import batch_uniform, substream, substream_states
from qsdwalk.walk import WalkParams, step_arrays

ALL_STATES = (StateLabel.ZERO, StateLabel.ONE, StateLabel.PLUS, StateLabel.MINUS)

# exact values from branch enumeration at the decision point followed by
# a binomial-mixture recursion over the remaining iterations
# (default rule: mu=2, r=100, k=2, interval (0,1))
EXACT_TOTAL = {
    StateLabel.ZERO: 0.7737454492538175,
    StateLabel.ONE: 0.773218841926252,
    StateLabel.PLUS: 0.7259927928490499,
    StateLabel.MINUS: 0.7254661855214846,
}
EXACT_P_H = 0.45225424859373686
# always-apply-h at mu=1 settles at 0.875 exactly up to r-step leakage
EXACT_ALWAYS_MU1 = {StateLabel.PLUS: 0.8749999832256395,
                    StateLabel.MINUS: 0.8749998984922417}


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


def reference_counts(state: StateLabel, config: ExperimentConfig) -> tuple[int, int, int, int]:
    """The batch kernel as it was before the count-indexed tables: the
    amplitude arrays are stepped with walk.step_arrays and rotated in
    place by H at step k."""
    init = state.to_state()
    factors = WalkParams(config.mu).factors
    rule = config.rule
    streams = substream_states(config.master_seed, 0, config.trials)
    alpha = np.full(config.trials, init.alpha)
    beta = np.full(config.trials, init.beta)
    j0 = np.zeros(config.trials, dtype=np.int64)
    h = np.zeros(config.trials, dtype=bool)
    for j in range(1, config.r + 1):
        u = batch_uniform(streams)
        out0, alpha, beta = step_arrays(alpha, beta, factors, u)
        j0 += out0
        if j == rule.k:
            if rule.mode == "always-apply-h":
                h = np.ones(config.trials, dtype=bool)
            elif rule.mode == "interval":
                h = (j0 / rule.k > rule.i1) & (j0 / rule.k < rule.i2)
            ha = (alpha + beta) / SQRT2
            hb = (alpha - beta) / SQRT2
            alpha = np.where(h, ha, alpha)
            beta = np.where(h, hb, beta)
    j1 = config.r - j0
    success = (j1 > j0) == bool(state.bit)
    return (int(np.count_nonzero(h)),
            int(np.count_nonzero(h & success)),
            int(np.count_nonzero(~h & success)),
            int(np.count_nonzero(j0 == j1)))


def reference_phase_success(state: StateLabel, config: ExperimentConfig) -> float:
    """Success rate of the phase-tracking walk with complex amplitudes
    stepped by the factors (1 +- k^d)/2, as the engine ran it before the
    variant became a post-H table."""
    params = WalkParams(config.mu)
    k0 = PhaseRoot(params.t, params.d0).value
    k1 = PhaseRoot(params.t, params.d1).value
    f00, f01, f10, f11 = (1 + k0) / 2, (1 + k1) / 2, (1 - k0) / 2, (1 - k1) / 2
    init = state.to_state()
    rule = config.rule
    streams = substream_states(config.master_seed, 0, config.trials)
    ac = np.full(config.trials, init.alpha, dtype=complex)
    bc = np.full(config.trials, init.beta, dtype=complex)
    j0 = np.zeros(config.trials, dtype=np.int64)
    for j in range(1, config.r + 1):
        u = batch_uniform(streams)
        a0, b0, a1, b1 = ac * f00, bc * f01, ac * f10, bc * f11
        p0 = a0.real ** 2 + a0.imag ** 2 + b0.real ** 2 + b0.imag ** 2
        p1 = a1.real ** 2 + a1.imag ** 2 + b1.real ** 2 + b1.imag ** 2
        out0 = u < p0
        norm = np.sqrt(np.where(out0, p0, p1))
        ac = np.where(out0, a0, a1) / norm
        bc = np.where(out0, b0, b1) / norm
        j0 += out0
        if j == rule.k:
            h = (j0 / rule.k > rule.i1) & (j0 / rule.k < rule.i2)
            if rule.mode != "interval":
                h[:] = rule.mode == "always-apply-h"
            ac, bc = np.where(h, (ac + bc) / SQRT2, ac), np.where(h, (ac - bc) / SQRT2, bc)
    success = (config.r - j0 > j0) == bool(state.bit)
    return int(np.count_nonzero(success)) / config.trials


def assert_matches_reference(config: ExperimentConfig, threads: int = 2):
    expected = [_build_report(s, config, reference_counts(s, config)) for s in config.states]
    assert run_experiment(config, threads=threads) == expected


def real_jobs(config: ExperimentConfig) -> list:
    return [(s, config.mu, False) for s in config.states]


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
    # with no room for padding, every row is cut where p0 settles and
    # the lookup clamps
    monkeypatch.setattr(experiment, "_ENTRY_CAP", 0)
    config = ExperimentConfig(trials=1500, mu=mu, master_seed=seed, rule=DecisionRule(mode=mode))
    assert _lanes(config, real_jobs(config)).clamp
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
    assert _lanes(config, real_jobs(config)).clamp
    assert_matches_reference(config)


def test_config_past_the_cap_equals_reference_kernel():
    # always-apply-h from plus restarts from some 300 distinct states,
    # so padding every row out to its reach would pass the cap
    config = ExperimentConfig(states=(StateLabel.PLUS,), trials=20, r=3000, mu=6,
                              master_seed=5, rule=DecisionRule(k=700, mode="always-apply-h"))
    tables, _, _ = _walk_rows(StateLabel.PLUS, config, phase=False)
    padded = 2 * (config.r + (len(tables) - 1) * (config.r - config.rule.k))
    assert padded > _ENTRY_CAP
    lanes = _lanes(config, real_jobs(config))
    assert lanes.clamp and lanes.p0.size < _ENTRY_CAP
    assert_matches_reference(config)


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


def test_tables_do_not_grow_with_r():
    small = ExperimentConfig(trials=20, r=100, mu=10, master_seed=9)
    large = dataclasses.replace(small, r=10_000)
    rows = 0
    for state in ALL_STATES:
        tables, _, _ = _walk_rows(state, large, phase=False)
        assert [t.p0.size for t in tables] == \
            [t.p0.size for t in _walk_rows(state, small, phase=False)[0]]
        assert all(t.lo < 1000 and t.hi < 1000 for t in tables)
        rows += len(tables)
    # the lane rows are padded out to the reach r, by design
    lanes = _lanes(large, real_jobs(large))
    assert not lanes.clamp
    assert lanes.p0.size <= rows * (2 * large.r + 2)
    assert lanes.p0.size < _ENTRY_CAP
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
    (10_000, 40, 2, 1),  # a mu sweep: 10k lanes in all, too few to share
    (100_000, 4, 1, 1),
    (100_000, 4, 2, 2),
    (100_000, 4, 4, 2),  # three chunks at a time would hold < _FANOUT_LANES each
    (65_536, 1, 2, 2),
    (65_535, 1, 2, 1),
    (1_000_000, 40, 8, 8),
    (200_000, 40, 8, 6),
    (1, 40, 8, 1),
    (3, 8, 8, 1),
    (2, 70_000, 4, 1),  # more jobs than trials: one trial per chunk, one at a time
])
def test_chunk_plan(trials, jobs, threads, workers):
    got, chunks = _chunk_plan(trials, jobs, threads)
    assert got == workers
    starts = [start for start, _ in chunks]
    sizes = [size for _, size in chunks]
    assert min(sizes) >= 1
    assert starts == [sum(sizes[:c]) for c in range(len(chunks))]
    assert sum(sizes) == trials
    assert min(workers, len(chunks)) * max(sizes) * jobs <= max(trials, jobs)
    if workers > 1:
        assert len(chunks) >= workers
        assert min(sizes) * jobs >= _FANOUT_LANES


def test_fanned_out_pass_equals_serial_and_reference(monkeypatch):
    config = ExperimentConfig(trials=70_000, r=3, master_seed=6,
                              rule=DecisionRule(k=2, i1=0.2, i2=0.8))
    assert _chunk_plan(config.trials, len(config.states), 2)[0] == 2
    pools = []

    class CountingPool(experiment.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(experiment, "ThreadPoolExecutor", CountingPool)
    expected = [_build_report(s, config, reference_counts(s, config)) for s in config.states]
    for threads in (1, 2, 3):
        assert run_experiment(config, threads=threads) == expected
    assert pools == [2, 2]


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
    # blocks of at most 7 draws: at up to 40 trials, a block of the
    # default size would always hold the whole walk
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "_DRAW_BLOCK", 7)
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
