import dataclasses
import functools
import itertools
import json
import math
import re
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdwalk.discriminate as discriminate
import qsdwalk.experiment as experiment
from qsdwalk.cli import main
from qsdwalk.discriminate import (MAX_STEPS, MODES, Binomial, DecisionRule, StateLabel,
                                  count_law, decide, draw_thresholds, run_trial, trial_tables)
from qsdwalk.experiment import (
    _CHUNK_TRIALS,
    ExperimentConfig,
    PhasePoint,
    SweepPoint,
    _build_report,
    _job_counts,
    collect_traces,
    phase_report,
    run_experiment,
    sweep_mu,
)
from qsdwalk.oracle import walk_agreement
from qsdwalk.rng import substream
from qsdwalk.walk import WalkParams, WalkRow

from reference import (
    EXACT_ALWAYS_MU1,
    EXACT_P_H,
    EXACT_TOTAL,
    reference_counts,
    reference_phase_success,
    threshold_sets,
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
    # a name or a code in place of a StateLabel was accepted, and the pass
    # then died on an AttributeError; so did a rule that is no DecisionRule
    for states in (("zero",), (0,), (StateLabel.PLUS, 3), "plus"):
        with pytest.raises(ValueError, match="^states must hold StateLabel members, got "):
            ExperimentConfig(states=states)
    for rule in (None, "default", (2, 0.0, 1.0, "interval")):
        with pytest.raises(ValueError, match="^rule must be a DecisionRule, got "):
            ExperimentConfig(rule=rule)


SIZES = {
    "WalkParams.mu": (lambda v: WalkParams(v), "mu"),
    "DecisionRule.k": (lambda v: DecisionRule(k=v), "decision iteration k"),
    "ExperimentConfig.mu": (lambda v: ExperimentConfig(mu=v), "mu"),
    "ExperimentConfig.trials": (lambda v: ExperimentConfig(trials=v), "trials"),
    "ExperimentConfig.r": (lambda v: ExperimentConfig(r=v), "r"),
    "run_trial.r": (lambda v: run_trial(StateLabel.PLUS, WalkParams(2), DecisionRule(), v,
                                        substream(0, 0)), "r"),
    "walk_agreement.cases": (lambda v: walk_agreement(v, 2, 5, 1), "cases"),
    "walk_agreement.mu_max": (lambda v: walk_agreement(10, v, 5, 1), "mu_max"),
    "walk_agreement.max_steps": (lambda v: walk_agreement(10, 2, v, 1), "max_steps"),
    # True ran one trace per state and 2.0 failed with range()'s TypeError
    "collect_traces.sample_count": (lambda v: collect_traces(ExperimentConfig(trials=5), v),
                                    "sample_count"),
}


@pytest.mark.parametrize("field", sorted(SIZES))
@pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), "3", True, None],
                         ids=["2.5", "3.0", "np-3.0", "str-3", "True", "None"])
def test_sizes_that_are_not_integers_are_refused(field, value):
    # mu = 2.5 ran a walk of 2.5 dummy qubits and r = 100.5 failed with
    # an IndexError inside the tables; Python and numpy integers pass
    build, name = SIZES[field]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        build(value)
    build(np.int64(3))
    build(3)


def test_narrow_numpy_sizes_are_kept_as_python_ints():
    # in their own dtype t = 2 mu + 1 overflowed int8 at mu = 100, and
    # k + 1 = 128 wrapped to -128, so the tables of k = 127 asked numpy for
    # arrays of negative dimension
    assert WalkParams(np.int8(100)).t == 201
    rule = DecisionRule(k=np.int8(127), mode="always-apply-h")
    tables = trial_tables(StateLabel.PLUS, WalkParams(2), rule, 200)
    assert tables.zero_after.shape == (2, 128) and tables.fires.all()
    narrow = ExperimentConfig(trials=np.int16(300), r=np.int8(101), mu=np.uint8(2),
                              master_seed=np.uint64(2**64 - 1), rule=DecisionRule(k=np.int8(3)))
    sizes = (narrow.trials, narrow.r, narrow.mu, narrow.master_seed, narrow.rule.k,
             WalkParams(np.int8(100)).mu)
    assert [type(v) for v in sizes] == [int] * 6
    wide = ExperimentConfig(trials=300, r=101, mu=2, master_seed=2**64 - 1,
                            rule=DecisionRule(k=3))
    assert narrow == wide
    assert run_experiment(narrow) == run_experiment(wide)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_out_of_range_master_seed_rejected(seed):
    # masked to 64 bits, these would replay seeds 2^64 - 1, 0 and 5
    with pytest.raises(ValueError, match=rf"master_seed must be in 0..2\^64-1, got {seed}$"):
        ExperimentConfig(master_seed=seed)
    assert ExperimentConfig(master_seed=2**64 - 1).master_seed == 2**64 - 1


def test_determinism():
    config = ExperimentConfig(trials=3000, master_seed=17)
    assert run_experiment(config) == run_experiment(config)


def test_thread_count_does_not_change_reports(capsys):
    # the commands still take --threads, and every run is one serial pass
    # whatever it says: each prints the same bytes at 1, 3 and 4 threads
    for argv in (["experiment", "--trials", "5000", "--seed", "23"],
                 ["sweep", "--mu", "1..3", "--trials", "2000", "--seed", "23"]):
        outs = set()
        for threads in ("1", "3", "4"):
            assert main(argv + ["--threads", threads]) == 0
            outs.add(capsys.readouterr().out)
        assert len(outs) == 1, argv


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
    for rep in run_experiment(config):
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
    points = sweep_mu(base, [1, 2, 3])
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


@pytest.mark.parametrize("r", [2**20 + 1, 2**30 - 1])
def test_collect_traces_refuses_r_past_the_trace_bound(r, monkeypatch):
    # every traced trial would keep r rows (2^30 - 1 of them about 400
    # GiB), so the bound is checked once, before any substream is drawn
    def draw(*args):
        raise AssertionError("drew past the bound")

    monkeypatch.setattr(experiment, "substream", draw)
    message = f"r={r} is too large for trial: its trace holds at most 1048576 steps"
    for samples in (0, 1):
        with pytest.raises(ValueError, match=f"^{message}$"):
            collect_traces(ExperimentConfig(r=r, trials=1), samples)


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




def real_jobs(config: ExperimentConfig) -> list:
    return [(s, config.mu, False) for s in config.states]


def z_score(a: int, b: int, n: int) -> float:
    """Two-sample z of counts a and b, each out of n trials; 0 where both
    sit at 0 or at n, as a rate of 0 or 1 has no spread."""
    pooled = (a + b) / (2 * n)
    if pooled in (0.0, 1.0):
        return 0.0
    return abs(a - b) / math.sqrt(2 * n * pooled * (1 - pooled))


def assert_agrees_with_reference(config: ExperimentConfig):
    """Each of the four counts of every state lies within 4 sigma of the
    stepped reference kernel's. The two read the same substreams in
    unlike ways, so this holds them to one law, not to one record."""
    for state, got in zip(config.states, _job_counts(config, real_jobs(config))):
        want = reference_counts(state, config)
        for a, b in zip(got, want):
            assert z_score(a, b, config.trials) < 4, (state, got, want)


def counts_over_full_support(config: ExperimentConfig, monkeypatch) -> list:
    """The counts of a pass whose count laws hold every count 0..n,
    with no window cut off at their tails."""
    monkeypatch.setattr(discriminate, "_HOEFFDING", 1e12)
    count_law.cache_clear()
    trial_tables.cache_clear()
    try:
        return _job_counts(config, real_jobs(config))
    finally:
        monkeypatch.undo()
        count_law.cache_clear()
        trial_tables.cache_clear()


def assert_windows_cut_nothing(config: ExperimentConfig, monkeypatch):
    # the windows drop less than 2^-59 of a law's mass, and a threshold
    # past one clamps to 0 or 1, so no trial decides otherwise
    windowed = _job_counts(config, real_jobs(config))
    assert counts_over_full_support(config, monkeypatch) == windowed


def reference_grid(test):
    """The (mu, mode, seed) grid of the reference-kernel comparison."""
    test = pytest.mark.parametrize("mu", [0, 1, 2, 5, 10])(test)
    test = pytest.mark.parametrize("mode", ["interval", "never-apply-h", "always-apply-h"])(test)
    return pytest.mark.parametrize("seed", [1, 42])(test)


@reference_grid
def test_counts_equal_reference_kernel(mu, mode, seed):
    assert_agrees_with_reference(ExperimentConfig(trials=1500, mu=mu, master_seed=seed,
                                                  rule=DecisionRule(mode=mode)))


@reference_grid
def test_capped_counts_equal_reference_kernel(mu, mode, seed, monkeypatch):
    # the count laws are capped to the window where their mass is not
    # negligible; laws over every count are the reference they must match
    config = ExperimentConfig(trials=1500, mu=mu, master_seed=seed, rule=DecisionRule(mode=mode))
    if mu:  # at r = 100 the window after step k cuts the low tail off
        assert count_law(WalkParams(mu), 2, 100).after_k[0].lo > 0
    assert_windows_cut_nothing(config, monkeypatch)


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
    assert_agrees_with_reference(ExperimentConfig(trials=1000, mu=mu, master_seed=3,
                                                  **EDGE_CONFIGS[edge]))


@edge_grid
def test_capped_edge_counts_equal_reference_kernel(edge, mu, monkeypatch):
    config = ExperimentConfig(trials=1000, mu=mu, master_seed=3, **EDGE_CONFIGS[edge])
    assert_windows_cut_nothing(config, monkeypatch)


def test_config_past_the_cap_equals_reference_kernel():
    # always-apply-h from plus at mu=10 restarts from some 240 distinct
    # x0 (restarts at -n and n share an x0 but not their signs, and
    # saturated ones share theirs): the config with the most distinct
    # mixtures after H, where each j0 restarts in its own row
    config = ExperimentConfig(states=(StateLabel.PLUS,), trials=2000, r=3000, mu=10,
                              master_seed=5, rule=DecisionRule(k=700, mode="always-apply-h"))
    tables = trial_tables(StateLabel.PLUS, WalkParams(config.mu), config.rule, config.r)
    assert tables.fires.all()
    assert len(set(tables.restart.x0.tolist())) > 200
    restart = tables.restart.alpha2.tolist()
    assert tables.zero_after.tolist() == [restart, restart]
    assert_agrees_with_reference(config)


def test_rows_are_built_out_to_their_reach_only(monkeypatch):
    # a long always-apply-h pass: 501 restarts after H. The batch engine
    # evaluates each walk's states once, at the k + 1 counts H may rotate,
    # and then reads alpha^2 of each row's start; the trial's trace reads
    # its rows at |n| <= r, and at |n| <= r - k after H
    config = ExperimentConfig(states=(StateLabel.PLUS,), trials=10, r=1000, mu=40,
                              master_seed=2, rule=DecisionRule(k=500, mode="always-apply-h"))
    widths = []
    amplitudes = WalkRow.amplitudes
    monkeypatch.setattr(WalkRow, "amplitudes",
                        lambda row, n: widths.append(np.size(n)) or amplitudes(row, n))
    trial_tables.cache_clear()
    discriminate.walk_lists.cache_clear()
    try:
        run_experiment(config)
        assert widths == [config.rule.k + 1]
        widths.clear()
        run_trial(StateLabel.PLUS, WalkParams(config.mu), config.rule, config.r,
                  substream(config.master_seed, 0))
        assert widths[0] <= 2 * config.r + 1
        assert max(widths[1:]) <= 2 * (config.r - config.rule.k) + 1
    finally:
        trial_tables.cache_clear()


@pytest.mark.parametrize("mu,rule", [
    (1, DecisionRule()),
    (2, DecisionRule()),
    (5, DecisionRule(k=7, mode="always-apply-h")),
    (2, DecisionRule(k=4, i1=0.2, i2=0.8)),
    # at mu=2 and k=5 the phase-tracking walk restarts from plus
    # whatever j0 is; mu=1 runs the same rule without that coincidence
    (1, DecisionRule(k=5, mode="always-apply-h")),
    (2, DecisionRule(k=5, mode="always-apply-h")),
])
def test_phase_variant_matches_complex_amplitudes(mu, rule):
    config = ExperimentConfig(states=(StateLabel.PLUS, StateLabel.MINUS), trials=2000,
                              mu=mu, rule=rule, master_seed=21)
    for point in phase_report(config):
        got = round(point.total_success_complex * config.trials)
        want = round(reference_phase_success(point.state, config) * config.trials)
        assert z_score(got, want, config.trials) < 4, (point, want)


@pytest.mark.parametrize("trials,threads", [(3, 8), (10, 4), (7, 7)])
def test_more_threads_than_trials_equal_reference_kernel(trials, threads, capsys):
    # a few trials are too few for a z-test, so the scalar trial is the
    # kernel they are held to, trial by trial; the command prints the
    # pass's report whatever --threads asks for
    config = ExperimentConfig(trials=trials, master_seed=42)
    check_paths_agree(config, [config.mu])
    assert main(["experiment", "--trials", str(trials), "--threads", str(threads),
                 "--seed", "42"]) == 0
    records = json.loads(capsys.readouterr().out)
    for rec, rep in zip(records, run_experiment(config), strict=True):
        assert rec["state"] == str(rep.state)
        assert (rec["frac_h_applied"], rec["total_success"], rec["tie_count"]) == \
            (rep.frac_h_applied, rep.total_success, rep.tie_count)


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
    # a run takes the largest r; a trial, which keeps a trace row a step,
    # takes 2^20 and runs up to its first draw
    ExperimentConfig(r=2**30 - 1)
    with pytest.raises(ValueError, match="^r=1073741823 is too large for trial: "):
        run_trial(StateLabel.PLUS, params, DecisionRule(), 2**30 - 1, None)

    class FirstDraw(Exception):
        pass

    def uniform():
        raise FirstDraw

    with pytest.raises(FirstDraw):
        run_trial(StateLabel.PLUS, params, DecisionRule(), 2**20,
                  SimpleNamespace(uniform=uniform))


@pytest.mark.parametrize("mu,rule,cap", [
    (2, DecisionRule(), None),
    (0, DecisionRule(), 0),
    (0, DecisionRule(k=3, mode="always-apply-h"), 0),
    (2, DecisionRule(k=5, i1=0.2, i2=0.8), 0),
])
def test_largest_r_in_the_index_range_equals_reference_kernel(mu, rule, cap, monkeypatch):
    # a trial of the largest r costs no more than one of r = 100: its
    # laws hold about 9 sqrt(r) counts, and its four draws decide it.
    # The same config then runs against the reference kernel at an r
    # where the windows cut the laws' tails; cap = 0 also holds it to
    # laws over every count (not at the largest r: 2^30 counts a law)
    config = ExperimentConfig(trials=2000, r=MAX_STEPS, mu=mu, rule=rule, master_seed=13)
    start = time.perf_counter()
    reports = run_experiment(config)
    assert time.perf_counter() - start < 5.0
    for law in count_law(WalkParams(mu), rule.k, MAX_STEPS).after_k:
        assert len(law.cdf) <= 10 * math.sqrt(MAX_STEPS)
    for rep in reports:
        assert rep.tie_count <= 1  # a tie has a chance of order 1 / sqrt(r)
        if mu:
            # the walk has long settled: the vote is the component's
            assert 0.5 < rep.total_success < 1.0
        assert abs(rep.success_given_h + rep.failure_given_h - rep.frac_h_applied) < 1e-12
    small = dataclasses.replace(config, r=200)
    if mu:
        assert count_law(WalkParams(mu), rule.k, small.r).after_k[0].lo > 0
    if cap == 0:
        assert_windows_cut_nothing(small, monkeypatch)
    assert_agrees_with_reference(small)


def test_tables_do_not_grow_with_r():
    params = WalkParams(10)
    rule = DecisionRule()
    # a row is its start's x0 and signs, and the chances after H are
    # alpha^2 of the rows of the counts at step k: neither reads r
    for state in ALL_STATES:
        short, long = (trial_tables(state, params, rule, r) for r in (100, 10**6))
        assert short.start == long.start == WalkRow.start(state.to_state(), params)
        assert short.zero_after.shape == long.zero_after.shape == (2, rule.k + 1)
        assert np.array_equal(short.zero_after, long.zero_after)
    # the count laws hold about 9 sqrt(n) entries, not n + 1
    for r in (100, 10_000, 10**6):
        law = count_law(params, rule.k, r)
        assert law.below.shape == law.through.shape == (2, rule.k + 1)
        for binomial in (*law.step_k, *law.after_k):
            assert len(binomial.cdf) <= 9.2 * math.sqrt(r) + 5
    large = ExperimentConfig(trials=20, r=10_000, mu=10, master_seed=9)
    for rep in run_experiment(large):
        assert rep.trials == 20
        assert abs(rep.success_given_h + rep.failure_given_h - rep.frac_h_applied) < 1e-12
        assert abs(rep.success_given_no_h + rep.failure_given_no_h - rep.frac_no_h) < 1e-12
        assert abs(rep.success_given_h + rep.success_given_no_h - rep.total_success) < 1e-12
        assert 0 <= rep.tie_count <= rep.trials


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_rejected(threads, capsys, monkeypatch):
    # the commands refuse --threads below 1 as they parse, before any pass
    def no_pass(*args):
        raise AssertionError("a pass ran")

    monkeypatch.setattr(experiment, "_job_counts", no_pass)
    for argv in (["experiment"], ["sweep", "--mu", "1..3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", str(threads), "--trials", "10", "--seed", "1"])
        assert exc.value.code == 2
        assert f"--threads: must be >= 1, got {threads}" in capsys.readouterr().err


def test_h_at_the_last_step_counts_as_applied():
    # at k = r H fires on the last count, though no step follows it: the
    # vote is read in the Hadamard basis, from the counts of k steps
    for mode, fired in (("always-apply-h", 1.0), ("never-apply-h", 0.0)):
        config = ExperimentConfig(trials=500, r=30, mu=2, master_seed=8,
                                  rule=DecisionRule(k=30, mode=mode))
        for rep in run_experiment(config):
            assert rep.frac_h_applied == fired
    params, rule = WalkParams(2), DecisionRule(k=30, mode="always-apply-h")
    for i in range(20):
        out = run_trial(StateLabel.PLUS, params, rule, 30, substream(8, i))
        assert out.h_applied and out.decided_state.is_hadamard
        assert out.trace[-1][0] == 30


def with_chunks(monkeypatch, size: int):
    monkeypatch.setattr(experiment, "_CHUNK_TRIALS", size)


def test_fanned_out_pass_equals_serial_and_reference(monkeypatch):
    # 70k trials run as five chunks, the last one short; as one chunk
    # they decide alike, trial by trial
    config = ExperimentConfig(trials=70_000, r=3, master_seed=6,
                              rule=DecisionRule(k=2, i1=0.2, i2=0.8))
    assert config.trials // _CHUNK_TRIALS == 4
    chunked = run_experiment(config)
    with_chunks(monkeypatch, config.trials)
    assert run_experiment(config) == chunked
    assert_agrees_with_reference(config)


def test_fanned_out_sweep_equals_serial_and_reference(monkeypatch):
    # 40 jobs of 10k trials, in chunks of 3000 (the last of 1000) and as
    # one chunk; the rates agree with the reference kernel's at each mu
    base = ExperimentConfig(trials=10_000, r=6, master_seed=11,
                            rule=DecisionRule(k=3, i1=0.2, i2=0.8))
    mu_values = range(1, 11)
    serial = sweep_mu(base, mu_values)
    with_chunks(monkeypatch, 3000)
    assert sweep_mu(base, mu_values) == serial
    for mu, point in zip(mu_values, serial):
        at_mu = dataclasses.replace(base, mu=mu)
        ts = {s: _build_report(s, at_mu, reference_counts(s, at_mu)).total_success
              for s in ALL_STATES}
        for got, pair in ((point.success_computational, (StateLabel.ZERO, StateLabel.ONE)),
                          (point.success_hadamard, (StateLabel.PLUS, StateLabel.MINUS))):
            want = sum(ts[s] for s in pair) / 2
            # a pair mean's spread is at most one state's
            assert z_score(round(got * base.trials), round(want * base.trials),
                           base.trials) < 4


def test_fanned_out_phase_report_equals_serial_and_reference(monkeypatch):
    # 4 states, each walked twice: 8 jobs of 12 300 trials, in chunks of
    # 5000 and as one chunk
    config = ExperimentConfig(trials=12_300, r=7, mu=2, master_seed=12,
                              rule=DecisionRule(k=3, mode="always-apply-h"))
    serial = phase_report(config)
    with_chunks(monkeypatch, 5000)
    assert phase_report(config) == serial
    for point in serial:
        want = round(reference_phase_success(point.state, config) * config.trials)
        assert z_score(round(point.total_success_complex * config.trials), want,
                       config.trials) < 4


def traced_peak(config: ExperimentConfig) -> int:
    """Peak bytes numpy and Python allocate during one _job_counts call,
    once the walk's tables are built and cached."""
    jobs = real_jobs(config)
    _job_counts(config, jobs)
    tracemalloc.start()
    try:
        _job_counts(config, jobs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def law_cap(monkeypatch):
    """Sets the mass each count law's window may leave out: None keeps
    the default (less than 2^-59 a law), 0 leaves out none, so every law
    holds each count 0..n. The law caches are cleared on the way in and
    out, so no other test reads laws built under the cap."""
    def set_cap(cap):
        if cap == 0:
            monkeypatch.setattr(discriminate, "_HOEFFDING", 1e12)
        count_law.cache_clear()
        trial_tables.cache_clear()

    yield set_cap
    count_law.cache_clear()
    trial_tables.cache_clear()


@pytest.mark.parametrize("cap", [None, 0])
def test_pass_memory_is_fixed_buffers(cap, law_cap):
    # a pass holds one chunk's draws (8 bytes each, four a trial) and the
    # temporaries that mix them, the chunk's substream states, and a few
    # per-trial arrays of one job and one mu at a time, whatever r, the
    # trial count and the laws' windows are (laws over every count stop
    # short of the largest r, where each would hold 2^30 counts)
    law_cap(cap)
    base = ExperimentConfig(trials=2 * _CHUNK_TRIALS, r=50, master_seed=4)
    configs = [base, dataclasses.replace(base, trials=5 * _CHUNK_TRIALS),
               dataclasses.replace(base, r=5000)]
    if cap is None:
        configs.append(dataclasses.replace(base, r=MAX_STEPS))
    peaks = [traced_peak(config) for config in configs]
    assert max(peaks) <= 160 * _CHUNK_TRIALS
    assert max(peaks) - min(peaks) <= 4096


@pytest.mark.parametrize("cap", [None, 0])
def test_steps_allocate_nothing(cap, law_cap, monkeypatch):
    # a pass steps from chunk to chunk, not trial by trial through r
    # steps: each chunk draws its trials' four uniforms once, into one
    # buffer the pass allocates before its first chunk (a short last
    # chunk draws into a view of its first columns). A chunk's other
    # arrays live until the next chunk rebinds them, so traced memory at
    # each chunk start after the first is where it was at the last one
    # (the marks go into arrays and a list made beforehand, so they
    # allocate nothing)
    law_cap(cap)
    size = 4000
    with_chunks(monkeypatch, size)
    states, uniform = experiment.substream_states, experiment.batch_uniform
    for trials in (40_000, 42_000):  # ten full chunks, then one short chunk more
        config = ExperimentConfig(trials=trials, r=400, master_seed=4)
        full, last = divmod(config.trials, size)
        chunks = full + (last > 0)
        marks = np.zeros(chunks, dtype=np.int64)
        drawn = np.zeros((chunks, 2), dtype=np.int64)
        buffers = [None] * chunks
        calls = [0, 0]

        def chunk_start(*args):
            marks[calls[0]] = tracemalloc.get_traced_memory()[0]
            calls[0] += 1
            return states(*args)

        def draw(streams, out):
            drawn[calls[1]] = out.shape
            buffers[calls[1]] = out.base
            calls[1] += 1
            return uniform(streams, out)

        _job_counts(config, real_jobs(config))
        with monkeypatch.context() as patch:
            patch.setattr(experiment, "substream_states", chunk_start)
            patch.setattr(experiment, "batch_uniform", draw)
            tracemalloc.start()
            try:
                _job_counts(config, real_jobs(config))
            finally:
                tracemalloc.stop()
        assert calls == [chunks, chunks]
        assert drawn.tolist() == [[4, size]] * full + [[4, last]] * (last > 0)
        assert buffers[0] is not None and all(b is buffers[0] for b in buffers)
        assert marks[1] - marks[0] <= 160 * size  # one chunk's arrays
        assert marks[1:].max() - marks[1:].min() <= 1024  # a few small objects, not arrays


# configs of the decision identity between run_trial and the batch engine
IDENTITY_CONFIGS = {
    "default": dict(),
    "k=r": dict(r=30, rule=DecisionRule(k=30)),
    "odd-r": dict(r=61),
    "mu=0": dict(mu=0, r=50),
    "always": dict(rule=DecisionRule(mode="always-apply-h")),
    "never": dict(rule=DecisionRule(mode="never-apply-h")),
    "interval-k=7": dict(mu=5, rule=DecisionRule(k=7, i1=0.2, i2=0.8)),
}


def batch_decision(config: ExperimentConfig, state: StateLabel, phase: bool):
    """(H applied, decided label, tie) of trial 0 of a one-trial pass."""
    (n_h, succ_h, succ_noh, ties), = _job_counts(config, [(state, config.mu, phase)])
    bit = state.bit ^ (succ_h + succ_noh == 0)
    return bool(n_h), StateLabel(2 * n_h + bit), bool(ties)


@pytest.mark.parametrize("name", sorted(IDENTITY_CONFIGS))
def test_trial_decisions_equal_batch_decisions(name):
    for seed in range(200):
        config = ExperimentConfig(trials=1, master_seed=seed, **IDENTITY_CONFIGS[name])
        params = WalkParams(config.mu)
        for state, rep in zip(ALL_STATES, run_experiment(config)):
            out = run_trial(state, params, config.rule, config.r, substream(seed, 0))
            decided = (out.h_applied, out.decided_state, out.tie)
            assert decided == batch_decision(config, state, False)
            assert (rep.frac_h_applied, rep.total_success, rep.tie_count) == \
                (out.h_applied, out.decided_state.bit == state.bit, out.tie)


def test_phase_trial_decisions_equal_batch_decisions():
    # the phase-tracking variant, through phase_report
    for seed in range(200):
        config = ExperimentConfig(trials=1, mu=1, master_seed=seed,
                                  rule=DecisionRule(k=5, mode="always-apply-h"))
        params = WalkParams(config.mu)
        for state, point in zip(ALL_STATES, phase_report(config)):
            out = run_trial(state, params, config.rule, config.r, substream(seed, 0),
                            phase=True)
            assert (out.h_applied, out.decided_state, out.tie) == \
                batch_decision(config, state, True)
            assert point.total_success_complex == (out.decided_state.bit == state.bit)


def test_long_trial_decisions_equal_batch_decisions():
    # r = 10^4 at mu = 10: the trial lays out 10^4 steps after its draws
    for seed in range(200):
        config = ExperimentConfig(states=(StateLabel.PLUS,), trials=1, r=10_000, mu=10,
                                  master_seed=seed)
        out = run_trial(StateLabel.PLUS, WalkParams(10), config.rule, config.r,
                        substream(seed, 0))
        assert (out.h_applied, out.decided_state, out.tie) == \
            batch_decision(config, StateLabel.PLUS, False)


@pytest.fixture
def paths_run(monkeypatch):
    """Counts a pass's tallies of mu groups by how their cells were
    counted, as {"dense": n, "sorted": n}: a tally fed by _sorted_cells
    (a chunk's, past _MAX_CELLS) is sorted, any other dense (a pass's
    histogram)."""
    runs, sorted_cells = {"dense": 0, "sorted": 0}, []
    tally, count = experiment._tally_votes, experiment._sorted_cells

    def counted_sort(codes):
        sorted_cells.append(True)
        return count(codes)

    def counted_tally(*args):
        runs["sorted" if sorted_cells else "dense"] += 1
        sorted_cells.clear()
        return tally(*args)

    monkeypatch.setattr(experiment, "_tally_votes", counted_tally)
    monkeypatch.setattr(experiment, "_sorted_cells", counted_sort)
    return runs


def summed_trial_counts(config: ExperimentConfig, state: StateLabel, phase: bool):
    """(h_applied, success & h, success & no h, ties) summed over
    run_trial's decisions of trials 0..trials-1."""
    params, counts = WalkParams(config.mu), [0, 0, 0, 0]
    for i in range(config.trials):
        out = run_trial(state, params, config.rule, config.r,
                        substream(config.master_seed, i), phase)
        success = out.decided_state.bit == state.bit
        for j, v in enumerate((out.h_applied, out.h_applied and success,
                               success and not out.h_applied, out.tie)):
            counts[j] += v
    return tuple(counts)


PAST_THE_GRID = dict(rule=DecisionRule(k=30, mode="always-apply-h"))


@pytest.mark.parametrize("name", sorted(IDENTITY_CONFIGS) + ["past-the-grid"])
def test_summed_trial_decisions_equal_a_chunked_pass(name, monkeypatch, paths_run):
    # 170 trials run as four chunks, the last one short: every job, the
    # phase-tracking ones too, counts what run_trial decides trial by
    # trial, whether its mu group's cells are counted in a histogram or
    # sorted a chunk at a time
    settings = PAST_THE_GRID if name == "past-the-grid" else IDENTITY_CONFIGS[name]
    config = ExperimentConfig(trials=170, master_seed=31, **settings)
    with_chunks(monkeypatch, 50)
    jobs = [(s, config.mu, phase) for phase in (False, True) for s in ALL_STATES]
    assert _job_counts(config, jobs) == [summed_trial_counts(config, s, phase)
                                         for s, _, phase in jobs]
    if name == "past-the-grid":
        # one tally a chunk decides every job of the one mu group
        assert paths_run == {"dense": 0, "sorted": 4}
    elif name == "default":
        assert paths_run == {"dense": 1, "sorted": 0}


def test_compare_and_searched_buckets_agree(monkeypatch):
    # draws at random, on every threshold, just below one, and at both
    # ends of [0, 1), over sets on both sides of _MAX_COMPARES (64) and
    # the longest an int8 bucket holds, each bucketed by the broadcast
    # compare (a cap of 127), by searchsorted (a cap of 0) and as a run
    # buckets it
    rng = np.random.default_rng(5)
    tables = [trial_tables(s, WalkParams(5), DecisionRule(k=7, i1=0.2, i2=0.8), 61)
              for s in ALL_STATES]
    sets = [t for t in draw_thresholds(tables) if len(t)]
    sets += [np.sort(rng.random(n)) for n in (1, 8, 63, 64, 65, 127)]
    for thresholds in sets:
        u = np.concatenate([rng.random(1000), thresholds, np.nextafter(thresholds, 0.0),
                            [0.0, 1.0 - 2.0**-53]])
        expected = np.searchsorted(thresholds, u, side="right").tolist()
        assert experiment._bucket(u, thresholds).tolist() == expected
        for most in (0, 127):
            monkeypatch.setattr(experiment, "_MAX_COMPARES", most)
            assert experiment._bucket(u, thresholds).tolist() == expected


@pytest.mark.parametrize("mu", range(11))
def test_threshold_sets_equal_python_sets(mu, law_cap):
    # the interiors of zero_after and of the vote's below and through are
    # listed in numpy with the tables; a group's sets hold the same
    # floats, bit for bit, as the sets of every tabled entry in Python.
    # Both walks and the four kinds of rule run to k = 1000; past it the
    # vote's thresholds (one law for every rule) and zero_after at the
    # counts that fire are met at k = 10^4 by the rules that fire at
    # every count and at a middle band, and at k = 10^5 by the first
    law_cap(None)
    params = WalkParams(mu)
    always, band = (dict(mode="always-apply-h"), dict(i1=0.2, i2=0.8))
    groups = [((k, r), rule, phase)
              for k, r in ((1, 1), (1, 2), (2, 100), (3, 50), (7, 61), (30, 30), (1000, 2001))
              for rule in (always, band, dict(), dict(mode="never-apply-h"))
              for phase in (False, True)]
    groups += [((10_000, 30_001), rule, phase) for rule in (always, band) for phase in (False, True)]
    if mu in (0, 2, 10):
        groups.append(((100_000, 200_001), always, False))
    for (k, r), rule, phase in groups:
        tables = [trial_tables(s, params, DecisionRule(k=k, **rule), r, phase)
                  for s in ALL_STATES]
        assert [t.tobytes() for t in draw_thresholds(tables)] == \
            [np.array(ref, dtype=float).tobytes() for ref in threshold_sets(tables)]
        if k > 1000:
            trial_tables.cache_clear()  # a table of k = 10^5 holds megabytes


def test_thresholds_of_a_large_k_are_listed_in_numpy(law_cap):
    # at k = 10^5 a group's tables hold 1.2M entries of zero_after, below
    # and through. Built from cold caches with their threshold sets, they
    # peak below 24 bytes an entry: the tables' own arrays take about 19,
    # and a Python float (32 bytes) for every entry would not fit
    law_cap(None)
    rule = DecisionRule(k=100_000, mode="always-apply-h")
    tracemalloc.start()
    try:
        tables = [trial_tables(s, WalkParams(2), rule, 10**6) for s in ALL_STATES]
        draw_thresholds(tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    law = tables[0].law
    entries = sum(t.zero_after.size for t in tables) + law.below.size + law.through.size
    assert entries == 1_200_012
    assert peak < 24 * entries


@pytest.mark.parametrize("mu", [0, 1, 2, 5])
def test_tallied_and_keyed_passes_count_alike(mu, monkeypatch, paths_run):
    # every mu group's cells sorted a chunk at a time (a grid limit of 0
    # cells) and every group's counted in a histogram (no limit), over
    # rules whose grids run from a few cells to 253,760, and over passes
    # of several mu
    with_chunks(monkeypatch, 1000)
    rules = [DecisionRule(), DecisionRule(mode="never-apply-h"),
             DecisionRule(k=5, mode="always-apply-h"), DecisionRule(k=7, i1=0.2, i2=0.8),
             DecisionRule(k=30, mode="always-apply-h")]
    for r, rule in itertools.product((30, 61, 100), rules):
        config = ExperimentConfig(trials=2500, r=r, mu=mu, rule=rule, master_seed=r + mu)
        jobs = [(s, m, phase) for m in (mu, mu + 1) for phase in (False, True)
                for s in ALL_STATES]
        counts = []
        for cells, path in ((0, "sorted"), (2**62, "dense")):
            monkeypatch.setattr(experiment, "_MAX_CELLS", cells)
            before = dict(paths_run)
            counts.append(_job_counts(config, jobs))
            assert paths_run[path] > before[path]
            assert sum(paths_run.values()) - sum(before.values()) == \
                paths_run[path] - before[path]
        assert counts[0] == counts[1]


def test_sorted_pass_memory_does_not_grow_with_trials(paths_run):
    # always-apply-h at k = 30 has a grid of 253,760 cells, past
    # _MAX_CELLS: each chunk's cells are sorted and decided at once, so a
    # pass of 4 x 100k trials peaks no higher than one of 4 x 20k, but for
    # how many distinct cells its fullest chunk holds (a few hundred
    # either way, at about 150 bytes a cell); keeping every chunk's cells
    # would add 16 bytes a trial
    config = ExperimentConfig(trials=20_000, rule=DecisionRule(k=30, mode="always-apply-h"),
                              master_seed=2)
    fewer = traced_peak(config)
    more = traced_peak(dataclasses.replace(config, trials=100_000))
    assert paths_run["dense"] == 0 and paths_run["sorted"] > 0
    assert more <= fewer + 8 * _CHUNK_TRIALS


def test_duplicate_jobs_add_no_tables_to_a_pass(law_cap):
    # at k = 10^5 a walk's zero_after holds 16 (k + 1) bytes. A pass that
    # runs one walk 32 times peaks within one such table of a pass that
    # runs it once: decide reads each job's table in place, not a copy of
    # all 32 a call. Few trials keep the per-cell arrays, about 40 bytes a
    # job and cell, well under one table
    law_cap(None)
    k = 10**5
    config = ExperimentConfig(states=(StateLabel.ZERO,), trials=250, r=k, master_seed=1,
                              rule=DecisionRule(k=k, mode="never-apply-h"))
    once = traced_peak(config)
    repeated = traced_peak(dataclasses.replace(config, states=(StateLabel.ZERO,) * 32))
    assert repeated - once < 16 * (k + 1)


def law_window(n: int) -> int:
    """The most counts Binomial.of(n, q) keeps at any q: `reach` either
    side of the mode, and the mode."""
    return 2 * (math.ceil(math.sqrt(discriminate._HOEFFDING * n)) + 2) + 1


def test_cell_codes_fit_int64_at_every_grid(law_cap):
    # A grid has prod(len(T) + 1) cells over the four draws' sets, and a
    # sorted tally codes them in int64. Each set is bounded by the laws'
    # windows, which grow with their n:
    # - u0 meets the starts' alpha^2, 1, 0 and 1/2: one interior value;
    # - u1 the interiors of the two step-k CDFs: 2 law_window(k);
    # - u2 each walk's zero_after, whose rows are 1 and 0 where H does not
    #   fire and both alpha^2 of the restart where it does: k + 1 values,
    #   for at most 8 distinct walks a group (4 states, real or phase);
    # - u3 below and through, each read off the two after-k CDFs:
    #   2 law_window(r - k).
    # So k = MAX_K and r - k < MAX_STEPS bound every grid a caller builds.
    law_cap(None)
    for n in (discriminate.MAX_K, MAX_STEPS):
        for q in (0.5, 0.9, 1e-6):
            assert len(Binomial.of(n, q).cdf) <= law_window(n)
    for mu, (k, r), rule in itertools.product(
            (0, 1, 5), ((2, 100), (30, 61), (1000, 10**4)),
            (dict(mode="always-apply-h"), dict(i1=0.2, i2=0.8))):
        tables = [trial_tables(s, WalkParams(mu), DecisionRule(k=k, **rule), r, phase)
                  for phase in (False, True) for s in ALL_STATES]
        sizes = [len(t) for t in draw_thresholds(tables)]
        assert sizes[0] <= 1 and sizes[1] <= 2 * law_window(k)
        assert sizes[2] <= 8 * (k + 1) and sizes[3] <= 2 * law_window(r - k)
    k = discriminate.MAX_K
    dims = (2, 2 * law_window(k) + 1, 8 * (k + 1) + 1, 2 * law_window(MAX_STEPS) + 1)
    assert math.prod(dims) < 2**63 // 40  # about 1.9e17 cells
    last = np.unravel_index(np.array([math.prod(dims) - 1], dtype=np.int64), dims)
    assert [int(b[0]) for b in last] == [d - 1 for d in dims]


def scalar_votes(tables, r: int, u0: float, u1: float, u2: float, u3: float):
    """(votes bit 1, H applied, votes bit 1 or ties) of one trial of
    `tables`, as run_trial decides it: the vote from the count over the
    steps after k, not from the thresholds below and through."""
    law = tables.law
    z = int(u0 >= tables.zero_start)
    j0 = law.step_k[z].count(u1)
    z = int(u2 >= tables.zero_after[z, j0])
    zeros = j0 + law.after_k[z].count(u3)
    return r - zeros > zeros, bool(tables.fires[j0]), r - zeros >= zeros


@pytest.mark.parametrize("mu,rule", [
    (2, DecisionRule()),
    (5, DecisionRule(k=7, i1=0.2, i2=0.8)),
    (1, DecisionRule(k=5, mode="always-apply-h")),
    (0, DecisionRule()),
], ids=["default-mu2", "interval-k7-mu5", "always-k5-mu1", "default-mu0"])
def test_tally_decides_boundary_draws_as_the_rule_does(mu, rule):
    # random draws essentially never land on a threshold. Here each draw
    # is a threshold of its set, the float just below one, 0.0 or
    # 1 - 2^-53, in every combination across the four draws: the tally
    # decides a cell at its least draws, from a histogram or from sorted
    # codes, and must count what the rule decides draw by draw
    r = 60
    tables = [trial_tables(s, WalkParams(mu), rule, r, phase)
              for phase in (False, True) for s in ALL_STATES]
    sets = draw_thresholds(tables)
    edges = [np.unique(np.concatenate([t, np.nextafter(t, 0.0), [0.0, 1.0 - 2.0**-53]]))
             for t in sets]
    draws = np.stack([a.ravel() for a in np.meshgrid(*edges, indexing="ij")])
    cells = math.prod(len(t) + 1 for t in sets)
    codes = experiment._cell_codes(draws, sets, cells)
    hist = np.bincount(codes, minlength=cells)
    occupied = np.flatnonzero(hist)
    ones = np.ones(draws.shape[1], np.int64)
    expected = decide(tables, draws, ones).tolist()
    assert experiment._tally_votes(tables, sets, occupied, hist[occupied]).tolist() == expected
    assert experiment._tally_votes(tables, sets, *experiment._sorted_cells(codes)).tolist() == \
        expected
    # and the rule on those draws is run_trial's, at up to 500 of them
    n = draws.shape[1]
    for i in np.random.default_rng(mu).choice(n, min(n, 500), replace=False).tolist():
        votes = decide(tables, draws[:, [i]], ones[:1]).tolist()
        for t, (one, h, both, one_or_tie) in zip(tables, votes):
            assert both == (one and h)
            assert scalar_votes(t, r, *draws[:, i].tolist()) == (one == 1, h == 1, one_or_tie == 1)


def cell_rates(tables, sets) -> np.ndarray:
    """decide's rates over every cell of the grid of `sets`, each at its
    least draws and weighted by its mass, the product of its four bucket
    widths: (votes bit 1, H applied, both, votes bit 1 or tie) per job,
    as probabilities, with no sampling."""
    edges = [np.concatenate(([0.0], t, [1.0])) for t in sets]
    least = np.stack([a.ravel() for a in np.meshgrid(*(e[:-1] for e in edges), indexing="ij")])
    mass = functools.reduce(np.multiply.outer, [np.diff(e) for e in edges]).ravel()
    return decide(tables, least, mass)


def exact_deviation(tables, sets) -> float:
    """The largest distance of cell_rates from the exact rates of the
    default rule: success and the H rate of every state, and the tie
    identities success(zero) - success(one) = P(tie | zero) and the
    same of plus and minus."""
    rates = cell_rates(tables, sets).tolist()
    success = {s: one if s.bit else 1.0 - one for s, (one, *_) in zip(ALL_STATES, rates)}
    tie = {s: through - one for s, (one, _, _, through) in zip(ALL_STATES, rates)}
    gaps = [success[s] - EXACT_TOTAL[s] for s in ALL_STATES]
    gaps += [h - EXACT_P_H for _, h, _, _ in rates]
    gaps += [success[a] - success[b] - tie[a] for a, b in ((StateLabel.ZERO, StateLabel.ONE),
                                                            (StateLabel.PLUS, StateLabel.MINUS))]
    return max(map(abs, gaps))


def test_cells_weighted_by_their_mass_give_the_exact_rates():
    # the tally is exact: decided at their least draws and weighted by
    # their mass, the cells of draw_thresholds give the independently
    # computed rates to 1e-15 (180 cells at the default rule, 360 at
    # always-apply-h, mu = 1). Without any one threshold of the default
    # grid, some rate moves past that
    tables = [trial_tables(s, WalkParams(2), DecisionRule(), 100) for s in ALL_STATES]
    sets = draw_thresholds(tables)
    assert exact_deviation(tables, sets) <= 1e-15
    assert math.prod(len(t) + 1 for t in sets) == 180
    for d, thresholds in enumerate(sets):
        for i in range(len(thresholds)):
            fewer = sets[:d] + (np.delete(thresholds, i),) + sets[d + 1:]
            assert exact_deviation(tables, fewer) > 1e-15, (d, i)
    always = [trial_tables(s, WalkParams(1), DecisionRule(mode="always-apply-h"), 100)
              for s in ALL_STATES]
    sets = draw_thresholds(always)
    for state, (one, h, both, _) in zip(ALL_STATES, cell_rates(always, sets).tolist()):
        assert abs(h - 1.0) <= 1e-15 and both == one
        if state in EXACT_ALWAYS_MU1:
            success = one if state.bit else 1.0 - one
            assert abs(success - EXACT_ALWAYS_MU1[state]) <= 1e-15
    assert math.prod(len(t) + 1 for t in sets) == 360


def test_rates_at_200k_trials_lie_within_4_sigma_of_exact():
    n = 200_000
    four_sigma = lambda p: 4 * math.sqrt(p * (1 - p) / n)
    for rep in run_experiment(ExperimentConfig(trials=n, master_seed=2024)):
        assert abs(rep.total_success - EXACT_TOTAL[rep.state]) < four_sigma(EXACT_TOTAL[rep.state])
        assert abs(rep.frac_h_applied - EXACT_P_H) < four_sigma(EXACT_P_H)
    config = ExperimentConfig(states=(StateLabel.PLUS, StateLabel.MINUS), trials=n, mu=1,
                              master_seed=2024, rule=DecisionRule(mode="always-apply-h"))
    for rep in run_experiment(config):
        exact = EXACT_ALWAYS_MU1[rep.state]
        assert abs(rep.total_success - exact) < four_sigma(exact)


@st.composite
def legal_runs(draw):
    """A legal (config, mu list): small walks, every mode, interval
    bounds on and off the j0/k grid, states in any order and repeated."""
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
    return config, draw(st.lists(mu, min_size=1, max_size=3))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(legal_runs())
def test_legal_configs_agree_across_paths(run):
    check_paths_agree(*run)


def check_paths_agree(config: ExperimentConfig, mu_values: list[int]):
    reports = run_experiment(config)
    params = WalkParams(config.mu)
    for state, rep in zip(config.states, reports):
        outs = [run_trial(state, params, config.rule, config.r,
                          substream(config.master_seed, i)) for i in range(config.trials)]
        n_h = sum(o.h_applied for o in outs)
        succ_h = sum(o.h_applied and o.decided_state.bit == state.bit for o in outs)
        succ = sum(o.decided_state.bit == state.bit for o in outs)
        assert rep == _build_report(state, config, (n_h, succ_h, succ - succ_h,
                                                     sum(o.tie for o in outs)))
        assert abs(rep.frac_h_applied + rep.frac_no_h - 1.0) < 1e-12
        assert abs(rep.success_given_h + rep.failure_given_h - rep.frac_h_applied) < 1e-12
        assert abs(rep.success_given_no_h + rep.failure_given_no_h - rep.frac_no_h) < 1e-12
        assert abs(rep.success_given_h + rep.success_given_no_h - rep.total_success) < 1e-12
        assert 0 <= rep.tie_count <= rep.trials

    # one pass over every (mu, state) gives what each run alone gives
    expected = []
    for mu in mu_values:
        at_mu = dataclasses.replace(config, states=ALL_STATES, mu=mu)
        ts = {rep.state: rep.total_success for rep in run_experiment(at_mu)}
        expected.append(SweepPoint(mu, (ts[StateLabel.ZERO] + ts[StateLabel.ONE]) / 2,
                                   (ts[StateLabel.PLUS] + ts[StateLabel.MINUS]) / 2))
    assert sweep_mu(config, mu_values) == expected

    # phase_report's one pass gives what each (state, variant) gives as
    # the only job of a pass, and the phase-tracking trials decide alike
    for point in phase_report(config):
        alone = [_job_counts(config, [(point.state, config.mu, phase)])[0]
                 for phase in (False, True)]
        assert point.total_success_real == (alone[0][1] + alone[0][2]) / config.trials
        assert point.total_success_complex == (alone[1][1] + alone[1][2]) / config.trials
        succ = sum(run_trial(point.state, params, config.rule, config.r,
                             substream(config.master_seed, i), phase=True)
                   .decided_state.bit == point.state.bit for i in range(config.trials))
        assert point.total_success_complex == succ / config.trials
