import math
from types import SimpleNamespace

import numpy as np
import pytest

import qsdwalk.discriminate as discriminate
from qsdwalk.discriminate import (
    MODES,
    Binomial,
    DecisionRule,
    StateLabel,
    restart_rows,
    run_trial,
    trial_tables,
)
from qsdwalk.experiment import ExperimentConfig, phase_report, run_experiment
from qsdwalk.rng import substream
from qsdwalk.walk import QubitState, WalkParams, WalkRow

from reference import apply_hadamard_update, collapse_update, restart_after_h

INV_SQRT2 = 1 / math.sqrt(2)
ALL_STATES = [StateLabel.ZERO, StateLabel.ONE, StateLabel.PLUS, StateLabel.MINUS]
# exact H-firing probability under the default rule at mu=2:
# 2 cos^2(pi/5) sin^2(pi/5)
P_H_MU2 = 0.45225424859373686


def test_state_label_amplitudes():
    assert StateLabel.ZERO.to_state() == QubitState(1.0, 0.0)
    assert StateLabel.ONE.to_state() == QubitState(0.0, 1.0)
    plus = StateLabel.PLUS.to_state()
    assert plus.alpha == INV_SQRT2 and plus.beta == INV_SQRT2
    minus = StateLabel.MINUS.to_state()
    assert minus.alpha == INV_SQRT2 and minus.beta == -INV_SQRT2


def test_state_label_bits_and_basis():
    assert [s.bit for s in ALL_STATES] == [0, 1, 0, 1]
    assert [s.is_hadamard for s in ALL_STATES] == [False, False, True, True]
    assert StateLabel.ZERO.basis == "computational"
    assert StateLabel.MINUS.basis == "hadamard"


def test_state_label_parse_and_str():
    for s in ALL_STATES:
        assert StateLabel.parse(str(s)) is s
    assert StateLabel.parse(" Plus ") is StateLabel.PLUS
    with pytest.raises(ValueError):
        StateLabel.parse("up")


def test_hadamard_update_examples():
    out = apply_hadamard_update(QubitState(INV_SQRT2, INV_SQRT2))
    assert abs(out.alpha - 1.0) < 1e-12 and abs(out.beta) < 1e-12
    out = apply_hadamard_update(QubitState(1.0, 0.0))
    assert abs(out.alpha - INV_SQRT2) < 1e-12 and abs(out.beta - INV_SQRT2) < 1e-12
    out = apply_hadamard_update(QubitState(INV_SQRT2, -INV_SQRT2))
    assert abs(out.alpha) < 1e-12 and abs(out.beta - 1.0) < 1e-12


@pytest.mark.parametrize("j0,j1,h,expected,tie", [
    (60, 40, False, StateLabel.ZERO, False),
    (40, 60, False, StateLabel.ONE, False),
    (10, 90, True, StateLabel.MINUS, False),
    (90, 10, True, StateLabel.PLUS, False),
    (50, 50, False, StateLabel.ZERO, True),
    (50, 50, True, StateLabel.PLUS, True),
])
def test_classify_table(j0, j1, h, expected, tie):
    # a trial decides from four draws and then lays out r more: from plus
    # pick the component z whose law reaches j0 best, one outcome 1 at
    # step k = 1 (u1 = 0), z again after it, and a u3 inside the CDF step
    # of the count after step 1 that makes j0 in all
    params, r = WalkParams(2), j0 + j1
    rule = DecisionRule(k=1, mode="always-apply-h" if h else "never-apply-h")
    law = discriminate.count_law(params, rule.k, r)
    steps = [law.after_k[z].at(np.array([j0 - 1, j0])) for z in (0, 1)]
    z = max((0, 1), key=lambda z: steps[z][1] - steps[z][0])
    pick = 0.0 if z == 0 else 1 - 2.0**-53  # below or above any alpha^2 in (0, 1)
    draws = iter([pick, 0.0, pick, sum(steps[z]) / 2] + [0.5] * r)
    rng = SimpleNamespace(uniform=lambda: next(draws))
    out = run_trial(StateLabel.PLUS, params, rule, r, rng)
    assert (out.j0, out.j1, out.h_applied) == (j0, j1, h)
    assert out.decided_state is expected
    assert out.tie == tie
    assert next(draws, None) is None  # 4 + r draws


def test_decision_rule_validation():
    DecisionRule()
    DecisionRule(k=5, i1=0.2, i2=0.8)
    # interval bounds are irrelevant outside interval mode
    DecisionRule(mode="never-apply-h", i1=0.9, i2=0.1)
    with pytest.raises(ValueError):
        DecisionRule(mode="sometimes")
    with pytest.raises(ValueError):
        DecisionRule(k=0)
    with pytest.raises(ValueError):
        DecisionRule(i1=0.5, i2=0.5)
    with pytest.raises(ValueError):
        DecisionRule(i1=-0.1)
    with pytest.raises(ValueError):
        DecisionRule(i2=1.1)
    # a bound that is no real number raised a TypeError from a comparison,
    # or was kept outside interval mode; numpy floats and ints pass
    for name in ("i1", "i2"):
        for bad in ("0.2", None, True, 0.5j, [0.5]):
            for mode in MODES:
                with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
                    DecisionRule(mode=mode, **{name: bad})
    DecisionRule(i1=np.float64(0.25), i2=np.int64(1))


def test_run_trial_validates_iterations():
    with pytest.raises(ValueError, match="k=200.*r=100"):
        run_trial(StateLabel.PLUS, WalkParams(2), DecisionRule(k=200), 100, substream(0, 0))
    with pytest.raises(ValueError):
        run_trial(StateLabel.PLUS, WalkParams(2), DecisionRule(), 0, substream(0, 0))


def test_run_trial_refuses_r_past_the_index_range():
    # 2^30 - 1 is the largest r, and the refusal comes before any draw
    rng = SimpleNamespace(uniform=lambda: pytest.fail("drew past the bound"))
    message = "r=1073741824 is too large: a trial takes at most 1073741823 steps"
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_trial(StateLabel.PLUS, WalkParams(2), DecisionRule(), 2**30, rng)


@pytest.mark.parametrize("state", ALL_STATES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_trial_counter_conservation(state, seed):
    r = 57
    out = run_trial(state, WalkParams(2), DecisionRule(), r, substream(seed, 0))
    assert out.j0 + out.j1 == r
    assert len(out.trace) == r
    assert [row[0] for row in out.trace] == list(range(1, r + 1))
    # trace alpha_approx is the running ratio
    j0 = 0
    for i, row in enumerate(out.trace, start=1):
        j0 += row[1] == 0
        assert row[4] == j0 / i
    assert out.trace[-1][4] == out.j0 / r


@pytest.mark.parametrize("state", [StateLabel.PLUS, StateLabel.ONE])
def test_short_trial_reads_short_rows_at_any_mu(state, monkeypatch):
    # a 2-step trial at mu = 100000 evaluates its rows out to |n| <= 2,
    # not out to where p0 settles (millions of counts at this mu)
    widths = []
    walk_lists = discriminate.walk_lists
    monkeypatch.setattr(discriminate, "walk_lists", lambda row, reach: widths.append(
        [len(values) for values in walk_lists(row, reach)]) or walk_lists(row, reach))
    r = 2
    for seed in range(6):
        run_trial(state, WalkParams(100_000), DecisionRule(), r, substream(seed, 0))
    assert widths and max(max(w) for w in widths) <= 2 * r + 1


def test_long_trial_rows_stop_at_the_frozen_count(monkeypatch):
    # past WalkRow.frozen p0 and the amplitudes are constant, so a
    # 200k-step trial keeps rows of at most 2 * 1169 + 1 entries at
    # mu = 2 from plus, not 2 * 200k + 1
    reaches = []
    walk_lists = discriminate.walk_lists
    monkeypatch.setattr(discriminate, "walk_lists", lambda row, reach: reaches.append(
        (row, reach)) or walk_lists(row, reach))
    run_trial(StateLabel.PLUS, WalkParams(2), DecisionRule(), 200_000, substream(1, 0))
    assert WalkRow.start(StateLabel.PLUS.to_state(), WalkParams(2)).frozen == 1169
    assert reaches and all(reach <= row.frozen for row, reach in reaches)


@pytest.mark.parametrize("rule", [DecisionRule(mode="never-apply-h"),
                                  DecisionRule(k=3, mode="always-apply-h")])
def test_rows_cut_at_the_frozen_count_give_the_uncut_trace(rule, monkeypatch):
    # at mu = 1 the walk drifts about half a count a step, far past the
    # 681 counts where a row from plus freezes
    params = WalkParams(1)
    cut = [run_trial(StateLabel.PLUS, params, rule, 4000, substream(seed, 0))
           for seed in range(3)]
    n = [sum(1 - 2 * step[1] for step in out.trace[rule.k:]) for out in cut]
    assert max(map(abs, n)) > WalkRow.start(StateLabel.PLUS.to_state(), params).frozen
    monkeypatch.setattr(WalkRow, "frozen", property(lambda row: 10**9))
    assert cut == [run_trial(StateLabel.PLUS, params, rule, 4000, substream(seed, 0))
                   for seed in range(3)]


@pytest.mark.parametrize("state,rule", [
    (StateLabel.PLUS, DecisionRule(k=4, mode="always-apply-h")),
    (StateLabel.MINUS, DecisionRule(k=7, i1=0.2, i2=0.8)),
])
def test_traced_amplitudes_follow_the_stepped_walk_signs_included(state, rule):
    # H sends (alpha, beta) to ((alpha + beta)/sqrt2, (alpha - beta)/sqrt2),
    # so the counts j0 and k - j0 restart in rows of one x0 but of opposite
    # signs: each trace row is the reference walk stepped down the traced
    # outcomes, with H at step k, in sign and to 1e-15 in modulus
    params = WalkParams(2)
    for seed in range(200):
        out = run_trial(state, params, rule, 12, substream(seed, 0))
        current = state.to_state()
        for j, outcome, alpha, beta, _ in out.trace:
            current = collapse_update(current, outcome, params)
            if j == rule.k and out.h_applied:
                current = apply_hadamard_update(current)
            for traced, stepped in ((alpha, current.alpha), (beta, current.beta)):
                assert math.copysign(1.0, traced) == math.copysign(1.0, stepped), (seed, j)
                assert abs(abs(traced) - abs(stepped)) <= 1e-15, (seed, j)


def _bits(row: WalkRow) -> tuple[str, str, str]:
    return tuple(float(v).hex() for v in (row.x0, row.sign_alpha, row.sign_beta))


@pytest.mark.parametrize("phase", [False, True])
@pytest.mark.parametrize("mu", [0, 1, 2, 10])
@pytest.mark.parametrize("rule", [
    DecisionRule(),
    DecisionRule(k=4, mode="always-apply-h"),
    DecisionRule(k=7, i1=0.2, i2=0.8),
    DecisionRule(k=5, i1=0.1, i2=0.6),
    DecisionRule(k=12, mode="always-apply-h"),  # k = r: no step follows H
])
def test_trial_restarts_in_the_row_its_decision_read(rule, mu, phase, monkeypatch):
    # the row run_trial restarts in after H, for its own j0, is bit for
    # bit tables.restart[j0], whose alpha^2 is zero_after[:, j0], which
    # decided the trial (at k = r the component drawn first is kept); a
    # stack built for that count alone is the same row
    params, r = WalkParams(mu), 12
    used = []
    trace_lists = discriminate._trace_lists
    monkeypatch.setattr(discriminate, "_trace_lists",
                        lambda row, reach: used.append(row) or trace_lists(row, reach))
    for state in ALL_STATES:
        tables = trial_tables(state, params, rule, r, phase)
        for j0 in np.flatnonzero(tables.fires).tolist():
            row = tables.restart[j0]
            assert tables.zero_after[:, j0].tolist() == \
                ([float(row.alpha2)] * 2 if r > rule.k else [1.0, 0.0])
            assert _bits(restart_rows(tables.start, np.array([j0]), rule.k, phase)[0]) == \
                _bits(row)
        for seed in range(40):
            used.clear()
            out = run_trial(state, params, rule, r, substream(seed, 0), phase)
            j0 = sum(step[1] == 0 for step in out.trace[:rule.k])
            assert out.h_applied == tables.fires[j0]
            assert _bits(used[0]) == _bits(tables.start)
            assert [_bits(row) for row in used[1:]] == \
                ([_bits(tables.restart[j0])] if out.h_applied else [])


@pytest.mark.parametrize("phase", [False, True])
@pytest.mark.parametrize("mu", range(11))
def test_restart_stack_matches_the_scalar_rotation(mu, phase):
    # the stack holds every count's restart at once: H of the state at
    # net count 2 j0 - k rotated one count at a time in Python floats
    # (reference.restart_after_h) gives alpha^2 to 2e-15 relative (numpy's
    # log and exp may round the last bit or so otherwise than math's) and
    # the signs and the firing counts bit for bit
    params = WalkParams(mu)
    for k in (1, 2, 3, 7, 64, 999, 1000):
        for rule in (DecisionRule(k=k, mode="always-apply-h"), DecisionRule(k=k, i1=0.2, i2=0.8)):
            fired = ([True] * (k + 1) if rule.mode == "always-apply-h"
                     else [rule.i1 < j0 / k < rule.i2 for j0 in range(k + 1)])
            for state in ALL_STATES:
                tables = trial_tables(state, params, rule, k + 1, phase)
                assert tables.fires.tolist() == fired
                alpha, beta = tables.start.amplitudes(2 * np.arange(k + 1) - k)
                ref = [restart_after_h(QubitState(a, b), params, k, phase)
                       for a, b in zip(alpha.tolist(), beta.tolist())]
                zero, sign_alpha, sign_beta = map(np.array, zip(*ref))
                restart = tables.restart
                assert np.all(np.abs(restart.alpha2 - zero) <= 2e-15 * zero)
                assert restart.sign_alpha.tolist() == sign_alpha.tolist()
                assert restart.sign_beta.tolist() == sign_beta.tolist()
                assert tables.zero_after.tolist() == \
                    [np.where(fired, restart.alpha2, z).tolist() for z in (1.0, 0.0)]


def test_tables_are_built_without_a_per_count_loop(monkeypatch):
    # the tables of k = 10^4 are one stack: a single amplitudes call over
    # every count and no QubitState but the start
    calls = {"states": 0, "amplitudes": 0}
    post_init = QubitState.__post_init__
    amplitudes = WalkRow.amplitudes

    def count_state(state):
        calls["states"] += 1
        post_init(state)

    def count_amplitudes(row, n):
        calls["amplitudes"] += 1
        return amplitudes(row, n)

    monkeypatch.setattr(QubitState, "__post_init__", count_state)
    monkeypatch.setattr(WalkRow, "amplitudes", count_amplitudes)
    for phase in (False, True):
        calls.update(states=0, amplitudes=0)
        rule = DecisionRule(k=10_000, mode="always-apply-h")
        tables = trial_tables.__wrapped__(StateLabel.PLUS, WalkParams(3), rule, 20_000, phase)
        assert tables.restart.x0.shape == (10_001,)
        assert calls == {"states": 1, "amplitudes": 1}


def test_a_pass_at_k_equal_r_builds_no_restart_stack(monkeypatch):
    # at k = r no step follows H, so the decision never reads a restart
    # row: a pass builds none, and a trace builds the stack once, on its
    # first trial, for every trial after it
    calls = []
    stack = discriminate.restart_rows
    monkeypatch.setattr(discriminate, "restart_rows",
                        lambda *args: calls.append(args[2]) or stack(*args))
    trial_tables.cache_clear()
    try:
        for mode in MODES:
            config = ExperimentConfig(trials=500, r=300, mu=3,
                                      rule=DecisionRule(k=300, mode=mode))
            run_experiment(config)
            phase_report(config)
            assert calls == []
        rule = DecisionRule(k=300, mode="always-apply-h")
        for seed in range(5):
            run_trial(StateLabel.PLUS, WalkParams(3), rule, 300, substream(seed, 0))
        assert calls == [300]
        # past k = r the tables read the stack as they are built
        trial_tables(StateLabel.PLUS, WalkParams(3), rule, 301)
        assert calls == [300, 300]
    finally:
        trial_tables.cache_clear()


def test_run_trial_deterministic():
    a = run_trial(StateLabel.MINUS, WalkParams(2), DecisionRule(), 100, substream(9, 4))
    b = run_trial(StateLabel.MINUS, WalkParams(2), DecisionRule(), 100, substream(9, 4))
    assert a == b


@pytest.mark.parametrize("seed", range(30))
def test_h_fires_iff_first_two_outcomes_differ(seed):
    out = run_trial(StateLabel.PLUS, WalkParams(2), DecisionRule(), 10, substream(77, seed))
    differ = out.trace[0][1] != out.trace[1][1]
    assert out.h_applied == differ


@pytest.mark.parametrize("state", ALL_STATES)
@pytest.mark.parametrize("seed", range(10))
def test_decided_basis_matches_h(state, seed):
    out = run_trial(state, WalkParams(2), DecisionRule(), 31, substream(5150, seed))
    assert out.decided_state.basis == ("hadamard" if out.h_applied else "computational")
    assert out.h_applied == out.decided_state.is_hadamard
    assert out.decided_state.bit == (out.j1 > out.j0)
    assert out.tie == (out.j0 == out.j1)


@pytest.mark.parametrize("state", [StateLabel.ZERO, StateLabel.ONE])
@pytest.mark.parametrize("seed", range(10))
def test_basis_states_hold_until_h(state, seed):
    # amplitudes cannot move off (1,0)/(0,1); after H the walk starts at 1/sqrt2
    out = run_trial(state, WalkParams(1), DecisionRule(), 20, substream(31, seed))
    first = out.trace[0]
    assert abs(abs(first[2]) + abs(first[3]) - 1.0) < 1e-12
    if out.h_applied:
        row_k = out.trace[1]
        assert abs(abs(row_k[2]) - INV_SQRT2) < 1e-12
        assert abs(abs(row_k[3]) - INV_SQRT2) < 1e-12


def test_never_mode_skips_rotation():
    count_zero = 0
    for i in range(1000):
        out = run_trial(StateLabel.ZERO, WalkParams(1),
                        DecisionRule(mode="never-apply-h"), 100, substream(606, i))
        assert not out.h_applied
        assert out.decided_state.basis == "computational"
        count_zero += out.decided_state is StateLabel.ZERO
    assert count_zero >= 999


def test_always_mode_rotates_every_trial():
    for i in range(20):
        out = run_trial(StateLabel.ONE, WalkParams(1),
                        DecisionRule(mode="always-apply-h"), 10, substream(909, i))
        assert out.h_applied
        assert out.decided_state in (StateLabel.PLUS, StateLabel.MINUS)


def test_h_rate_matches_enumeration():
    trials = 10_000
    fired = sum(
        run_trial(StateLabel.PLUS, WalkParams(2), DecisionRule(), 2, substream(1717, i)).h_applied
        for i in range(trials)
    )
    sigma = math.sqrt(P_H_MU2 * (1 - P_H_MU2) / trials)
    assert abs(fired / trials - P_H_MU2) < 3 * sigma


def test_tie_possible_only_at_even_r():
    for i in range(200):
        out = run_trial(StateLabel.PLUS, WalkParams(2), DecisionRule(), 5, substream(42, i))
        assert not out.tie


@pytest.mark.parametrize("rule,fired", [
    # the default open interval (0,1) at k=2 fires only on j0 = 1
    (DecisionRule(), [False, True, False]),
    # k=1: the estimate is 0 or 1, never inside (0,1)
    (DecisionRule(k=1), [False, False]),
    (DecisionRule(k=1, mode="always-apply-h"), [True, True]),
    (DecisionRule(k=3, mode="never-apply-h"), [False] * 4),
    # bounds on the j0/k grid are excluded, strictly
    (DecisionRule(k=4, i1=0.25, i2=0.75), [False, False, True, False, False]),
    # just off the grid they take the neighbouring point in
    (DecisionRule(k=4, i1=0.2499, i2=0.7501), [False, True, True, True, False]),
    (DecisionRule(k=4, i1=0.0, i2=0.25), [False] * 5),
    (DecisionRule(k=4, i1=0.75, i2=1.0), [False] * 5),
    (DecisionRule(k=5, i1=0.0, i2=0.2000001), [False, True, False, False, False, False]),
])
def test_decision_rule_fires(rule, fired):
    assert [rule.fires(j0) for j0 in range(rule.k + 1)] == fired
    # one call over an array of counts gives the per-count answers
    assert rule.fires(np.arange(rule.k + 1)).tolist() == fired


def exact_cdf(n: int, q: float) -> tuple[list[int], int]:
    """(numerators, denominator) of P(X <= m), m = 0..n, for Bin(n, q),
    exact in the rational value of the float q."""
    a, b = q.as_integer_ratio()
    cdf, total = [], 0
    for m in range(n + 1):
        total += math.comb(n, m) * a**m * (b - a)**(n - m)
        cdf.append(total)
    return cdf, b**n


@pytest.mark.parametrize("mu", [1, 2, 10])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 98, 500])
def test_count_laws_match_exact_cdfs(mu, n):
    # each window's CDF is within 1e-15 of the exact one, ends at exactly
    # 1, and leaves out less mass than one step of the 2^-53 draw grid
    c0, c1, _, _ = WalkParams(mu).factors
    for q in (c0 * c0, c1 * c1):
        law = Binomial.of(n, q)
        exact, scale = exact_cdf(n, q)
        hi = law.lo + len(law.cdf) - 1
        assert law.cdf[-1] == 1.0 and all(np.diff(law.cdf) >= 0)
        assert max(abs(exact[m] / scale - law.cdf[m - law.lo])
                   for m in range(law.lo, hi + 1)) < 1e-15
        left_out = (exact[law.lo - 1] if law.lo else 0) + scale - exact[hi]
        assert left_out * 2**53 < scale
        assert len(law.cdf) <= 9.2 * math.sqrt(n) + 5


def test_count_laws_are_point_masses_at_mu_0():
    # at mu = 0 component 0 always gives outcome 0 and component 1 never
    for k, r in ((2, 100), (7, 7), (1, 50)):
        law = discriminate.count_law(WalkParams(0), k, r)
        assert [(b.lo, b.cdf.tolist()) for b in law.step_k] == [(k, [1.0]), (0, [1.0])]
        assert [(b.lo, b.cdf.tolist()) for b in law.after_k] == [(r - k, [1.0]), (0, [1.0])]
        for u in (0.0, 0.5, 1 - 2.0**-53):
            assert [int(b.count(u)) for b in law.after_k] == [r - k, 0]
