import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdwalk.oracle as oracle
from qsdwalk.discriminate import StateLabel
from qsdwalk.gates import PhaseRoot
from qsdwalk.oracle import (
    RegisterState,
    _psi_density,
    _psi_entropy,
    apply_p,
    ax_marginal,
    phase_table,
    prepare_register,
    project_ax,
    psi_moduli,
    relative_phase,
    walk_agreement,
)
from qsdwalk.rng import substream
from qsdwalk.walk import QubitState, WalkParams, WalkRow, walk_lists

from reference import ax_probabilities, collapse_update

INV_SQRT2 = 1 / math.sqrt(2)
TOL = 1e-12


def basis_register(n: int, index: int, mu: int) -> RegisterState:
    amps = np.zeros(2 ** n, dtype=complex)
    amps[index] = 1.0
    return RegisterState(amps, mu)


def test_prepare_basis_placement():
    reg = prepare_register(StateLabel.ZERO, 1)
    # |0,1,0> is index 0b010
    assert reg.amps[0b010] == 1.0
    assert np.count_nonzero(reg.amps) == 1

    reg = prepare_register(StateLabel.PLUS, 0)
    assert abs(reg.amps[0b00] - INV_SQRT2) < TOL
    assert abs(reg.amps[0b10] - INV_SQRT2) < TOL

    reg = prepare_register(StateLabel.PLUS, 2)
    nz = np.flatnonzero(reg.amps)
    assert list(nz) == [0b0110, 0b1110]
    assert np.allclose(reg.amps[nz], INV_SQRT2)


def test_prepare_accepts_amplitudes():
    reg = prepare_register(QubitState(0.6, 0.8), 1)
    assert abs(reg.amps[0b010] - 0.6) < TOL
    assert abs(reg.amps[0b110] - 0.8) < TOL


def test_prepare_rejects_mu_out_of_range():
    with pytest.raises(ValueError):
        prepare_register(StateLabel.ZERO, 21)
    with pytest.raises(ValueError):
        prepare_register(StateLabel.ZERO, -1)


def test_register_validates_shape_and_norm():
    with pytest.raises(ValueError):
        RegisterState(np.zeros(7, dtype=complex), 1)
    bad = np.zeros(8, dtype=complex)
    bad[0] = 0.5
    with pytest.raises(ValueError):
        RegisterState(bad, 1)


@pytest.mark.parametrize("mu", [0, 1, 2, 3])
def test_apply_p_full_density_flips_ax(mu):
    # every control set and t equal to the control count: ax gets sigma_x
    reg = prepare_register(StateLabel.ONE, mu)
    apply_p(reg, mu + 1)
    p0, p1 = ax_marginal(reg)
    assert abs(p1 - 1.0) < TOL
    assert abs(p0) < TOL


def test_apply_p_no_controls_is_identity():
    reg = basis_register(3, 0b000, 1)
    before = reg.amps.copy()
    apply_p(reg, 3)
    assert np.array_equal(reg.amps, before)


def test_apply_p_rejects_bad_t():
    with pytest.raises(ValueError):
        apply_p(prepare_register(StateLabel.ZERO, 1), 0)


def test_marginal_fresh_register():
    p0, p1 = ax_marginal(prepare_register(StateLabel.MINUS, 2))
    assert abs(p0 - 1.0) < TOL
    assert p1 == 0.0


def test_marginal_examples():
    reg = prepare_register(StateLabel.ZERO, 1)
    apply_p(reg, 3)
    p0, _ = ax_marginal(reg)
    assert abs(p0 - 0.75) < TOL

    reg = prepare_register(StateLabel.PLUS, 2)
    apply_p(reg, 5)
    p0, p1 = ax_marginal(reg)
    assert abs(p0 - 0.5) < TOL and abs(p1 - 0.5) < TOL

    reg = prepare_register(StateLabel.ZERO, 2)
    apply_p(reg, 5)
    p0, _ = ax_marginal(reg)
    assert abs(p0 - math.cos(math.pi / 5) ** 2) < TOL


@pytest.mark.parametrize("t,pattern_bits,n", [(3, 0b10, 3), (5, 0b111, 4), (7, 0b01, 3), (4, 0b1011, 5)])
def test_apply_p_product_structure(t, pattern_bits, n):
    # a basis control pattern of 1-density d leaves the register as
    # pattern (x) ((1+k^d)/2 |0> + (1-k^d)/2 |1>)
    mu = n - 2
    d = bin(pattern_bits).count("1")
    reg = basis_register(n, pattern_bits << 1, mu)
    apply_p(reg, t)
    k = PhaseRoot(t, d).value
    expected = np.zeros(2 ** n, dtype=complex)
    expected[pattern_bits << 1] = (1 + k) / 2
    expected[(pattern_bits << 1) | 1] = (1 - k) / 2
    assert np.max(np.abs(reg.amps - expected)) < TOL


@pytest.mark.parametrize("mu", range(0, 11))
def test_apply_p_preserves_norm(mu):
    rng = substream(314, mu)
    reg = prepare_register(QubitState.from_angle(rng.uniform() * 2 * math.pi), mu)
    apply_p(reg, 2 * mu + 1)
    assert abs(float(np.sum(np.abs(reg.amps) ** 2)) - 1.0) < 1e-10


def test_project_deterministic_outcome_is_identity():
    reg = prepare_register(StateLabel.ZERO, 1)
    before = reg.amps.copy()
    project_ax(reg, 0)
    assert np.array_equal(reg.amps, before)
    reg = prepare_register(StateLabel.PLUS, 1)
    before = reg.amps.copy()
    project_ax(reg, 0)
    assert np.max(np.abs(reg.amps - before)) < TOL


def test_project_rejects_zero_probability():
    with pytest.raises(ValueError):
        project_ax(prepare_register(StateLabel.PLUS, 1), 1)
    with pytest.raises(ValueError):
        project_ax(prepare_register(StateLabel.PLUS, 1), 2)


def test_project_absorbing_zero():
    reg = prepare_register(StateLabel.ZERO, 1)
    apply_p(reg, 3)
    project_ax(reg, 0)
    ma, mb = psi_moduli(reg)
    assert abs(ma - 1.0) < 1e-10 and mb < 1e-10


def test_project_plus_step_moduli():
    reg = prepare_register(StateLabel.PLUS, 2)
    apply_p(reg, 5)
    project_ax(reg, 0)
    ma, mb = psi_moduli(reg)
    assert abs(ma - 0.80902) < 1e-5
    assert abs(mb - 0.58779) < 1e-5


def test_psi_moduli_fresh():
    assert psi_moduli(prepare_register(StateLabel.ZERO, 3)) == (1.0, 0.0)
    ma, mb = psi_moduli(prepare_register(StateLabel.MINUS, 2))
    assert abs(ma - INV_SQRT2) < TOL and abs(mb - INV_SQRT2) < TOL


def test_psi_moduli_return_to_start():
    # outcomes 0 then 1 rescale both components equally from plus
    params = WalkParams(2)
    reg = prepare_register(StateLabel.PLUS, 2)
    for outcome in (0, 1):
        apply_p(reg, params.t)
        project_ax(reg, outcome)
    ma, mb = psi_moduli(reg)
    assert abs(ma - INV_SQRT2) < 1e-10 and abs(mb - INV_SQRT2) < 1e-10


def test_psi_moduli_flags_entanglement():
    reg = prepare_register(StateLabel.PLUS, 1)
    apply_p(reg, 3)
    # ax not yet projected: psi is entangled with it
    with pytest.raises(ValueError):
        psi_moduli(reg)


def test_marginal_ignores_injected_phase():
    params = WalkParams(2)
    plain = prepare_register(StateLabel.PLUS, 2)
    phased = prepare_register(StateLabel.PLUS, 2)
    half = 2 ** (plain.n - 1)
    phased.amps[half:] *= np.exp(0.7j)
    apply_p(plain, params.t)
    apply_p(phased, params.t)
    a = ax_marginal(plain)
    b = ax_marginal(phased)
    assert abs(a[0] - b[0]) < TOL and abs(a[1] - b[1]) < TOL


def test_relative_phase_fresh_plus_is_zero():
    assert relative_phase(prepare_register(StateLabel.PLUS, 2)) == 0.0


def test_relative_phase_one_step():
    reg = prepare_register(StateLabel.PLUS, 2)
    apply_p(reg, 5)
    project_ax(reg, 0)
    assert abs(relative_phase(reg) - math.pi / 10) < TOL


def test_relative_phase_two_steps_recorded():
    # value after outcomes 0,1 is whatever the register says; just well-defined
    reg = prepare_register(StateLabel.PLUS, 2)
    for outcome in (0, 1):
        apply_p(reg, 5)
        project_ax(reg, outcome)
    phase = relative_phase(reg)
    assert -math.pi < phase <= math.pi


def test_relative_phase_undefined_for_basis_state():
    with pytest.raises(ValueError):
        relative_phase(prepare_register(StateLabel.ZERO, 1))


def test_walk_agreement_small():
    worst_p, worst_m = walk_agreement(60, 4, 12, 2718)
    assert worst_p < 1e-10
    assert worst_m < 1e-10


def test_walk_agreement_validates_args():
    with pytest.raises(ValueError):
        walk_agreement(10, 21, 5, 0)
    with pytest.raises(ValueError):
        walk_agreement(0, 4, 5, 0)


@pytest.mark.parametrize("mu_max", [-1, -7])
def test_negative_mu_max_is_refused(mu_max):
    message = f"mu_max must be in 0..20, got {mu_max}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        walk_agreement(10, mu_max, 5, 0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        phase_table(mu_max)


# Worst discrepancies of two fixed runs between the dense gate-by-gate
# register and the closed-form rows. Any change to the order or shape of
# the register arithmetic, or to the rows, moves these last bits. The
# second run draws mu up to 12, so registers of 2..14 qubits take part.
@pytest.mark.parametrize("config,expected", [
    ((150, 4, 20, 2718), (6.661338147750939e-16, 7.771561172376096e-16)),
    ((150, 12, 20, 8128), (1.5543122344752192e-15, 1.3322676295501878e-15)),
])
def test_walk_agreement_pinned(config, expected):
    assert walk_agreement(*config) == expected


def race_stepped(state, params, steps, choose):
    """One case of the race with the stepped reference in place of the
    rows: the register against ax_probabilities and collapse_update, down
    the outcomes choose(p0) picks. Returns the worst (probability,
    moduli) gaps and the outcome path."""
    reg = prepare_register(state, params.mu)
    worst_p = worst_m = 0.0
    path = []
    for _ in range(steps):
        apply_p(reg, params.t)
        p0_reg, p1_reg = ax_marginal(reg)
        p0, p1 = ax_probabilities(state, params)
        worst_p = max(worst_p, abs(p0_reg - p0), abs(p1_reg - p1))
        outcome = choose(p0)
        path.append(outcome)
        state = collapse_update(state, outcome, params)
        project_ax(reg, outcome)
        ma, mb = psi_moduli(reg)
        worst_m = max(worst_m, abs(ma - abs(state.alpha)), abs(mb - abs(state.beta)))
    return worst_p, worst_m, path


def stepped_agreement(cases, mu_max, max_steps, seed):
    """walk_agreement's cases and draws, raced with race_stepped. Returns
    the worst gaps over all cases and the outcome paths."""
    worst_p = worst_m = 0.0
    paths = []
    for i in range(cases):
        rng = substream(seed, i)
        mu = min(mu_max, int(rng.uniform() * (mu_max + 1)))
        steps = 1 + int(rng.uniform() * max_steps)
        state = QubitState.from_angle(rng.uniform() * 2.0 * math.pi)
        gap_p, gap_m, path = race_stepped(state, WalkParams(mu), steps,
                                          lambda p0: 0 if rng.uniform() < p0 else 1)
        worst_p, worst_m = max(worst_p, gap_p), max(worst_m, gap_m)
        paths.append(path)
    return worst_p, worst_m, paths


# The same two runs raced against the stepped model instead of the rows:
# a change to the register arithmetic moves these last bits too.
@pytest.mark.parametrize("config,expected", [
    ((150, 4, 20, 2718), (7.771561172376096e-16, 8.881784197001252e-16)),
    ((150, 12, 20, 8128), (1.7763568394002505e-15, 1.5543122344752192e-15)),
])
def test_stepped_race_pinned(config, expected):
    assert stepped_agreement(*config)[:2] == expected


def walked_paths(monkeypatch, cases, mu_max, max_steps, seed):
    """The outcome path of each case of walk_agreement, read back from the
    outcome vectors it passes to project_ax. The stacks step in mu order,
    each case of a group longest first, and a step's vector holds one
    outcome per case still walking, in stack order."""
    vectors = []
    project = oracle.project_ax

    def recording(reg, outcome):
        vectors.append(np.array(outcome).tolist())
        return project(reg, outcome)

    monkeypatch.setattr(oracle, "project_ax", recording)
    walk_agreement(cases, mu_max, max_steps, seed)
    draws = case_draws(cases, mu_max, max_steps, seed)
    paths = [[] for _ in draws]
    steps = iter(vectors)
    for mu in range(mu_max + 1):
        group = sorted((i for i, (m, _) in enumerate(draws) if m == mu),
                       key=lambda i: -draws[i][1])
        size = max(1, oracle._STACK_AMPS >> (mu + 2))
        for lo in range(0, len(group), size):
            stack = group[lo:lo + size]
            for _ in range(draws[stack[0]][1]):
                for i, outcome in zip(stack, next(steps)):
                    paths[i].append(outcome)
    assert next(steps, None) is None
    return paths


@pytest.mark.parametrize("config", [(150, 4, 20, 2718), (150, 12, 20, 8128),
                                    (200, 8, 20, 2024)])
def test_walk_agreement_follows_the_stepped_paths(monkeypatch, config):
    # the rows' p0 and the stepped p0 differ at rounding level, which moves
    # no draw of these runs across it: both races walk the same paths
    assert walked_paths(monkeypatch, *config) == stepped_agreement(*config)[2]


def perturb_rows(monkeypatch, which):
    """Scale the p0 (which = 0), alpha (1) or beta (2) that every WalkRow
    gives by 1 + 1e-9."""
    if which == 0:
        p0 = WalkRow.p0
        monkeypatch.setattr(WalkRow, "p0", lambda row, n: p0(row, n) * (1 + 1e-9))
        return
    amplitudes = WalkRow.amplitudes

    def shim(row, n):
        values = list(amplitudes(row, n))
        values[which - 1] = values[which - 1] * (1 + 1e-9)
        return tuple(values)
    monkeypatch.setattr(WalkRow, "amplitudes", shim)


@pytest.mark.parametrize("which,gap", [(0, 0), (1, 1), (2, 1)])
def test_walk_agreement_sees_a_perturbed_row(monkeypatch, which, gap):
    perturb_rows(monkeypatch, which)
    assert walk_agreement(60, 4, 12, 2718)[gap] > 1e-10


def test_walk_agreement_leaves_the_trial_row_cache_alone():
    # the oracle evaluates its stacks' rows directly, so it evicts none of
    # the rows run_trial keeps in walk_lists
    before = walk_lists.cache_info()
    walk_agreement(60, 4, 12, 2718)
    assert walk_lists.cache_info() == before


def test_walk_agreement_memory_grows_with_cases_not_steps():
    # about 400k case-steps: 25 bytes each would be 10 MB. The registers,
    # streams and counts of 2000 cases at mu <= 1 take well under 1 MiB
    tracemalloc.start()
    try:
        walk_agreement(2000, 1, 400, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def case_draws(cases, mu_max, max_steps, seed):
    """(mu, steps) of each case of walk_agreement, redrawn the way it draws them."""
    draws = []
    for i in range(cases):
        rng = substream(seed, i)
        mu = min(mu_max, int(rng.uniform() * (mu_max + 1)))
        draws.append((mu, 1 + int(rng.uniform() * max_steps)))
    return draws


LAYERS = ("apply_p", "ax_marginal", "project_ax", "psi_moduli")


def count_layer_calls(monkeypatch):
    """Count the calls of each register op that walk_agreement makes."""
    calls = {}

    def counting(name):
        original = getattr(oracle, name)

        def shim(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return shim

    for name in LAYERS:
        monkeypatch.setattr(oracle, name, counting(name))
    return calls


def test_walk_agreement_calls_each_layer_once_per_batch(monkeypatch):
    # the per-layer benchmark spans wrap these module globals; inlining one
    # of them, or calling one from another, would change these counts. The
    # cases of one mu fit one stack here, so a layer runs once per step of
    # the group's longest case
    calls = count_layer_calls(monkeypatch)
    walk_agreement(40, 6, 15, 404)
    longest = {}
    for mu, steps in case_draws(40, 6, 15, 404):
        longest[mu] = max(longest.get(mu, 0), steps)
    batches = sum(longest.values())
    assert batches < sum(steps for _, steps in case_draws(40, 6, 15, 404))
    assert {name: calls.get(name, 0) for name in LAYERS} == dict.fromkeys(LAYERS, batches)


def stack_batches(draws, cap):
    """Calls of each layer walk_agreement makes with stacks capped at cap
    amplitudes: one per step of each stack's longest case."""
    groups = {}
    for mu, steps in draws:
        groups.setdefault(mu, []).append(steps)
    total = 0
    for mu, lengths in groups.items():
        lengths.sort(reverse=True)
        total += sum(lengths[::max(1, cap >> (mu + 2))])
    return total


@pytest.mark.parametrize("cap", [1, 1 << 8])
@pytest.mark.parametrize("config,expected", [
    ((150, 4, 20, 2718), (6.661338147750939e-16, 7.771561172376096e-16)),
    ((150, 12, 20, 8128), (1.5543122344752192e-15, 1.3322676295501878e-15)),
])
def test_capped_stacks_give_the_pinned_gaps(monkeypatch, cap, config, expected):
    # a cap of one amplitude steps each case alone, once per step; a cap of
    # 2^8 splits each group into stacks of 2^(6 - mu) registers (one past
    # mu = 5)
    monkeypatch.setattr(oracle, "_STACK_AMPS", cap)
    calls = count_layer_calls(monkeypatch)
    assert walk_agreement(*config) == expected
    draws = case_draws(*config)
    if cap == 1:
        assert stack_batches(draws, cap) == sum(steps for _, steps in draws)
    assert {name: calls.get(name, 0) for name in LAYERS} == dict.fromkeys(
        LAYERS, stack_batches(draws, cap))


def feasible_outcome(u, p0, p1):
    """0 if u < p0, unless that outcome (or the other) is below the
    projection floor."""
    if p0 <= 1e-12:
        return 1
    if p1 <= 1e-12:
        return 0
    return 0 if u < p0 else 1


def exact(value) -> bytes:
    return np.ascontiguousarray(value).tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(0, 12).flatmap(lambda mu: st.tuples(
    st.just(mu),
    st.lists(st.tuples(st.floats(0.0, 2 * math.pi),
                       st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=6)),
             min_size=1, max_size=8))))
def test_stack_equals_each_register_alone(case):
    # each case runs alone first, choosing its path from its own
    # marginals; the stack, longest first, then replays those paths on
    # the cases still walking and must match every step bit for bit
    mu, specs = case
    specs = sorted(specs, key=lambda spec: -len(spec[1]))
    t = WalkParams(mu).t
    states = [QubitState.from_angle(angle) for angle, _ in specs]
    alone = []
    for state, (_, draws) in zip(states, specs):
        reg = prepare_register(state, mu)
        steps = []
        for u in draws:
            apply_p(reg, t)
            after_p = reg.amps.copy()
            marginal = ax_marginal(reg)
            outcome = feasible_outcome(u, *marginal)
            project_ax(reg, outcome)
            steps.append((after_p, marginal, outcome, reg.amps.copy(), psi_moduli(reg)))
        alone.append(steps)
    stack = prepare_register(states, mu)
    assert stack.amps.shape == (len(states), 2 ** (mu + 2))
    for j in range(len(specs[0][1])):
        live = sum(len(draws) > j for _, draws in specs)
        walking = RegisterState(stack.amps[:live], mu)
        apply_p(walking, t)
        after_p = walking.amps.copy()
        marginal = ax_marginal(walking)
        project_ax(walking, [alone[c][j][2] for c in range(live)])
        moduli = psi_moduli(walking)
        for c in range(live):
            one_after_p, one_marginal, _, one_after_project, one_moduli = alone[c][j]
            assert exact(after_p[c]) == exact(one_after_p)
            assert exact(walking.amps[c]) == exact(one_after_project)
            for got, want in zip(marginal + moduli, one_marginal + one_moduli):
                assert exact(got[c]) == exact(want)
    # the cases that left early were not touched after their last step
    assert all(exact(stack.amps[c]) == exact(alone[c][-1][3]) for c in range(len(specs)))


def stack_of(*regs):
    """A stack of the given single registers of one mu, in order."""
    return RegisterState(np.stack([reg.amps for reg in regs]), regs[0].mu)


def error_of(call, *args):
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


def test_stack_raises_the_single_entanglement_frame():
    regs = [prepare_register(label, 2) for label in (StateLabel.ZERO, StateLabel.MINUS,
                                                     StateLabel.ONE)]
    for reg in regs:
        apply_p(reg, WalkParams(2).t)
    psi_moduli(regs[0])
    psi_moduli(regs[2])
    single = error_of(psi_moduli, regs[1])
    assert single.startswith("psi is entangled (marginal entropy ")
    assert error_of(psi_moduli, stack_of(*regs)) == single


def test_stack_raises_the_single_zero_probability_frame():
    regs = [prepare_register(label, 1) for label in (StateLabel.ZERO, StateLabel.PLUS,
                                                     StateLabel.ONE)]
    apply_p(regs[0], 3)
    apply_p(regs[2], 3)
    single = error_of(project_ax, regs[1], 1)
    assert single == "outcome 1 has probability 0.000e+00; cannot project"
    assert error_of(project_ax, stack_of(*regs), [0, 1, 1]) == single
    assert error_of(project_ax, stack_of(*regs), [0, 0, 2]) == "outcome must be 0 or 1, got 2"


def test_stack_raises_the_single_norm_frame():
    good = prepare_register(StateLabel.PLUS, 1).amps
    bad = good * 1.5
    single = error_of(RegisterState, bad, 1)
    assert single.startswith("register not normalized: off by ")
    assert error_of(RegisterState, np.stack([good, bad, good]), 1) == single


def test_relative_phase_of_a_stack():
    regs = [prepare_register(label, mu) for label, mu in ((StateLabel.PLUS, 2),
                                                          (StateLabel.MINUS, 2))]
    for reg in regs:
        apply_p(reg, 5)
        project_ax(reg, 0)
    phases = relative_phase(stack_of(*regs))
    assert phases.tolist() == [relative_phase(reg) for reg in regs]


def test_oracle_tracks_one_full_path():
    # single explicit path: stepped reference and register agree step by step
    path = iter((0, 1, 1, 0, 1))
    worst_p, worst_m, _ = race_stepped(QubitState.from_angle(1.05), WalkParams(3), 5,
                                       lambda p0: next(path))
    assert worst_p < 1e-10
    assert worst_m < 1e-10


def test_phase_table_values():
    rows = phase_table(4)
    assert [mu for mu, _ in rows] == [1, 2, 3, 4]
    for mu, phase in rows:
        assert abs(phase - math.pi / (2 * (2 * mu + 1))) < TOL


def lapack_entropy(reg: RegisterState) -> float:
    """Marginal entropy of psi from LAPACK's eigenvalues: the reference
    for the closed form psi_moduli uses."""
    m = reg.amps.reshape(2, -1)
    evals = np.clip(np.linalg.eigvalsh(m @ m.conj().T), 0.0, 1.0)
    return float(-np.sum(evals[evals > 0] * np.log(evals[evals > 0])))


def closed_form_entropy(reg: RegisterState) -> float:
    return float(_psi_entropy(_psi_density(reg)))


@pytest.mark.parametrize("seed", range(6))
def test_closed_form_entropy_passes_product_registers(seed):
    rng = substream(577, seed)
    mu = int(rng.uniform() * 9)
    params = WalkParams(mu)
    reg = prepare_register(QubitState.from_angle(rng.uniform() * 2 * math.pi), mu)
    for _ in range(30):
        apply_p(reg, params.t)
        p0, _ = ax_marginal(reg)
        project_ax(reg, 0 if rng.uniform() < p0 else 1)
        psi_moduli(reg)
        assert closed_form_entropy(reg) < 1e-9
        assert lapack_entropy(reg) < 1e-9


@pytest.mark.parametrize("label", [StateLabel.PLUS, StateLabel.MINUS])
@pytest.mark.parametrize("mu", [1, 2, 5])
def test_closed_form_entropy_flags_unprojected_registers(label, mu):
    reg = prepare_register(label, mu)
    apply_p(reg, WalkParams(mu).t)
    assert lapack_entropy(reg) > 1e-9
    assert closed_form_entropy(reg) > 1e-9
    with pytest.raises(ValueError, match="entangled"):
        psi_moduli(reg)


def binary_entropy(eps: float) -> float:
    return -eps * math.log(eps) - (1 - eps) * math.log(1 - eps)


def schmidt_register(eps: float) -> RegisterState:
    """sqrt(1-eps)|u>|1,0> + sqrt(eps)|u_perp>|1,1> over (psi, dummy, ax):
    psi's marginal has eigenvalues 1 - eps and eps in a basis that gives
    its density matrix off-diagonal terms."""
    u = np.array([math.cos(0.4), math.sin(0.4) * np.exp(0.9j)])
    u_perp = np.array([-np.conj(u[1]), np.conj(u[0])])
    amps = np.zeros(8, dtype=complex)
    for psi_bit in (0, 1):
        amps[(psi_bit << 2) | 0b010] = math.sqrt(1 - eps) * u[psi_bit]
        amps[(psi_bit << 2) | 0b011] = math.sqrt(eps) * u_perp[psi_bit]
    return RegisterState(amps, 1)


def eps_for_entropy(target: float) -> float:
    lo, hi = 1e-20, 1e-3
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if binary_entropy(mid) < target else (lo, mid)
    return lo


@pytest.mark.parametrize("scale,entangled", [(1.02, True), (0.98, False)])
def test_closed_form_entropy_matches_lapack_at_threshold(scale, entangled):
    reg = schmidt_register(eps_for_entropy(1e-9 * scale))
    assert (lapack_entropy(reg) > 1e-9) is entangled
    assert (closed_form_entropy(reg) > 1e-9) is entangled
    if entangled:
        with pytest.raises(ValueError, match="entangled"):
            psi_moduli(reg)
    else:
        psi_moduli(reg)
