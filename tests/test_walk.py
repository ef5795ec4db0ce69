import math
import warnings

import numpy as np
import pytest

from qsdwalk.rng import substream
from qsdwalk.walk import QubitState, WalkParams, WalkRow, walk_lists

from reference import (
    ax_probabilities,
    collapse_update,
    step_arrays,
    stepped_chain,
    walk_ensemble,
    weak_step,
)

INV_SQRT2 = 1 / math.sqrt(2)
PLUS = QubitState(INV_SQRT2, INV_SQRT2)
MINUS = QubitState(INV_SQRT2, -INV_SQRT2)
TOL = 1e-12


class FixedDraws:
    """rng stub returning a scripted uniform sequence."""

    def __init__(self, values):
        self._values = list(values)

    def uniform(self):
        return self._values.pop(0)


def test_qubit_state_validates_norm():
    QubitState(0.6, 0.8)
    with pytest.raises(ValueError):
        QubitState(0.5, 0.5)


def test_from_angle():
    s = QubitState.from_angle(0.3)
    assert s.alpha == math.cos(0.3)
    assert s.beta == math.sin(0.3)


@pytest.mark.parametrize("mu,t,d0,d1", [(0, 1, 0, 1), (1, 3, 1, 2), (2, 5, 2, 3), (10, 21, 10, 11)])
def test_walk_params_geometry(mu, t, d0, d1):
    p = WalkParams(mu)
    assert (p.t, p.d0, p.d1) == (t, d0, d1)


def test_walk_params_rejects_negative_mu():
    with pytest.raises(ValueError):
        WalkParams(-1)


@pytest.mark.parametrize("mu", range(0, 65))
def test_factors_complementary(mu):
    c0, c1, s0, s1 = WalkParams(mu).factors
    # d0 + d1 = t makes the two angles complementary
    assert abs(c0 - s1) < TOL
    assert abs(c1 - s0) < TOL
    assert abs(c0 * c0 + c1 * c1 - 1.0) < TOL


def test_factors_are_cos_and_sin_of_the_densities():
    for mu in range(200):
        t = 2 * mu + 1
        theta0, theta1 = mu * math.pi / (2 * t), (mu + 1) * math.pi / (2 * t)
        assert WalkParams(mu).factors == (math.cos(theta0), math.cos(theta1),
                                          math.sin(theta0), math.sin(theta1))


def test_probabilities_zero_state_mu1():
    p0, p1 = ax_probabilities(QubitState(1.0, 0.0), WalkParams(1))
    assert abs(p0 - 0.75) < TOL
    assert abs(p0 + p1 - 1.0) < TOL


def test_probabilities_zero_state_mu2():
    p0, _ = ax_probabilities(QubitState(1.0, 0.0), WalkParams(2))
    assert abs(p0 - math.cos(math.pi / 5) ** 2) < TOL


@pytest.mark.parametrize("mu", [0, 1, 2, 3, 8])
def test_probabilities_balanced_state(mu):
    p0, p1 = ax_probabilities(PLUS, WalkParams(mu))
    assert abs(p0 - 0.5) < TOL
    assert abs(p1 - 0.5) < TOL


def test_collapse_example_plus_mu2():
    out = collapse_update(PLUS, 0, WalkParams(2))
    # cos36 / sin36 after renormalization
    assert abs(out.alpha - 0.8090169943749475) < TOL
    assert abs(out.beta - 0.5877852522924731) < TOL
    assert abs(out.alpha ** 2 - 0.654508) < 1e-6


def test_collapse_rejects_bad_outcome():
    with pytest.raises(ValueError):
        collapse_update(PLUS, 2, WalkParams(1))


def test_collapse_rejects_vanishing_branch():
    # from (1,0) with mu=0 the outcome-1 branch has zero probability
    with pytest.raises(ValueError):
        collapse_update(QubitState(1.0, 0.0), 1, WalkParams(0))


@pytest.mark.parametrize("mu", [1, 2, 5])
def test_absorbing_states(mu):
    params = WalkParams(mu)
    for outcome in (0, 1):
        out = collapse_update(QubitState(1.0, 0.0), outcome, params)
        assert abs(out.alpha - 1.0) < TOL and out.beta == 0.0
        out = collapse_update(QubitState(0.0, 1.0), outcome, params)
        assert out.alpha == 0.0 and abs(out.beta - 1.0) < TOL


@pytest.mark.parametrize("phi", [0.2, 0.7, 1.1, 2.9])
@pytest.mark.parametrize("mu", [0, 1, 2, 4])
def test_martingale_identity(phi, mu):
    # E[alpha'^2] = alpha^2: the squared amplitude is a martingale
    state = QubitState.from_angle(phi)
    params = WalkParams(mu)
    p0, p1 = ax_probabilities(state, params)
    expect = p0 * collapse_update(state, 0, params).alpha ** 2
    if p1 > 1e-15:
        expect += p1 * collapse_update(state, 1, params).alpha ** 2
    assert abs(expect - state.alpha ** 2) < TOL


@pytest.mark.parametrize("mu", [1, 2, 3])
def test_swap_symmetry(mu):
    # exchanging components swaps the outcome roles
    params = WalkParams(mu)
    state = QubitState.from_angle(0.4)
    swapped = QubitState(state.beta, state.alpha)
    p0, p1 = ax_probabilities(state, params)
    q0, q1 = ax_probabilities(swapped, params)
    assert abs(p0 - q1) < TOL and abs(p1 - q0) < TOL
    a = collapse_update(state, 0, params)
    b = collapse_update(swapped, 1, params)
    assert abs(a.alpha - b.beta) < TOL and abs(a.beta - b.alpha) < TOL


def test_sign_preserved():
    params = WalkParams(2)
    state = MINUS
    rng = substream(5, 0)
    for _ in range(50):
        _, state = weak_step(state, params, rng)
        assert state.alpha > 0 and state.beta < 0


def test_weak_step_draw_boundary():
    params = WalkParams(2)
    # p0 = 0.5 for plus: a draw below goes to outcome 0, at/above to 1
    out0, s0 = weak_step(PLUS, params, FixedDraws([0.3]))
    assert out0 == 0 and s0.alpha > s0.beta
    out1, s1 = weak_step(PLUS, params, FixedDraws([0.5]))
    assert out1 == 1 and s1.alpha < s1.beta
    assert abs(s0.alpha - 0.8090169943749475) < TOL
    assert abs(s0.beta - 0.5877852522924731) < TOL


def test_weak_step_consumes_one_draw():
    draws = FixedDraws([0.9])
    weak_step(PLUS, WalkParams(1), draws)
    assert draws._values == []


def test_mu0_is_a_strong_measurement():
    params = WalkParams(0)
    state = QubitState.from_angle(0.9)
    out = collapse_update(state, 1, params)
    assert out.alpha == 0.0 and abs(abs(out.beta) - 1.0) < TOL
    out = collapse_update(state, 0, params)
    assert abs(abs(out.alpha) - 1.0) < 1e-12


def test_step_arrays_matches_scalar_exactly():
    params = WalkParams(2)
    rng = substream(11, 0)
    states = [QubitState.from_angle(0.1 * i) for i in range(1, 9)]
    alpha = np.array([s.alpha for s in states])
    beta = np.array([s.beta for s in states])
    u = np.array([rng.uniform() for _ in range(len(states))])
    out0, na, nb = step_arrays(alpha, beta, params.factors, u)
    for i, s in enumerate(states):
        expect = collapse_update(s, 0 if u[i] < ax_probabilities(s, params)[0] else 1, params)
        assert out0[i] == (u[i] < ax_probabilities(s, params)[0])
        assert na[i] == expect.alpha and nb[i] == expect.beta


def test_walk_ensemble_matches_scalar_path():
    params = WalkParams(2)
    steps, trials, seed = 40, 100, 7
    alpha, beta, drift, _, _ = walk_ensemble(PLUS, params, steps, trials, seed)
    for i in range(trials):
        rng = substream(seed, i)
        state = PLUS
        for _ in range(steps):
            _, state = weak_step(state, params, rng)
        assert alpha[i] == state.alpha and beta[i] == state.beta
    assert drift < 1e-10


def test_walk_ensemble_rejects_negative_steps():
    with pytest.raises(ValueError):
        walk_ensemble(PLUS, WalkParams(1), -1, 10, 0)


def test_single_step_outcome_frequency():
    # one step from plus is a fair coin; 1e5 samples, 0.5 +- 0.005
    alpha, beta, _, _, _ = walk_ensemble(PLUS, WalkParams(2), 1, 100_000, 2024)
    frac0 = float(np.mean(alpha > beta))
    assert abs(frac0 - 0.5) < 0.005


TABLE_STARTS = [PLUS, MINUS, QubitState.from_angle(0.3), QubitState(1.0, 0.0),
                QubitState(0.0, 1.0)]
EDGE_0 = QubitState(1.0, 0.0)
EDGE_1 = QubitState(0.0, 1.0)


def settle_count(row: WalkRow) -> int:
    """A count m with p0 at its edge value wherever |n| >= m: one past
    the first |n| with |x| >= 40 on both sides. There t = e^-|x| < 2^-56,
    so the major amplitude is exactly 1 and the minor term is below half
    an ulp of either edge p0 (c0^2 in (1/2, 1), c1^2 in [1/4, 1/2))."""
    if not row.params.mu or math.isinf(row.x0):
        return 1
    c0, c1, _, _ = row.params.factors
    return 1 + math.ceil((40.0 + abs(row.x0)) / (2.0 * math.log(c0 / c1)))


def chain_reach(row: WalkRow) -> int:
    # three times the settle point: both tails well past where p0 settles
    return 3 * max(settle_count(row), 10)


@pytest.mark.parametrize("mu", [0, 1, 2, 5])
@pytest.mark.parametrize("start", TABLE_STARTS)
def test_walk_table_is_the_monotone_chain(start, mu):
    """The closed-form p0 is the stepped chain's p0 to within 4.4e-16
    (2^-51, four ulps of a p0 in [1/2, 1)).

    A tolerance, not bit equality: the row evaluates sigma(x0 + 2n ln rho)
    in one go where the chain compounds |n| roundings of collapse_update,
    so about one entry in ten differs from the chain by an ulp or a few.
    """
    params = WalkParams(mu)
    row = WalkRow.start(start, params)
    reach = chain_reach(row)
    chain = stepped_chain(start, params, reach)
    p0 = row.p0(np.arange(-reach, reach + 1))
    expected = np.array([ax_probabilities(state, params)[0] for state in chain])
    assert np.max(np.abs(p0 - expected)) <= 2.0 ** -51


@pytest.mark.parametrize("mu", [0, 1, 2, 5])
@pytest.mark.parametrize("start", TABLE_STARTS)
def test_row_states_follow_the_monotone_chain(start, mu):
    """The closed-form amplitudes are the stepped chain's within 1e-12
    relative, component by component.

    A tolerance, not bit equality: the chain's relative error grows by an
    ulp or so per step. At mu = 0 the chain also keeps, after outcome 0,
    a minor amplitude of the order of c1 = cos(pi/2) ~ 6e-17, which the
    closed form (c1 = 0 exactly) collapses to 0, hence the 1e-15 floor.
    """
    params = WalkParams(mu)
    row = WalkRow.start(start, params)
    reach = chain_reach(row)
    chain = stepped_chain(start, params, reach)
    alpha, beta = row.amplitudes(np.arange(-reach, reach + 1))
    floor = 1e-15 if mu == 0 else 0.0
    for a, b, state in zip(alpha.tolist(), beta.tolist(), chain):
        assert math.isclose(a, state.alpha, rel_tol=1e-12, abs_tol=floor)
        assert math.isclose(b, state.beta, rel_tol=1e-12, abs_tol=floor)


@pytest.mark.parametrize("mu", [0, 1, 2, 5])
@pytest.mark.parametrize("start", TABLE_STARTS)
def test_row_far_edges_are_the_basis_p0(start, mu):
    """Far out p0 is ax_probabilities at (1,0) and at (0,1) bit for bit,
    the values the stepped chain settles on too; a basis start keeps its
    own p0 on the side it cannot leave. Both compute the same two products,
    and out there the major amplitude is exactly +-1 and the minor one far
    below an ulp of the edge, so no tolerance is needed."""
    params = WalkParams(mu)
    row = WalkRow.start(start, params)
    reach = chain_reach(row)
    chain = stepped_chain(start, params, reach)
    high = EDGE_1 if start.alpha == 0.0 else EDGE_0
    low = EDGE_0 if start.beta == 0.0 else EDGE_1
    far = row.p0(np.array([-reach, reach])).tolist()
    assert far == [ax_probabilities(low, params)[0], ax_probabilities(high, params)[0]]
    assert far == [ax_probabilities(chain[0], params)[0], ax_probabilities(chain[-1], params)[0]]


def test_walk_table_keeps_unreachable_states_at_mu0():
    params = WalkParams(0)
    one = QubitState(0.0, 1.0)
    with pytest.raises(ValueError):
        collapse_update(one, 0, params)
    row = WalkRow.start(one, params)
    alpha, beta = walk_lists(row, 5)
    assert set(row.p0(np.arange(-5, 6)).tolist()) == {ax_probabilities(one, params)[0]}
    assert set(alpha) == {0.0} and set(beta) == {1.0}


@pytest.mark.parametrize("start,high,low", [
    (QubitState(1.0, 0.0), EDGE_0, EDGE_0),  # outcome 1 has probability 0
    (QubitState(0.0, 1.0), EDGE_1, EDGE_1),  # outcome 0 has probability 0
    (PLUS, EDGE_0, EDGE_1),
])
def test_mu0_first_outcome_collapses_onto_a_basis_state(start, high, low):
    params = WalkParams(0)
    row = WalkRow.start(start, params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha, beta = walk_lists.__wrapped__(row, 6)  # built here, not cached
        p0 = row.p0(np.arange(-6, 7)).tolist()
        assert settle_count(row) == row.frozen == 1
    for n in range(1, 7):
        for state, m in ((high, n), (low, -n)):
            assert (alpha[m], beta[m]) == (state.alpha, state.beta)
            assert p0[6 + m] == ax_probabilities(state, params)[0]


@pytest.mark.parametrize("mu", [1, 10, 40])
def test_walk_table_length_depends_on_mu_only(mu):
    # p0 settles once beta^2 is below the last bit of alpha^2, a point
    # that settle_count finds from x0 and mu alone, whatever length a
    # walk runs: about 20 / ln(c0/c1) steps from plus
    row = WalkRow.start(PLUS, WalkParams(mu))
    c0, c1, _, _ = WalkParams(mu).factors
    settled = settle_count(row)
    assert settled < 40 / math.log(c0 / c1)
    n = np.arange(settled, settled + 200)
    edges = [ax_probabilities(EDGE_0, row.params)[0], ax_probabilities(EDGE_1, row.params)[0]]
    assert set(row.p0(n).tolist()) == {edges[0]}
    assert set(row.p0(-n).tolist()) == {edges[1]}


@pytest.mark.parametrize("mu", [0, 1, 2, 10])
@pytest.mark.parametrize("start", TABLE_STARTS)
def test_p0_at_reads_the_table_bit_for_bit(start, mu):
    # the scalar path's lists hold the rows' states bit for bit, at
    # every n and whatever reach they are built to
    row = WalkRow.start(start, WalkParams(mu))
    short = walk_lists(row, 7)
    lists = walk_lists(row, 60)
    n = np.arange(-60, 61)
    for values, inner, expected in zip(lists, short, row.amplitudes(n)):
        assert len(values) == 121 and all(type(value) is float for value in values)
        assert [values[m].hex() for m in n] == [float(e).hex() for e in expected]
        assert [values[m] for m in range(-7, 8)] == [inner[m] for m in range(-7, 8)]
