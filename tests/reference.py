"""Amplitude-level references the closed-form walk rows are checked against.

The package runs every walk on walk.WalkRow: after any prefix of
outcomes the amplitudes depend on the net count n = j0 - j1 alone, in
closed form. The functions here step the amplitudes themselves instead,
so the tests can hold the rows to an independent model.
ax_probabilities and collapse_update are one step of it: the outcome
probabilities of a state and the state an outcome leaves. stepped_chain
walks one start out along both chains of equal outcomes, one
collapse_update per count. apply_hadamard_update and restart_after_h
rotate one state at a time, as the restart rows after H are checked. step_arrays mirrors ax_probabilities and
collapse_update term for term, one draw per trial and step; the
package decides a trial from four draws instead, so its counts are held
to reference_counts in distribution, not bit for bit. Imported by test_walk,
test_oracle, test_experiment and acceptance criterion 4. splitmix64 is
the generator in Python ints, the independent reference that
test_rng holds the package's numpy streams to. threshold_sets lists a
mu group's thresholds from every tabled entry as Python floats, as
test_experiment holds the interiors the package lists with numpy to.

The exact rates below come from branch enumeration at the decision
point followed by a binomial-mixture recursion over the remaining
iterations, independent of the engine under test; test_experiment and
the acceptance criteria hold the Monte Carlo rates to them.
"""

from __future__ import annotations

import math

import numpy as np

from qsdwalk.discriminate import DecisionRule, StateLabel
from qsdwalk.experiment import ExperimentConfig
from qsdwalk.gates import SQRT2, PhaseRoot
from qsdwalk.rng import batch_uniform, substream_states
from qsdwalk.walk import QubitState, WalkParams

_PROB_FLOOR = 1e-15

# success rates and H-rate under the default rule: mu=2, r=100, k=2,
# interval (0,1)
EXACT_TOTAL = {
    StateLabel.ZERO: 0.7737454492538175,
    StateLabel.ONE: 0.773218841926252,
    StateLabel.PLUS: 0.7259927928490499,
    StateLabel.MINUS: 0.7254661855214846,
}
EXACT_P_H = 0.45225424859373686
# always-apply-h at mu=1 (r=100, k=2). At mu=1, c0^2 = 3/4, c1^2 = 1/4,
# c1 = s0 and s1 = c0. For |+> the first two outcomes disagree with
# probability 3/8, which leaves exactly |+>; H maps it to |0> and the
# vote is right almost surely. Otherwise (5/8) the amplitudes are
# (3,1)/sqrt10 or (1,3)/sqrt10, after H alpha^2 = 4/5, and since
# alpha^2 is a martingale the walk ends at the right pole with
# probability 4/5. Total 3/8 + 5/8 * 4/5 = 7/8, less r-step leakage.
EXACT_ALWAYS_MU1 = {StateLabel.PLUS: 0.8749999832256395,
                    StateLabel.MINUS: 0.8749998984922417}


def splitmix64(state: int, count: int) -> list[int]:
    """The first `count` 64-bit outputs of a splitmix64 generator at `state`."""
    outputs = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        outputs.append(z ^ (z >> 31))
    return outputs


def ax_probabilities(state: QubitState, params: WalkParams) -> tuple[float, float]:
    """Probabilities of auxiliary-qubit outcomes 0 and 1.

    p0 = alpha^2 cos^2(d0 pi/2t) + beta^2 cos^2(d1 pi/2t) and p1 the
    sine counterpart; p0 + p1 = 1 up to rounding.
    """
    c0, c1, s0, s1 = params.factors
    # the products collapse_update takes; step_arrays repeats this shape,
    # so it agrees bit for bit
    a0 = state.alpha * c0
    b0 = state.beta * c1
    a1 = state.alpha * s0
    b1 = state.beta * s1
    return a0 * a0 + b0 * b0, a1 * a1 + b1 * b1


def collapse_update(state: QubitState, outcome: int, params: WalkParams) -> QubitState:
    """Post-measurement amplitudes after observing `outcome` on ax."""
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    c0, c1, s0, s1 = params.factors
    if outcome == 0:
        a = state.alpha * c0
        b = state.beta * c1
    else:
        a = state.alpha * s0
        b = state.beta * s1
    n2 = a * a + b * b
    if n2 < _PROB_FLOOR:
        raise ValueError(f"outcome {outcome} has vanishing probability {n2:.3e}")
    norm = math.sqrt(n2)
    return QubitState(a / norm, b / norm)


def stepped_chain(start: QubitState, params: WalkParams, reach: int) -> list[QubitState]:
    """The states at net counts n = -reach .. reach (index reach + n):
    |n| equal outcomes from start, 0 for n > 0 and 1 for n < 0, each a
    collapse_update. A step of vanishing probability (mu = 0 from a
    basis state) keeps the state, as no walk takes that branch."""
    sides = []
    for outcome in (0, 1):
        state, side = start, []
        for _ in range(reach):
            try:
                state = collapse_update(state, outcome, params)
            except ValueError:
                pass
            side.append(state)
        sides.append(side)
    pos, neg = sides
    return neg[::-1] + [start] + pos


def apply_hadamard_update(state: QubitState) -> QubitState:
    """Rotate into the Hadamard basis: ((a+b)/sqrt2, (a-b)/sqrt2)."""
    return QubitState((state.alpha + state.beta) / SQRT2,
                      (state.alpha - state.beta) / SQRT2)


def restart_after_h(before: QubitState, params: WalkParams, k: int,
                    phase: bool = False) -> tuple[float, float, float]:
    """(alpha^2, sign of alpha, sign of beta) of the walk that H restarts
    at step k in state `before`, one state at a time in Python floats:
    apply_hadamard_update, or for the phase-tracking walk the moduli
    |alpha +- beta exp(i k pi/2t)|/sqrt2, then alpha^2 as sigma(x0) of
    x0 = 2 ln(|alpha|/|beta|), as a walk row holds it."""
    if phase:
        beta = before.beta * PhaseRoot(2 * params.t, k).value
        a, b = abs(before.alpha + beta) / SQRT2, abs(before.alpha - beta) / SQRT2
    else:
        after = apply_hadamard_update(before)
        a, b = after.alpha, after.beta
    x0 = 2.0 * math.log(abs(a) / abs(b)) if a and b else math.copysign(math.inf, abs(a) - abs(b))
    t = math.exp(-abs(x0))
    return (1.0 if x0 >= 0 else t) / (1.0 + t), math.copysign(1.0, a), math.copysign(1.0, b)


def weak_step(state: QubitState, params: WalkParams, rng) -> tuple[int, QubitState]:
    """Sample one auxiliary-qubit outcome and collapse.

    Consumes exactly one uniform draw; outcome is 0 iff the draw is
    strictly below p0.
    """
    p0, _ = ax_probabilities(state, params)
    outcome = 0 if rng.uniform() < p0 else 1
    return outcome, collapse_update(state, outcome, params)


def step_arrays(alpha: np.ndarray, beta: np.ndarray,
                factors: tuple[float, float, float, float],
                u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized weak_step over trial arrays.

    Expression structure mirrors the scalar path exactly, so a batch of
    walks is bit-identical to the same walks run one weak_step at a
    time. Returns (outcome0_mask, alpha, beta).
    """
    c0, c1, s0, s1 = factors
    a0 = alpha * c0
    b0 = beta * c1
    a1 = alpha * s0
    b1 = beta * s1
    p0 = a0 * a0 + b0 * b0
    p1 = a1 * a1 + b1 * b1
    out0 = u < p0
    norm = np.sqrt(np.where(out0, p0, p1))
    return out0, np.where(out0, a0, a1) / norm, np.where(out0, b0, b1) / norm


def walk_ensemble(state: QubitState, params: WalkParams, steps: int, trials: int,
                  master_seed: int, rule: DecisionRule | None = None):
    """Run `trials` independent walks of `steps` steps with step_arrays.

    Trial i draws from substream(master_seed, i). Given a rule, the
    walks it sends through H at step rule.k are rotated in place there.
    Returns (alpha, beta, worst, j0, h): the final amplitudes, the worst
    |alpha^2 + beta^2 - 1| seen at any visited state, the outcome-0
    counts, and whether H fired.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    streams = substream_states(master_seed, 0, trials)
    alpha = np.full(trials, state.alpha)
    beta = np.full(trials, state.beta)
    factors = params.factors
    j0 = np.zeros(trials, dtype=np.int64)
    h = np.zeros(trials, dtype=bool)
    worst = 0.0
    for j in range(1, steps + 1):
        u = batch_uniform(streams)
        out0, alpha, beta = step_arrays(alpha, beta, factors, u)
        j0 += out0
        if rule is not None and j == rule.k:
            if rule.mode == "always-apply-h":
                h = np.ones(trials, dtype=bool)
            elif rule.mode == "interval":
                h = (j0 / rule.k > rule.i1) & (j0 / rule.k < rule.i2)
            ha = (alpha + beta) / SQRT2
            hb = (alpha - beta) / SQRT2
            alpha = np.where(h, ha, alpha)
            beta = np.where(h, hb, beta)
        drift = float(np.max(np.abs(alpha * alpha + beta * beta - 1.0)))
        if drift > worst:
            worst = drift
    return alpha, beta, worst, j0, h


def reference_counts(state: StateLabel, config: ExperimentConfig) -> tuple[int, int, int, int]:
    """The batch kernel as it was before the count-indexed tables: the
    amplitude arrays are stepped with step_arrays and rotated in place
    by H at step k (walk_ensemble with the rule). Returns the counts of
    experiment._build_report."""
    _, _, _, j0, h = walk_ensemble(state.to_state(), WalkParams(config.mu), config.r,
                                   config.trials, config.master_seed, config.rule)
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


def threshold_sets(tables) -> list[list[float]]:
    """The thresholds each draw of a mu group's jobs is compared with
    (discriminate.draw_thresholds), entry by entry in Python floats: the
    sorted set of values strictly between 0 and 1 of the starts' alpha^2
    (u0), both step-k CDFs (u1), every zero_after entry (u2), and every
    below and through entry of the vote (u3)."""
    law = tables[0].law
    return [sorted({v for v in values if 0.0 < v < 1.0}) for values in (
        [t.zero_start for t in tables],
        law.step_k[0].cdf.tolist() + law.step_k[1].cdf.tolist(),
        [a for t in tables for a in t.zero_after.ravel().tolist()],
        law.below.ravel().tolist() + law.through.ravel().tolist())]
