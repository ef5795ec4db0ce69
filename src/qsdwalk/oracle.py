"""Brute-force register simulation used to validate the closed-form walk.

The full circuit keeps mu + 2 qubits: the unknown qubit psi, mu dummy
qubits pinned to |1>, and the auxiliary qubit ax. Each round applies one
controlled-V (V the t-th root of sigma_x) from every control qubit onto
ax, so a basis pattern with d controls set hits ax with V^d. Measuring
and resetting ax reproduces the walk's collapse exactly, including the
relative phase between the psi components that the real-amplitude walk
discards. This module is the independent referee: dense, gate by gate
(one controlled-V per control, applied in place to the statevector), and
obviously correct. walk_agreement races it against the closed-form
rows (walk.WalkRow) that every other path in the package reads.

A RegisterState holds one register or a stack of them along leading
axes, and every op acts on each register of the stack alike, bit for
bit as it would on that register alone. walk_agreement steps a stack of
cases of one mu at once, so numpy's per-call cost is paid per step of
the stack rather than per step of each case. The stack's rows are one
WalkRow over arrays of starts, and each step draws every walking case's
outcome from its own stream as it goes, so each case is walked once and
a pass holds memory for its cases, not for their steps.

Qubit order is (psi, dummy_1..dummy_mu, ax) with ax least significant,
so ax marginals are sums over contiguous stride-2 slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .discriminate import MAX_TRACE_STEPS, StateLabel
from .gates import v_root
from .rng import batch_uniform, check_integer, substream_states
from .walk import QubitState, WalkParams, WalkRow

_MU_CAP = 20
# The most cases walk_agreement races: their streams, draws and counts
# are held at once (in a fresh process 100k cases peaked at 46 MiB and
# 2^20 at 77 MiB, in 17 s; 2e9 would not fit in memory).
MAX_CASES = 2**20
# The longest walk a case may take, the bound a traced trial puts on r:
# a case is stepped one step a loop, so its time grows with its length
# (one case of 63,686 steps took 16 s on a 2-core VM), and a bound past 2^63
# would overflow the integer lengths the cases are drawn as.
MAX_CASE_STEPS = MAX_TRACE_STEPS
_NORM_TOL = 1e-10
_ENTROPY_TOL = 1e-9
_PHASE_FLOOR = 1e-12
_PROB_FLOOR = 1e-15
# Most amplitudes walk_agreement steps in one stack (1 MiB): a stack
# holds up to 2^16 / 2^(mu + 2) cases, and from mu = 14 on one case.
_STACK_AMPS = 1 << 16


def _first(bad: np.ndarray, *values) -> tuple:
    """values at the first register of a stack where bad holds."""
    bad, *values = np.broadcast_arrays(bad, *values)
    i = np.flatnonzero(bad)[0]
    return tuple(value.flat[i] for value in values)


@dataclass
class RegisterState:
    """Dense statevector over mu + 2 qubits, or a stack of them along the
    leading axes of amps; mutated in place by ops."""

    amps: np.ndarray
    mu: int

    @property
    def n(self) -> int:
        return self.mu + 2

    def __post_init__(self):
        if self.n > _MU_CAP + 2:
            raise ValueError(f"register cap is mu <= {_MU_CAP}, got mu = {self.mu}")
        if self.amps.shape[-1:] != (2 ** self.n,):
            raise ValueError(f"expected {2 ** self.n} amplitudes, got {self.amps.shape}")
        norm_err = np.abs(np.sum(np.abs(self.amps) ** 2, axis=-1) - 1.0)
        bad = norm_err > _NORM_TOL
        if np.any(bad):
            raise ValueError("register not normalized: off by {:.3e}".format(*_first(bad, norm_err)))


def prepare_register(initial, mu: int) -> RegisterState:
    """Register |psi> (x) |1>^mu (x) |0> with psi from a label or amplitudes;
    a list or tuple of them prepares a stack of such registers."""
    if mu < 0 or mu > _MU_CAP:
        raise ValueError(f"mu must be in 0..{_MU_CAP}, got {mu}")
    stacked = isinstance(initial, (list, tuple))
    states = [s.to_state() if isinstance(s, StateLabel) else s
              for s in (initial if stacked else [initial])]
    n = mu + 2
    amps = np.zeros((len(states), 2 ** n), dtype=complex)
    # dummy qubits occupy bits 1..mu (ax is bit 0, psi is bit n-1)
    dummies = (2 ** mu - 1) << 1
    amps[:, dummies] = [s.alpha for s in states]
    amps[:, (1 << (n - 1)) | dummies] = [s.beta for s in states]
    return RegisterState(amps if stacked else amps[0], mu)


@lru_cache(maxsize=_MU_CAP + 1)
def _control_pairs(n: int) -> tuple[tuple[tuple, tuple], ...]:
    """Per control qubit c of an n-qubit register: the index tuples of the
    (c=1, ax=0) and (c=1, ax=1) sub-views. The leading Ellipsis spans the
    stack axes, and keeps a view (0-d for one register at n = 2) where
    all-integer indexing would copy a scalar."""
    pairs = []
    for c in range(n - 1):
        idx = [Ellipsis] + [slice(None)] * n
        idx[1 + c] = 1
        idx[n] = 0
        ax0 = tuple(idx)
        idx[n] = 1
        pairs.append((ax0, tuple(idx)))
    return tuple(pairs)


def apply_p(reg: RegisterState, t: int) -> RegisterState:
    """One controlled-v_root(t) from each of the n-1 control qubits onto ax.

    A computational-basis control pattern of 1-density d leaves ax
    transformed by v_power(t, d). Mutates reg and returns it.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    v = v_root(t)
    v00, v01, v10, v11 = v[0, 0], v[0, 1], v[1, 0], v[1, 1]
    view = reg.amps.reshape(reg.amps.shape[:-1] + (2,) * reg.n)
    for ax0, ax1 in _control_pairs(reg.n):
        sub0 = view[ax0]
        sub1 = view[ax1]
        # contiguous copies: numpy runs the arithmetic faster on them than
        # on the strided sub-views, and sub1 needs the old ax=0 values
        a0 = sub0.copy()
        a1 = sub1.copy()
        sub0[...] = v00 * a0 + v01 * a1
        sub1[...] = v10 * a0 + v11 * a1
    return reg


def _pairs(reg: RegisterState) -> np.ndarray:
    """The amplitudes as (..., 2^(n-1), 2): the last axis is ax."""
    return reg.amps.reshape(reg.amps.shape[:-1] + (-1, 2))


def _ax_prob(amps: np.ndarray) -> np.ndarray:
    """Total probability of amplitudes laid out (..., 2^(n-1))."""
    return (np.abs(amps) ** 2).sum(axis=-1)


def ax_marginal(reg: RegisterState) -> tuple[np.ndarray, np.ndarray]:
    """(Pr[ax=0], Pr[ax=1]) if ax were measured now, per register."""
    pairs = _pairs(reg)
    return _ax_prob(pairs[..., 0]), _ax_prob(pairs[..., 1])


def project_ax(reg: RegisterState, outcome) -> RegisterState:
    """Sharp measurement of ax: project onto `outcome` (one per register
    of a stack, or one for all), renormalize, reset ax to |0>.

    The reset is a basis relabeling, exact here because ax is always
    measured before reuse. Mutates reg and returns it.
    """
    outcome = np.asarray(outcome)
    bad = (outcome != 0) & (outcome != 1)
    if np.any(bad):
        raise ValueError("outcome must be 0 or 1, got {}".format(*_first(bad, outcome)))
    pairs = _pairs(reg)
    kept = np.where(outcome[..., None] == 1, pairs[..., 1], pairs[..., 0])
    p = _ax_prob(kept)
    bad = p <= _PROB_FLOOR
    if np.any(bad):
        raise ValueError("outcome {} has probability {:.3e}; cannot project"
                         .format(*_first(bad, outcome, p)))
    pairs[..., 0] = kept
    pairs[..., 1] = 0.0
    reg.amps /= np.sqrt(p)[..., None]
    return reg


def _psi_rows(reg: RegisterState) -> np.ndarray:
    """The amplitudes as (..., 2, 2^(n-1)): row 0 has psi = 0, row 1 psi = 1."""
    return reg.amps.reshape(reg.amps.shape[:-1] + (2, -1))


def _psi_density(reg: RegisterState) -> np.ndarray:
    m = _psi_rows(reg)
    return m @ np.swapaxes(m.conj(), -1, -2)


def _psi_entropy(rho: np.ndarray) -> np.ndarray:
    """Von Neumann entropy of 2x2 density matrices (..., 2, 2). Their
    eigenvalues are in closed form: the larger from the trace and
    discriminant, the smaller as det / larger. LAPACK's eigvalsh is the
    reference in the tests."""
    a = rho[..., 0, 0].real
    d = rho[..., 1, 1].real
    b = rho[..., 0, 1]
    abs_b2 = b.real * b.real + b.imag * b.imag
    half_diff = (a - d) / 2
    lam_max = (a + d) / 2 + np.sqrt(half_diff * half_diff + abs_b2)
    lam_min = (a * d - abs_b2) / lam_max
    lam = np.clip(np.stack((lam_max, lam_min)), 0.0, 1.0)
    return -(lam * np.log(np.where(lam > 0, lam, 1.0))).sum(axis=0)


def psi_moduli(reg: RegisterState) -> tuple[np.ndarray, np.ndarray]:
    """Moduli (|alpha|, |beta|) of the psi marginal, per register.

    Valid only while psi is in a product state with the rest of the
    register; entanglement here means the circuit was driven wrong
    (e.g. ax measured without a preceding projection), so it raises.
    """
    rho = _psi_density(reg)
    entropy = _psi_entropy(rho)
    bad = entropy > _ENTROPY_TOL
    if np.any(bad):
        raise ValueError("psi is entangled (marginal entropy {:.3e}); "
                         "register is not in a product state".format(*_first(bad, entropy)))
    return np.sqrt(rho[..., 0, 0].real), np.sqrt(rho[..., 1, 1].real)


def relative_phase(reg: RegisterState) -> np.ndarray:
    """arg(beta) - arg(alpha) of the psi marginal, in (-pi, pi], per register."""
    ma, mb = psi_moduli(reg)
    bad = np.minimum(ma, mb) < _PHASE_FLOOR
    if np.any(bad):
        raise ValueError("relative phase undefined: moduli ({:.3e}, {:.3e})"
                         .format(*_first(bad, ma, mb)))
    m = _psi_rows(reg)
    col = np.argmax(np.abs(m[..., 0, :]) ** 2 + np.abs(m[..., 1, :]) ** 2, axis=-1)
    top = np.take_along_axis(m, col[..., None, None], axis=-1)[..., 0]
    return np.angle(top[..., 1] * top[..., 0].conj())


def _check_mu_max(mu_max: int) -> None:
    if not 0 <= check_integer(mu_max, "mu_max") <= _MU_CAP:
        raise ValueError(f"mu_max must be in 0..{_MU_CAP}, got {mu_max}")


def _race_stack(states: np.ndarray, angles: np.ndarray, lengths: np.ndarray,
                mu: int) -> tuple[float, float]:
    """Step a stack of cases of one mu, longest first, from the start
    angles: the cases still walking at a step are a prefix of the stack.
    Each step draws once from the stream of every case still walking
    (`states`, advanced in place) and takes outcome 0 where the draw is
    below the row's p0. Returns the worst (probability, moduli) gaps to
    the rows."""
    params = WalkParams(mu)
    starts = [QubitState.from_angle(angle) for angle in angles.tolist()]
    # one row per case, each evaluated at its own net count n
    row = stack = WalkRow.of(*np.array([(s.alpha, s.beta) for s in starts]).T, params)
    walking = prepare_register(starts, mu)
    n = np.zeros(len(starts), dtype=int)
    lengths = lengths.tolist()
    live = len(lengths)
    worst_p = worst_m = 0.0
    for j in range(lengths[0]):
        if lengths[live - 1] == j:
            # the cases that ended at step j sit at the end of the stack
            while lengths[live - 1] == j:
                live -= 1
            walking = RegisterState(walking.amps[:live], mu)
            row = stack[:live]
            states, n = states[:live], n[:live]
        apply_p(walking, params.t)
        p0_reg, p1_reg = ax_marginal(walking)
        p0 = row.p0(n)
        worst_p = max(worst_p, np.abs(p0_reg - p0).max(), np.abs(p1_reg - (1.0 - p0)).max())
        outcome = (batch_uniform(states) >= p0).astype(np.int8)
        n += 1 - 2 * outcome
        project_ax(walking, outcome)
        ma, mb = psi_moduli(walking)
        alpha, beta = row.amplitudes(n)
        worst_m = max(worst_m, np.abs(ma - np.abs(alpha)).max(),
                      np.abs(mb - np.abs(beta)).max())
    return float(worst_p), float(worst_m)


def check_agreement_sizes(cases: int, mu_max: int, max_steps: int) -> None:
    """Refuse walk_agreement's sizes unless cases is in 1..MAX_CASES,
    mu_max in 0.._MU_CAP and max_steps in 1..MAX_CASE_STEPS, all integers."""
    _check_mu_max(mu_max)
    if not 1 <= check_integer(cases, "cases") <= MAX_CASES:
        raise ValueError(f"cases must be in 1..{MAX_CASES}, got {cases}")
    if not 1 <= check_integer(max_steps, "max_steps") <= MAX_CASE_STEPS:
        raise ValueError(f"max_steps must be in 1..{MAX_CASE_STEPS}, got {max_steps}")


def walk_agreement(cases: int, mu_max: int, max_steps: int,
                   master_seed: int) -> tuple[float, float]:
    """Race the closed-form walk rows against the register simulation.

    Case i draws from substream i of master_seed: mu <= mu_max, a walk
    length of up to max_steps and a random normalized start state, then
    one draw per step. The cases of one mu are stepped together, in
    stacks of at most _STACK_AMPS amplitudes; at each step the register
    of every case walking is compared with the walk.WalkRow of its start
    state (the rows every package path shares) at its net count
    n = j0 - j1, and takes the outcome that case's draw picks from the
    row's p0. Memory grows with the cases, not with their steps, and
    cases past MAX_CASES or walks past MAX_CASE_STEPS are refused before
    any draw (check_agreement_sizes).
    Returns the worst disagreement seen in (ax probabilities,
    post-measurement amplitude moduli).
    """
    check_agreement_sizes(cases, mu_max, max_steps)
    states = substream_states(master_seed, 0, cases)
    mus = np.minimum(mu_max, (batch_uniform(states) * (mu_max + 1)).astype(int))
    lengths = 1 + (batch_uniform(states) * max_steps).astype(int)
    angles = batch_uniform(states) * 2.0 * math.pi
    worst_p = worst_m = 0.0
    for mu in range(mu_max + 1):
        group = np.flatnonzero(mus == mu)
        # longest first, so the cases still walking at a step are a prefix
        group = group[np.argsort(-lengths[group], kind="stable")]
        size = max(1, _STACK_AMPS >> (mu + 2))
        for lo in range(0, len(group), size):
            stack = group[lo:lo + size]
            gap_p, gap_m = _race_stack(states[stack], angles[stack], lengths[stack], mu)
            worst_p, worst_m = max(worst_p, gap_p), max(worst_m, gap_m)
    return worst_p, worst_m


def phase_table(mu_max: int) -> list[tuple[int, float]]:
    """Relative phase one projected step puts between the psi components.

    Measured by the register itself (from |+>, outcome 0), one row per
    mu in 1..mu_max. This is the phase the real-amplitude walk drops.
    """
    _check_mu_max(mu_max)
    rows = []
    for mu in range(1, mu_max + 1):
        params = WalkParams(mu)
        reg = prepare_register(StateLabel.PLUS, mu)
        apply_p(reg, params.t)
        project_ax(reg, 0)
        rows.append((mu, relative_phase(reg)))
    return rows
