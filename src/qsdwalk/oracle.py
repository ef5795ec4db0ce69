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

Qubit order is (psi, dummy_1..dummy_mu, ax) with ax least significant,
so ax marginals are sums over contiguous stride-2 slices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .discriminate import StateLabel
from .gates import v_root
from .rng import substream
from .walk import QubitState, WalkParams, WalkRow, walk_lists

_MU_CAP = 20
_NORM_TOL = 1e-10
_ENTROPY_TOL = 1e-9
_PHASE_FLOOR = 1e-12
_PROB_FLOOR = 1e-15


@dataclass
class RegisterState:
    """Dense statevector over mu + 2 qubits; mutated in place by ops."""

    amps: np.ndarray
    mu: int

    @property
    def n(self) -> int:
        return self.mu + 2

    def __post_init__(self):
        if self.n > _MU_CAP + 2:
            raise ValueError(f"register cap is mu <= {_MU_CAP}, got mu = {self.mu}")
        if self.amps.shape != (2 ** self.n,):
            raise ValueError(f"expected {2 ** self.n} amplitudes, got {self.amps.shape}")
        norm_err = abs(float(np.sum(np.abs(self.amps) ** 2)) - 1.0)
        if norm_err > _NORM_TOL:
            raise ValueError(f"register not normalized: off by {norm_err:.3e}")


def prepare_register(initial, mu: int) -> RegisterState:
    """Register |psi> (x) |1>^mu (x) |0> with psi from a label or amplitudes."""
    if mu < 0 or mu > _MU_CAP:
        raise ValueError(f"mu must be in 0..{_MU_CAP}, got {mu}")
    state = initial.to_state() if isinstance(initial, StateLabel) else initial
    n = mu + 2
    amps = np.zeros(2 ** n, dtype=complex)
    # dummy qubits occupy bits 1..mu (ax is bit 0, psi is bit n-1)
    dummies = (2 ** mu - 1) << 1
    amps[dummies] = state.alpha
    amps[(1 << (n - 1)) | dummies] = state.beta
    return RegisterState(amps, mu)


@lru_cache(maxsize=_MU_CAP + 1)
def _control_pairs(n: int) -> tuple[tuple[tuple, tuple], ...]:
    """Per control qubit c of an n-qubit register: the index tuples of the
    (c=1, ax=0) and (c=1, ax=1) sub-views. The trailing Ellipsis keeps a
    view (0-d at n = 2) where all-integer indexing would copy a scalar."""
    pairs = []
    for c in range(n - 1):
        idx = [slice(None)] * n + [Ellipsis]
        idx[c] = 1
        idx[n - 1] = 0
        ax0 = tuple(idx)
        idx[n - 1] = 1
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
    view = reg.amps.reshape((2,) * reg.n)
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


def _ax_prob(pairs: np.ndarray, outcome: int) -> float:
    return float((np.abs(pairs[:, outcome]) ** 2).sum())


def ax_marginal(reg: RegisterState) -> tuple[float, float]:
    """(Pr[ax=0], Pr[ax=1]) if ax were measured now."""
    pairs = reg.amps.reshape(-1, 2)
    return _ax_prob(pairs, 0), _ax_prob(pairs, 1)


def project_ax(reg: RegisterState, outcome: int) -> RegisterState:
    """Sharp measurement of ax: project onto `outcome`, renormalize,
    reset ax to |0>.

    The reset is a basis relabeling, exact here because ax is always
    measured before reuse. Mutates reg and returns it.
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    pairs = reg.amps.reshape(-1, 2)
    p = _ax_prob(pairs, outcome)
    if p <= _PROB_FLOOR:
        raise ValueError(f"outcome {outcome} has probability {p:.3e}; cannot project")
    if outcome == 1:
        pairs[:, 0] = pairs[:, 1]
    pairs[:, 1] = 0.0
    reg.amps /= math.sqrt(p)
    return reg


def _psi_density(reg: RegisterState) -> np.ndarray:
    m = reg.amps.reshape(2, -1)
    return m @ m.conj().T


def _psi_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy of a 2x2 density matrix. Its eigenvalues are in
    closed form: the larger from the trace and discriminant, the smaller
    as det / larger. LAPACK's eigvalsh is the reference in the tests."""
    (a, b), (_, d) = rho.tolist()
    a = a.real
    d = d.real
    abs_b2 = b.real * b.real + b.imag * b.imag
    half_diff = (a - d) / 2
    lam_max = (a + d) / 2 + math.sqrt(half_diff * half_diff + abs_b2)
    lam_min = (a * d - abs_b2) / lam_max
    entropy = 0.0
    for lam in (lam_max, lam_min):
        lam = min(max(lam, 0.0), 1.0)
        if lam > 0:
            entropy -= lam * math.log(lam)
    return entropy


def psi_moduli(reg: RegisterState) -> tuple[float, float]:
    """Moduli (|alpha|, |beta|) of the psi marginal.

    Valid only while psi is in a product state with the rest of the
    register; entanglement here means the circuit was driven wrong
    (e.g. ax measured without a preceding projection), so it raises.
    """
    rho = _psi_density(reg)
    entropy = _psi_entropy(rho)
    if entropy > _ENTROPY_TOL:
        raise ValueError(f"psi is entangled (marginal entropy {entropy:.3e}); "
                         "register is not in a product state")
    return math.sqrt(rho[0, 0].real), math.sqrt(rho[1, 1].real)


def relative_phase(reg: RegisterState) -> float:
    """arg(beta) - arg(alpha) of the psi marginal, in (-pi, pi]."""
    ma, mb = psi_moduli(reg)
    if ma < _PHASE_FLOOR or mb < _PHASE_FLOOR:
        raise ValueError(f"relative phase undefined: moduli ({ma:.3e}, {mb:.3e})")
    m = reg.amps.reshape(2, -1)
    col = int(np.argmax(np.abs(m[0]) ** 2 + np.abs(m[1]) ** 2))
    return cmath.phase(m[1, col] * m[0, col].conjugate())


def _check_mu_max(mu_max: int) -> None:
    if not 0 <= mu_max <= _MU_CAP:
        raise ValueError(f"mu_max must be in 0..{_MU_CAP}, got {mu_max}")


def walk_agreement(cases: int, mu_max: int, max_steps: int,
                   master_seed: int) -> tuple[float, float]:
    """Race the closed-form walk rows against the register simulation.

    Each case draws a random normalized state, mu <= mu_max and a walk
    of up to max_steps outcomes. The register steps down that outcome
    path, drawn from the row's p0, while the net count n = j0 - j1 reads
    the walk.WalkRow of the start state (the rows every package path
    shares). Returns the worst disagreement seen in (ax probabilities,
    post-measurement amplitude moduli).
    """
    _check_mu_max(mu_max)
    if cases < 1 or max_steps < 1:
        raise ValueError("cases and max_steps must be >= 1")
    worst_p = 0.0
    worst_m = 0.0
    for i in range(cases):
        rng = substream(master_seed, i)
        mu = min(mu_max, int(rng.uniform() * (mu_max + 1)))
        steps = 1 + int(rng.uniform() * max_steps)
        state = QubitState.from_angle(rng.uniform() * 2.0 * math.pi)
        params = WalkParams(mu)
        p0, alpha, beta = walk_lists(WalkRow.start(state, params), steps)
        reg = prepare_register(state, mu)
        n = 0
        for _ in range(steps):
            apply_p(reg, params.t)
            p0_reg, p1_reg = ax_marginal(reg)
            worst_p = max(worst_p, abs(p0_reg - p0[n]), abs(p1_reg - (1.0 - p0[n])))
            outcome = 0 if rng.uniform() < p0[n] else 1
            n += 1 - 2 * outcome
            project_ax(reg, outcome)
            ma, mb = psi_moduli(reg)
            worst_m = max(worst_m, abs(ma - abs(alpha[n])), abs(mb - abs(beta[n])))
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
