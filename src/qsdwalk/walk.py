"""Measurement-induced random walk on real qubit amplitudes.

One weak-measurement round entangles the unknown qubit psi with an
auxiliary qubit through t = 2*mu + 1 partial negations: the |0>
component of psi is seen with 1-density d0 = mu (only the mu dummy
qubits are set) and the |1> component with d1 = mu + 1. Measuring the
auxiliary qubit then nudges (alpha, beta):

    outcome 0:  (alpha*cos(d0*pi/2t), beta*cos(d1*pi/2t)) / norm
    outcome 1:  (alpha*sin(d0*pi/2t), beta*sin(d1*pi/2t)) / norm

Because d0 + d1 = t the two cosine factors are complementary, which
makes alpha^2 a bounded martingale: the walk drifts towards (1,0) or
(0,1) at a rate set by mu and never changes E[alpha^2].

The same complementarity (c1 = s0, s1 = c0) gives the walk a closed
form. Outcome 0 multiplies alpha/beta by rho = c0/c1 and outcome 1
divides it by rho, so after any prefix of outcomes with net count
n = j0 - j1 the amplitudes are proportional to (alpha * rho^n, beta).
With x0 = ln(alpha^2/beta^2) and the logistic sigma(x) = 1/(1 + e^-x):

    alpha_n^2 = sigma(x0 + 2n ln rho)
    p0(n) = c1^2 + (c0^2 - c1^2) * sigma(x0 + 2n ln rho)

A WalkRow (x0 and the signs of alpha and beta) evaluates p0 or the state
over an array of net counts in one numpy expression, just out to the
counts a caller reaches; a WalkRow over arrays of x0 and signs is a
stack of rows, each read at its own count, and WalkRow.of builds either
from amplitudes. The Monte Carlo engine reads alpha^2 of each row's
start, the per-trial trace its states (through the cached walk_lists)
and the register oracle its p0. At mu = 0 (c1 = 0) the first outcome
collapses the state.

The rows are the real-amplitude walk; the relative phase that a full
register simulation develops per step is deliberately not tracked. The
oracle module races the rows against a dense register down the same
outcome paths, and measures that phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .gates import PhaseRoot
from .rng import check_integer

_NORM_TOL = 1e-10


@dataclass(frozen=True)
class QubitState:
    """Real amplitude pair (alpha, beta) with alpha^2 + beta^2 = 1."""

    alpha: float
    beta: float

    def __post_init__(self):
        err = abs(self.alpha * self.alpha + self.beta * self.beta - 1.0)
        if err > _NORM_TOL:
            raise ValueError(f"state not normalized: |alpha^2+beta^2-1| = {err:.3e}")

    @classmethod
    def from_angle(cls, phi: float) -> "QubitState":
        """(cos(phi), sin(phi))."""
        return cls(math.cos(phi), math.sin(phi))


@dataclass(frozen=True)
class WalkParams:
    """Walk geometry for mu dummy qubits: t = 2*mu+1, d0 = mu, d1 = mu+1."""

    mu: int

    def __post_init__(self):
        object.__setattr__(self, "mu", check_integer(self.mu, "mu"))
        if self.mu < 0:
            raise ValueError(f"mu must be non-negative, got {self.mu}")

    @property
    def t(self) -> int:
        return 2 * self.mu + 1

    @property
    def d0(self) -> int:
        return self.mu

    @property
    def d1(self) -> int:
        return self.mu + 1

    @cached_property
    def factors(self) -> tuple[float, float, float, float]:
        """(c0, c1, s0, s1) = cos/sin of d0*pi/2t and d1*pi/2t, the entry
        moduli of V^d0 and V^d1 (gates.PhaseRoot).

        Computed once so every code path (scalar and vectorized) shares
        bit-identical constants.
        """
        root0 = PhaseRoot(self.t, self.d0)
        root1 = PhaseRoot(self.t, self.d1)
        return (root0.diag_modulus, root1.diag_modulus,
                root0.offdiag_modulus, root1.offdiag_modulus)


# |x| past which t = e^-|x| underflows to 0, so the amplitudes are
# exactly (+-1, +-0) or (+-0, +-1) and p0 exactly its edge value
_FROZEN_X = 746.0


@dataclass(frozen=True)
class WalkRow:
    """The walk from one start state, in closed form over the net count n:
    x0 = ln(alpha^2 / beta^2) of the start (+-inf for a basis state) and
    the signs of (alpha, beta). Starts with one x0 share every p0. The
    three may also be equal-shaped arrays, one entry per start: p0 and
    amplitudes then broadcast them against the counts n."""

    params: WalkParams
    x0: float
    sign_alpha: float
    sign_beta: float

    @classmethod
    def of(cls, alpha, beta, params: WalkParams) -> "WalkRow":
        """The row through amplitudes (alpha, beta), or the stack of rows
        through equal-shaped arrays of them: x0 = 2 ln(|alpha|/|beta|),
        +-inf where a modulus is 0."""
        with np.errstate(divide="ignore"):
            x0 = 2.0 * np.log(np.abs(alpha) / np.abs(beta))
        return cls(params, x0, np.copysign(1.0, alpha), np.copysign(1.0, beta))

    @classmethod
    def start(cls, state: QubitState, params: WalkParams) -> "WalkRow":
        return cls.of(state.alpha, state.beta, params)

    def __getitem__(self, index) -> "WalkRow":
        """Row `index` of a stack, or the sub-stack a slice selects."""
        return WalkRow(self.params, self.x0[index], self.sign_alpha[index],
                       self.sign_beta[index])

    def _x(self, n: np.ndarray) -> np.ndarray:
        """ln(alpha_n^2 / beta_n^2) at the net counts n."""
        if self.params.mu:
            return self.x0 + n * _slope(self.params)
        # c1 = 0: the first outcome sends x past any finite value, onto
        # (1,0) or (0,1), unless x0 is the other infinity: a branch of
        # probability zero keeps the start state
        return self.x0 + np.sign(n) * np.finfo(float).max

    def amplitudes(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(alpha, beta) at the net counts n."""
        x = self._x(n)
        # sqrt(sigma) and sqrt(1 - sigma) from t = e^-|x| <= 1, which
        # neither overflows nor cancels in the tails
        t = np.exp(-np.abs(x))
        major = np.sqrt(1.0 / (1.0 + t))
        minor = np.sqrt(t / (1.0 + t))
        up = x >= 0
        return (self.sign_alpha * np.where(up, major, minor),
                self.sign_beta * np.where(up, minor, major))

    @property
    def alpha2(self) -> np.ndarray:
        """alpha^2 of the start, sigma(x0), per row: exactly 1 or 0 at
        x0 = +-inf."""
        t = np.exp(-np.abs(self.x0))
        return np.where(self.x0 >= 0, 1.0, t) / (1.0 + t)

    def p0(self, n: np.ndarray) -> np.ndarray:
        """Probability of outcome 0 at the net counts n."""
        return _p0(self.params, *self.amplitudes(n))

    @property
    def frozen(self) -> int:
        """A count m with p0, alpha and beta all constant, bit for bit,
        on each side of |n| >= m: 1169 counts at mu = 2 from plus. It is
        one past the first |n| with |x| >= _FROZEN_X on both sides."""
        if not self.params.mu or math.isinf(self.x0):
            return 1
        # the side walking away from x0's sign is the longer one
        return 1 + math.ceil((_FROZEN_X + abs(self.x0)) / _slope(self.params))


def _slope(params: WalkParams) -> float:
    """2 ln(c0/c1): how far one outcome 0 moves x (mu >= 1)."""
    return 2.0 * math.log(params.factors[0] / params.factors[1])


def _p0(params: WalkParams, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """alpha^2 c0^2 + beta^2 c1^2 as the squares of the products a stepped
    walk takes, so the edges agree with its p0 bit for bit."""
    c0, c1, _, _ = params.factors
    a0, b0 = alpha * c0, beta * c1
    return a0 * a0 + b0 * b0


@lru_cache(maxsize=64)
def walk_lists(row: WalkRow, reach: int) -> tuple[list[float], list[float]]:
    """alpha and beta of `row` at |n| <= reach, as Python floats for
    run_trial's traced steps, which read the same few rows trial after
    trial: list[n] holds count n (negative n from the end)."""
    n = np.arange(2 * reach + 1)
    n[reach + 1:] -= 2 * reach + 1
    alpha, beta = row.amplitudes(n)
    return alpha.tolist(), beta.tolist()
