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

The same complementarity makes the walk count-indexed: for mu >= 1,
after any prefix of outcomes the amplitudes are proportional to
(alpha * (c0/c1)^n, beta), with n = j0 - j1 the net count, so they
depend on n alone. walk_table memoizes them, with p0, along n; the
Monte Carlo engine and the per-trial rule both read it. (At mu = 0 the
first outcome collapses the state, and the table holds it there.)

The updates here are the real-amplitude walk; the relative phase that a
full register simulation develops per step is deliberately not tracked
(the statevector oracle module quantifies it).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .gates import PhaseRoot

_NORM_TOL = 1e-10
_PROB_FLOOR = 1e-15


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


def ax_probabilities(state: QubitState, params: WalkParams) -> tuple[float, float]:
    """Probabilities of auxiliary-qubit outcomes 0 and 1.

    p0 = alpha^2 cos^2(d0 pi/2t) + beta^2 cos^2(d1 pi/2t) and p1 the
    sine counterpart; p0 + p1 = 1 up to rounding.
    """
    c0, c1, s0, s1 = params.factors
    # the products collapse_update takes; the tests' amplitude-level
    # reference (step_arrays) repeats this shape, so it agrees bit for bit
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


def _next_state(state: QubitState, outcome: int, params: WalkParams) -> QubitState | None:
    """The next state along the chain of `outcome` steps, or None where
    the chain ends: at a fixed point, or on a branch of vanishing
    probability (mu = 0 from a basis state)."""
    try:
        nxt = collapse_update(state, outcome, params)
    except ValueError:
        return None
    return None if nxt == state else nxt


class WalkTable:
    """The walk from one start state, indexed by the net count n = j0 - j1.

    Entry n is the state after |n| equal outcomes (0 for n > 0, 1 for
    n < 0), stepped with collapse_update. Any other path to n reaches
    the same amplitudes up to rounding in the last bits.

    p0 holds the outcome-0 probability at n = -lo .. hi. Each chain is
    cut where p0 stops changing, which depends on mu and not on how long
    a walk runs; beyond the cut p0 is the edge value. States are stepped
    and kept only as far as they are asked for.
    """

    def __init__(self, start: QubitState, params: WalkParams):
        self.params = params
        # A chain is cut once the amplitude it grows is exactly +-1 and
        # both outcome probabilities already round to their values with
        # the other amplitude at zero, its edge values. From there the
        # grown amplitude stays +-1 (sqrt(x*x) == x in floats), the other
        # only shrinks, and rounding is monotone, so neither probability
        # moves again.
        edges = (ax_probabilities(QubitState(1.0, 0.0), params),
                 ax_probabilities(QubitState(0.0, 1.0), params))
        sides = []
        for outcome in (0, 1):
            state = start
            side = []
            while state is not None:
                probs = ax_probabilities(state, params)
                side.append(probs[0])
                major = state.alpha if outcome == 0 else state.beta
                if abs(major) == 1.0 and probs == edges[outcome]:
                    break
                state = _next_state(state, outcome, params)
            sides.append(side)
        pos, neg = sides
        self.lo = len(neg) - 1
        self.hi = len(pos) - 1
        self.p0 = np.array(neg[:0:-1] + pos)
        self.p0.flags.writeable = False
        # per chain (indexed by its outcome): the states at |n| = 0, 1, ...
        self._chains = ([start], [start])
        self._ended = [False, False]
        self._lock = threading.Lock()

    @cached_property
    def _p0_list(self) -> list[float]:
        # Python floats for the per-step scalar lookup, which would
        # otherwise box a numpy scalar at every step; built on first use,
        # as the batch engine reads only the array
        return self.p0.tolist()

    def p0_at(self, n: int) -> float:
        """Probability of outcome 0 at net count n."""
        return self._p0_list[min(max(n, -self.lo), self.hi) + self.lo]

    def state(self, n: int) -> QubitState:
        """The state at net count n."""
        outcome = 0 if n >= 0 else 1
        chain = self._chains[outcome]
        m = abs(n)
        if m >= len(chain) and not self._ended[outcome]:
            with self._lock:
                while m >= len(chain) and not self._ended[outcome]:
                    nxt = _next_state(chain[-1], outcome, self.params)
                    if nxt is None:
                        self._ended[outcome] = True
                    else:
                        chain.append(nxt)
        return chain[min(m, len(chain) - 1)]


@lru_cache(maxsize=256)
def walk_table(start: QubitState, params: WalkParams) -> WalkTable:
    """The memoized WalkTable of (start, params), built on first use."""
    return WalkTable(start, params)
