"""Single-qubit gate algebra around the t-th root of the NOT gate.

The partial-negation operator V = sigma_x^(1/t) is the workhorse here.
Writing k = exp(i*pi/t) for the principal t-th root of -1,

    V^d = 1/2 [[1 + k^d, 1 - k^d],
               [1 - k^d, 1 + k^d]]

so the diagonal entry has modulus cos(d*pi/2t) and the off-diagonal one
sin(d*pi/2t). Those two moduli are what the weak-measurement walk sees;
the entries themselves also carry a phase of d*pi/2t that the walk
drops, which is why both the complex matrix and the moduli are exposed.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)


def sigma_x() -> np.ndarray:
    """NOT gate: [[0, 1], [1, 0]]."""
    return np.array([[0, 1], [1, 0]], dtype=complex)


def hadamard() -> np.ndarray:
    """H = 1/sqrt(2) [[1, 1], [1, -1]]."""
    return np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2


def rx(theta: float) -> np.ndarray:
    """Rotation about x: Rx(theta) = I*cos(theta/2) - i*sigma_x*sin(theta/2)."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


@dataclass(frozen=True)
class PhaseRoot:
    """The scalar k^d with k = exp(i*pi/t), t >= 1, d >= 0.

    The angle is computed directly as d*pi/t; repeated multiplication of
    k would accumulate rounding over large d.
    """

    t: int
    d: int = 1

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"t must be a positive integer, got {self.t}")
        if self.d < 0:
            raise ValueError(f"d must be non-negative, got {self.d}")

    @property
    def value(self) -> complex:
        return cmath.exp(1j * (math.pi * self.d / self.t))

    @property
    def diag_modulus(self) -> float:
        """|(1 + k^d)/2| = cos(d*pi/2t)."""
        return math.cos(math.pi * self.d / (2 * self.t))

    @property
    def offdiag_modulus(self) -> float:
        """|(1 - k^d)/2| = sin(d*pi/2t)."""
        return math.sin(math.pi * self.d / (2 * self.t))


def v_power(t: int, d: int) -> np.ndarray:
    """d-th power of the t-th root of sigma_x, in closed form."""
    k = PhaseRoot(t, d).value
    p = (1 + k) / 2
    m = (1 - k) / 2
    return np.array([[p, m], [m, p]])


@functools.cache
def v_root(t: int) -> np.ndarray:
    """V = sigma_x^(1/t) = exp(i*pi/2t) * Rx(pi/t).

    Built once per t and shared by every caller, so it is read-only.
    """
    v = v_power(t, 1)
    v.flags.writeable = False
    return v


def is_unitary(m: np.ndarray, tol: float = 1e-12) -> bool:
    """True when m @ m^dagger is the identity within tol."""
    m = np.asarray(m)
    return bool(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) < tol)
