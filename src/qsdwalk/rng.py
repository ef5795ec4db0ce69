"""Deterministic pseudorandom streams built on splitmix64.

Every trial owns an independent substream derived from a 64-bit master
seed, so experiments are reproducible bit for bit and trials can run in
any order (or in parallel) without changing results. Uniform draws map
the top 53 bits of each 64-bit output onto the double grid in [0, 1).
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TWO53_INV = 2.0 ** -53

# numpy copies of the constants; uint64 array arithmetic wraps mod 2^64
_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)


def mix64(z: int) -> int:
    """splitmix64 output function (finalizer) on a 64-bit integer."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def splitmix64(state: int) -> int:
    """First output of a splitmix64 generator started at `state`."""
    return mix64((state + _GOLDEN) & _MASK64)


class SplitMix64:
    """Sequential splitmix64 stream.

    next_u64 advances the state by the golden-ratio increment and mixes;
    uniform() returns (output >> 11) / 2^53.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * _TWO53_INV


def substream(master_seed: int, index: int) -> SplitMix64:
    """Independent stream number `index` under a master seed.

    The substream seed is splitmix64(master_seed XOR index), so streams
    depend only on the pair (master_seed, index).
    """
    return SplitMix64(splitmix64((master_seed ^ index) & _MASK64))


def substream_states(master_seed: int, start: int, count: int) -> np.ndarray:
    """uint64 state vector for substreams start .. start+count-1.

    Entry i matches substream(master_seed, start + i); advance the whole
    batch one draw at a time with batch_uniform.
    """
    idx = np.arange(start, start + count, dtype=np.uint64)
    s = np.uint64(master_seed & _MASK64) ^ idx
    s = s + _U_GOLDEN
    z = (s ^ (s >> _U30)) * _U_MIX1
    z = (z ^ (z >> _U27)) * _U_MIX2
    return z ^ (z >> _U31)


def step_offsets(count: int) -> np.ndarray:
    """uint64 offsets b * golden (mod 2^64) for b = 0 .. count-1.

    A splitmix64 state advances by adding the golden-ratio increment,
    so states + offset b are those streams b draws further on: adding
    step_offsets(B)[:, None] to a state vector gives a (B, count) block
    whose row b, passed to batch_uniform, yields each stream's draw b+1.
    """
    return np.array([b * _GOLDEN & _MASK64 for b in range(count)], dtype=np.uint64)


def batch_uniform(states: np.ndarray) -> np.ndarray:
    """One uniform draw from every stream; advances `states` in place.

    Works on any shape: each entry is one stream's state.
    """
    states += _U_GOLDEN
    z = states >> _U30
    z ^= states
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    z >>= _U11
    return z * _TWO53_INV
