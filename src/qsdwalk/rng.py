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


def check_seed(value: int, source: str) -> int:
    """`value` if it is a master seed, a 64-bit unsigned integer; else a
    ValueError naming `source`, since masking would silently replay
    another seed."""
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{source} must be in 0..2^64-1, got {value}")
    return value


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
    """Independent stream number `index` under a master seed: the stream
    of entry 0 of substream_states(master_seed, index, 1)."""
    return SplitMix64(int(substream_states(master_seed, index, 1)[0]))


def substream_states(master_seed: int, start: int, count: int) -> np.ndarray:
    """uint64 state vector for substreams start .. start+count-1.

    Stream i is seeded splitmix64(splitmix64(master_seed) XOR i), so
    streams depend only on the pair (master_seed, i). The index is XORed
    into the mixed seed, not the seed itself: two seeds that differ in
    their low bits would otherwise hand the same streams to other trial
    indices, and every report, a sum over trials, would be the same.
    Advance the whole batch one draw at a time with batch_uniform.
    """
    idx = np.arange(start, start + count, dtype=np.uint64)
    s = np.uint64(splitmix64(master_seed & _MASK64)) ^ idx
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


def batch_uniform(states: np.ndarray, out: np.ndarray | None = None,
                  work: np.ndarray | None = None) -> np.ndarray:
    """One uniform draw from every stream; advances `states` in place.

    Works on any shape: each entry is one stream's state. The draws are
    mixed in `out` (float64) and `work` (uint64), both of states' shape,
    and returned in `out`. A caller that passes both gets no new arrays,
    and whatever the two held is overwritten.
    """
    if out is None:
        out = np.empty(states.shape)
    if work is None:
        work = np.empty(states.shape, dtype=np.uint64)
    shifted = out.view(np.uint64)  # out's memory holds the shifts until the end
    states += _U_GOLDEN
    np.right_shift(states, _U30, out=work)
    work ^= states
    work *= _U_MIX1
    np.right_shift(work, _U27, out=shifted)
    work ^= shifted
    work *= _U_MIX2
    np.right_shift(work, _U31, out=shifted)
    work ^= shifted
    work >>= _U11
    return np.multiply(work, _TWO53_INV, out=out)
