"""Deterministic pseudorandom streams built on splitmix64.

Every trial owns an independent substream derived from a 64-bit master
seed, so experiments are reproducible bit for bit and trials can run in
any order (or in parallel) without changing results. Uniform draws map
the top 53 bits of each 64-bit output onto the double grid in [0, 1).
A draw steps a stream's state by the golden-ratio increment, and only
this module steps it: batch_uniform draws one step or a block of steps.
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
    Draw from the whole batch with batch_uniform.
    """
    idx = np.arange(start, start + count, dtype=np.uint64)
    z = np.uint64(splitmix64(master_seed & _MASK64)) ^ idx
    z += _U_GOLDEN
    _mix(z, idx)  # the indices are spent, so their memory holds the shifts
    return z


def _mix(z: np.ndarray, shifted: np.ndarray) -> None:
    """mix64 on every entry of the uint64 array z, in place; `shifted`,
    a uint64 array of z's shape, is overwritten."""
    np.right_shift(z, _U30, out=shifted)
    z ^= shifted
    z *= _U_MIX1
    np.right_shift(z, _U27, out=shifted)
    z ^= shifted
    z *= _U_MIX2
    np.right_shift(z, _U31, out=shifted)
    z ^= shifted


def batch_uniform(states: np.ndarray, out: np.ndarray | None = None,
                  work: np.ndarray | None = None) -> np.ndarray:
    """Uniform draws from every stream; advances `states` in place.

    Works on any shape: each entry of `states` is one stream's state.
    `out` (float64) has states' shape for one draw per stream, or one
    more leading axis of B steps: then row b holds each stream's draw
    b + 1, and `states` moves on by B draws. The draws are mixed in
    `out` and `work` (uint64, of out's shape) and returned in `out`. A
    caller that passes both gets no new arrays but a B-entry one, and
    whatever the two held is overwritten.
    """
    if out is None:
        out = np.empty(states.shape)
    if work is None:
        work = np.empty(out.shape, dtype=np.uint64)
    steps = out.shape[:out.ndim - states.ndim]  # () or (B,)
    ahead = np.arange(1, 1 + (steps[0] if steps else 1), dtype=np.uint64) * _U_GOLDEN
    np.add(states, ahead.reshape(steps + (1,) * states.ndim), out=work)
    _mix(work, out.view(np.uint64))  # out's memory holds the shifts until the end
    states += ahead[-1]
    work >>= _U11
    return np.multiply(work, _TWO53_INV, out=out)
