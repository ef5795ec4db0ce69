"""Deterministic pseudorandom streams built on splitmix64.

Every trial owns an independent substream derived from a 64-bit master
seed, so experiments are reproducible bit for bit and trials can run in
any order (or in parallel) without changing results. One finaliser,
_mix, and one stream rule: a draw steps a state by the golden-ratio
increment, mixes it, and maps the top 53 bits onto the double grid in
[0, 1). Only batch_uniform steps states, by one step or a block of
steps; a Substream's scalar draws come from it in blocks of _BLOCK.
"""

from __future__ import annotations

import numpy as np

_TWO53_INV = 2.0 ** -53
_BLOCK = 128  # a Substream's draws per batch_uniform call: a trial at r = 100

# uint64 array arithmetic wraps mod 2^64
_U_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_U_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_U_MIX2 = np.uint64(0x94D049BB133111EB)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)


def check_integer(value: int, name: str) -> int:
    """`value` as a Python int if it is a Python or numpy integer, not a
    bool; else a ValueError naming `name`. Seeds, stream ranges and the
    package's sizes (mu, k, r, trials, cases) all pass this check, since
    a float would silently run as another value or fail deep inside a
    table, and a narrow numpy integer would wrap in arithmetic on it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_seed(value: int, source: str) -> int:
    """`value` as a Python int if it is a master seed, a 64-bit unsigned
    integer (numpy integers too); else a ValueError naming `source`, since
    masking or truncating would silently replay another seed."""
    value = check_integer(value, source)
    if not 0 <= value < 2**64:
        raise ValueError(f"{source} must be in 0..2^64-1, got {value}")
    return value


class Substream:
    """One stream, drawn one uniform at a time. uniform() returns its
    draws in order, but batch_uniform makes them _BLOCK at a time, so the
    state may have stepped past the last draw returned."""

    __slots__ = ("_states", "_draws")

    def __init__(self, states: np.ndarray):
        self._states = states  # one entry, as from substream_states
        self._draws = iter(())

    def uniform(self) -> float:
        u = next(self._draws, None)
        if u is None:
            block = batch_uniform(self._states, np.empty((_BLOCK, 1)))
            self._draws = iter(block[:, 0].tolist())
            u = next(self._draws)
        return u


def substream(master_seed: int, index: int) -> Substream:
    """Independent stream number `index` under a master seed: the draws
    of entry 0 of substream_states(master_seed, index, 1)."""
    return Substream(substream_states(master_seed, index, 1))


def substream_states(master_seed: int, start: int, count: int) -> np.ndarray:
    """uint64 state vector for substreams start .. start+count-1.

    With key the first splitmix64 output from state master_seed, stream
    i starts at the first output from state key XOR i, so streams
    depend only on the pair (master_seed, i). The index is XORed
    into the mixed seed, not the seed itself: two seeds that differ in
    their low bits would otherwise hand the same streams to other trial
    indices, and every report, a sum over trials, would be the same.
    Draw from the whole batch with batch_uniform. Stream indices run
    over 0..2^64-1; a range outside them, or one that is not given in
    integers, is a ValueError, since a cast would silently draw other
    streams.
    """
    for value, name in ((start, "start"), (count, "count")):
        if check_integer(value, f"stream {name}") < 0:
            raise ValueError(f"stream {name} must be >= 0, got {value}")
    start, count = int(start), int(count)
    if start + count > 2**64:
        raise ValueError(f"streams must be in 0..2^64-1, got {start}..{start + count - 1}")
    key = np.array([check_seed(master_seed, "master_seed")], dtype=np.uint64) + _U_GOLDEN
    _mix(key, np.empty_like(key))
    idx = np.arange(start, start + count, dtype=np.uint64)
    z = key ^ idx
    z += _U_GOLDEN
    _mix(z, idx)  # the indices are spent, so their memory holds the shifts
    return z


def _mix(z: np.ndarray, shifted: np.ndarray) -> None:
    """The splitmix64 finaliser on every entry of the uint64 array z, in
    place; `shifted`, a uint64 array of z's shape, is overwritten."""
    np.right_shift(z, _U30, out=shifted)
    z ^= shifted
    z *= _U_MIX1
    np.right_shift(z, _U27, out=shifted)
    z ^= shifted
    z *= _U_MIX2
    np.right_shift(z, _U31, out=shifted)
    z ^= shifted


def batch_uniform(states: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform draws from every stream; advances `states` in place.

    Works on any shape: each entry of `states` is one stream's state.
    `out` (float64) has states' shape for one draw per stream, or one
    more leading axis of B steps: then row b holds each stream's draw
    b + 1, and `states` moves on by B draws. The draws are mixed in a
    new uint64 array of out's shape and returned in `out`, whatever it
    held.
    """
    if out is None:
        out = np.empty(states.shape)
    steps = out.shape[:out.ndim - states.ndim]  # () or (B,)
    ahead = np.arange(1, 1 + (steps[0] if steps else 1), dtype=np.uint64) * _U_GOLDEN
    work = states + ahead.reshape(steps + (1,) * states.ndim)
    _mix(work, out.view(np.uint64))  # out's memory holds the shifts until the end
    states += ahead[-1]
    work >>= _U11
    return np.multiply(work, _TWO53_INV, out=out)
