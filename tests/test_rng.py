import warnings

import numpy as np
import pytest

from qsdwalk.experiment import ExperimentConfig
from qsdwalk.oracle import walk_agreement
from qsdwalk.rng import _BLOCK, _U_GOLDEN, _mix, batch_uniform, substream, substream_states
from reference import splitmix64

# reference outputs of the splitmix64 stream seeded with 0
KNOWN_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_known_answer_seed0():
    # state 0's first five steps, through the package's finaliser and the
    # pure-Python reference
    steps = np.arange(1, 6, dtype=np.uint64) * _U_GOLDEN
    _mix(steps, np.empty_like(steps))
    assert steps.tolist() == KNOWN_SEED0
    assert splitmix64(0, 5) == KNOWN_SEED0


def test_splitmix64_is_one_generator_step():
    # one batch_uniform draw is the top 53 bits of the next output
    states = np.array([0, 0x9E3779B97F4A7C15], dtype=np.uint64)
    assert batch_uniform(states).tolist() == [(z >> 11) * 2.0**-53 for z in KNOWN_SEED0[:2]]


@pytest.mark.parametrize("master,index", [(0, 0), (0, 1), (42, 0), (42, 7), (2**63, 12345)])
def test_substream_definition(master, index):
    # substream state is splitmix64(splitmix64(master) ^ index)
    gen = substream(master, index)
    state = splitmix64(splitmix64(master, 1)[0] ^ index, 1)[0]
    expected = [(z >> 11) * 2.0**-53 for z in splitmix64(state, _BLOCK + 4)]
    assert [gen.uniform() for _ in expected] == expected


def test_substream_draws_are_successive_batch_draws():
    # the blocks a substream fills join up: draw j is the j-th one-step draw
    gen = substream(31337, 5)
    states = substream_states(31337, 5, 1)
    for _ in range(3 * _BLOCK + 1):
        assert gen.uniform() == batch_uniform(states)[0]


def test_numpy_seed_equals_int_seed():
    # the seed is mixed in a uint64 array, which wraps without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        drawn = substream_states(np.uint64(2**63 + 5), 0, 4)
    assert np.array_equal(drawn, substream_states(2**63 + 5, 0, 4))


@pytest.mark.parametrize("seeds", [(1, 2), (5, 17), (0, 1023), (3, 12)])
def test_seeds_differing_in_low_bits_share_no_streams(seeds):
    # with the index XORed into the raw seed, two seeds d = s ^ s' apart
    # hand trial i's stream to trial i ^ d, so at 1024 trials seeds below
    # 1024 would all walk one set of streams
    a, b = (set(substream_states(seed, 0, 1024).tolist()) for seed in seeds)
    assert not a & b


def test_seeds_outside_64_bits_refused():
    # masked to 64 bits, -1 and 2^64 would replay seeds 2^64 - 1 and 0
    for seed in (-1, 2**64):
        message = rf"^master_seed must be in 0..2\^64-1, got {seed}$"
        for draw in (lambda: substream(seed, 0), lambda: substream_states(seed, 0, 4),
                     lambda: walk_agreement(50, 2, 10, seed)):
            with pytest.raises(ValueError, match=message):
                draw()
    # a float passed the range check, then failed at the first draw
    with pytest.raises(ValueError, match=r"^master_seed must be an integer, got 1.5$"):
        ExperimentConfig(master_seed=1.5)


@pytest.mark.parametrize("start,count,message", [
    (1.5, 2, r"stream start must be an integer, got 1.5"),
    (1, 2.0, r"stream count must be an integer, got 2.0"),
    (-1, 1, r"stream start must be >= 0, got -1"),
    (0, -2, r"stream count must be >= 0, got -2"),
    (2**64 - 1, 2, r"streams must be in 0..2\^64-1, got 18446744073709551615..18446744073709551616"),
])
def test_stream_ranges_outside_64_bits_refused(start, count, message):
    # a float range was cast to other streams, and one past 2^64 - 1
    # raised numpy's OverflowError
    with pytest.raises(ValueError, match=f"^{message}$"):
        substream_states(1, start, count)


def test_stream_ranges_up_to_the_last_stream_accepted():
    last = substream_states(1, 2**64 - 1, 1)
    assert np.array_equal(substream_states(1, 2**64 - 2, 2)[1:], last)
    assert np.array_equal(substream_states(1, np.uint64(3), np.int64(2)), substream_states(1, 3, 2))
    assert substream_states(1, 2**64, 0).size == 0


def test_uniform_range_and_resolution():
    gen = substream(1234, 0)
    draws = [gen.uniform() for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    # 53-bit mantissa: u * 2^53 must be an integer
    assert all(float(int(u * 2**53)) == u * 2**53 for u in draws)


def test_batch_matches_scalar_exactly():
    master = 987654321
    count = 64
    states = substream_states(master, 0, count)
    scalars = [substream(master, i) for i in range(count)]
    for _ in range(20):
        batch = batch_uniform(states)
        expected = np.array([s.uniform() for s in scalars])
        assert np.array_equal(batch, expected)


def test_substream_states_offset():
    full = substream_states(7, 0, 10)
    tail = substream_states(7, 6, 4)
    assert np.array_equal(full[6:], tail)


def test_batch_uniform_advances_state_in_place():
    # a draw moves every state on by the golden-ratio increment, and a
    # block of B draws by B increments
    states = substream_states(0, 0, 4)
    before = states.copy()
    ahead = lambda draws: before + np.uint64(draws * 0x9E3779B97F4A7C15 % 2**64)
    batch_uniform(states)
    assert np.array_equal(states, ahead(1))
    batch_uniform(states, np.empty(4))
    assert np.array_equal(states, ahead(2))
    batch_uniform(states, np.empty((5, 4)))
    assert np.array_equal(states, ahead(7))
    # the steps come from out's extra axis, so a block from no streams is empty
    assert batch_uniform(states[:0], np.empty((5, 0))).shape == (5, 0)


@pytest.mark.parametrize("shape", [(1,), (9,), (4, 7)])
def test_mixing_into_caller_buffers_is_bit_identical(shape):
    states = substream_states(987654321, 3, int(np.prod(shape))).reshape(shape)
    alone = states.copy()
    # whatever the buffer held is overwritten
    out = np.full(shape, np.nan)
    for _ in range(5):
        expected = batch_uniform(alone)
        drawn = batch_uniform(states, out)
        assert drawn is out
        assert np.array_equal(drawn, expected)
        assert np.array_equal(states, alone)


@pytest.mark.parametrize("depth", [1, 2, 7, 33])
def test_block_of_advanced_states_equals_successive_draws(depth):
    # a (depth, n) and a (depth, a, b) block: row b holds every stream's
    # draw b + 1, as from the scalar stream
    for shape in ((11,), (3, 5)):
        count = int(np.prod(shape))
        streams = substream_states(987654321, 5, count).reshape(shape)
        single = streams.copy()
        block = (depth, *shape)
        drawn = batch_uniform(streams, np.empty(block))
        for row in drawn:
            assert np.array_equal(row, batch_uniform(single))
        # the block moves the streams on as far as the successive draws
        assert np.array_equal(streams, single)
        scalars = [substream(987654321, 5 + i) for i in range(count)]
        expected = [[gen.uniform() for gen in scalars] for _ in range(depth)]
        assert np.array_equal(drawn.reshape(depth, count), expected)
