import numpy as np
import pytest

from qsdwalk.rng import (
    SplitMix64,
    batch_uniform,
    mix64,
    splitmix64,
    step_offsets,
    substream,
    substream_states,
)

# reference outputs of the splitmix64 stream seeded with 0
KNOWN_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_known_answer_seed0():
    gen = SplitMix64(0)
    assert [gen.next_u64() for _ in KNOWN_SEED0] == KNOWN_SEED0


def test_splitmix64_is_one_generator_step():
    assert splitmix64(0) == KNOWN_SEED0[0]
    assert splitmix64(0x9E3779B97F4A7C15) == KNOWN_SEED0[1]


def test_mix64_stays_in_range():
    for z in [0, 1, 2**63, 2**64 - 1, 0xDEADBEEF]:
        out = mix64(z)
        assert 0 <= out < 2**64


@pytest.mark.parametrize("master,index", [(0, 0), (0, 1), (42, 0), (42, 7), (2**63, 12345)])
def test_substream_definition(master, index):
    # substream state is splitmix64(master ^ index)
    gen = substream(master, index)
    ref = SplitMix64(splitmix64(master ^ index))
    assert [gen.next_u64() for _ in range(4)] == [ref.next_u64() for _ in range(4)]


def test_substream_seed_masked_to_64_bits():
    a = substream(2**64 + 5, 0)
    b = substream(5, 0)
    assert [a.next_u64() for _ in range(3)] == [b.next_u64() for _ in range(3)]


def test_uniform_range_and_resolution():
    gen = SplitMix64(1234)
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
    states = substream_states(0, 0, 4)
    before = states.copy()
    batch_uniform(states)
    assert not np.array_equal(states, before)


@pytest.mark.parametrize("depth", [1, 2, 7, 33])
def test_block_of_advanced_states_equals_successive_draws(depth):
    streams = substream_states(987654321, 5, 11)
    block = streams + step_offsets(depth).reshape(-1, 1)
    drawn = batch_uniform(block)
    for row in drawn:
        assert np.array_equal(row, batch_uniform(streams))
    # the block's last row has advanced as far as the successive calls
    assert np.array_equal(block[-1], streams)

