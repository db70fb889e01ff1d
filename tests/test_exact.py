"""Exact oracle enumeration tests: the block joint against a direct product."""
import numpy as np
import pytest

from polarcomm.exact import (
    block_joint_chunks,
    block_joint_full,
    block_product,
    digits_to_ints,
    ints_to_digits,
    sampled_chain_table,
    split_block_joint,
)
from polarcomm.sc import OBSERVATION_CONDITIONAL, SymbolChannel
from polarcomm.transform import apply_transform


def reference_joint(table: np.ndarray, n_len: int) -> np.ndarray:
    """P(v-block w, obs block c) as the product over positions 0, 1, ...,
    N - 1, taken left to right from 1.0, with u = v G_N."""
    m = table.shape[1]
    obs_ints = np.arange(m**n_len)
    obs = np.stack([obs_ints // m ** (n_len - 1 - k) % m for k in range(n_len)], axis=1)
    w = np.arange(1 << n_len)
    v_bits = np.stack([w >> (n_len - 1 - k) & 1 for k in range(n_len)], axis=1)
    u_bits = apply_transform(v_bits.astype(np.uint8))
    out = np.ones((obs_ints.size, w.size))
    for k in range(n_len):
        out = out * table[u_bits[None, :, k], obs[:, None, k]]
    return out


@pytest.mark.parametrize("m", [1, 3, 4])
@pytest.mark.parametrize("n_len", [1, 2, 4])
@pytest.mark.parametrize("chunk", [7, 100, 4096])
def test_block_joint_chunks_equal_left_to_right_product(m, n_len, chunk):
    table = np.random.default_rng(10 * m + n_len).random((2, m))
    ch = SymbolChannel(table / table.sum())
    want = reference_joint(ch.table, n_len)
    starts = []
    for obs_ints, joint in block_joint_chunks(ch, n_len, chunk):
        starts.append(int(obs_ints[0]))
        assert np.array_equal(obs_ints, np.arange(obs_ints[0], obs_ints[0] + obs_ints.size))
        assert obs_ints.size == min(chunk, want.shape[0] - starts[-1])
        # yielded as the transpose of a C-contiguous (2^N, C) buffer
        assert joint.T.flags.c_contiguous
        assert np.array_equal(joint, want[obs_ints])
    assert starts == list(range(0, want.shape[0], chunk))
    assert np.array_equal(block_joint_full(ch, n_len), want)


@pytest.mark.parametrize("chunk", [0, -1])
def test_block_joint_chunks_rejects_chunk_below_one(chunk):
    ch = SymbolChannel(np.array([[0.3, 0.2], [0.1, 0.4]]))
    with pytest.raises(ValueError, match="chunk must be >= 1"):
        next(block_joint_chunks(ch, 2, chunk))
    with pytest.raises(ValueError, match="chunk must be >= 1"):
        sampled_chain_table(ch, np.full(2, OBSERVATION_CONDITIONAL), 2, chunk=chunk)


@pytest.mark.parametrize("base, n_len", [(1, 3), (2, 1), (2, 5), (3, 4), (5, 2)])
def test_digit_codecs_round_trip_and_reject_out_of_range(base, n_len):
    """Position 0 is the most significant digit; a value or digit outside
    the radix raises ValueError instead of wrapping."""
    ints = np.arange(base**n_len).reshape(-1, 1)
    digits = ints_to_digits(ints, n_len, base)
    want = np.stack([ints // base ** (n_len - 1 - k) % base for k in range(n_len)], axis=-1)
    assert digits.dtype == np.int64 and np.array_equal(digits, want)
    assert np.array_equal(digits_to_ints(digits, base), ints)
    for bad in (-1, base**n_len):
        with pytest.raises(ValueError):
            ints_to_digits(np.array([bad]), n_len, base)
    for bad in (-1, base):
        wrong = digits[:1].copy()
        wrong[..., -1] = bad
        with pytest.raises(ValueError):
            digits_to_ints(wrong, base)


@pytest.mark.parametrize("n_len, tail_len", [(1, 1), (3, 0), (3, 2), (4, 4)])
def test_block_product_is_the_left_to_right_product(n_len, tail_len):
    """split_block_joint's cell (x, y, u) is the product of the per-symbol
    cells over positions 0, 1, ..., N - 1, taken left to right, bit for bit;
    the chunk that fixes x's leading N - tail_len symbols, built by
    block_product from those symbols and one power of the trailing ones, is
    that chunk of the whole to 1e-15 relative (the products associate
    differently)."""
    sizes = (2, 3, 2)
    per_sym = np.random.default_rng(n_len).random(sizes)
    per_sym /= per_sym.sum()
    whole = split_block_joint(per_sym, sizes, n_len)
    digits = [ints_to_digits(np.arange(s**n_len), n_len, s) for s in sizes]
    want = np.ones(whole.shape)
    for k in range(n_len):
        want = want * per_sym[np.ix_(*(d[:, k] for d in digits))]
    assert np.array_equal(whole, want)
    tail = [split_block_joint(per_sym, sizes, tail_len)] if tail_len else []
    step = 2**tail_len
    for start, lead in zip(range(0, 2**n_len, step), np.ndindex((2,) * (n_len - tail_len))):
        chunk = block_product([per_sym[d:d + 1] for d in lead] + tail)
        assert np.allclose(chunk, whole[start:start + step], rtol=1e-15, atol=0)
