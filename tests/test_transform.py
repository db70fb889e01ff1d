"""Transform tests: bit reversal, butterfly vs naive matrix, involution."""
import numpy as np
import pytest

from polarcomm.transform import apply_transform, bit_reversal_perm


def naive_transform_matrix(n: int) -> np.ndarray:
    """B_N F^{kron n} built explicitly; test-side oracle only."""
    big_f = np.array([[1]], dtype=np.uint8)
    kernel = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    for _ in range(n):
        big_f = np.kron(kernel, big_f)
    rev = np.zeros((1 << n, 1 << n), dtype=np.uint8)
    for i, j in enumerate(bit_reversal_perm(n)):
        rev[i, j] = 1
    return (rev @ big_f) % 2


def test_bit_reversal_small_values():
    assert bit_reversal_perm(0).tolist() == [0]
    assert bit_reversal_perm(1).tolist() == [0, 1]
    assert bit_reversal_perm(2).tolist() == [0, 2, 1, 3]
    assert bit_reversal_perm(3).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]


def test_bit_reversal_rejects_negative():
    with pytest.raises(ValueError):
        bit_reversal_perm(-1)


def test_bit_reversal_is_involution():
    for n in range(9):
        perm = bit_reversal_perm(n)
        assert np.array_equal(perm[perm], np.arange(1 << n))


def test_transform_matches_hand_values():
    assert apply_transform(np.array([0, 0])).tolist() == [0, 0]
    assert apply_transform(np.array([1, 0])).tolist() == [1, 0]
    assert apply_transform(np.array([0, 1])).tolist() == [1, 1]


def test_transform_matches_naive_matrix():
    rng = np.random.default_rng(11)
    for n in range(0, 7):  # N up to 64
        n_len = 1 << n
        matrix = naive_transform_matrix(n)
        blocks = rng.integers(0, 2, size=(40, n_len)).astype(np.uint8)
        assert np.array_equal(apply_transform(blocks), (blocks @ matrix) % 2)


def test_involution_and_linearity():
    rng = np.random.default_rng(7)
    for n_len in (2, 8, 64, 1024):
        a = rng.integers(0, 2, size=(20, n_len)).astype(np.uint8)
        b = rng.integers(0, 2, size=(20, n_len)).astype(np.uint8)
        assert np.array_equal(apply_transform(apply_transform(a)), a)
        assert np.array_equal(
            apply_transform(a ^ b), apply_transform(a) ^ apply_transform(b)
        )


def test_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        apply_transform(np.array([1, 0, 1]))
    with pytest.raises(ValueError):
        apply_transform(np.zeros(0, dtype=np.uint8))


def test_zero_block_fixed_point():
    for n_len in (1, 4, 32):
        assert not apply_transform(np.zeros(n_len, dtype=np.uint8)).any()


def test_transform_on_non_contiguous_layouts():
    """Every layout gives the naive product along the last axis and leaves
    its input untouched: the (B, N) transposed view of a trial-last (N, B)
    block, an F-order array, a strided lead-axis slice and 3-D blocks. On
    the transposed view the butterfly runs on the gather's F-order rows, so
    the result's .T is C-order (N, B) again, the layout trial-last callers
    keep."""
    rng = np.random.default_rng(5)
    n = 5
    matrix = naive_transform_matrix(n)
    trial_last = rng.integers(0, 2, (1 << n, 40)).astype(np.uint8)
    rows = rng.integers(0, 2, (41, 1 << n)).astype(np.uint8)
    block = rng.integers(0, 2, (3, 7, 1 << n)).astype(np.uint8)
    cases = {
        "transposed view": trial_last.T,
        "F-order array": np.asfortranarray(rows),
        "lead-axis slice": rows[3:37:3],
        "3-D block": block,
        "3-D block, lead axes swapped": block.transpose(1, 0, 2),
        "3-D block, all axes reversed": np.ascontiguousarray(block.transpose(2, 1, 0)).T,
    }
    for name, bits in cases.items():
        before = bits.copy()
        got = apply_transform(bits)
        assert got.shape == bits.shape and got.dtype == np.uint8, name
        assert np.array_equal(got, (bits @ matrix) % 2), name
        assert np.array_equal(bits, before), name
    assert apply_transform(trial_last.T).T.flags.c_contiguous
