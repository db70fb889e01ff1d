"""Arikan transform G_N = B_N F^{\\otimes n} over GF(2).

F = [[1,0],[1,1]], B_N is the bit-reversal permutation matrix, and vectors
multiply from the left (row vector times matrix): v = u G_N. G_N is an
involution over GF(2), so the same routine both encodes and inverts.

The implementation permutes by bit reversal and then runs the F^{\\otimes n}
butterfly in place, top level first: for a block (w1, w2) of the current
size, u (F tensor A) = ((w1 xor w2) A, w2 A).
"""
from __future__ import annotations

import numpy as np


def bit_reversal_perm(n: int) -> np.ndarray:
    """Permutation of [2^n] sending position i to the bit-reversed index.

    Parameters
    ----------
    n : int
        Number of address bits; the permutation has length 2^n.

    Returns
    -------
    ndarray of intp, shape (2^n,)
        Entry i is the integer whose n-bit binary expansion reverses i's.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    perm = np.zeros(1 << n, dtype=np.intp)
    for bit in range(n):
        # reading source bit `bit` (LSB first) lands on target bit n-1-bit
        perm |= ((np.arange(1 << n) >> bit) & 1) << (n - 1 - bit)
    return perm


def check_block_length(n_len: int) -> None:
    """Raise ValueError unless the block length N is a positive power of
    two (N = 0 is not: 0 & -1 is 0)."""
    if n_len <= 0 or n_len & (n_len - 1):
        raise ValueError(f"block length must be a power of two, got {n_len}")


def apply_transform(bits: np.ndarray) -> np.ndarray:
    """Right-multiply bit blocks by G_N over GF(2).

    Accepts a single length-N block or any array whose last axis has
    length N = 2^n; the transform is applied along the last axis.
    Involutive: apply_transform(apply_transform(v)) == v.
    """
    bits = np.asarray(bits)
    n_len = bits.shape[-1]
    check_block_length(n_len)
    n = n_len.bit_length() - 1
    out = bits[..., bit_reversal_perm(n)].astype(np.uint8, copy=False)
    lead = out.shape[:-1]
    for level in range(n):
        block = n_len >> level
        view = out.reshape(lead + (1 << level, 2, block // 2))
        view[..., 0, :] ^= view[..., 1, :]
    return out
