"""An uncoded SC tree for the tests: PairStack's definition without its codes.

ReferenceTree holds (2, 2^lam, B) float or bool pairs at every level and
recomputes every level at every consulted index, with no stamps and no
partial-sum state: the partial sums a g node reads are rebuilt from the
pushed bits each time. It shares only the pair ops (_fop, _gop, _normalize,
_root_pairs) with the library, which fix the arithmetic that PairStack's
results must equal bit for bit.
"""
import numpy as np

from polarcomm.sc import _fop, _gop, _normalize, _root_pairs


def partial_sums(bits: np.ndarray) -> np.ndarray:
    """The partial sums of a (2^k, B) block of decided bits that a g node
    over them reads: (a, b) -> interleave(P(a) ^ P(b), P(b)) on its halves."""
    if bits.shape[0] == 1:
        return bits
    half = bits.shape[0] // 2
    first, second = partial_sums(bits[:half]), partial_sums(bits[half:])
    out = np.empty_like(bits)
    out[0::2] = first ^ second
    out[1::2] = second
    return out


class ReferenceTree:
    """Drive as PairStack, from (2, N, B) leaf pairs."""

    def __init__(self, leaves: np.ndarray):
        self.leaves = np.asarray(leaves)
        _, n_len, self.batch = self.leaves.shape
        self.n = n_len.bit_length() - 1
        self.bits = np.zeros((n_len, self.batch), np.uint8)

    def pair_at(self, phi: int):
        level = self.leaves
        for lam in range(self.n - 1, -1, -1):
            out = np.empty((2, 1 << lam, self.batch), level.dtype)
            left, right = level[:, 0::2], level[:, 1::2]
            if phi >> lam & 1:
                start = phi & -(1 << lam)
                _gop(left, right, partial_sums(self.bits[start - (1 << lam) : start]), out)
            else:
                _fop(left, right, out)
            level = out
        root = level[:, 0, :].copy()
        if self.n == 0:
            _normalize(root)
        pair, null = _root_pairs(root)
        return pair.T, null

    def push(self, phi: int, bits) -> None:
        self.bits[phi] = bits
