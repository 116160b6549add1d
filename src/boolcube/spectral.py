"""Exact integer Walsh/Fourier transform over the cube and the
correlation-immunity order, with a face-counting brute-force cross-check."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .cube_core import VertexSet, _membership_array, _pack


@dataclass(frozen=True)
class Spectrum:
    """Walsh coefficients of an indicator function, coeffs[idx(v)] = a_hat(v).

    `transform` gives exact int32 values: |a_hat| <= 2^n, which fits for
    n <= 30.  The butterfly gets there in three stages, each as narrow as
    the values allow: levels 0-5 in int8, 6-13 in int16, 14 and up in
    int32 (see `_STAGES`).  A square does not fit (a_hat(0)^2 = |S|^2), so
    callers widen to int64 before squaring, as `macwilliams_from_spectrum`
    does.
    """
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs.setflags(write=False)


@lru_cache(maxsize=None)
def _weight_classes(n: int) -> tuple[np.ndarray, tuple]:
    """Every index 0 .. 2^n-1 grouped by weight, as one int32 array, and the
    class boundaries: the weight-k indices are idx[bounds[k]:bounds[k + 1]]."""
    wt = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    idx = np.empty(1 << n, dtype=np.int32)
    bounds = [0]
    for k in range(n + 1):
        cls = np.flatnonzero(wt == k)
        idx[bounds[-1]:bounds[-1] + cls.size] = cls
        bounds.append(bounds[-1] + cls.size)
    idx.setflags(write=False)
    return idx, tuple(bounds)


LOW_BITS = 6     # bits k < 6 pair runs of only 2^k entries
BLOCK_BITS = 16  # a 2^16-entry block (at most 256 KB, in int32) fits in cache


def _pair_levels(op, *arrays, bits: range = range(64)) -> None:
    """Call op on the (-1, 2, m) views pairing u with u ^ 2^k, for every bit
    k in `bits` (clipped to the n bits) of the index of the equal-length 1-D
    arrays (length 2^n); op works in place on the first view and only reads
    the others.

    Bits below BLOCK_BITS run one cache-sized block at a time, and among
    them bits below LOW_BITS run on a transposed copy of the block, where
    bit k pairs runs of 2^k * rows entries instead of 2^k.  The schedule is
    the same for any range: `_fwht_inplace` calls it once per dtype stage
    (bits 0-5 in int8, 6-13 in int16, 14 and up in int32), and the
    neighbour count over all bits."""
    size = arrays[0].shape[0]
    n = size.bit_length() - 1
    blk_bits = min(n, BLOCK_BITS)
    low = min(n, LOW_BITS)
    rows = 1 << (blk_bits - low)
    transposed = range(bits.start, min(bits.stop, low))
    in_block = range(max(bits.start, low), min(bits.stop, blk_bits))
    for lo in range(0, size, 1 << blk_bits):
        blocks = [x[lo:lo + (1 << blk_bits)] for x in arrays]
        if transposed:
            ts = [b.reshape(rows, 1 << low).T.copy() for b in blocks]
            for k in transposed:
                op(*(t.reshape(-1, 2, rows << k) for t in ts))
            blocks[0].reshape(rows, 1 << low)[...] = ts[0].T
        for k in in_block:
            op(*(b.reshape(-1, 2, 1 << k) for b in blocks))
    for k in range(max(bits.start, blk_bits), min(bits.stop, n)):
        op(*(x.reshape(-1, 2, 1 << k) for x in arrays))


def _butterfly(v: np.ndarray) -> None:
    """(x, y) -> (x + y, x - y) on the pairs of a (-1, 2, m) view."""
    x, y = v[:, 0], v[:, 1]
    x += y
    y *= -2
    y += x


# After k levels a 0/1 table holds values in [-2^(k-1), 2^k], and level k
# reaches 2^(k+1) in flight (x + y, and -2y); so levels 0-5 fit int8,
# levels 6-13 int16, and levels 14 and up int32 (|a_hat| <= 2^n, exact to
# n = 30).  _pair_levels clips each range to the table's n bits.
_STAGES = ((np.int8, range(0, 6)), (np.int16, range(6, 14)),
           (np.int32, range(14, 64)))


def _fwht_inplace(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of `a` (length 2^n); returns
    the transformed array, which is `a` itself unless it was widened.

    The levels run in the stages of _STAGES, and before each stage `a` is
    widened to the stage's dtype if it is narrower.  A 0/1 table passed as
    int8 stays in [-2^(k-1), 2^k] after k levels, so no stage wraps and it
    comes back as exact int32; an int64 table runs every level in place."""
    for dtype, bits in _STAGES:
        if a.itemsize < np.dtype(dtype).itemsize:
            a = a.astype(dtype)
        _pair_levels(_butterfly, a, bits=bits)
    return a


def transform(S: VertexSet) -> Spectrum:
    """Exact Walsh spectrum of the indicator of S (butterfly, O(n 2^n))."""
    return Spectrum(S.n, _fwht_inplace(_membership_array(S).view(np.int8)))


def inverse_transform(sp: Spectrum):
    """Reconstruct the function table from a spectrum.

    Returns a VertexSet when the reconstruction is 0/1-valued, otherwise the
    full table of exact rationals (the non-Boolean case).
    """
    size = 1 << sp.n
    vals = _fwht_inplace(sp.coeffs.astype(np.int64))  # 2^n * a(u)
    if np.all((vals == 0) | (vals == size)):
        return VertexSet(sp.n, _pack(vals == size))
    return [Fraction(int(v), size) for v in vals]


def cor_order(S: VertexSet) -> int:
    """cor(S): one less than the first weight class k >= 1 that holds a
    nonzero coefficient (one does, by Parseval, as S is not constant)."""
    if S.size == 0 or S.size == (1 << S.n):
        raise ValueError("correlation immunity undefined for constant functions")
    coeffs = transform(S).coeffs
    idx, bounds = _weight_classes(S.n)
    return next(k - 1 for k in range(1, S.n + 1)
                if coeffs[idx[bounds[k]:bounds[k + 1]]].any())


def cor_order_direct(S: VertexSet, t: int) -> bool:
    """Face-counting oracle: does every face fixing t coordinates meet S equally?"""
    if not 0 <= t <= S.n:
        raise ValueError("t=%r out of range [0, %d]" % (t, S.n))
    if t == 0 or S.size == 0:
        return True
    if S.size % (1 << t) != 0:
        return False
    expected = S.size >> t
    members = S.member_indices()
    for bits in combinations(range(S.n), t):
        ymask = 0
        for k in bits:
            ymask |= 1 << k
        counts: dict[int, int] = {}
        for i in members:
            key = i & ymask
            counts[key] = counts.get(key, 0) + 1
        if len(counts) != (1 << t) or any(v != expected for v in counts.values()):
            return False
    return True
