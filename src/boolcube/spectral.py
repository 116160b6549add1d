"""Exact integer Walsh/Fourier transform over the cube and the
correlation-immunity order, with a face-counting brute-force cross-check."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .cube_core import SPECTRUM_N_MAX, VertexSet


@dataclass(frozen=True)
class Spectrum:
    """Walsh coefficients of an indicator function, coeffs[idx(v)] = a_hat(v).

    All coefficients are exact int64 values; |a_hat| <= 2^n <= 2^20 so 64-bit
    accumulation cannot overflow.
    """
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs.setflags(write=False)


@lru_cache(maxsize=None)
def weight_table(n: int) -> np.ndarray:
    """popcount of every index 0 .. 2^n-1."""
    idx = np.arange(1 << n, dtype=np.int64)
    wt = np.zeros(1 << n, dtype=np.int64)
    for k in range(n):
        wt += (idx >> k) & 1
    wt.setflags(write=False)
    return wt


def _membership_array(S: VertexSet) -> np.ndarray:
    size = 1 << S.n
    raw = S.mask.to_bytes((size + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little", count=size)


def _fwht_inplace(a: np.ndarray) -> np.ndarray:
    """Butterfly on (-1, 2, step) views of `a`: (x, y) -> (x + y, x - y)."""
    step = 1
    while step < a.shape[0]:
        b = a.reshape(-1, 2, step)
        x, y = b[:, 0], b[:, 1]
        x += y
        y *= -2
        y += x
        step *= 2
    return a


def transform(S: VertexSet) -> Spectrum:
    """Exact Walsh spectrum of the indicator of S (butterfly, O(n 2^n))."""
    if S.n > SPECTRUM_N_MAX:
        raise ValueError("dimension %d exceeds spectrum cap %d"
                         % (S.n, SPECTRUM_N_MAX))
    a = _membership_array(S).astype(np.int64)
    return Spectrum(S.n, _fwht_inplace(a))


def inverse_transform(sp: Spectrum):
    """Reconstruct the function table from a spectrum.

    Returns a VertexSet when the reconstruction is 0/1-valued, otherwise the
    full table of exact rationals (the non-Boolean case).
    """
    size = 1 << sp.n
    vals = _fwht_inplace(sp.coeffs.astype(np.int64))  # 2^n * a(u)
    if np.all((vals == 0) | (vals == size)):
        mask = 0
        for i in np.flatnonzero(vals == size):
            mask |= 1 << int(i)
        return VertexSet(sp.n, mask)
    return [Fraction(int(v), size) for v in vals]


def cor_order(S: VertexSet) -> int:
    """cor(S): one less than the minimum weight of a nonzero non-DC coefficient."""
    if S.size == 0 or S.size == (1 << S.n):
        raise ValueError("correlation immunity undefined for constant functions")
    sp = transform(S)
    wt = weight_table(S.n)
    nz = (sp.coeffs != 0) & (wt > 0)
    return int(wt[nz].min()) - 1


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
