"""Distance distribution, Krawtchouk polynomials and the MacWilliams
transform, all in exact integer/rational arithmetic.

Integer carriers: N_i are ordered pair counts, D_k are per-weight sums of
squared Walsh coefficients.  The rationals B_i = N_i/|S| and B'_k = D_k/|S|^2
are derived on demand.

An analysis (`theorem.verify` and the report) takes the spectral route:
D = `macwilliams_from_spectrum` of its one transform, N = `inverse_macwilliams`
of D.  The cross-check route, compared with it in the tests, is the pairwise
scan `distance_distribution` followed by the Krawtchouk
`macwilliams_from_distances`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .cube_core import VertexSet
from .spectral import ROW_BITS, Spectrum


@dataclass(frozen=True)
class DistanceDistribution:
    n: int
    size: int
    counts: tuple  # N_0 .. N_n, ordered pairs

    @property
    def B(self) -> tuple:
        return tuple(Fraction(c, self.size) for c in self.counts)


@dataclass(frozen=True)
class DualDistribution:
    n: int
    size: int
    duals: tuple  # D_0 .. D_n

    @property
    def Bprime(self) -> tuple:
        sq = self.size * self.size
        return tuple(Fraction(d, sq) for d in self.duals)

    @property
    def support(self) -> tuple:
        """Weights k with D_k > 0: those carrying a nonzero Walsh coefficient."""
        return tuple(k for k, d in enumerate(self.duals) if d)


@lru_cache(maxsize=None)
def krawtchouk(n: int) -> tuple:
    """Rows P_0 .. P_n, row k holding P_k(i) = sum_j (-1)^j C(i,j) C(n-i, k-j)
    for i = 0 .. n; satisfies P_1(i) = n - 2i."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return tuple(
        tuple(sum((-1) ** j * comb(i, j) * comb(n - i, k - j)
                  for j in range(k + 1))
              for i in range(n + 1))
        for k in range(n + 1)
    )


def distance_distribution(S: VertexSet) -> DistanceDistribution:
    """Exact ordered-pair counts N_i by a pairwise scan of the members: the
    cross-check route, O(|S|^2) time, about 2^ROW_BITS pairs at a time."""
    size = S.size
    if size == 0:
        raise ValueError("distance distribution undefined for the empty set")
    idxs = np.asarray(S.member_indices(), dtype=np.int64)
    counts = np.zeros(S.n + 1, dtype=np.int64)
    chunk = max(1, (1 << ROW_BITS) // size)
    for lo in range(0, size, chunk):
        d = np.bitwise_count(idxs[lo:lo + chunk, None] ^ idxs[None, :])
        counts += np.bincount(d.ravel(), minlength=S.n + 1)[:S.n + 1]
    return DistanceDistribution(S.n, size, tuple(int(c) for c in counts))


@lru_cache(maxsize=None)
def _index_classes(m: int) -> tuple:
    """0 .. 2^m-1 split by weight: class i holds the intp indices of weight i."""
    wt = np.bitwise_count(np.arange(1 << m))
    return tuple(np.flatnonzero(wt == i) for i in range(m + 1))


def macwilliams_from_spectrum(sp: Spectrum) -> DualDistribution:
    """D_k = sum of a_hat(v)^2 over the v of weight k, exact in int64
    (D_k <= 2^n |S| <= 2^48), with no index of 2^n entries; |S| = a_hat(0).

    wt(v) = wt(high h bits) + wt(low l bits), h = n // 2: as a (2^h, 2^l)
    matrix, the rows of each high weight i are squared and summed into H[i],
    about 2^ROW_BITS entries at a time; then D_(i + j) sums H[i] over the
    columns of low weight j."""
    size = int(sp.coeffs[0])
    if size == 0:
        raise ValueError("dual distribution undefined for |S| = 0")
    h, l = sp.n // 2, sp.n - sp.n // 2
    a = sp.coeffs.reshape(1 << h, 1 << l)
    step = max(1, (1 << ROW_BITS) >> l)
    H = np.zeros((h + 1, 1 << l), dtype=np.int64)
    for i, rows in enumerate(_index_classes(h)):
        for lo in range(0, rows.size, step):
            sq = np.square(a[rows[lo:lo + step]], dtype=np.int64)
            H[i] += sq.sum(axis=0)
    wt = np.arange(h + 1)[:, None] + np.bitwise_count(np.arange(1 << l))
    D = np.zeros(sp.n + 1, dtype=np.int64)
    np.add.at(D, wt, H)
    return DualDistribution(sp.n, size, tuple(D.tolist()))


def _krawtchouk_sums(n: int, xs: tuple) -> list:
    """sum_i xs[i] P_k(i) for k = 0 .. n."""
    return [sum(x * p for x, p in zip(xs, row)) for row in krawtchouk(n)]


def macwilliams_from_distances(d: DistanceDistribution) -> DualDistribution:
    """Krawtchouk route: D_k = sum_i N_i P_k(i)."""
    return DualDistribution(d.n, d.size,
                            tuple(_krawtchouk_sums(d.n, d.counts)))


def inverse_macwilliams(dual: DualDistribution) -> DistanceDistribution:
    """Recover N_k = (1/2^n) sum_i D_i P_k(i); exact, the division is whole."""
    total = 1 << dual.n
    counts = []
    for kk, num in enumerate(_krawtchouk_sums(dual.n, dual.duals)):
        if num % total:
            raise ValueError("dual distribution is not realizable: "
                             "N_%d would be %s/%d" % (kk, num, total))
        counts.append(num // total)
    return DistanceDistribution(dual.n, dual.size, tuple(counts))
