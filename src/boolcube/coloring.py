"""Perfect 2-coloring detection and parameter extraction.

Color 1 is membership in S.  A perfect coloring is summarized by the matrix

    ((n-b, b), (c, n-c))

where b is the number of out-of-S neighbors of every S-vertex and c is the
number of in-S neighbors of every non-S vertex (first row = the S color).
The cross-edge balance is b*|S| = c*(2^n - |S|), hence rho(S) = c/(b+c);
a perfect code has (b, c) = (n, 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cube_core import VertexSet, _membership_array, index_to_vertex
from .spectral import _pair_levels, transform, weight_table


@dataclass(frozen=True)
class ParameterMatrix:
    n: int
    b: int
    c: int

    @property
    def rows(self) -> tuple:
        return ((self.n - self.b, self.b), (self.c, self.n - self.c))


@dataclass(frozen=True)
class ColoringVerdict:
    is_perfect: bool
    matrix: Optional[ParameterMatrix]
    witness: Optional[tuple]  # (vertex string, observed in-S neighbor count)


def _add_partner(c: np.ndarray, a: np.ndarray) -> None:
    c += a[:, ::-1]


def _neighbor_counts(S: VertexSet) -> tuple[np.ndarray, np.ndarray]:
    """(membership array, per-vertex count of in-S neighbors) over E^n, in
    uint8; each bit k adds the membership of u ^ 2^k to the count of u."""
    arr = _membership_array(S)
    cnt = np.zeros_like(arr)
    _pair_levels(_add_partner, cnt, arr)
    return arr, cnt


def check_perfect(S: VertexSet) -> ColoringVerdict:
    """Direct per-vertex scan; the ground-truth decider.

    The witness, when regularity fails, is the smallest-index vertex whose
    in-S neighbor count differs from the count of the smallest-index vertex
    of the same color.
    """
    size = S.size
    if size == 0 or size == (1 << S.n):
        raise ValueError("constant colorings have no parameter matrix")
    return _scan(S)[1]


def _scan(S: VertexSet) -> tuple[int, ColoringVerdict]:
    """One neighbour scan of a non-constant S: N_1, the number of ordered
    pairs of S-elements at distance 1, and the `check_perfect` verdict."""
    arr, cnt = _neighbor_counts(S)
    n1 = int((cnt * arr).sum(dtype=np.int64))  # cnt <= n: exact in uint8
    ref_in = cnt[np.argmax(arr)]
    ref_out = cnt[np.argmin(arr)]
    t = arr * (ref_in ^ ref_out)  # the reference of each vertex's color
    t ^= ref_out
    t ^= cnt  # nonzero exactly at the vertices that break regularity
    if t.any():
        w = int(np.argmax(t != 0))
        return n1, ColoringVerdict(False, None,
                                   (index_to_vertex(w, S.n), int(cnt[w])))
    matrix = ParameterMatrix(S.n, b=S.n - int(ref_in), c=int(ref_out))
    return n1, ColoringVerdict(True, matrix, None)


ENUMERATE_N_MAX = 4  # _all_subsets holds a 2^(2^n) x 2^n matrix


def _check_enumerable(n: int) -> None:
    """The one limit of the exhaustive engine (`search --exhaustive`, `sweep`)."""
    if not 1 <= n <= ENUMERATE_N_MAX:
        raise ValueError("exhaustive enumeration supports n <= %d"
                         % ENUMERATE_N_MAX)


def _all_subsets(n: int) -> tuple[np.ndarray, ...]:
    """The exhaustive engine: every subset of E^n at once, row m being the
    set with mask m.  Returns the int64 membership matrix A[m, u] =
    (m >> u) & 1, the row sizes |S|, the in-S neighbor counts
    C = A @ adjacency, the perfect verdict per row (non-constant, with one
    in-S neighbor count over the S-vertices and one over the rest), and b
    and c per row (meaningful where perfect)."""
    size = 1 << n
    vid = np.arange(size, dtype=np.int64)
    A = (np.arange(1 << size, dtype=np.int64)[:, None] >> vid[None, :]) & 1
    adj = (weight_table(n)[vid[:, None] ^ vid[None, :]] == 1).astype(np.int64)
    C = A @ adj
    s = A.sum(axis=1)
    member = A == 1
    in_min = np.where(member, C, size + 1).min(axis=1)
    in_max = np.where(member, C, -1).max(axis=1)
    out_min = np.where(member, size + 1, C).min(axis=1)
    out_max = np.where(member, -1, C).max(axis=1)
    perfect = ((s > 0) & (s < size) & (in_min == in_max)
               & (out_min == out_max))
    return A, s, C, perfect, n - in_min, out_min


def cor_from_matrix(m: ParameterMatrix) -> int:
    """cor = (b+c)/2 - 1 for a genuine perfect coloring."""
    bc = m.b + m.c
    if bc < 2 or bc % 2:
        raise ValueError("invalid parameter pair b=%d c=%d" % (m.b, m.c))
    return bc // 2 - 1


def spectral_support(S: VertexSet) -> set[int]:
    """Weights carrying nonzero Walsh coefficients; {0, k} iff S is perfect."""
    if S.size == 0 or S.size == (1 << S.n):
        raise ValueError("spectral support check rejects constant colorings")
    sp = transform(S)
    wt = weight_table(S.n)
    return {int(w) for w in np.unique(wt[sp.coeffs != 0])}


def is_perfect_code(S: VertexSet) -> bool:
    if S.size == 0 or S.size == (1 << S.n):
        return False
    v = check_perfect(S)
    return v.is_perfect and v.matrix.b == S.n and v.matrix.c == 1
