"""Exact verification of the main inequality

    nei(S) + 2(cor(S)+1)(1 - rho(S)) <= n

with equality exactly on perfect 2-colorings, plus the two prior bounds
(Fon-Der-Flaass; Bierbrauer-Friedman) and the perfect-code rigidity check.

Everything is decided in integer-cleared form (multiplied through by
|S| * 2^n); no floating point anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .cube_core import VertexSet, complement, stats
from .spectral import cor_order, transform, weight_table
from .macwilliams import DualDistribution, macwilliams_from_spectrum
from .coloring import (ParameterMatrix, _all_subsets, check_perfect,
                       is_perfect_code)


@dataclass(frozen=True)
class TheoremReport:
    n: int
    size: int
    rho: Fraction
    cor: int
    nei: Fraction
    lhs: Fraction
    slack: Fraction
    is_perfect: bool
    matrix: Optional[ParameterMatrix]
    fdf_bound_ok: bool
    bf_bound_ok: bool
    complemented: bool
    dual: DualDistribution  # of the analysed set (the complement if swapped)


def _normalize(S: VertexSet, allow_complement: bool) -> tuple[VertexSet, bool]:
    size = S.size
    total = 1 << S.n
    if size == 0 or size == total:
        raise ValueError("constant set: |S|=%d in E^%d has no analysis"
                         % (size, S.n))
    if 2 * size > total:
        if not allow_complement:
            raise ValueError("density above 1/2; pass allow_complement=True "
                             "to analyze the complement")
        return complement(S), True
    return S, False


def verify(S: VertexSet, allow_complement: bool = True) -> TheoremReport:
    """The whole analysis from one transform: cor is read off the support
    of the dual distribution D (D_0 = |S|^2 > 0), the bounds off (n, rho, cor)."""
    T, swapped = _normalize(S, allow_complement)
    st = stats(T)
    dual = macwilliams_from_spectrum(transform(T), st.size)
    cor = dual.support[1] - 1
    lhs = st.nei + 2 * (cor + 1) * (1 - st.density)
    slack = T.n - lhs
    verdict = check_perfect(T)
    return TheoremReport(
        n=T.n,
        size=st.size,
        rho=st.density,
        cor=cor,
        nei=st.nei,
        lhs=lhs,
        slack=slack,
        is_perfect=verdict.is_perfect,
        matrix=verdict.matrix,
        fdf_bound_ok=_fdf_ok(T.n, st.density, cor),
        bf_bound_ok=_bf_ok(T.n, st.density, cor),
        complemented=swapped,
        dual=dual,
    )


def _fdf_ok(n: int, rho: Fraction, cor: int) -> bool:
    """cor <= 2n/3 - 1 for unbalanced functions (balanced ones are exempt)."""
    return rho == Fraction(1, 2) or 3 * (cor + 1) <= 2 * n


def _bf_ok(n: int, rho: Fraction, cor: int) -> bool:
    """rho >= 1 - n / (2(cor+1)), exact rational comparison."""
    return rho >= 1 - Fraction(n, 2 * (cor + 1))


def fdf_bound(S: VertexSet) -> bool:
    """Fon-Der-Flaass: cor <= 2n/3 - 1 unless S is balanced."""
    return _fdf_ok(S.n, stats(S).density, cor_order(S))


def bf_bound(S: VertexSet) -> bool:
    """Bierbrauer-Friedman: rho >= 1 - n / (2(cor+1))."""
    return _bf_ok(S.n, stats(S).density, cor_order(S))


def code_rigidity(S: VertexSet, reference_n: int) -> bool:
    """If cor and rho match the perfect-code values for this dimension, the
    set must itself be a perfect code; vacuously true otherwise."""
    if S.n != reference_n:
        raise ValueError("set dimension %d differs from reference %d"
                         % (S.n, reference_n))
    m = (reference_n + 1).bit_length() - 1
    if (1 << m) - 1 != reference_n:
        raise ValueError("n=%d is not of the form 2^m - 1" % reference_n)
    if S.size == 0 or S.size == (1 << S.n):
        return True
    rho = Fraction(S.size, 1 << S.n)
    if rho != Fraction(1, reference_n + 1) or cor_order(S) != (reference_n - 1) // 2:
        return True
    return is_perfect_code(S)


@dataclass(frozen=True)
class SweepSummary:
    n: int
    checked: int
    equality_cases: int
    perfect_count: int
    violations: tuple  # masks failing any of the checks (expected empty)
    bf_equality_cases: int


def sweep(n: int) -> SweepSummary:
    """Exhaustive validation over every non-constant subset of E^n (n <= 4).

    For each subset (complemented when rho > 1/2) it checks, in exact integer
    arithmetic: slack >= 0, slack = 0 iff the independent per-vertex scan
    certifies a perfect coloring, both prior bounds, and that every
    Bierbrauer-Friedman equality case is perfect.

    The two routes are independent: cor comes from the Walsh spectra, the
    perfect verdict from direct neighbor counting.
    """
    if not 2 <= n <= 4:
        raise ValueError("exhaustive sweep supports 2 <= n <= 4")
    size = 1 << n
    nmasks = 1 << size
    masks = np.arange(nmasks, dtype=np.int64)
    vid = np.arange(size, dtype=np.int64)
    A, s, C, perfect, _, _ = _all_subsets(n)

    # spectral route: spectra = A @ W, W[u, v] = (-1)^popcount(u & v)
    W = 1 - 2 * (weight_table(n)[vid[:, None] & vid[None, :]] & 1)
    spectra = A @ W
    wt = weight_table(n)
    nzw = np.where((spectra != 0) & (wt[None, :] > 0), wt[None, :], n + 2)
    cor = nzw.min(axis=1) - 1  # meaningful for non-constant masks only

    # direct route: the per-vertex in-S neighbor counts of the engine
    n1 = (A * C).sum(axis=1)
    nonconst = (s > 0) & (s < size)

    # complement when rho > 1/2 (cor is complement-invariant; perfect too)
    eff = np.where(2 * s > size, masks ^ (nmasks - 1), masks)
    s_e, n1_e, perf_e = s[eff], n1[eff], perfect[eff]

    # slack * |S| * 2^n = n*s*2^n - N1*2^n - 2(cor+1) s (2^n - s)
    slack_int = n * s_e * size - n1_e * size - 2 * (cor + 1) * s_e * (size - s_e)

    ok_a = slack_int >= 0
    ok_b = (slack_int == 0) == perf_e
    balanced = 2 * s == size
    ok_fdf = balanced | (3 * (cor + 1) <= 2 * n)
    bf_lhs = 2 * (cor + 1) * s + n * size
    bf_rhs = 2 * (cor + 1) * size
    ok_bf = bf_lhs >= bf_rhs
    bf_eq = nonconst & (bf_lhs == bf_rhs)
    ok_bf_eq = ~bf_eq | perfect

    bad = nonconst & ~(ok_a & ok_b & ok_fdf & ok_bf & ok_bf_eq)
    return SweepSummary(
        n=n,
        checked=int(nonconst.sum()),
        equality_cases=int((nonconst & (slack_int == 0)).sum()),
        perfect_count=int(perfect.sum()),
        violations=tuple(int(m) for m in masks[bad][:16]),
        bf_equality_cases=int(bf_eq.sum()),
    )
