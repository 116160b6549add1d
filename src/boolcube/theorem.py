"""Exact verification of the main inequality

    nei(S) + 2(cor(S)+1)(1 - rho(S)) <= n

with equality exactly on perfect 2-colorings, plus the two prior bounds
(Fon-Der-Flaass; Bierbrauer-Friedman) and the perfect-code rigidity check.

`verify` decides the inequality in exact `Fraction`s; the two bounds are
decided in integer-cleared form (multiplied through by 2^n and by 2(cor+1)),
by helpers that take ints or numpy arrays, so that `verify`, `fdf_bound`,
`bf_bound` and `sweep` share them.  No floating point anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .cube_core import VertexSet, _cube_stats, complement
from .spectral import cor_order, transform
from .macwilliams import DualDistribution, macwilliams_from_spectrum
from .coloring import ParameterMatrix, _all_subsets, _scan, is_perfect_code


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
    """The whole analysis from one transform and one neighbour scan: cor is
    read off the support of the dual distribution D (D_0 = |S|^2 > 0), the
    bounds off (n, rho, cor); N_1 and the perfect verdict come from the
    per-vertex in-S neighbour counts."""
    T, swapped = _normalize(S, allow_complement)
    n1, verdict = _scan(T)
    st = _cube_stats(T.n, T.size, n1)
    dual = macwilliams_from_spectrum(transform(T))
    cor = dual.support[1] - 1
    lhs = st.nei + 2 * (cor + 1) * (1 - st.density)
    slack = T.n - lhs
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
        fdf_bound_ok=_fdf_ok(T.n, st.size, cor),
        bf_bound_ok=_bf_margin(T.n, st.size, cor) >= 0,
        complemented=swapped,
        dual=dual,
    )


def _fdf_ok(n: int, size, cor):
    """cor <= 2n/3 - 1 for unbalanced functions (balanced ones are exempt),
    as 3(cor+1) <= 2n."""
    return (2 * size == 1 << n) | (3 * (cor + 1) <= 2 * n)


def _bf_margin(n: int, size, cor):
    """rho >= 1 - n / (2(cor+1)) times 2^n * 2(cor+1), as a difference:
    >= 0 where the bound holds, 0 at equality."""
    return n * (1 << n) - 2 * (cor + 1) * ((1 << n) - size)


def fdf_bound(S: VertexSet) -> bool:
    """Fon-Der-Flaass: cor <= 2n/3 - 1 unless S is balanced."""
    return _fdf_ok(S.n, S.size, cor_order(S))


def bf_bound(S: VertexSet) -> bool:
    """Bierbrauer-Friedman: rho >= 1 - n / (2(cor+1))."""
    return _bf_margin(S.n, S.size, cor_order(S)) >= 0


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
    """Exhaustive validation over every non-constant subset of E^n (n <= 4),
    read off the exhaustive engine `_all_subsets(n)`.  For each subset
    (complemented when rho > 1/2) it checks in exact integer arithmetic:
    slack >= 0, slack = 0 iff the neighbour counts give a perfect coloring,
    both prior bounds, and that every Bierbrauer-Friedman equality case is
    perfect.  The routes are independent: cor comes from the Walsh spectra,
    N_1 and the perfect verdict from the counts."""
    size = 1 << n
    s, n1, perfect, _, _, cor = _all_subsets(n)
    masks = np.arange(len(s))
    nonconst = (s > 0) & (s < size)

    # complement when rho > 1/2 (cor is complement-invariant; perfect too)
    eff = np.where(2 * s > size, masks ^ (len(s) - 1), masks)
    s_e, n1_e, perf_e = s[eff], n1[eff], perfect[eff]

    # slack * |S| * 2^n = n*s*2^n - N1*2^n - 2(cor+1) s (2^n - s)
    slack_int = n * s_e * size - n1_e * size - 2 * (cor + 1) * s_e * (size - s_e)

    ok_a = slack_int >= 0
    ok_b = (slack_int == 0) == perf_e
    bf = _bf_margin(n, s, cor)
    bf_eq = nonconst & (bf == 0)
    ok_bf_eq = ~bf_eq | perfect

    bad = nonconst & ~(ok_a & ok_b & _fdf_ok(n, s, cor) & (bf >= 0) & ok_bf_eq)
    return SweepSummary(
        n=n,
        checked=int(nonconst.sum()),
        equality_cases=int((nonconst & (slack_int == 0)).sum()),
        perfect_count=int(perfect.sum()),
        violations=tuple(int(m) for m in masks[bad][:16]),
        bf_equality_cases=int(bf_eq.sum()),
    )
