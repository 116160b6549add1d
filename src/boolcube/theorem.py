"""Exact verification of the main inequality

    nei(S) + 2(cor(S)+1)(1 - rho(S)) <= n

with equality exactly on perfect 2-colorings, plus the two prior bounds
(Fon-Der-Flaass; Bierbrauer-Friedman) and the perfect-code rigidity check.

The analysis is the paper's proof: for the MacWilliams dual D, the P_1 row
of the inverse transform, N_1 2^n = sum_k (n - 2k) D_k, and Parseval give
slack |S| 2^n = 2 sum_{k >= 1} (k - cor - 1) D_k, whose terms are >= 0 and
all 0 exactly when D lives on {0, cor + 1}: the perfect colorings.

The inequality and both bounds are decided in integer-cleared form (times
|S| 2^n; times 2^n and 2(cor+1)), by helpers that take ints or numpy arrays,
so that `verify`, `fdf_bound`, `bf_bound` and `sweep` share them; `verify`
reports exact `Fraction`s.  No floating point anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .cube_core import VertexSet, complement
from .spectral import cor_order, transform
from .macwilliams import (DistanceDistribution, DualDistribution,
                          inverse_macwilliams, macwilliams_from_spectrum)
from .coloring import ParameterMatrix, _all_subsets, is_perfect_code


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
    distances: DistanceDistribution  # N, the inverse MacWilliams of dual


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
    """The whole analysis from one transform, read off the dual distribution
    D of the analysed set T: cor from its support (D_0 = |T|^2 > 0), N_1 from
    its P_1 row, the bounds from (n, rho, cor).  T is perfect iff D lives on
    {0, k}; then b + c = 2k and rho = c/(b + c).  No neighbour scan runs:
    the scan `check_perfect` is the ground truth the tests compare with."""
    T, swapped = _normalize(S, allow_complement)
    n, size = T.n, T.size
    dual = macwilliams_from_spectrum(transform(T))
    distances = inverse_macwilliams(dual)
    n1 = distances.counts[1]
    cor = dual.support[1] - 1
    slack = Fraction(_slack_num(n, size, n1, cor), size << n)
    k, perfect = cor + 1, len(dual.support) == 2
    c = (2 * k * size) >> n  # whole when perfect
    matrix = ParameterMatrix(n, 2 * k - c, c) if perfect else None
    return TheoremReport(
        n=n,
        size=size,
        rho=Fraction(size, 1 << n),
        cor=cor,
        nei=Fraction(n1, size),
        lhs=n - slack,
        slack=slack,
        is_perfect=perfect,
        matrix=matrix,
        fdf_bound_ok=_fdf_ok(n, size, cor),
        bf_bound_ok=_bf_margin(n, size, cor) >= 0,
        complemented=swapped,
        dual=dual,
        distances=distances,
    )


def _slack_num(n: int, size, n1, cor):
    """The slack, n - N_1/|S| - 2(cor+1)(1 - rho), times |S| 2^n."""
    return size * _bf_margin(n, size, cor) - (n1 << n)


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
    the same slack from the spectral N_1 as from the counted one, both prior
    bounds, and that every Bierbrauer-Friedman equality case is perfect.
    cor and one N_1 come from the Walsh spectra, the other N_1 and the
    perfect verdict from the counts."""
    size = 1 << n
    s, n1, perfect, _, _, cor, n1_spec = _all_subsets(n)
    masks = np.arange(len(s))
    nonconst = (s > 0) & (s < size)

    # complement when rho > 1/2 (cor is complement-invariant; perfect too)
    eff = np.where(2 * s > size, masks ^ (len(s) - 1), masks)
    slack_int = _slack_num(n, s[eff], n1[eff], cor)

    ok_a = slack_int >= 0
    ok_b = (slack_int == 0) == perfect[eff]
    ok_spec = _slack_num(n, s[eff], n1_spec[eff], cor) == slack_int
    bf = _bf_margin(n, s, cor)
    bf_eq = nonconst & (bf == 0)
    ok_bf_eq = ~bf_eq | perfect

    bad = nonconst & ~(ok_a & ok_b & ok_spec & _fdf_ok(n, s, cor)
                       & (bf >= 0) & ok_bf_eq)
    return SweepSummary(
        n=n,
        checked=int(nonconst.sum()),
        equality_cases=int((nonconst & (slack_int == 0)).sum()),
        perfect_count=int(perfect.sum()),
        violations=tuple(int(m) for m in masks[bad][:16]),
        bf_equality_cases=int(bf_eq.sum()),
    )
