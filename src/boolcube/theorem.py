"""Exact verification of the main inequality

    nei(S) + 2(cor(S)+1)(1 - rho(S)) <= n

with equality exactly on perfect 2-colorings, plus the two prior bounds
(Fon-Der-Flaass; Bierbrauer-Friedman).

The analysis is the paper's proof: for the MacWilliams dual D, the P_1 row
of the inverse transform, N_1 2^n = sum_k (n - 2k) D_k, and Parseval give
slack |S| 2^n = 2 sum_{k >= 1} (k - cor - 1) D_k, whose terms are >= 0 and
all 0 exactly when D lives on {0, cor + 1}: the perfect colorings.

The inequality and both bounds are decided in integer-cleared form (times
|S| 2^n; times 2^n and 2(cor+1)), by helpers that take ints or numpy arrays,
so that `verify`, `sweep` and the feasibility rules of `search` share them;
`verify` reports exact `Fraction`s.  No floating point anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .cube_core import VertexSet
from .spectral import transform
from .macwilliams import (DistanceDistribution, DualDistribution,
                          inverse_macwilliams, macwilliams_from_spectrum)
from .coloring import ParameterMatrix, _all_subsets


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


def verify(S: VertexSet) -> TheoremReport:
    """The whole analysis from one transform of S.  The analysed set T is S,
    or its complement when rho > 1/2; T's dual is read off S's spectrum:
    D_k(T) = D_k(S) for k >= 1 (off 0 their coefficients differ in sign
    only), D_0(T) = |T|^2.  `_report` reads the rest off that D."""
    n, size = S.n, S.size
    if size == 0 or size == 1 << n:
        raise ValueError("constant set: |S|=%d in E^%d has no analysis"
                         % (size, n))
    swapped = 2 * size > 1 << n
    size = (1 << n) - size if swapped else size
    duals = macwilliams_from_spectrum(transform(S)).duals
    return _report(DualDistribution(n, size, (size * size,) + duals[1:]),
                   swapped)


def _report(dual: DualDistribution, complemented: bool) -> TheoremReport:
    """The report of the analysed set T from its dual D alone: N by inverse
    MacWilliams, N_1 its P_1 row, cor off the support of D, the bounds off
    (n, rho, cor).  T is perfect iff D lives on {0, k}, and then b + c = 2k
    and rho = c/(b + c).  No neighbour scan runs; `check_perfect` does that."""
    n, size = dual.n, dual.size
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
        complemented=complemented,
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
    read off the exhaustive engine `_all_subsets(n)`.  Each subset is checked
    itself, as the theorem is stated, in exact integer arithmetic: slack >= 0,
    slack = 0 iff the neighbour counts give a perfect coloring, the same
    slack from the spectral N_1 as from the counted one, both prior bounds,
    and that every Bierbrauer-Friedman equality case is perfect.  cor and
    one N_1 come from the Walsh spectra, the other N_1 and the perfect
    verdict from the counts."""
    s, n1, perfect, _, _, cor, n1_spec = _all_subsets(n)  # checks n first
    nonconst = (s > 0) & (s < 1 << n)
    slack_int = _slack_num(n, s, n1, cor)

    ok_a = slack_int >= 0
    ok_b = (slack_int == 0) == perfect
    ok_spec = _slack_num(n, s, n1_spec, cor) == slack_int
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
        violations=tuple(int(m) for m in np.flatnonzero(bad)[:16]),
        bf_equality_cases=int(bf_eq.sum()),
    )
