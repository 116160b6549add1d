"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.
"""
import random
import time
from fractions import Fraction

import numpy as np

from boolcube import (ParameterMatrix, VertexSet, backtrack_search,
                      check_perfect, cor_order_direct,
                      distance_distribution, enumerate_perfect, hamming_code,
                      inverse_macwilliams, macwilliams_from_distances,
                      macwilliams_from_spectrum, sweep, transform, verify)

from conftest import cor_by_definition, random_set, round_trips


def _report(num: int, text: str) -> None:
    print("PASS criterion %d: %s" % (num, text))


def test_criterion_1_exhaustive_theorem_validation():
    # slack >= 0 and slack = 0 <=> perfect, over every non-constant subset,
    # with the perfect verdict from the direct neighbor scan
    timings = {}
    for n in (2, 3, 4):
        t0 = time.perf_counter()
        s = sweep(n)
        timings[n] = time.perf_counter() - t0
        assert s.violations == ()
        assert s.checked == (1 << (1 << n)) - 2
        assert s.equality_cases == s.perfect_count
    assert timings[4] < 10.0
    _report(1, "exhaustive sweep n=2,3,4 clean; n=4 (65534 subsets) in %.2fs"
            % timings[4])


def test_criterion_2_hamming7_end_to_end():
    S = hamming_code(3)
    assert S.size == 16
    r = verify(S)
    assert r.rho == Fraction(1, 8)
    assert r.nei == 0
    assert r.cor == 3
    assert r.slack == 0
    assert r.is_perfect
    assert (r.matrix.b, r.matrix.c) == (7, 1)
    assert r.matrix.rows == ((0, 7), (1, 6))
    assert r.dual.support == (0, 4)
    dual = macwilliams_from_distances(distance_distribution(S))
    assert dual.Bprime == tuple(Fraction(x)
                                for x in (1, 0, 0, 0, 7, 0, 0, 0))
    _report(2, "Hamming(7): |S|=16 rho=1/8 nei=0 cor=3 matrix ((0,7),(1,6)) "
            "support {0,4} B'=(1,0,0,0,7,0,0,0) slack=0")


def _macwilliams_checks(S: VertexSet) -> None:
    d = distance_distribution(S)
    via_k = macwilliams_from_distances(d)
    via_sp = macwilliams_from_spectrum(transform(S))
    assert via_k == via_sp
    assert inverse_macwilliams(via_k) == d
    assert all(x >= 0 for x in via_k.duals)                   # (a)
    assert via_k.duals[0] == S.size ** 2                      # (c)
    assert sum(via_k.Bprime) == Fraction(1 << S.n, S.size)    # (d)
    if 0 < S.size < (1 << S.n):
        c = cor_by_definition(S)
        assert all(via_k.duals[k] == 0 for k in range(1, c + 1))


def test_criterion_3_macwilliams_consistency():
    for n in (1, 2, 3, 4):
        for mask in range(1, 1 << (1 << n)):
            _macwilliams_checks(VertexSet(n, mask))
    rng = random.Random(2026)
    done = 0
    while done < 500:
        S = random_set(rng, rng.randint(1, 10), nonconstant=False)
        if S.size == 0:
            continue
        _macwilliams_checks(S)
        done += 1
    _report(3, "spectral and Krawtchouk routes agree exactly, round-trip and "
            "dual corollaries hold (all sets n<=4 plus 500 random n<=10)")


def test_criterion_4_parseval_and_round_trip():
    for n in (1, 2, 3, 4):
        for mask in range(1 << (1 << n)):
            S = VertexSet(n, mask)
            sp = transform(S)
            assert int((sp.coeffs.astype(np.int64) ** 2).sum()) == \
                (1 << n) * S.size
            assert round_trips(sp, S)
    rng = random.Random(2027)
    for _ in range(500):
        S = random_set(rng, rng.randint(1, 12), nonconstant=False)
        sp = transform(S)
        assert int((sp.coeffs.astype(np.int64) ** 2).sum()) == \
            (1 << S.n) * S.size
        assert round_trips(sp, S)
    _report(4, "Parseval and transform round-trip exact "
            "(all sets n<=4 plus 500 random n<=12)")


def test_criterion_5_cor_oracle_equivalence():
    for n in (1, 2, 3, 4):
        for mask in range(1, (1 << (1 << n)) - 1):
            S = VertexSet(n, mask)
            c = verify(S).cor
            for t in range(n + 1):
                assert (c >= t) == cor_order_direct(S, t)
    rng = random.Random(2028)
    for n in (6, 7, 8):
        for _ in range(100):
            S = random_set(rng, n)
            c = verify(S).cor
            for t in range(n + 1):
                assert (c >= t) == cor_order_direct(S, t)
    _report(5, "spectral cor equals the face-enumeration verdict "
            "(all non-constant sets n<=4; 100 random sets at n=6,7,8)")


def test_criterion_6_prior_bounds():
    # fdf / bf validity and bf-equality => perfect are asserted inside sweep
    for n in (2, 3, 4):
        s = sweep(n)
        assert s.violations == ()
    _report(6, "Fon-Der-Flaass and Bierbrauer-Friedman bounds hold on the "
            "exhaustive n<=4 sweep; every BF equality case is perfect")


def test_criterion_7_search_certification():
    r = enumerate_perfect(2, ParameterMatrix(2, 2, 2))
    assert r.exhaustive
    assert {frozenset(S.members()) for S in r.found} == \
        {frozenset({"00", "11"}), frozenset({"01", "10"})}
    t0 = time.perf_counter()
    bt = backtrack_search(7, ParameterMatrix(7, 7, 1), budget=10 ** 7,
                          max_results=1)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    assert len(bt.found) >= 1
    v = check_perfect(bt.found[0])
    assert v.is_perfect and (v.matrix.b, v.matrix.c) == (7, 1)
    assert bt.found[0].size == 16
    _report(7, "enumerate(2,(2,2)) exact; backtrack found a certified "
            "perfect code at n=7 in %.2fs (%d nodes)" % (dt, bt.nodes))


def test_criterion_8_transform_performance():
    rng = random.Random(2029)
    S = VertexSet(20, rng.getrandbits(1 << 20))
    t0 = time.perf_counter()
    sp = transform(S)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    assert int(sp.coeffs[0]) == S.size
    _report(8, "fast transform on n=20 (1,048,576 points) in %.3fs" % dt)
