import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from boolcube import (DualDistribution, VertexSet, complement,
                      distance_distribution,
                      inverse_macwilliams, krawtchouk,
                      macwilliams_from_distances, macwilliams_from_spectrum,
                      make_set, transform, verify)
from boolcube.cube_core import index_to_vertex

from conftest import cor_by_definition, pairwise_distance_counts, random_set


def test_krawtchouk_anchors():
    for n in (1, 3, 5, 8):
        tab = krawtchouk(n)
        for i in range(n + 1):
            assert tab[0][i] == 1
            assert tab[1][i] == n - 2 * i
        for k in range(n + 1):
            assert tab[k][0] == comb(n, k)


def test_krawtchouk_row_n4():
    # frozen from the defining sum P_k(i) = sum_j (-1)^j C(i,j) C(n-i,k-j)
    assert krawtchouk(4)[2] == (6, 0, -2, 0, 6)


def test_krawtchouk_orthogonality():
    for n in range(1, 13):
        tab = krawtchouk(n)
        for k in range(n + 1):
            for l in range(k, n + 1):
                acc = sum(comb(n, i) * tab[k][i] * tab[l][i]
                          for i in range(n + 1))
                assert acc == ((1 << n) * comb(n, k) if k == l else 0)


def test_distance_distribution_hamming(hamming7):
    d = distance_distribution(hamming7)
    assert d.B == tuple(Fraction(x) for x in (1, 0, 0, 7, 7, 0, 0, 1))


def test_distance_distribution_small():
    d = distance_distribution(make_set(3, ["000"]))
    assert d.counts == (1, 0, 0, 0)
    d = distance_distribution(make_set(2, ["00", "11"]))
    assert d.counts == (2, 0, 2)


def test_distance_distribution_empty_rejected():
    with pytest.raises(ValueError):
        distance_distribution(make_set(2, []))


def test_distance_distribution_matches_pair_scan():
    rng = random.Random(31)
    for _ in range(30):
        S = random_set(rng, rng.randint(1, 8))
        assert list(distance_distribution(S).counts) == \
            pairwise_distance_counts(S)


def test_distance_distribution_spectral_route_agrees():
    # N from the spectrum: D of the transform, then the inverse MacWilliams
    rng = random.Random(37)
    for _ in range(20):
        S = random_set(rng, rng.randint(1, 8))
        dual = macwilliams_from_spectrum(transform(S))
        assert list(inverse_macwilliams(dual).counts) == \
            pairwise_distance_counts(S)


def test_dual_hamming(hamming7):
    d = distance_distribution(hamming7)
    dual = macwilliams_from_distances(d)
    assert dual.Bprime == tuple(Fraction(x) for x in (1, 0, 0, 0, 7, 0, 0, 0))
    assert sum(dual.Bprime) == Fraction(1 << 7, 16)


def test_dual_from_spectrum_examples():
    parity = make_set(3, ["000", "011", "101", "110"])
    dual = macwilliams_from_spectrum(transform(parity))
    assert dual.duals == (16, 0, 0, 16)
    single = make_set(3, ["000"])
    dual = macwilliams_from_spectrum(transform(single))
    assert dual.duals == (1, 3, 3, 1)
    assert sum(dual.Bprime) == 8


@pytest.mark.parametrize("n", range(1, 21))
def test_dual_from_spectrum_matches_per_weight_masks(n):
    # odd n splits into unequal halves; from n = 19 a row class spans
    # several chunks of 2^ROW_BITS entries
    rng = random.Random(n)
    dense = random_set(rng, n)
    sparse = VertexSet(n, rng.getrandbits(1 << max(n - 4, 0)))
    for S in (dense, sparse):
        if S.size == 0:
            continue
        sp = transform(S)
        u = np.arange(1 << n)
        wt = sum((u >> k) & 1 for k in range(n))
        sq = sp.coeffs.astype(np.int64) ** 2
        expected = tuple(int(sq[wt == k].sum()) for k in range(n + 1))
        assert macwilliams_from_spectrum(sp).duals == expected


def test_dual_diagonal_pair():
    S = make_set(2, ["00", "11"])
    dual = macwilliams_from_spectrum(transform(S))
    assert dual.duals == (4, 0, 4)
    assert dual.Bprime == (Fraction(1), Fraction(0), Fraction(1))


def test_routes_agree_exhaustive_small():
    for n in range(1, 4):
        for mask in range(1, 1 << (1 << n)):
            S = VertexSet(n, mask)
            a = macwilliams_from_spectrum(transform(S))
            b = macwilliams_from_distances(distance_distribution(S))
            assert a == b


def test_routes_agree_random():
    rng = random.Random(41)
    sets = [random_set(rng, rng.randint(1, 10)) for _ in range(30)]
    # 300 members: the pairwise scan takes 2^ROW_BITS // 300 = 218 rows of
    # pairs per chunk, so its last chunk is a ragged one of 82 rows
    members = rng.sample(range(1 << 12), 300)
    sets.append(VertexSet(12, sum(1 << i for i in members)))
    for S in sets:
        a = macwilliams_from_spectrum(transform(S))
        b = macwilliams_from_distances(distance_distribution(S))
        assert a == b


def test_dual_invariants_exhaustive_small():
    for n in range(1, 4):
        for mask in range(1, 1 << (1 << n)):
            S = VertexSet(n, mask)
            dual = macwilliams_from_spectrum(transform(S))
            assert all(d >= 0 for d in dual.duals)
            assert dual.duals[0] == S.size ** 2
            assert sum(dual.duals) == (1 << n) * S.size
            if S.size < (1 << n):
                c = cor_by_definition(S)
                assert all(dual.duals[k] == 0 for k in range(1, c + 1))


def test_b1_equals_nei():
    rng = random.Random(43)
    for _ in range(20):
        S = random_set(rng, rng.randint(1, 8))
        r = verify(S)
        T = complement(S) if r.complemented else S
        assert distance_distribution(T).B[1] == r.nei


def test_inverse_round_trip():
    rng = random.Random(47)
    for _ in range(200):
        S = random_set(rng, rng.randint(1, 10))
        d = distance_distribution(S)
        assert inverse_macwilliams(macwilliams_from_distances(d)) == d


def test_inverse_hamming(hamming7):
    from boolcube.macwilliams import DualDistribution
    dual = DualDistribution(7, 16, tuple(256 * x for x in
                                         (1, 0, 0, 0, 7, 0, 0, 0)))
    d = inverse_macwilliams(dual)
    assert d == distance_distribution(hamming7)


def test_translation_invariance_of_dual():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(1, 8)
        S = random_set(rng, n)
        T = S.translate(index_to_vertex(rng.getrandbits(n), n))
        a = macwilliams_from_spectrum(transform(S))
        b = macwilliams_from_spectrum(transform(T))
        assert a == b


def test_dual_of_empty_spectrum_rejected():
    with pytest.raises(ValueError):
        macwilliams_from_spectrum(transform(make_set(3, [])))


def test_krawtchouk_rejects_dimension_0():
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        krawtchouk(0)


def test_inverse_macwilliams_rejects_an_unrealizable_dual():
    # N_0 = (D_0 + D_1 + D_2)/4 = 2/4 is not whole: no set has this dual
    with pytest.raises(ValueError, match="dual distribution is not "
                                         "realizable: N_0 would be 2/4"):
        inverse_macwilliams(DualDistribution(2, 1, (1, 1, 0)))


def test_full_set_distribution():
    d = distance_distribution(complement(VertexSet(3, 0)))
    assert d.counts == tuple(8 * comb(3, i) for i in range(4))
