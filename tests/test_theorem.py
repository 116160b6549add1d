import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from boolcube import (ParameterMatrix, VertexSet, check_perfect, complement,
                      half_cube, make_set, sweep, transform, verify)
from boolcube.cube_core import index_to_vertex

from conftest import cor_by_definition, n1_direct, random_set


def test_verify_hamming(hamming7):
    r = verify(hamming7)
    assert (r.nei, r.cor, r.rho) == (0, 3, Fraction(1, 8))
    assert r.lhs == 7 and r.slack == 0
    assert r.is_perfect and (r.matrix.b, r.matrix.c) == (7, 1)
    assert not r.complemented


def test_verify_singleton():
    r = verify(make_set(3, ["000"]))
    assert r.lhs == Fraction(7, 4)
    assert r.slack == Fraction(5, 4)
    assert not r.is_perfect


def test_verify_half_cube():
    for n in range(2, 7):
        r = verify(half_cube(n))
        assert r.slack == 0
        assert r.is_perfect and (r.matrix.b, r.matrix.c) == (1, 1)


def test_verify_rejects_constant():
    with pytest.raises(ValueError):
        verify(make_set(3, []))
    with pytest.raises(ValueError):
        verify(complement(VertexSet(3, 0)))


def test_verify_complements_dense_sets():
    S = complement(make_set(3, ["000"]))  # rho = 7/8
    r = verify(S)
    assert r.complemented and r.rho == Fraction(1, 8)
    assert r.slack == Fraction(5, 4)
    with pytest.raises(ValueError):
        verify(S, allow_complement=False)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 14, 20])
def test_verify_of_a_dense_set_is_verify_of_its_complement(n):
    """verify reads T's dual off the spectrum of S itself: a dense S gives
    the report of its complement, flagged, down to D and N."""
    rng = random.Random(n)
    for _ in range(4 if n < 14 else 1):
        S = random_set(rng, n)
        T = complement(S)
        if 2 * S.size < 1 << n:
            S, T = T, S
        if 2 * S.size == 1 << n:
            continue
        assert verify(S) == replace(verify(T), complemented=True)


def test_verify_transforms_S_itself(monkeypatch):
    import boolcube.theorem as theorem
    seen = []
    monkeypatch.setattr(theorem, "transform",
                        lambda S: seen.append(S) or transform(S))
    S = complement(make_set(4, ["0000", "0110"]))  # rho = 7/8
    assert verify(S).complemented
    assert len(seen) == 1 and seen[0] is S


@pytest.mark.parametrize("n,size,complemented", [
    (14, 6000, False),     # dense: above the pairwise limit
    (12, 40, False),       # sparse
    (14, 12000, True),     # density above 1/2
    (20, 400000, False),   # dense, blocked scan
    (20, 700000, True),
])
def test_verify_nei_matches_stats(n, size, complemented):
    # verify takes N_1 from its dual distribution, n1_direct counts pairs
    a = np.zeros(1 << n, dtype=np.uint8)
    a[np.random.default_rng(size).permutation(1 << n)[:size]] = 1
    S = VertexSet(n, int.from_bytes(np.packbits(a, bitorder="little"),
                                    "little"))
    r = verify(S)
    T = complement(S) if complemented else S
    assert r.complemented is complemented
    assert r.nei * T.size == n1_direct(T)
    assert r.rho == Fraction(T.size, 1 << n)


def test_slack_is_exact():
    rng = random.Random(3)
    for _ in range(50):
        S = random_set(rng, rng.randint(2, 8))
        r = verify(S)
        cleared = r.slack * r.size * (1 << r.n)
        assert cleared.denominator == 1
        assert r.slack == r.n - r.lhs


def _equality_form(S: VertexSet) -> bool:
    """nei = rho*n + (n - 2(cor+1))(1 - rho) on the set verify analyses,
    from the counted N_1 and cor by its definition off the spectrum."""
    T = complement(S) if 2 * S.size > 1 << S.n else S
    nei, rho = Fraction(n1_direct(T), T.size), Fraction(T.size, 1 << T.n)
    cor = cor_by_definition(T)
    return nei == rho * T.n + (T.n - 2 * (cor + 1)) * (1 - rho)


def test_equality_form_matches_slack():
    rng = random.Random(5)
    for n in range(2, 5):
        for mask in random.Random(n).sample(range(1, (1 << (1 << n)) - 1),
                                            k=min(200, (1 << (1 << n)) - 2)):
            S = VertexSet(n, mask)
            assert _equality_form(S) == (verify(S).slack == 0)
    for _ in range(30):
        S = random_set(rng, rng.randint(5, 8))
        assert _equality_form(S) == (verify(S).slack == 0)


def test_equality_form_examples(hamming7):
    assert verify(hamming7).slack == 0
    assert verify(make_set(3, ["000"])).slack != 0
    # parity kernel = affine coloring on the all-ones vector
    for n in (2, 3, 4):
        S = make_set(n, [index_to_vertex(i, n) for i in range(1 << n)
                         if bin(i).count("1") % 2 == 0])
        assert verify(S).slack == 0
        v = check_perfect(S)
        assert v.is_perfect and (v.matrix.b, v.matrix.c) == (n, n)


def test_fdf_bound(hamming7):
    assert verify(hamming7).fdf_bound_ok  # cor=3 <= 11/3
    balanced = make_set(2, ["00", "11"])
    assert verify(balanced).fdf_bound_ok
    for mask in range(1, (1 << 16) - 1, 37):
        S = VertexSet(4, mask)
        assert verify(S).fdf_bound_ok


def test_bf_bound(hamming7):
    assert verify(hamming7).bf_bound_ok  # equality: 1/8 = 1 - 7/8
    assert verify(make_set(3, ["000"])).bf_bound_ok
    for mask in range(1, (1 << 16) - 1, 41):
        assert verify(VertexSet(4, mask)).bf_bound_ok


def test_bf_equality_cases_are_perfect():
    for n in (2, 3):
        for mask in range(1, (1 << (1 << n)) - 1):
            S = VertexSet(n, mask)
            rho = Fraction(S.size, 1 << n)
            if rho == 1 - Fraction(n, 2 * (cor_by_definition(S) + 1)):
                assert check_perfect(S).is_perfect


def _rigid(S):
    """Whether S meets the perfect-code values rho = 1/(n+1), cor = (n-1)/2,
    read off `verify`; when it does, the theorem leaves nei + n <= n, so nei
    and the slack are 0 and S is a perfect (n, 1) code."""
    n, r = S.n, verify(S)
    if r.complemented or r.rho != Fraction(1, n + 1) or 2 * r.cor != n - 1:
        return False
    assert r.nei == 0 and r.slack == 0
    assert check_perfect(S).matrix == ParameterMatrix(n, n, 1)
    return True


def test_code_rigidity_hamming(hamming7):
    assert _rigid(hamming7)
    r = verify(hamming7)
    assert (r.rho, r.cor, r.nei, r.slack) == (Fraction(1, 8), 3, 0, 0)


def test_code_rigidity_translates(hamming7):
    for t in range(1, 128):  # t = 0 is test_code_rigidity_hamming
        assert _rigid(hamming7.translate(index_to_vertex(t, 7)))


def test_code_rigidity_density_gate(hamming7):
    # rho = 7/8: the complement of the code has cor 3 and is no code
    C = complement(hamming7)
    assert cor_by_definition(C) == 3 and not _rigid(C)
    assert check_perfect(C).matrix == ParameterMatrix(7, 1, 7)
    # rho = 1/8 with cor != 3: no code either
    rng = random.Random(17)
    for _ in range(5):
        S = VertexSet(7, sum(1 << i for i in rng.sample(range(128), 16)))
        assert cor_by_definition(S) != 3 and not _rigid(S)
        assert check_perfect(S).matrix != ParameterMatrix(7, 7, 1)


def test_code_rigidity_exhaustive_n3():
    rigid = [mask for mask in range(1, 255) if _rigid(VertexSet(3, mask))]
    # the four translates of {000, 111}: the pairs of antipodal vertices
    assert sorted(rigid) == sorted(make_set(3, [v, w]).mask for v, w in [
        ("000", "111"), ("001", "110"), ("010", "101"), ("100", "011")])


def test_sweep_small():
    for n in (2, 3):
        s = sweep(n)
        assert s.violations == ()
        assert s.checked == (1 << (1 << n)) - 2
        assert s.equality_cases == s.perfect_count
    with pytest.raises(ValueError):
        sweep(5)


@pytest.mark.parametrize("n, expected", [
    (1, (2, 2, 2, 2)),
    (2, (14, 6, 6, 2)),
    (3, (254, 22, 22, 6)),
    (4, (65534, 86, 86, 2)),
])
def test_sweep_summary_pinned(n, expected):
    s = sweep(n)
    assert s.violations == ()
    assert (s.checked, s.equality_cases, s.perfect_count,
            s.bf_equality_cases) == expected


def test_sweep_matches_verify_on_n3():
    # verify decides in Fractions and the BF equality is counted from the
    # rational form, independently of sweep's integer-cleared forms
    for n in (1, 2, 3):
        s = sweep(n)
        perfect = equal = bf_equal = 0
        for mask in range(1, (1 << (1 << n)) - 1):
            S = VertexSet(n, mask)
            r = verify(S)
            assert r.slack >= 0
            assert (r.slack == 0) == r.is_perfect
            perfect += check_perfect(S).is_perfect
            equal += r.slack == 0
            bf_equal += (Fraction(S.size, 1 << n)
                         == 1 - Fraction(n, 2 * (r.cor + 1)))
        assert perfect == s.perfect_count
        assert equal == s.equality_cases
        assert bf_equal == s.bf_equality_cases
