"""`verify` reads nei, the slack and the perfect verdict with its (b, c) off
the dual distribution D.  These tests hold it to the direct routes: the
verdict and the matrix of the neighbour scan `check_perfect`, and N_1 from
`conftest.n1_direct` (the pairwise `distance_distribution` for small sets, a
numpy pair count for large ones)."""
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boolcube import (VertexSet, affine_coloring, backtrack_search,
                      check_perfect, complement, half_cube, hamming_code,
                      sweep, verify)
from boolcube import coloring, macwilliams
from boolcube.cli import build_report
from boolcube.coloring import ParameterMatrix, _all_subsets
from boolcube.cube_core import _pack

from conftest import n1_direct

PROPERTY = settings(max_examples=80, deadline=None, database=None)


def _check_against_direct_routes(S: VertexSet) -> None:
    rep = verify(S)
    T = complement(S) if rep.complemented else S
    direct = check_perfect(T)
    assert rep.is_perfect == direct.is_perfect
    assert rep.matrix == direct.matrix
    assert rep.nei * T.size == n1_direct(T)
    assert (rep.slack == 0) == direct.is_perfect


def _flip(S: VertexSet, i: int) -> VertexSet:
    return VertexSet(S.n, S.mask ^ (1 << i))


def _affine(n: int) -> VertexSet:
    w = 1 + (2 * n) // 3 % n
    return affine_coloring(n, "1" * w + "0" * (n - w), n % 2)


# (n, b, c) that backtrack_search finds within a few thousand nodes; b > c
# gives density < 1/2, b < c density > 1/2 (verify then analyses the
# complement, a (c, b) coloring)
SEARCH_TARGETS = [(6, 5, 3), (6, 3, 5), (8, 1, 3), (9, 9, 3), (10, 6, 2),
                  (11, 7, 1), (12, 12, 4), (12, 3, 1), (12, 6, 6)]


def _perfect_sets():
    sets = [("affine-n%d" % n, _affine(n)) for n in range(1, 25)]
    sets += [("half-cube-n%d" % n, half_cube(n, 1 + n // 2))
             for n in (1, 2, 5, 12, 24)]
    for m in (2, 3, 4):
        H = hamming_code(m)
        sets += [("hamming-m%d" % m, H),
                 ("hamming-m%d-complement" % m, complement(H))]
    for n, b, c in SEARCH_TARGETS:
        found = backtrack_search(n, ParameterMatrix(n, b, c),
                                 max_results=1).found
        sets.append(("search-%d-%d-%d" % (n, b, c), found[0]))
    return sets


PERFECT = _perfect_sets()


@pytest.mark.parametrize("S", [S for _, S in PERFECT],
                         ids=[name for name, _ in PERFECT])
def test_verify_matches_the_scan_on_perfect_colorings(S):
    _check_against_direct_routes(S)
    assert verify(S).is_perfect


def test_perfect_sets_cover_both_densities_and_b_ne_c():
    reps = [verify(S) for _, S in PERFECT]
    assert any(r.complemented for r in reps)
    assert any(r.matrix.b != r.matrix.c and not r.complemented for r in reps)
    assert any(r.matrix.b != r.matrix.c and r.complemented for r in reps)


@pytest.mark.parametrize("S", [S for _, S in PERFECT],
                         ids=[name for name, _ in PERFECT])
def test_verify_matches_the_scan_one_vertex_off(S):
    F = _flip(S, (S.mask.bit_length() * 7919) % (1 << S.n))
    if F.size in (0, 1 << F.n):
        return  # E^1: one flip of a one-vertex set is constant
    _check_against_direct_routes(F)


@PROPERTY
@given(st.integers(1, 12).flatmap(
    lambda n: st.integers(1, (1 << (1 << n)) - 2).map(
        lambda mask: VertexSet(n, mask))))
def test_verify_matches_the_scan_on_random_sets(S):
    _check_against_direct_routes(S)


@pytest.mark.parametrize("n", range(16, 25))
def test_verify_matches_the_scan_on_random_sets_large_n(n):
    rng = np.random.default_rng(n)
    density = rng.choice([0.01, 0.3, 0.5, 0.8])
    a = (rng.random(1 << n) < density).astype(np.uint8)
    _check_against_direct_routes(VertexSet(n, _pack(a)))


def test_verify_runs_no_neighbour_scan(monkeypatch, hamming7):
    calls = []
    counts = coloring._neighbor_counts
    monkeypatch.setattr(coloring, "_neighbor_counts",
                        lambda S: calls.append(1) or counts(S))
    rng = random.Random(11)
    sets = [hamming7, complement(hamming7), _flip(hamming7, 3),
            _affine(18), VertexSet(14, rng.getrandbits(1 << 14))]
    for S in sets:
        verify(S)
        build_report(S)
    assert calls == []
    check_perfect(hamming7)  # the patch is the function the scan calls
    assert calls == [1]


def test_sweep_catches_a_wrong_sign_in_the_p1_weight(monkeypatch):
    """A mutant of the spectral N_1 route must show up as violations."""
    rows = macwilliams.krawtchouk

    def flipped(n):
        p = rows(n)
        return (p[0], tuple(-x for x in p[1])) + p[2:]

    monkeypatch.setattr(coloring, "krawtchouk", flipped)
    try:
        for n in (2, 3, 4):
            _all_subsets.cache_clear()
            assert sweep(n).violations
    finally:
        _all_subsets.cache_clear()
