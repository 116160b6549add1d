"""Property tests: the report runs one route per quantity, so every quantity
it prints is compared here against an independent route, over random sets
at n <= 10 (sparse, dense and perfect ones)."""
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from boolcube import (VertexSet, affine_coloring, check_perfect, complement,
                      distance_distribution, macwilliams_from_distances,
                      transform)
from boolcube.cli import build_report, parse_document, serialize_document

from conftest import cor_by_definition, pairwise_distance_counts

PROPERTY = settings(max_examples=80, deadline=None, database=None)


@st.composite
def member_sets(draw):
    """Few members; complemented half of the time, giving density > 1/2."""
    n = draw(st.integers(1, 10))
    members = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1,
                           max_size=min(64, (1 << n) - 1)))
    S = VertexSet(n, sum(1 << i for i in members))
    return complement(S) if draw(st.booleans()) else S


@st.composite
def random_masks(draw):
    n = draw(st.integers(1, 10))
    return VertexSet(n, draw(st.integers(1, (1 << (1 << n)) - 2)))


@st.composite
def affine_sets(draw):
    n = draw(st.integers(1, 10))
    v = draw(st.integers(1, (1 << n) - 1))
    return affine_coloring(n, format(v, "0%db" % n), draw(st.integers(0, 1)))


vertex_sets = st.one_of(member_sets(), random_masks(), affine_sets())


def _analysed(S: VertexSet, rep: dict) -> VertexSet:
    return complement(S) if rep["complemented"] else S


@PROPERTY
@given(vertex_sets)
def test_report_distance_counts_match_pairwise_route(S):
    rep = build_report(S)
    T = _analysed(S, rep)
    assert rep["distance_counts"] == list(distance_distribution(T).counts)
    assert rep["distance_counts"] == pairwise_distance_counts(T)


@PROPERTY
@given(vertex_sets)
def test_report_dual_counts_match_krawtchouk_route(S):
    rep = build_report(S)
    dist = distance_distribution(_analysed(S, rep))
    dual = macwilliams_from_distances(dist)
    assert rep["dual_counts"] == list(dual.duals)


@PROPERTY
@given(vertex_sets)
def test_report_cor_and_support_match_spectral_routes(S):
    rep = build_report(S)
    T = _analysed(S, rep)
    # the support by its definition: the weights of the nonzero coefficients;
    # cor is one less than its least weight above 0
    nonzero = np.flatnonzero(transform(T).coeffs).tolist()
    support = sorted({u.bit_count() for u in nonzero})
    assert rep["spectral_support"] == support
    assert rep["cor"] == support[1] - 1


@PROPERTY
@given(vertex_sets)
def test_cor_and_perfectness_invariant_under_complement(S):
    C = complement(S)
    assert cor_by_definition(C) == cor_by_definition(S)
    v, w = check_perfect(S), check_perfect(C)
    assert v.is_perfect == w.is_perfect
    if v.is_perfect:
        assert (w.matrix.b, w.matrix.c) == (v.matrix.c, v.matrix.b)


@PROPERTY
@given(vertex_sets, st.booleans())
def test_document_round_trip(S, as_mask):
    doc = json.loads(json.dumps(serialize_document(S, as_mask=as_mask)))
    assert parse_document(doc) == S
