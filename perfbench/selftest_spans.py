"""The span recorder: self time on a synthetic tree, and the transform count
of one dense n = 20 report, including calls made through the names that
coloring and macwilliams import from spectral."""
import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import boolcube.spectral  # noqa: E402
from boolcube import cli  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402


def test_self_time_on_a_synthetic_tree():
    #  0: [0, 10]  root
    #  1: [1, 3]   child of 0, with grandchild 4: [1.5, 2]
    #  2: [2, 5]   child of 0, overlapping 1
    #  3: [8, 12]  child of 0, sticking out of it
    #  5: [20, 21] a second root
    start = [0.0, 1.0, 2.0, 8.0, 1.5, 20.0]
    end = [10.0, 3.0, 5.0, 12.0, 2.0, 21.0]
    parent = [-1, 0, 0, 0, 1, -1]
    got = spans.self_times(start, end, parent)
    # root: 10 - |[1, 5] u [8, 10]| = 10 - 6
    assert got.tolist() == [4.0, 1.5, 3.0, 4.0, 0.5, 1.0]


def _report_spans(tmp_path, a: np.ndarray, n: int):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"n": n, "mask_hex": gen.mask_hex(a)}))
    fwht_calls = []
    original_fwht = boolcube.spectral._fwht_inplace

    def counting_fwht(x):
        fwht_calls.append(1)
        return original_fwht(x)

    rec = spans.Recorder()
    boolcube.spectral._fwht_inplace = counting_fwht
    rec.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["analyze", str(path), "--json"]) == 0
    finally:
        rec.uninstall()
        boolcube.spectral._fwht_inplace = original_fwht
    return rec, len(fwht_calls)


def _transform_callers(rec) -> Counter:
    tr = rec.name_ids["spectral.transform"]
    return Counter(rec.names[rec.spans[sp[3]][0]]
                   for sp in rec.spans if sp[0] == tr)


@pytest.mark.parametrize("balanced", [False, True])
def test_dense_report_transform_count(tmp_path, balanced):
    n = 20
    rng = np.random.default_rng(5)
    if balanced:
        a = gen.affine_membership(n, 0b1011, 0)
    else:
        a = (rng.random(1 << n) < 0.45).astype(np.uint8)
    rec, fwhts = _report_spans(tmp_path, a, n)
    # Read from the code: verify, fdf_bound (unbalanced sets only) and
    # bf_bound each call cor_order; distance_distribution takes the
    # spectral route for |S| > 4096; spectral_support runs its own.
    expected = {"spectral.cor_order": 2 if balanced else 3,
                "macwilliams.distance_distribution": 1,
                "coloring.spectral_support": 1}
    assert _transform_callers(rec) == expected
    assert fwhts == sum(expected.values()) == (4 if balanced else 5)
    m = spans.layer_metrics(rec, 1, 1.0)
    assert m["spectral.transform.per_report"] == fwhts
    assert m["spectral.transform.bytes_computed"] == fwhts * n * 2 * 8 << n
    assert m["macwilliams.distance_distribution.spectral_route"] == 1
    assert m["cli.main.self_s"] > 0


def test_uninstall_restores_every_binding():
    import boolcube.coloring
    import boolcube.macwilliams
    before = {m.__name__: dict(vars(m)) for m in spans.boolcube_modules()}
    rec = spans.Recorder()
    rec.install()
    assert boolcube.coloring.transform is not before["boolcube.coloring"]["transform"]
    assert boolcube.coloring.transform is boolcube.macwilliams.transform
    rec.uninstall()
    after = {m.__name__: dict(vars(m)) for m in spans.boolcube_modules()}
    assert after == before
