import json
import random

import pytest

from boolcube import VertexSet, spectral
from boolcube.macwilliams import PAIRWISE_LIMIT
from boolcube.cli import (build_report, main, parse_document,
                          serialize_document)

from conftest import HAMMING7_WORDS


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_hamming(tmp_path, capsys):
    doc = tmp_path / "h7.json"
    doc.write_text(json.dumps({"n": 7, "vertices": HAMMING7_WORDS}))
    code, out, _ = run_cli(capsys, ["analyze", str(doc), "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["cor"] == 3
    assert rep["nei"] == "0/1"
    assert rep["slack"] == "0/1"
    assert rep["is_perfect"] is True
    assert rep["matrix"] == {"b": 7, "c": 1, "rows": [[0, 7], [1, 6]]}
    assert rep["dual_distribution"] == \
        ["1/1", "0/1", "0/1", "0/1", "7/1", "0/1", "0/1", "0/1"]
    assert rep["spectral_support"] == [0, 4]


def test_analyze_singleton_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["analyze", "--json"],
                           stdin=json.dumps({"n": 3, "vertices": ["000"]}),
                           monkeypatch=monkeypatch)
    assert code == 0
    rep = json.loads(out)
    assert rep["slack"] == "5/4"
    assert rep["is_perfect"] is False


def test_analyze_text_output(tmp_path, capsys):
    doc = tmp_path / "s.json"
    doc.write_text(json.dumps({"n": 2, "vertices": ["00", "11"]}))
    code, out, _ = run_cli(capsys, ["analyze", str(doc)])
    assert code == 0
    assert "slack=0/1" in out
    assert "perfect coloring: True" in out


def test_analyze_constant_set_exit3(tmp_path, capsys):
    doc = tmp_path / "e.json"
    doc.write_text(json.dumps({"n": 3, "vertices": []}))
    code, _, err = run_cli(capsys, ["analyze", str(doc)])
    assert code == 3
    assert "constant" in err


def test_analyze_parse_error_exit2(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({"n": 3}))
    code, _, err = run_cli(capsys, ["analyze", str(doc)])
    assert code == 2
    doc.write_text("not json")
    assert run_cli(capsys, ["analyze", str(doc)])[0] == 2
    doc.write_text(json.dumps({"n": 3, "vertices": ["00"]}))
    assert run_cli(capsys, ["analyze", str(doc)])[0] == 2
    doc.write_text(json.dumps({"n": 3, "vertices": ["000"],
                               "mask_hex": "01"}))
    assert run_cli(capsys, ["analyze", str(doc)])[0] == 2


def test_analyze_dense_set_complemented(tmp_path, capsys):
    vertices = [format(i, "03b") for i in range(8) if i != 0]
    doc = tmp_path / "d.json"
    doc.write_text(json.dumps({"n": 3, "vertices": vertices}))
    code, out, _ = run_cli(capsys, ["analyze", str(doc), "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["complemented"] is True and rep["size"] == 1
    code, _, _ = run_cli(capsys,
                         ["analyze", str(doc), "--json", "--no-complement"])
    assert code == 3


def test_construct_hamming(capsys):
    code, out, _ = run_cli(capsys, ["construct", "hamming", "--m", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 7 and len(doc["vertices"]) == 16


def test_construct_half_cube(capsys):
    code, out, _ = run_cli(capsys,
                           ["construct", "half-cube", "--n", "4", "--coord", "1"])
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 8


def test_construct_affine(capsys):
    code, out, _ = run_cli(capsys, ["construct", "affine", "--n", "3",
                                    "--v", "110", "--eps", "0"])
    assert code == 0
    assert sorted(json.loads(out)["vertices"]) == \
        ["000", "001", "110", "111"]


def test_construct_invalid_exit2(capsys):
    assert run_cli(capsys, ["construct", "hamming", "--m", "1"])[0] == 2
    assert run_cli(capsys, ["construct", "affine", "--n", "3",
                            "--v", "000"])[0] == 2


def test_search_n2(capsys):
    code, out, _ = run_cli(capsys, ["search", "--n", "2", "--b", "2",
                                    "--c", "2", "--exhaustive"])
    assert code == 0
    res = json.loads(out)
    assert res["summary"]["found"] == 2
    assert res["summary"]["exhaustive"] is True


def test_search_code_n7(capsys):
    code, out, _ = run_cli(capsys, ["search", "--n", "7", "--b", "7",
                                    "--c", "1", "--budget", "10000000",
                                    "--max-results", "1"])
    assert code == 0
    res = json.loads(out)
    assert res["summary"]["found"] >= 1
    assert len(res["sets"][0]["vertices"]) == 16


def test_search_infeasible_exit4(capsys):
    assert run_cli(capsys, ["search", "--n", "3", "--b", "1",
                            "--c", "2"])[0] == 4


def test_sweep(capsys):
    for n in ("2", "3", "4"):
        code, out, _ = run_cli(capsys, ["sweep", "--n", n])
        assert code == 0
        assert "no violations" in out


def test_document_round_trip_exhaustive():
    for n in range(1, 5):
        for mask in range(1 << (1 << n)):
            S = VertexSet(n, mask)
            for as_mask in (False, True):
                doc = serialize_document(S, as_mask=as_mask)
                assert parse_document(json.loads(json.dumps(doc))) == S


def test_mask_hex_digit_count():
    doc = serialize_document(VertexSet(3, 0b10110001), as_mask=True)
    assert doc["mask_hex"] == "b1"
    assert len(serialize_document(VertexSet(4, 0), as_mask=True)["mask_hex"]) == 4
    assert len(serialize_document(VertexSet(2, 5), as_mask=True)["mask_hex"]) == 1


def test_mask_hex_bit_order():
    # bit i of the little-endian decoded bytes is vertex index i
    S = parse_document({"n": 3, "mask_hex": "03"})
    assert set(S.members()) == {"000", "001"}
    S = parse_document({"n": 4, "mask_hex": "0001"})
    assert S.member_indices() == [8]


def test_report_determinism(hamming7):
    a = json.dumps(build_report(hamming7), sort_keys=True)
    b = json.dumps(build_report(hamming7), sort_keys=True)
    assert a == b


@pytest.mark.parametrize("doc", [
    {"n": 21, "vertices": ["0" * 21]},
    {"n": 24, "mask_hex": "01" + "0" * ((1 << 24) // 4 - 2)},
])
def test_analyze_above_spectrum_cap_exit2(tmp_path, capsys, doc):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2 and out == ""
    assert "exceeds spectrum cap 20" in err


@pytest.mark.parametrize("doc", [
    {"n": True, "vertices": ["1"]},
    {"n": 1, "vertices": "01"},
    {"n": 3, "vertices": [1]},
    {"n": 25, "mask_hex": "00"},
])
def test_analyze_rejects_malformed_documents_exit2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert err.startswith("parse error")
    with pytest.raises(ValueError):
        parse_document(doc)


def test_sweep_out_of_range_exit2(capsys):
    code, out, err = run_cli(capsys, ["sweep", "--n", "5"])
    assert code == 2 and out == ""
    assert "2 <= n <= 4" in err


def test_search_negative_budget_exit2(capsys):
    code, out, err = run_cli(capsys, ["search", "--n", "3", "--b", "1",
                                      "--c", "1", "--budget", "-5"])
    assert code == 2 and out == ""
    assert "--budget" in err


@pytest.mark.parametrize("extra", [[], ["--exhaustive"]])
@pytest.mark.parametrize("max_results", ["0", "-3"])
def test_search_non_positive_max_results_exit2(capsys, max_results, extra):
    code, out, err = run_cli(capsys, ["search", "--n", "3", "--b", "2",
                                      "--c", "2", "--max-results",
                                      max_results] + extra)
    assert code == 2 and out == ""
    assert "--max-results" in err


@pytest.mark.parametrize("b,c", [(0, 2), (2, 0), (0, 0)])
def test_search_zero_b_or_c_exit4(capsys, b, c):
    code, out, err = run_cli(capsys, ["search", "--n", "3", "--b", str(b),
                                      "--c", str(c)])
    assert code == 4 and out == ""
    assert "b, c >= 1" in err


@pytest.mark.parametrize("size,complemented", [
    (PAIRWISE_LIMIT + 1000, False),   # dense
    (100, False),                     # sparse
    (12000, True),                    # density > 1/2: complemented
])
def test_build_report_runs_one_fwht(monkeypatch, size, complemented):
    n = 14
    members = random.Random(size).sample(range(1 << n), size)
    S = VertexSet(n, sum(1 << i for i in members))
    calls = []
    fwht = spectral._fwht_inplace
    monkeypatch.setattr(spectral, "_fwht_inplace",
                        lambda a: calls.append(1) or fwht(a))
    rep = build_report(S)
    assert len(calls) == 1
    assert rep["complemented"] is complemented
    assert rep["size"] == min(size, (1 << n) - size)
