import json

import numpy as np
import pytest

from partialfree.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_necklaces_text(capsys):
    code, out, _ = run_cli(capsys, "necklaces", "4", "2")
    assert code == 0
    assert out.splitlines() == [
        "AAAA 1", "AAAB 4", "AABB 4", "ABAB 2", "ABBB 4", "BBBB 1"]


def test_necklaces_json(capsys):
    code, out, _ = run_cli(capsys, "necklaces", "3", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert {entry["representative"]: entry["multiplicity"] for entry in payload} == {
        "AAA": 1, "AAB": 3, "ABB": 3, "BBB": 1}


def test_necklaces_bad_args(capsys):
    code, _, _ = run_cli(capsys, "necklaces", "0", "2")
    assert code == 2


def test_convolve_free(capsys):
    code, out, _ = run_cli(capsys, "convolve", "--free",
                           "--moments-a", "1,0,1,0,1,0,1,0,1",
                           "--moments-b", "1,0,1,0,1,0,1,0,1")
    assert code == 0
    values = [float(x) for x in out.strip().split(",")]
    assert values == pytest.approx([1, 0, 2, 0, 6, 0, 20, 0, 70])


def test_convolve_classical(capsys):
    code, out, _ = run_cli(capsys, "convolve", "--classical",
                           "--moments-a", "1,0,1,0,3", "--moments-b", "1,0,1,0,3",
                           "--order", "4")
    assert code == 0
    values = [float(x) for x in out.strip().split(",")]
    assert values == pytest.approx([1, 0, 2, 0, 12])


def test_convolve_order_too_large(capsys):
    code, _, err = run_cli(capsys, "convolve", "--free",
                           "--moments-a", "1,0", "--moments-b", "1,0",
                           "--order", "9")
    assert code == 2
    assert "error" in err


def test_pathsum_command(capsys):
    code, out, _ = run_cli(capsys, "pathsum", "--word", "ABABABAB",
                           "--chain", "40", "--circulant",
                           "--moments", "0,1,0,3")
    assert code == 0
    assert float(out.strip()) == 2.0

    code2, out2, _ = run_cli(capsys, "pathsum", "--word", "ABABABAB",
                             "--chain", "10", "--moments", "0,1,0,3")
    assert code2 == 0
    assert float(out2.strip()) == pytest.approx(2 - 2 / 10)


def test_unknown_flag_fails_fast(capsys):
    code, _, _ = run_cli(capsys, "necklaces", "3", "2", "--bogus")
    assert code == 2


def test_missing_input_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "--input", "/nonexistent/pairs.jsonl")
    assert code == 3
    assert "input error" in err


def _write_diagonal_pairs(path, t=80, n=12, seed=202):
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(t):
            a = np.diag(rng.standard_normal(n))
            b = np.diag(rng.standard_normal(n))
            fh.write(json.dumps({"A": a.tolist(), "B": b.tolist()}) + "\n")


def test_analyze_commuting_diagonal_file(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    _write_diagonal_pairs(path)
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path),
                           "--k", "6", "--alpha", "0.01", "--threads", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 4
    flagged = [w["word"] for w in payload["words"] if w["flagged_free"]]
    assert flagged == ["ABAB"]


def test_analyze_t_beyond_records(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    _write_diagonal_pairs(path, t=40)
    code, _, err = run_cli(capsys, "analyze", "--input", str(path), "--t", "50")
    assert code == 3


def test_analyze_overflowing_entries_is_input_error(tmp_path, capsys):
    # entries near 1e150 overflow x^3 in double precision; the run must stop
    # with exit 3 naming the order, not emit NaN or fail in serialization
    rng = np.random.default_rng(9)
    path = tmp_path / "pairs.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(40):
            a, b = (g + g.T for g in rng.standard_normal((2, 3, 3)))
            fh.write(json.dumps({"A": (1e150 * a).tolist(), "B": b.tolist()}) + "\n")
    code, out, err = run_cli(capsys, "analyze", "--input", str(path), "--threads", "2")
    assert code == 3
    assert "order 3" in err
    assert out == ""


def test_demo_pauli_reports_dimension_degree(capsys):
    code, out, _ = run_cli(capsys, "demo", "pauli", "--n", "8", "--threads", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 8
    assert payload["config"]["ensemble"]["variant"] == "pauli-block-pair"


def test_demo_reports_are_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code = main(["demo", "arcsine", "--t", "400", "--seed", "9",
                     "--threads", "1", "--output", str(out)])
        assert code == 0
        capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_demo_csv_densities(tmp_path, capsys):
    out = tmp_path / "densities.csv"
    code = main(["demo", "pauli", "--n", "6", "--t", "30", "--format", "csv",
                 "--threads", "1", "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "grid,f_sum,f_free,f_corrected"
    assert len(lines) > 100


def test_demo_no_optional_sections(capsys):
    code, out, _ = run_cli(capsys, "demo", "pauli", "--n", "6", "--t", "30",
                           "--threads", "1", "--no-exact-sum", "--no-classical")
    assert code == 0
    payload = json.loads(out)
    assert payload["densities"]["f_sum"] is None
    assert payload["densities"]["f_classical"] is None
    assert payload["moments"][0]["sampled_classical"] is None


def test_demo_rejects_bad_dimension(capsys):
    code, _, _ = run_cli(capsys, "demo", "arcsine", "--n", "4", "--t", "40")
    assert code == 2


def test_pathsum_hop_limit_exit_code(capsys):
    code, _, err = run_cli(capsys, "pathsum", "--word", "B" * 21,
                           "--chain", "6", "--moments", "0,1")
    assert code == 4
    assert "resource limit" in err


def test_help_documents_flags(capsys):
    code, out, _ = run_cli(capsys, "demo", "--help")
    assert code == 0
    for flag in ("--n", "--t", "--k", "--alpha", "--seed", "--threads",
                 "--format", "--output", "--no-exact-sum", "--no-classical"):
        assert flag in out
