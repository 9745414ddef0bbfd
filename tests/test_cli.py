import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("argv", [["1", "27"], ["2", "27", "--format", "json"]])
def test_necklaces_beyond_26_letters_is_a_config_error(capsys, argv):
    # words are written in A-Z, so a 27th letter has no name; refused before
    # any line is printed
    code, out, err = run_cli(capsys, "necklaces", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: necklaces are written in the 26 letters A-Z, got k = 27\n"
    assert run_cli(capsys, "necklaces", "1", "26")[1].splitlines()[-1] == "Z 1"


def test_necklaces_beyond_the_class_bound_is_resource_limit(capsys):
    # 2.7e10 classes: refused from the count, before any is enumerated
    code, out, err = run_cli(capsys, "necklaces", "40", "2")
    assert code == 4
    assert out == ""
    assert "27487816992 necklaces" in err and "n = 40" in err and "k = 2" in err


@pytest.mark.parametrize("argv, bound", [
    (["necklaces", "100000", "2"], "2^20"),
    (["demo", "pauli", "--n", "8", "--k", "15000", "--threads", "1"], "2^29"),
    (["necklaces", "10000000", "2"], "2^20"),
])
def test_counts_past_the_formatting_limit_exit_promptly(capsys, argv, bound):
    # the counts have far more than Python's 4300 printable digits; the table
    # bound stops counting words at the first order past it
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert bound in err


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


@pytest.mark.parametrize("kind", ["--free", "--classical"])
@pytest.mark.parametrize("order", ["-1", "-2"])
def test_convolve_negative_order_is_config_error(capsys, kind, order):
    code, out, err = run_cli(capsys, "convolve", kind, "--moments-a", "1,0,1",
                             "--moments-b", "1,0,1", "--order", order)
    assert code == 2
    assert out == ""
    assert f"order must be >= 0, got {order}" in err


@pytest.mark.parametrize("argv, flag", [
    (("convolve", "--free", "--moments-a", "1,inf", "--moments-b", "1,0,1"), "--moments-a"),
    (("convolve", "--classical", "--moments-a", "1,0", "--moments-b", "1,nan"), "--moments-b"),
    (("pathsum", "--word", "AABB", "--chain", "4", "--moments", "0,-inf"), "--moments"),
])
def test_non_finite_list_entries_are_config_errors(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must hold finite numbers")


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


@pytest.mark.parametrize("command", ["analyze", "demo"])
def test_missing_output_directory_fails_before_sampling(tmp_path, capsys, monkeypatch,
                                                        command):
    from partialfree import analysis

    def sentinel(config):
        raise AssertionError("run_analysis was called")

    monkeypatch.setattr(analysis, "run_analysis", sentinel)
    if command == "analyze":
        path = tmp_path / "pairs.jsonl"
        _write_diagonal_pairs(path, t=40, n=3)
        argv = ["analyze", "--input", str(path)]
    else:
        argv = ["demo", "arcsine", "--t", "40"]
    output = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, *argv, "--output", str(output))
    assert code == 3
    assert out == ""
    assert err == f"input error: {output}: the directory does not exist\n"
    assert not output.parent.exists()


def test_non_utf8_input_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    record = json.dumps({"A": [[1.0]], "B": [[2.0]]}).encode()
    path.write_bytes(record + b"\n" + record.replace(b"2.0", b"2.\xff") + b"\n")
    code, out, err = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith(f"input error: {path} line 2: ") and "0xff" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["analyze", "demo"])
def test_threads_below_one_is_config_error(tmp_path, capsys, command, threads):
    if command == "analyze":
        path = tmp_path / "pairs.jsonl"
        _write_diagonal_pairs(path, t=40, n=3)
        argv = ["analyze", "--input", str(path)]
    else:
        argv = ["demo", "arcsine", "--t", "100"]
    code, out, err = run_cli(capsys, *argv, "--threads", threads)
    assert code == 2
    assert out == ""
    assert err == "error: need threads >= 1\n"


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


@pytest.mark.parametrize("letter, entry", [("B", 10**400), ("A", -10**400)],
                         ids=["huge-B", "huge-negative-A"])
def test_analyze_integers_beyond_double_range_are_input_errors(tmp_path, capsys, letter,
                                                               entry):
    # a float literal 1e400 parses as inf and is refused as non-finite; an
    # integer literal of 401 digits fails the conversion to float itself
    path = tmp_path / "pairs.jsonl"
    record = {"A": [[1.0]], "B": [[2.0]]}
    path.write_text(json.dumps(record) + "\n" + json.dumps({**record, letter: [[entry]]}) + "\n")
    code, out, err = run_cli(capsys, "analyze", "--input", str(path), "--k", "4")
    assert code == 3
    assert out == ""
    assert err.startswith(f"input error: {path} line 2: ") and err.count("\n") == 1


@pytest.mark.parametrize("a, b", [(np.zeros((3, 3)), np.zeros((3, 3))),
                                  (np.eye(3), np.eye(3))], ids=["zero", "identity"])
def test_analyze_point_mass_pairs_end_in_a_report(tmp_path, capsys, a, b):
    # the degree scan is well defined on constant pairs; only the densities
    # are not, since the free-rotated spectra have no spread to smooth
    path = tmp_path / "pairs.jsonl"
    path.write_text((json.dumps({"A": a.tolist(), "B": b.tolist()}) + "\n") * 40)
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path), "--threads", "2")
    assert code == 0
    payload = json.loads(out, parse_constant=pytest.fail)
    assert payload["degree"] is None
    assert payload["densities"] is None
    assert any("no spread at double precision" in note for note in payload["notes"])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_analyze_repeated_pair_keeps_se_zero(tmp_path, capsys, threads):
    # 31 copies of one pair with non-dyadic entries: means over the copies
    # round, so only the per-statistic rule gives the SEs that do not vary 0
    g = np.random.default_rng(13).standard_normal((2, 5, 5))
    a, b = (g + g.transpose(0, 2, 1)) / np.sqrt(10)
    path = tmp_path / "pairs.jsonl"
    path.write_text((json.dumps({"A": a.tolist(), "B": b.tolist()}) + "\n") * 31)
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path), "--k", "6",
                           "--threads", threads)
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 2
    assert [w["word"] for w in payload["words"] if w["flagged_free"]] == ["AB"]
    for row in payload["moments"]:
        assert row["se"] == row["diff_se"] == row["predicted_free_se"] == 0.0
    for row in payload["words"]:
        assert row["se"] == row["centered_se"] == 0.0


def _pair_records(kind, n, t, scale, seed):
    rng = np.random.default_rng(seed)

    def goe():
        g = rng.standard_normal((n, n))
        return (g + g.T) / np.sqrt(2 * n)

    fixed = (goe(), goe())
    for _ in range(t):
        if kind == "goe":
            a, b = goe(), goe()
        elif kind == "deterministic":
            a, b = fixed
        elif kind == "commuting":
            a, b = (np.diag(d) for d in rng.standard_normal((2, n)))
        elif kind == "cancelling":
            # A + B drops the 1e60 entry, the pure moments keep it
            d = rng.standard_normal(n)
            a, b = np.diag(d), np.diag(d)
            a[0, 0], b[0, 0] = 1e60, -1e60
        else:  # rank-1
            a, b = (np.outer(v, v) for v in rng.standard_normal((2, n)))
        yield json.dumps({"A": (scale * a).tolist(), "B": (scale * b).tolist()})


@given(kind=st.sampled_from(["goe", "deterministic", "commuting", "cancelling", "rank-1"]),
       n=st.integers(1, 6), t=st.integers(30, 40),
       scale=st.sampled_from([0.0, 1e-300, 1.0, 1e150]), seed=st.integers(0, 2**16))
@settings(derandomize=True, max_examples=40, deadline=None)
# overflowing order-2K statistics; a degree whose f^(p) is beyond double range
@example(kind="cancelling", n=3, t=35, scale=1.0, seed=0)
@example(kind="deterministic", n=3, t=35, scale=1e-300, seed=0)
def test_analyze_generated_files_end_in_a_report_or_a_clean_exit(kind, n, t, scale, seed):
    # every valid file ends in strict JSON or a documented input/resource
    # exit; exit 2 (configuration) or a traceback would be a defect
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.jsonl"
        path.write_text("\n".join(_pair_records(kind, n, t, scale, seed)) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", "--input", str(path), "--k", "4", "--threads", "1"])
    assert code in (0, 3, 4), err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=pytest.fail)


def _write_records(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in records:
            fh.write(json.dumps({"A": a.tolist(), "B": b.tolist()}) + "\n")


def _goe_pair(rng, n):
    a, b = (g + g.T for g in rng.standard_normal((2, n, n)))
    return a / np.sqrt(2 * n), b / np.sqrt(2 * n)


def _scan_records(rng, kind, n):
    if kind == "commuting":
        return np.diag(rng.standard_normal(n)), np.diag(rng.standard_normal(n))
    if kind == "diagonal-goe":
        return np.diag(rng.standard_normal(n)), _goe_pair(rng, n)[1]
    return _goe_pair(rng, n)


@pytest.mark.parametrize("kind, n, k", [("commuting", 3, "6"), ("goe", 16, "10"),
                                        ("diagonal-goe", 6, "6")])
def test_scan_is_invariant_under_rescaling_the_pairs(tmp_path, capsys, kind, n, k):
    # every order-k statistic and its noise floor scale as s^k, so powers of
    # two leave every test bit for bit as it was
    rng = np.random.default_rng(71)
    records = [_scan_records(rng, kind, n) for _ in range(40)]

    def scan(scale):
        path = tmp_path / f"pairs{scale}.jsonl"
        _write_records(path, [(scale * a, scale * b) for a, b in records])
        code, out, err = run_cli(capsys, "analyze", "--input", str(path), "--k", k,
                                 "--alpha", "1e-9" if kind == "goe" else "0.05",
                                 "--threads", "1")
        assert code == 0, err
        report = json.loads(out)
        return (report["degree"], [note for note in report["notes"] if "trigger" in note],
                [(m["z"], m["p_value"]) for m in report["moments"]],
                [(w["word"], w["p_value_free"], w["p_value_classical"], w["flagged_free"])
                 for w in report["words"]])

    unit = scan(1.0)
    if kind != "goe":
        # the diagonal A against the GOE B flags mixed words of order 6
        assert unit[0] == (4 if kind == "commuting" else 6)
    for e in (-20, -10, 10):
        assert scan(2.0**e) == unit, e


@pytest.mark.parametrize("scale_a, scale_b, statistic", [
    (2.0**-400, 2.0**-400, "moment difference at order 2"),
    # at 1e-150 the order-1 difference is rounding noise within its floor,
    # which the test never reads the SE of; order 2 is the first it reads
    (1e-150, 1e-150, "moment difference at order 2"),
    # at 1e-300 the order-1 difference is rounding within its floor as well,
    # and the centered word of order 1 is the first statistic the test reads
    (1e-300, 1e-300, "centered word statistic at order 1"),
    # B^2 fluctuates at 1e-200, beyond squaring, but its centered word lies
    # within its floor; order 3 holds the first word the test reads
    (1.0, 1e-100, "centered word statistic at order 3"),
])
def test_underflowing_statistics_end_in_exit_3(tmp_path, capsys, scale_a, scale_b, statistic):
    # the squares behind the standard errors underflow, so a z read off
    # them would reject on noise (degree 1, 2 or 3 instead of none)
    from partialfree.matrices import EnsembleSpec, sample_pair

    pairs = [sample_pair(EnsembleSpec.goe(3, 5), i) for i in range(35)]

    def analyze(sa, sb):
        path = tmp_path / f"pairs{sa}-{sb}.jsonl"
        _write_records(path, [(sa * p.a, sb * p.b) for p in pairs])
        return run_cli(capsys, "analyze", "--input", str(path), "--k", "4", "--threads", "1")

    code, out, err = analyze(1.0, 1.0)
    assert code == 0 and json.loads(out)["degree"] is None, err
    code, out, err = analyze(scale_a, scale_b)
    assert code == 3
    assert out == ""
    assert err == f"input error: underflowing standard error of the {statistic}: " \
        "entries too small for double-precision squares\n"


@pytest.mark.parametrize("kind", ["cancelling", "1.5e308", "diagonal-1e200"])
def test_non_finite_statistics_end_in_exit_3(tmp_path, capsys, kind):
    # Tier-1 turns RuntimeWarnings into errors, so a warning from the
    # sampling pass or the statistics would end in a traceback here
    rng = np.random.default_rng(73)
    records = []
    for _ in range(35 if kind == "cancelling" else 40):
        if kind == "cancelling":
            # A + B cancels, but the jackknife of the order-2K moments overflows
            g = rng.standard_normal(2)
            records.append((np.diag([1e60, *g]), np.diag([-1e60, *g])))
        elif kind == "diagonal-1e200":
            # a diagonal A against a dense B: its square overflows in every
            # word trace of order 2 and up
            g = rng.standard_normal(2)
            records.append((np.diag([1e200, *g]), _goe_pair(rng, 3)[1]))
        else:
            a, b = _goe_pair(rng, 3)
            a[0, 0] = b[0, 0] = 1.5e308
            records.append((a, b))
    path = tmp_path / "pairs.jsonl"
    _write_records(path, records)
    code, out, err = run_cli(capsys, "analyze", "--input", str(path), "--k", "4",
                             "--threads", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("input error: non-finite") and "at order" in err
    if kind == "diagonal-1e200":
        assert "non-finite sample word trace at order 2" in err
    assert err.count("\n") == 1


def test_pathsum_bad_word_is_config_error(capsys):
    code, out, err = run_cli(capsys, "pathsum", "--word", "AXB", "--chain", "4",
                             "--moments", "0,1")
    assert code == 2
    assert "error:" in err
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
    assert lines[0] == "grid,f_sum,f_free,f_corrected,f_classical"
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


@pytest.mark.parametrize("command", ["analyze", "demo"])
def test_negative_seed_is_refused_before_sampling(command, tmp_path, capsys, monkeypatch):
    from partialfree import analysis

    def no_run(config):
        raise AssertionError("the pipeline must not start")

    monkeypatch.setattr(analysis, "run_analysis", no_run)
    if command == "analyze":
        path = tmp_path / "pairs.jsonl"
        _write_diagonal_pairs(path, t=40)
        argv = ["analyze", "--input", str(path)]
    else:
        argv = ["demo", "arcsine", "--t", "40"]
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "seed must be a non-negative integer, got -1" in err


def test_pathsum_hop_limit_exit_code(capsys):
    code, _, err = run_cli(capsys, "pathsum", "--word", "B" * 21,
                           "--chain", "6", "--moments", "0,1")
    assert code == 4
    assert "resource limit" in err


def test_scan_order_beyond_the_table_bound_exit_code(capsys):
    # default K = n = 18: the trace tables would need more than 2^29 cells
    code, out, err = run_cli(capsys, "demo", "pauli", "--n", "18", "--threads", "1")
    assert code == 4
    assert out == ""
    assert "K = 18" in err and "2^29" in err


def test_help_documents_flags(capsys):
    code, out, _ = run_cli(capsys, "demo", "--help")
    assert code == 0
    for flag in ("--n", "--t", "--k", "--alpha", "--seed", "--threads",
                 "--format", "--output", "--no-exact-sum", "--no-classical"):
        assert flag in out


_NO_MASKED_ARRAYS = """
import json, sys
import numpy as np
from partialfree.cli import main

path, out = sys.argv[1], sys.argv[2]
rng = np.random.default_rng(5)
with open(path, "w", encoding="utf-8") as fh:
    for _ in range(30):
        a, b = ((g + g.T) / np.sqrt(12) for g in rng.standard_normal((2, 6, 6)))
        fh.write(json.dumps({"A": a.tolist(), "B": b.tolist()}) + "\\n")
for argv in (["analyze", "--input", path, "--k", "6", "--threads", "1"],
             ["demo", "example19", "--n", "24", "--t", "40"],
             ["demo", "arcsine", "--t", "400"]):
    assert main(argv + ["--output", out]) == 0, argv
    assert "numpy.ma" not in sys.modules, argv
"""


def test_no_run_imports_numpy_ma(tmp_path):
    # numpy.ma costs a fresh process about 10 ms to import and no run uses
    # it; a subprocess, because other tests import it into this one
    import partialfree

    src = str(Path(partialfree.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAYS, str(tmp_path / "pairs.jsonl"),
         str(tmp_path / "report.json")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_other_output_write_errors_keep_their_message(tmp_path, capsys):
    code, out, err = run_cli(capsys, "demo", "arcsine", "--t", "40", "--output", str(tmp_path))
    assert code == 3
    assert out == ""
    assert err.startswith("input error: [Errno ") and str(tmp_path) in err
