"""Reports do not depend on the pool's threads or on the BLAS library's.

Each case runs one ``analyze`` or ``demo`` command four times: with pool
threads 1 and 2 in this process, and as ``python -m partialfree.cli``
subprocesses with OPENBLAS_NUM_THREADS=1 (pool threads 1) and
OPENBLAS_NUM_THREADS=2 (pool threads 2).  The four reports must be
byte-identical.  A refusal case must exit 3 every time, with no report, no
stdout and one stderr line, the same in every run.  Run this file under
OPENBLAS_NUM_THREADS=1 and again under 2 to cover every pair of the two
thread counts in-process as well.

The pair files are generated as CI always generated them: one JSON record
per line, from numpy's default_rng at each case's seed.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import partialfree
from partialfree.cli import main


def _symmetric(g):
    return g + np.swapaxes(g, -1, -2)


def _mixed():
    g = np.random.default_rng(3).standard_normal((40, 2, 24, 24))
    return [(a + a.T if i % 2 else np.diag(np.diag(a + a.T)), b + b.T)
            for i, (a, b) in enumerate(g)]


def _dense_diag():
    g = np.random.default_rng(5).standard_normal((40, 2, 24, 24))
    return [(a + a.T, np.diag(np.diag(b))) for a, b in g]


def _goe(seed, t, n):
    g = np.random.default_rng(seed).standard_normal((t, 2, n, n))
    return [(a + a.T, b + b.T) for a, b in g]


def _both_diag():
    g = np.random.default_rng(11).standard_normal((40, 2, 24))
    return [(np.diag(a), np.diag(b)) for a, b in g]


def _repeat():
    g = np.random.default_rng(13).standard_normal((2, 5, 5))
    a, b = _symmetric(g) / np.sqrt(10)
    return [(a, b)] * 31


def _shared_b():
    s = _symmetric(np.random.default_rng(17).standard_normal((41, 24, 24))) / np.sqrt(48)
    return [(a, s[40]) for a in s[:40]]


def _late_b():
    s = _symmetric(np.random.default_rng(37).standard_normal((42, 48, 48))) / np.sqrt(96)
    return [(a, s[41] if i == 0 else s[40]) for i, a in enumerate(s[:40])]


def _mixed_commuting():
    g = np.random.default_rng(23).standard_normal((40, 2, 24, 24))
    return [tuple(np.diag(np.diag(m)) if i % 3 == 0 else m + m.T for m in (a, b))
            for i, (a, b) in enumerate(g)]


def _tiny():
    g = np.random.default_rng(3).standard_normal((35, 2, 3, 3))
    return list(_symmetric(g) * 2.0**-400)


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    why: str
    pairs: Callable[[], list] | None = None  # the (A, B) of an ``analyze`` case
    refused: bool = False


def _analyze(name, pairs, k, why, refused=False):
    return Case(name, ("analyze", "--input", f"{name}.jsonl", "--k", str(k)), why, pairs,
                refused)


def _demo(name, *flags, why):
    return Case(name, ("demo", *flags, "--seed", "3"), why)


CASES = [
    _analyze("mixed", _mixed, 8, "diagonal-A and dense pairs alternate: stacks split by "
             "diagonal pattern and the sub-stacks share the spectra buffer"),
    _analyze("dense-diag", _dense_diag, 8, "the split kernel cut at B's blocks: A^a B^b "
             "words trace a dense factor against diagonal rows"),
    _analyze("both-diag", _both_diag, 8, "the commuting route: letter counts for the traces, "
             "sorted diagonals for the sums and the classical pool"),
    _analyze("goe", lambda: _goe(7, 40, 48), 10, "the kernel cut at a dense A: a stack holds "
             "28 pairs, and at K = 10 its groups stack the products D^a P"),
    _analyze("goe128", lambda: _goe(19, 34, 128), 6, "a stack of 4 pairs: 34 pairs end in a "
             "stack of 2 on one thread, of 1 on two; a trace sums n^2 > 8192 products"),
    _analyze("repeat", _repeat, 6, "31 copies of one non-dyadic GOE 5x5 pair: means round, "
             "and every SE that does not vary is 0"),
    _analyze("shared-b", _shared_b, 8, "one fixed non-integer GOE B is the run's letter, "
             "built before the pool and read by every thread"),
    _analyze("late-b", _late_b, 8, "pair 0 has its own B, so no letter is the run's: the "
             "last stack holds its own copies of the one shared B"),
    _analyze("mixed-commuting", _mixed_commuting, 8, "every third pair is two diagonals: a "
             "stack of 113 pairs splits, and each chunk builds the commuting and A-cut plans"),
    _analyze("tiny", _tiny, 4, "GOE 3x3 pairs scaled by 2^-400: the squares behind the SEs "
             "underflow, so every run refuses with exit 3", refused=True),
    _demo("example19-48-8", "example19", "--n", "48", "--t", "40", "--k", "8",
          why="n = 48: a stack holds 28 pairs, so the stacked kernels run"),
    _demo("example19-48-10", "example19", "--n", "48", "--t", "40", "--k", "10",
          why="K = 10: the split kernel shares 6 sandwich products between groups"),
    _demo("example19-200-8", "example19", "--n", "200", "--t", "30", "--k", "8",
          why="n = 200: one pair per stack, dense spectra solved in batches cut at chunk ends"),
    _demo("arcsine", "arcsine", "--t", "2000",
          why="1000 pairs of n = 2 stacked per thread"),
    _demo("pauli", "pauli", "--n", "12",
          why="two shared dense letters: the dense-cut plan, broadcast into the rotated sums"),
]


def _in_process(argv, threads):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--threads", str(threads)])
    return code, out.getvalue(), err.getvalue()


def _subprocess(argv, threads, blas, cwd):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas))
    source = str(Path(partialfree.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "partialfree.cli", *argv,
                          "--threads", str(threads)],
                         cwd=cwd, env=env, capture_output=True, text=True, check=False)
    return run.returncode, run.stdout, run.stderr


@pytest.mark.slow
@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_reports_do_not_depend_on_blas_or_pool_threads(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if case.pairs is not None:
        Path(f"{case.name}.jsonl").write_text("".join(
            json.dumps({"A": a.tolist(), "B": b.tolist()}) + "\n" for a, b in case.pairs()))
    results = {}
    for run, (threads, blas) in enumerate([(1, None), (2, None), (1, 1), (2, 2)]):
        report = Path(f"report-{run}.json")
        argv = (*case.argv, "--output", str(report))
        outcome = (_in_process(argv, threads) if blas is None else
                   _subprocess(argv, threads, blas, tmp_path))
        results[threads, blas] = (*outcome, report.read_bytes() if report.exists() else None)
    for (threads, blas), (code, out, err, report) in results.items():
        label = f"--threads {threads}, BLAS threads {blas or 'inherited'}"
        if case.refused:
            assert (code, out, report) == (3, "", None), label
            assert err.count("\n") == 1 and err.endswith("\n"), label
        else:
            assert (code, out, err) == (0, "", ""), label
        assert (err, report) == results[1, None][2:], label
