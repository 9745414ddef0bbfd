"""Benchmark of the partialfree analysis pipeline, end to end and per layer.

    python3 perfbench/run.py --workload chain200-k8 --seed 1 --seconds 24 --trace 0

Run from a checkout that holds ``src/partialfree``.  Every repetition is a
fresh process running ``partialfree.cli.main`` (see child.py) with
``OPENBLAS_NUM_THREADS=1`` and ``--threads`` equal to the usable cores, or
to the workload's own setting (workloads.py).
Repetitions go on for ``--seconds``; each report is checked (workloads.py),
and a failed check, a nonzero exit or a report that is not strict JSON
counts as a failed repetition.

``--trace 0`` reports the end-to-end metrics as medians over repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead: the
traced minus the untraced median wall time.  The last stdout line is the
JSON result; the lines before it list every metric with its sample count,
the environment and the full per-layer breakdown.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, parse_strict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

BLAS_THREADS = "1"
SETUP_REPEATS = 12
REP_TIMEOUT_S = 120

_IMPORT = ("import time; s = time.perf_counter(); import partialfree, partialfree.cli; "
           "print(time.perf_counter() - s)")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    return env


def time_import(env: dict) -> float:
    """Seconds a fresh interpreter spends importing partialfree and its CLI."""
    out = subprocess.run([sys.executable, "-c", _IMPORT], cwd=ROOT, env=env, check=True,
                         capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    return float(out.stdout)


def run_rep(workload, cli_argv, report_path: Path, context, env, spans_path, tamper):
    """One fresh-process repetition; returns its measurements and the problems found."""
    report_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "child.py"), spans_path or "-", "--", *cli_argv]
    rep = {"traced": spans_path is not None, "problems": []}
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rep["problems"].append(f"no result within {REP_TIMEOUT_S} s")
        return rep
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        rep["problems"].append(f"runner exited {proc.returncode}: {tail[0]}")
        return rep
    rep.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    if rep["code"] != 0:
        rep["problems"].append(f"partialfree exited {rep['code']}: {proc.stderr.strip()}")
        return rep
    try:
        report = parse_strict(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        rep["problems"].append(f"unreadable report: {exc}")
        return rep
    if tamper is not None:
        tamper(report)
    rep["problems"].extend(workload.check(report, context))
    return rep


def measure(workload, cli_argv, report_path, context, env, seconds, spans_path, tamper):
    """Repeat until ``seconds`` are used; with ``spans_path``, every second one is traced.

    A repetition starts only while at least half of a typical one still fits.
    The import timings for ``setup_s`` are due at even steps of the run and
    each is taken before the next repetition, the ones still due at the end
    after the last, so that they sample the whole run as the repetitions do.
    Returns the repetitions and the import timings.
    """
    start = time.perf_counter()
    deadline = start + seconds
    reps, durations, setup = [], [], []
    minimum = 2 if spans_path else 1
    while len(reps) < minimum or time.perf_counter() + statistics.median(durations) / 2 < deadline:
        due = start + len(setup) * seconds / SETUP_REPEATS
        if len(setup) < SETUP_REPEATS and time.perf_counter() >= due:
            setup.append(time_import(env))
        traced = spans_path is not None and len(reps) % 2 == 1
        began = time.perf_counter()
        reps.append(run_rep(workload, cli_argv, report_path, context, env,
                            spans_path if traced else None, tamper))
        durations.append(time.perf_counter() - began)
    setup += [time_import(env) for _ in range(SETUP_REPEATS - len(setup))]
    return reps, setup


def end_to_end(reps, setup, t) -> dict:
    """The end-to-end metrics named in BENCHMARK.json, as (value, unit, sample count)."""
    def median(key):
        return statistics.median(r[key] for r in reps)
    n = len(reps)
    return {
        "wall_s": (median("wall_s"), "s", n),
        "samples_per_s": (statistics.median(t / r["wall_s"] for r in reps), "1/s", n),
        "cpu_s": (median("cpu_s"), "s", n),
        "peak_rss_mb": (median("peak_rss_mb"), "MB", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }


def layer_table(traced) -> dict:
    """Median calls, busy and self seconds per traced name, over the traced repetitions."""
    names = sorted({name for r in traced for name in r["layers"]})
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    return {name: {field: statistics.median(r["layers"].get(name, zero)[field] for r in traced)
                   for field in ("calls", "s", "self_s")}
            for name in names}


def per_layer(traced, untraced, t):
    """The per-layer metrics named in BENCHMARK.json, as (value, unit, sample count),
    and the full per-layer table."""
    layers = layer_table(traced)

    def calls(name):
        return layers.get(name, {"calls": 0})["calls"]

    def busy(name):
        return layers.get(name, {"s": 0.0})["s"]

    def count(key):
        return statistics.median(r["counts"].get(key, 0) for r in traced)

    n = len(traced)
    wall = statistics.median(r["wall_s"] for r in traced)
    base = statistics.median(r["wall_s"] for r in untraced)
    metrics = {
        "matrices.word_trace_table.s": (busy("matrices.word_trace_table"), "s"),
        "matrices.word_trace_table.s_per_sample": (busy("matrices.word_trace_table") / t, "s"),
        "matrices.word_trace_table.cells": (count("matrices.word_trace_table.cells"), "count"),
        "matrices.sample_pair.calls": (calls("matrices.sample_pair"), "count"),
        "matrices.sample_pair.per_sample": (calls("matrices.sample_pair") / t, "calls/sample"),
        "matrices.sample_pair.s": (busy("matrices.sample_pair"), "s"),
        "matrices.eigvalsh.calls": (calls("matrices.eigvalsh"), "count"),
        "matrices.eigvalsh.per_sample": (calls("matrices.eigvalsh") / t, "calls/sample"),
        "matrices.eigvalsh.s": (busy("matrices.eigvalsh"), "s"),
        "matrices.sample_free_sum_spectrum.s": (busy("matrices.sample_free_sum_spectrum"), "s"),
        "matrices.sample_classical_sum_spectrum.s":
            (busy("matrices.sample_classical_sum_spectrum"), "s"),
        "matrices.per_sample_moments.calls": (calls("matrices.per_sample_moments"), "count"),
        "matrices.per_sample_moments.s": (busy("matrices.per_sample_moments"), "s"),
        "matrices.load_pair_file.bytes": (count("matrices.load_pair_file.bytes"), "B"),
        "moments.free_convolve.calls": (calls("moments.free_convolve"), "count"),
        "moments.free_convolve.s": (busy("moments.free_convolve"), "s"),
        "moments.free_convolve.s_per_call":
            (busy("moments.free_convolve") / max(1, calls("moments.free_convolve")), "s"),
        "series.revert.calls": (calls("series.revert"), "count"),
        "series.revert.exact_calls": (count("series.revert.exact_calls"), "count"),
        "moments.free_joint_moment.calls": (calls("moments.free_joint_moment"), "count"),
        "moments.free_joint_moment.s": (busy("moments.free_joint_moment"), "s"),
        "moments.classical_joint_moment.s": (busy("moments.classical_joint_moment"), "s"),
        "words.word_expansion.s": (busy("words.word_expansion"), "s"),
        "words.necklaces": (count("words.necklaces"), "count"),
        "analysis.kde_density.s": (busy("analysis.kde_density"), "s"),
        "analysis.kde_derivative.calls": (calls("analysis.kde_derivative"), "count"),
        "analysis.kde.kernel_evals": (count("analysis.kde.kernel_evals"), "count"),
        "pathsum.exact_word_net.calls": (calls("pathsum.exact_word_net"), "count"),
        "analysis.run_analysis.s": (busy("analysis.run_analysis"), "s"),
        "analysis.run_analysis.self_s":
            (layers.get("analysis.run_analysis", {"self_s": 0.0})["self_s"], "s"),
        "analysis.to_json.s": (busy("analysis.to_json"), "s"),
        "analysis.to_json.bytes": (count("analysis.to_json.bytes"), "B"),
        "process.cpu_per_wall":
            (statistics.median(r["cpu_s"] / r["wall_s"] for r in untraced), "ratio"),
        "trace.overhead_s": (wall - base, "s"),
    }
    sizes = {"process.cpu_per_wall": len(untraced), "trace.overhead_s": len(untraced)}
    return ({name: (value, unit, sizes.get(name, n)) for name, (value, unit) in metrics.items()},
            layers)


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, threads: int, workload, t: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "threads": threads,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
        **workload.describe(t),
    }


def main(argv=None, tamper=None) -> int:
    """Run one workload; ``tamper(report)`` may alter each report before it is checked."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t", type=int, default=None,
                        help="override the workload's sample count (smoke runs)")
    args = parser.parse_args(argv)

    if not (SRC / "partialfree" / "__init__.py").is_file():
        print(f"error: no partialfree sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    t = args.t if args.t is not None else workload.t
    threads = workload.threads or len(os.sched_getaffinity(0))
    env = child_env()

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.jsonl" if args.trace else None
    try:
        time_import(env)  # warm-up: compiles bytecode, fills the page cache
        context = workload.prepare(args.seed, t, workdir)
        report_path = workdir / "report.json"
        cli_argv = workload.argv(args.seed, t, threads, context) + ["--output", str(report_path)]
        reps, setup = measure(workload, cli_argv, report_path, context, env, args.seconds,
                              str(spans_path) if spans_path else None, tamper)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in reps if r["problems"]]
    for r in failed:
        print(f"failed repetition: {'; '.join(r['problems'])}", file=sys.stderr)
    # A wrong answer still leaves a timed run; the result then says correct: false.
    timed = [r for r in reps if r.get("code") == 0]
    untraced = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: no repetition ran to completion", file=sys.stderr)
        return 1

    detail = {"environment": environment(args.seed, threads, workload, t),
              "setup_s": setup, "repetitions": reps}
    if args.trace:
        metrics, detail["layers"] = per_layer(traced, untraced, t)
    else:
        metrics = end_to_end(untraced, setup, t)

    env_line = detail["environment"]
    print(f"workload {workload.name} seed {args.seed}: n={env_line['n']} t={t} K={env_line['k']}"
          f" alpha={env_line['alpha']}, --threads {threads}, OPENBLAS_NUM_THREADS={BLAS_THREADS}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<12} (median of {n})")
    print(f"  {'error_rate':<44} {len(failed) / len(reps):>14.6g} {'ratio':<12}"
          f" ({len(failed)} of {len(reps)})")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
