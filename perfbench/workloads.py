"""The benchmark's workloads: CLI arguments, generated inputs and answer checks.

Each workload runs ``partialfree.cli.main`` on one (n, t, K).  ``prepare``
makes whatever the program reads from the workload seed, outside any timed
region; ``check`` returns the problems found in one report (empty when the
answer is right).  See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path


def program_seed(seed: int) -> int:
    """Non-negative seed handed to the program (the CLI rejects negative ones)."""
    return seed % 2**63


def parse_strict(text: str) -> dict:
    """Parse a report, refusing NaN and infinities that plain json accepts."""
    def reject(token):
        raise ValueError(f"report is not strict JSON: {token}")
    return json.loads(text, parse_constant=reject)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    t: int
    k: int
    alpha: float
    # --threads for the program; None means the usable cores (nproc).
    threads: int | None = None

    def describe(self, t: int) -> dict:
        return {"name": self.name, "n": self.n, "t": t, "k": self.k, "alpha": self.alpha}

    def prepare(self, seed: int, t: int, workdir: Path) -> dict:
        return {}

    def argv(self, seed: int, t: int, threads: int, context: dict) -> list[str]:
        raise NotImplementedError

    def check(self, report: dict, context: dict) -> list[str]:
        raise NotImplementedError

    def run_flags(self, seed: int, threads: int) -> list[str]:
        return ["--k", str(self.k), "--alpha", repr(self.alpha),
                "--seed", str(program_seed(seed)), "--threads", str(threads)]


class Chain(Workload):
    """Example 19: i.i.d. Gaussian diagonal A against the circulant chain B."""

    def argv(self, seed, t, threads, context):
        return (["demo", "example19", "--n", str(self.n), "--t", str(t)]
                + self.run_flags(seed, threads))

    def check(self, report, context):
        problems = []
        if report["degree"] != 8:
            problems.append(f"degree {report['degree']}, expected 8")
        flagged = [w["word"] for w in report["words"] if w["flagged_free"]]
        if "ABABABAB" not in flagged:
            problems.append(f"ABABABAB not flagged (flagged: {flagged})")
        return problems


# Moments of the arcsine law on [-2, 2]: mu_2 = C(2, 1), mu_4 = C(4, 2).
_ARCSINE = {2: 2.0, 4: 6.0}
_ARCSINE_SE = 5.0


class Rotation(Workload):
    """2x2 rotation pair; its free-rotated sum follows the arcsine law."""

    def argv(self, seed, t, threads, context):
        return ["demo", "arcsine", "--t", str(t)] + self.run_flags(seed, threads)

    def check(self, report, context):
        problems = []
        if report["degree"] is not None:
            problems.append(f"degree {report['degree']}, expected none")
        rows = {row["order"]: row for row in report["moments"]}
        for order, want in _ARCSINE.items():
            got, se = rows[order]["sampled_free"], rows[order]["sampled_free_se"]
            if not abs(got - want) <= _ARCSINE_SE * se:
                problems.append(f"sampled free mu_{order} = {got} +- {se}, arcsine gives {want}")
        return problems


# predicted_free comes from free_convolve; the reference from the word
# expansion, which shares no code with it.  On the same pure moments, both in
# doubles, they agree far below this.
_FREE_RTOL = 1e-8


class GoeFile(Workload):
    """Independent GOE pairs read from a JSONL file the benchmark writes."""

    def prepare(self, seed, t, workdir):
        import numpy as np

        rng = np.random.default_rng(np.random.SeedSequence([program_seed(seed), self.n, t]))
        scale = math.sqrt(2.0 * self.n)
        path = workdir / "pairs.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for _ in range(t):
                ga = rng.standard_normal((self.n, self.n))
                gb = rng.standard_normal((self.n, self.n))
                record = {"A": ((ga + ga.T) / scale).tolist(), "B": ((gb + gb.T) / scale).tolist()}
                fh.write(json.dumps(record) + "\n")
        return {"input": str(path), "reference": self._reference(path)}

    def _reference(self, path: Path) -> list[float]:
        """Free prediction of mu_1..mu_K from the file's pure moments, by word expansion."""
        import numpy as np
        from partialfree.moments import sum_moment_free

        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        orders = np.arange(self.k + 1)
        pure = []
        for letter in ("A", "B"):
            eigs = np.stack([np.linalg.eigvalsh(np.array(r[letter])) for r in records])
            pure.append((eigs[:, :, None] ** orders).mean(axis=(0, 1)).tolist())
        return [float(sum_moment_free(order, *pure)) for order in range(1, self.k + 1)]

    def argv(self, seed, t, threads, context):
        return ["analyze", "--input", context["input"]] + self.run_flags(seed, threads)

    def check(self, report, context):
        problems = []
        for row in report["moments"]:
            want = context["reference"][row["order"] - 1]
            got = row["predicted_free"]
            if not abs(got - want) <= _FREE_RTOL * max(1.0, abs(want)):
                problems.append(f"predicted_free mu_{row['order']} = {got}, word expansion gives {want}")
        if len(report["moments"]) != self.k:
            problems.append(f"{len(report['moments'])} moment rows, expected {self.k}")
        return problems


# Sizes keep a repetition within a few seconds on a 2-core x86-64 box, so a
# run holds several; README.md gives the reasons, and why the file workload
# runs with one thread.  The scan's z statistics
# have heavy tails at t=30-40 (on GOE files at K=12, t=30 the smallest of the
# 801 word p-values reached 2e-8 in 24 seeds), so at a usual alpha some seeds
# reject by chance: the chain and arcsine checks would then fail, and a
# rejection changes the work done (the derivative density added 6 MB of peak
# RSS).  The chain's ABABABAB rejects at p < 1e-50, far inside this alpha.
ALPHA = 1e-9

WORKLOADS = {
    w.name: w for w in (
        Chain("chain200-k8", n=200, t=40, k=8, alpha=ALPHA),
        Rotation("rot2x2-k6", n=2, t=800, k=6, alpha=ALPHA),
        GoeFile("goe16-file-k10", n=16, t=40, k=10, alpha=ALPHA, threads=1),
    )
}
