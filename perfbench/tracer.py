"""Span tracing around the calls into partialfree's modules, from outside src/.

``install`` replaces the module attributes that ``cli`` and ``analysis``
call through with wrappers that record one span (name, start, end, parent)
per call.  Spans stay in memory until ``write`` and ``summary`` at the end
of the run.  Calls made on the word-trace thread pool take the innermost
open span of the main thread as their parent, since the main thread waits
on the pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span per call; ``count(args, result)`` adds counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if count is not None:
                count(args, kwargs, result)
            return result
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    def summary(self) -> dict:
        """Per span name: calls, busy seconds and self seconds.

        Self time is a span's duration minus the part of it that its child
        spans cover; children on the thread pool overlap, so their union is
        taken.  Busy seconds of pool-run spans add up across threads.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, dict] = {}
        for span_id, _, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += (end - start) - _covered(children.get(span_id, ()), start, end)
        return out


def _covered(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each layer where the pipeline looks them up."""
    import numpy
    from partialfree import analysis, matrices, pathsum, series

    wrap = tracer.wrap

    def cells(args, kwargs, result):
        tracer.add("matrices.word_trace_table.cells", result.size)

    def kernel_evals(args, kwargs, result):
        values = numpy.asarray(args[0]).size
        tracer.add("analysis.kde.kernel_evals", values * result.grid.size)

    def exact(args, kwargs, result):
        tracer.add("series.revert.exact_calls", int(series._is_exact(args[0].coeffs)))

    def necklaces(args, kwargs, result):
        tracer.add("words.necklaces", len(result))

    def json_bytes(args, kwargs, result):
        tracer.add("analysis.to_json.bytes", len(result.encode("utf-8")))

    # load_pair_file is a cached front for the parser; the parser is what
    # EnsembleSpec.from_file and sample_pair reach, so that is what is timed.
    parse = matrices._load_pair_file

    def load_pair_file(path):
        if path not in matrices._file_cache:
            tracer.add("matrices.load_pair_file.bytes", os.path.getsize(path))
        return parse(path)

    matrices._load_pair_file = wrap("matrices.load_pair_file", load_pair_file)
    numpy.linalg.eigvalsh = wrap("matrices.eigvalsh", numpy.linalg.eigvalsh)
    series.PowerSeries.revert = wrap("series.revert", series.PowerSeries.revert, exact)
    pathsum.exact_word_net = wrap("pathsum.exact_word_net", pathsum.exact_word_net)
    analysis.FreenessReport.to_json = wrap("analysis.to_json",
                                           analysis.FreenessReport.to_json, json_bytes)
    for module, name, count in (
        ("analysis", "run_analysis", None),
        ("matrices", "sample_pair", None),
        ("matrices", "per_sample_moments", None),
        ("matrices", "sample_free_sum_spectrum", None),
        ("matrices", "sample_classical_sum_spectrum", None),
        ("matrices", "word_trace_table", cells),
        ("moments", "free_convolve", None),
        ("moments", "free_joint_moment", None),
        ("moments", "classical_joint_moment", None),
        ("words", "word_expansion", necklaces),
        ("analysis", "kde_density", kernel_evals),
        ("analysis", "kde_derivative", kernel_evals),
    ):
        if hasattr(analysis, name):
            setattr(analysis, name, wrap(f"{module}.{name}", getattr(analysis, name), count))
