"""Spectra of dense symmetric matrices, solved in batches that release the GIL.

numpy's ``eigvalsh`` holds the GIL through a call that returns at most
``GIL_EIGENVALUES`` eigenvalues (measured on numpy 2.4.6), so threads that
each solve one n = 200 matrix at a time take turns; ``DenseSpectra``
gathers one thread's matrices into calls past that size.
"""

from __future__ import annotations

import numpy as np

GIL_EIGENVALUES = 500


class DenseSpectra:
    """The dense eigensolves of one chunk of indices of the sampling pass.

    ``slots(table, rows)`` yields (out, part) pairs: the caller writes the
    matrices of the stack's slice ``part`` into ``out``, and their spectra
    go to ``table[rows[part]]``.  Every stack goes, in slices, into one
    buffer of max(``GIL_EIGENVALUES // n + 1``, ``stack``) matrices, solved
    by one call whenever it is full and by ``flush`` at the chunk's end.
    ``eigvalsh`` solves each matrix on its own, so the spectra do not
    depend on how the batches are cut.
    """

    def __init__(self, dimension: int, stack: int):
        self.buffer = np.empty((max(GIL_EIGENVALUES // dimension + 1, stack),
                                dimension, dimension))
        self.used = 0
        # (table, rows, offset in the buffer) of the buffered slices
        self.targets: list[tuple[np.ndarray, np.ndarray, int]] = []

    def slots(self, table: np.ndarray, rows: np.ndarray):
        start = 0
        while start < len(rows):
            take = min(len(rows) - start, len(self.buffer) - self.used)
            part = slice(start, start + take)
            yield self.buffer[self.used:self.used + take], part
            self.targets.append((table, rows[part], self.used))
            self.used += take
            start += take
            if self.used == len(self.buffer):
                self.flush()

    def flush(self) -> None:
        """Solve the buffered matrices and scatter their spectra to their rows."""
        if not self.used:
            return
        values = np.linalg.eigvalsh(self.buffer[:self.used])
        for table, rows, at in self.targets:
            table[rows] = values[at:at + len(rows)]
        self.used = 0
        self.targets.clear()
