"""Spectra of dense symmetric matrices, solved in batches that release the GIL.

numpy's ``eigvalsh`` holds the GIL through a call that returns at most
``GIL_EIGENVALUES`` eigenvalues, so threads that each solve one n = 200
matrix at a time run their eigensolves one after another.  ``DenseSpectra``
gathers the matrices of one thread's work into calls past that size.
"""

from __future__ import annotations

import numpy as np

# numpy's GIL threshold for eigvalsh: a call releases the GIL only when it
# returns more than this many eigenvalues (measured on numpy 2.4.6)
GIL_EIGENVALUES = 500


class DenseSpectra:
    """The dense eigensolves of one chunk of indices of the sampling pass.

    ``slots(table, rows)`` yields (out, part) pairs: the caller writes the
    matrices of the stack's slice ``part`` into ``out``, and their spectra
    go to ``table[rows[part]]``.  A stack whose spectra already exceed the
    threshold gets one slot for all of it and is solved at once.  A smaller
    one is written, in slices, into a buffer of ``GIL_EIGENVALUES // n + 1``
    matrices, which one call solves whenever it is full, and ``flush`` at
    the end of the chunk.  ``eigvalsh`` solves each matrix on its own, so
    the spectra do not depend on how the batches are cut.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.capacity = GIL_EIGENVALUES // dimension + 1
        self.buffer: np.ndarray | None = None
        self.used = 0
        # (table, rows) of the buffered matrices, in buffer order
        self.targets: list[tuple[np.ndarray, np.ndarray]] = []

    def slots(self, table: np.ndarray, rows: np.ndarray):
        count, n = len(rows), self.dimension
        if count * n > GIL_EIGENVALUES:
            out = np.empty((count, n, n))
            yield out, slice(None)
            table[rows] = np.linalg.eigvalsh(out)
            return
        if self.buffer is None:
            self.buffer = np.empty((self.capacity, n, n))
        start = 0
        while start < count:
            take = min(count - start, self.capacity - self.used)
            part = slice(start, start + take)
            yield self.buffer[self.used:self.used + take], part
            self.targets.append((table, rows[part]))
            self.used += take
            start += take
            if self.used == self.capacity:
                self.flush()

    def flush(self) -> None:
        """Solve the buffered matrices and scatter their spectra to their rows."""
        if not self.used:
            return
        values = np.linalg.eigvalsh(self.buffer[:self.used])
        at = 0
        for table, rows in self.targets:
            table[rows] = values[at:at + len(rows)]
            at += len(rows)
        self.used = 0
        self.targets.clear()
