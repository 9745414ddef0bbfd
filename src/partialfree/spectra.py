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

    ``slot(table, rows)`` returns buffer space for a whole stack: the caller
    writes its matrices there, and their spectra go to ``table[rows]``.  The
    buffer holds ``GIL_EIGENVALUES // n + stack`` matrices and is solved by
    one call when the next stack would not fit, so after more than
    ``GIL_EIGENVALUES // n`` matrices, and by ``flush`` at the chunk's end.
    ``eigvalsh`` solves each matrix on its own, so the spectra do not
    depend on how the batches are cut.
    """

    def __init__(self, dimension: int, stack: int):
        self.buffer = np.empty((GIL_EIGENVALUES // dimension + stack, dimension, dimension))
        self.used = 0
        # (table, rows, offset in the buffer) of the buffered stacks
        self.targets: list[tuple[np.ndarray, np.ndarray, int]] = []

    def slot(self, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if self.used + len(rows) > len(self.buffer):
            self.flush()
        self.targets.append((table, rows, self.used))
        self.used += len(rows)
        return self.buffer[self.used - len(rows):self.used]

    def flush(self) -> None:
        """Solve the buffered matrices and scatter their spectra to their rows."""
        if not self.used:
            return
        values = np.linalg.eigvalsh(self.buffer[:self.used])
        for table, rows, at in self.targets:
            table[rows] = values[at:at + len(rows)]
        self.used = 0
        self.targets.clear()
