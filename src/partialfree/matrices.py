"""Random-matrix ensembles and Monte Carlo estimation of trace statistics.

Sampling is reproducible and splittable: every sample index gets its own
generator derived from (master seed, index, purpose), so identical seeds
reproduce bit-identical matrices regardless of evaluation order and
distinct indices give independent streams.
"""

from __future__ import annotations

import codecs
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .words import Word

_SYMMETRY_ATOL = 1e-12

# stream(seed, index, key) purposes: the pair, its free rotations, its permuted sum
_PAIR_STREAM, _FREE_STREAM, _CLASSICAL_STREAM = 0, 1, 2


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) address."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _require_symmetric(m: np.ndarray, what: str, atol: float) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} contains non-finite entries")
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    skew = float(np.abs(m - m.T).max()) if m.size else 0.0
    if skew > atol * scale:
        raise ValueError(f"{what} is not symmetric: max |M - M^T| = {skew:.3e}")
    return m


@dataclass(frozen=True)
class MatrixPairSample:
    """One realization (A, B) of a pair of real-symmetric matrices."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _require_symmetric(self.a, "A", _SYMMETRY_ATOL)
        b = _require_symmetric(self.b, "B", _SYMMETRY_ATOL)
        if a.shape != b.shape:
            raise ValueError(f"A and B must have equal shape, got {a.shape} vs {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dimension(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class SpectrumSample:
    """Sorted eigenvalues of one matrix realization, tagged by its origin."""

    eigenvalues: np.ndarray
    source: str

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        if vals.ndim != 1:
            raise ValueError("eigenvalues must be a flat sequence")
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", vals)


_VARIANTS = (
    "goe",
    "gaussian-diagonal",
    "tridiagonal-adjacency",
    "pauli-block-pair",
    "rotation-pair-2x2",
    "from-file",
)


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of a matrix-pair distribution plus its master seed."""

    variant: str
    dimension: int
    seed: int
    circulant: bool = True
    path: str | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ConfigError(f"unknown ensemble variant {self.variant!r}")
        if self.dimension < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.dimension}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if self.variant == "pauli-block-pair" and self.dimension % 2:
            raise ConfigError("pauli-block-pair needs an even dimension")
        if self.variant == "rotation-pair-2x2" and self.dimension != 2:
            raise ConfigError("rotation-pair-2x2 is fixed at dimension 2")
        if self.variant == "from-file" and not self.path:
            raise ConfigError("from-file needs a path")

    @classmethod
    def goe(cls, dimension: int, seed: int) -> "EnsembleSpec":
        return cls("goe", dimension, seed)

    @classmethod
    def gaussian_diagonal(cls, dimension: int, seed: int) -> "EnsembleSpec":
        return cls("gaussian-diagonal", dimension, seed)

    @classmethod
    def tridiagonal_adjacency(cls, dimension: int, seed: int,
                              circulant: bool = True) -> "EnsembleSpec":
        return cls("tridiagonal-adjacency", dimension, seed, circulant=circulant)

    @classmethod
    def pauli_block_pair(cls, dimension: int, seed: int = 0) -> "EnsembleSpec":
        return cls("pauli-block-pair", dimension, seed)

    @classmethod
    def rotation_pair(cls, seed: int) -> "EnsembleSpec":
        return cls("rotation-pair-2x2", 2, seed)

    @classmethod
    def from_file(cls, path: str, seed: int = 0) -> "EnsembleSpec":
        records = _load_pair_file(path)
        return cls("from-file", records[0].dimension, seed, path=path)

    def describe(self) -> dict:
        out = {"variant": self.variant, "dimension": self.dimension, "seed": self.seed}
        if self.variant == "tridiagonal-adjacency":
            out["circulant"] = self.circulant
        if self.variant == "from-file":
            out["path"] = self.path
        return out


def chain_adjacency(n: int, circulant: bool = True) -> np.ndarray:
    """0/1 adjacency matrix of the n-site chain, optionally with a wrap edge."""
    m = np.zeros((n, n))
    for i in range(n - 1):
        m[i, i + 1] = m[i + 1, i] = 1.0
    if circulant and n > 2:
        m[0, n - 1] = m[n - 1, 0] = 1.0
    return m


def pauli_block_matrices(dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Direct sums of [[0,1],[1,0]] blocks; B's blocks shifted by one site with wrap."""
    if dimension % 2 or dimension < 2:
        raise ValueError(f"dimension must be even and >= 2, got {dimension}")
    a = np.zeros((dimension, dimension))
    b = np.zeros((dimension, dimension))
    for i in range(0, dimension, 2):
        a[i, i + 1] = a[i + 1, i] = 1.0
    for i in range(1, dimension - 1, 2):
        b[i, i + 1] = b[i + 1, i] = 1.0
    b[0, dimension - 1] = b[dimension - 1, 0] = 1.0
    return a, b


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

# the most recently parsed path only:
# path -> ((st_mtime_ns, st_size) when parsed, records)
_file_cache: dict[str, tuple[tuple[int, int], list[MatrixPairSample]]] = {}


def _load_pair_file(path: str) -> list[MatrixPairSample]:
    try:
        st = os.stat(path)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file") from None
    stamp = (st.st_mtime_ns, st.st_size)
    cached = _file_cache.get(path)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    records: list[MatrixPairSample] = []
    with open(path, "rb") as fh:
        # bytes.splitlines ends a line at \n, \r\n or a bare \r, as text mode's
        # universal newlines do; a binary chunk never splits a \r\n
        lines = (line for chunk in fh for line in chunk.splitlines())
        for lineno, raw in enumerate(lines, start=1):
            if lineno == 1:
                raw = raw.removeprefix(codecs.BOM_UTF8)
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise InputError(f"{path} line {lineno}: not UTF-8 text "
                                 f"(byte 0x{raw[exc.start]:02x})") from None
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path} line {lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict) or "A" not in obj or "B" not in obj:
                raise InputError(f'{path} line {lineno}: expected an object with "A" and "B"')
            try:
                pair = MatrixPairSample(np.asarray(obj["A"], dtype=float),
                                        np.asarray(obj["B"], dtype=float))
            except (ValueError, TypeError) as exc:
                raise InputError(f"{path} line {lineno}: {exc}") from None
            if records and pair.dimension != records[0].dimension:
                raise InputError(
                    f"{path} line {lineno}: dimension {pair.dimension} differs "
                    f"from first record ({records[0].dimension})"
                )
            records.append(pair)
    if not records:
        raise InputError(f"{path}: no records")
    _file_cache.clear()
    _file_cache[path] = (stamp, records)
    return records


def load_pair_file(path: str) -> list[MatrixPairSample]:
    """Parse a JSONL file of matrix pairs; re-parsed when the file changes."""
    return _load_pair_file(path)


def _built_pair(a: np.ndarray, b: np.ndarray) -> MatrixPairSample:
    """Pair of arrays built float64, square, finite and exactly symmetric; not re-checked."""
    pair = object.__new__(MatrixPairSample)
    object.__setattr__(pair, "a", a)
    object.__setattr__(pair, "b", b)
    return pair


def sample_pair(spec: EnsembleSpec, index: int) -> MatrixPairSample:
    """Draw the ``index``-th pair of the ensemble; deterministic in (seed, index)."""
    n = spec.dimension
    if spec.variant == "from-file":
        records = _load_pair_file(spec.path)
        if index >= len(records):
            raise InputError(
                f"{spec.path}: requested sample {index} but only {len(records)} records"
            )
        return records[index]
    if spec.variant == "pauli-block-pair":
        return _built_pair(*pauli_block_matrices(n))

    rng = stream(spec.seed, index, _PAIR_STREAM)
    if spec.variant == "goe":
        scale = math.sqrt(2.0 * n)
        ga = rng.standard_normal((n, n))
        gb = rng.standard_normal((n, n))
        return _built_pair((ga + ga.T) / scale, (gb + gb.T) / scale)
    if spec.variant == "gaussian-diagonal":
        return _built_pair(np.diag(rng.standard_normal(n)), np.diag(rng.standard_normal(n)))
    if spec.variant == "tridiagonal-adjacency":
        return _built_pair(np.diag(rng.standard_normal(n)), chain_adjacency(n, spec.circulant))
    if spec.variant == "rotation-pair-2x2":
        theta = rng.uniform(0.0, math.pi)
        u, u_inv = _rotation(theta), _rotation(-theta)
        a = u @ _SIGMA_Z @ u_inv
        b = u_inv @ _SIGMA_Z @ u
        return _built_pair(0.5 * (a + a.T), 0.5 * (b + b.T))
    raise AssertionError(f"unhandled variant {spec.variant}")


def _haar_from_normals(z: np.ndarray) -> np.ndarray:
    """Haar orthogonal matrices from i.i.d. standard normals of shape (..., n, n).

    QR of each Gaussian matrix, with columns re-signed so the triangular
    factor has a positive diagonal (Mezzadri, Notices AMS 54, 2007).
    Without the sign correction the result is not Haar distributed.
    """
    q, r = np.linalg.qr(z)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d = np.where(d == 0, 1.0, d)
    return q * d[..., None, :]


def haar_orthogonal(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Orthogonal matrix (or a stack of them) distributed by Haar measure."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _haar_from_normals(rng.standard_normal((n, n) if size is None else (size, n, n)))


def random_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random n-by-n permutation matrix (Fisher-Yates shuffle)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    perm = rng.permutation(n)
    m = np.zeros((n, n))
    m[np.arange(n), perm] = 1.0
    return m


def symmetric_eigenvalues(m: np.ndarray, atol: float = 1e-8) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending (LAPACK backed)."""
    m = _require_symmetric(m, "matrix", atol)
    return np.linalg.eigvalsh(m)


def _diagonal_flags(stack: np.ndarray) -> np.ndarray:
    """Per matrix of a (c, n, n) stack: True when every off-diagonal entry is zero."""
    off = stack.copy()
    i = np.arange(stack.shape[-1])
    off[:, i, i] = 0.0
    return ~off.any(axis=(1, 2))


def _eigenvalues(stack: np.ndarray, diagonal: bool) -> np.ndarray:
    """Ascending eigenvalues of each matrix of a (c, n, n) stack.

    A diagonal matrix's eigenvalues are its sorted diagonal, with no
    eigensolve; at ordinary scales that is what ``eigvalsh`` returns bit
    for bit, and it stays exact where LAPACK would rescale the matrix.
    """
    if diagonal:
        return np.sort(np.diagonal(stack, axis1=1, axis2=2), axis=1)
    return np.linalg.eigvalsh(stack)


def _free_sum_eigenvalues(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Spectra of a[i] + Q_i b[i] Q_i^T, with Q_i the Haar matrix made from normals z[i]."""
    q = _haar_from_normals(z)
    return np.linalg.eigvalsh(a + q @ b @ np.swapaxes(q, -1, -2))


def sample_sum_spectrum(pair: MatrixPairSample) -> SpectrumSample:
    """Spectrum of the plain sum A + B."""
    return SpectrumSample(np.linalg.eigvalsh(pair.a + pair.b), "A+B")


def sample_free_sum_spectrum(pair: MatrixPairSample,
                             rng: np.random.Generator) -> SpectrumSample:
    """Spectrum of A + Q B Q^T with a fresh Haar-orthogonal Q."""
    n = pair.dimension
    z = rng.standard_normal((n, n))
    spectrum = _free_sum_eigenvalues(pair.a[None], pair.b[None], z[None])[0]
    return SpectrumSample(spectrum, "free-rotated")


def sample_classical_sum_spectrum(pair: MatrixPairSample,
                                  rng: np.random.Generator) -> SpectrumSample:
    """Spectrum of Lambda_A + Pi Lambda_B Pi^T with a uniform permutation Pi.

    The permutation shuffles eigenvalues of B against those of A, so the
    aggregated law is the classical convolution of the two spectral laws
    (one eigenvalue of each, paired at random).  Conjugating the raw B by a
    permutation matrix would not achieve this for noncommuting pairs.
    """
    ea, eb = (_eigenvalues(m[None], bool(_diagonal_flags(m[None])[0]))[0]
              for m in (pair.a, pair.b))
    perm = rng.permutation(pair.dimension)
    return SpectrumSample(np.sort(ea + eb[perm]), "permuted")


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo moment estimates with the standard-error estimate

    SE(mu_k) = sqrt((mu_{2k} - mu_k^2) / t),

    which needs sample moments through twice the requested order.
    """

    values: np.ndarray
    se: np.ndarray
    count: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "se", np.asarray(self.se, dtype=float))

    @classmethod
    def from_table(cls, table: np.ndarray, order: int) -> "MomentEstimate":
        """Column means of a per-sample moment table through order 2 * order, with SEs."""
        mean = table.mean(axis=0)
        t = table.shape[0]
        variance = np.array([mean[2 * k] - mean[k] ** 2 for k in range(order + 1)])
        se = np.sqrt(np.maximum(0.0, variance) / t)
        return cls(mean[: order + 1], se, t)


def per_sample_moments(eigenvalues: np.ndarray, order: int) -> np.ndarray:
    """Row i holds (1/N) sum_j lambda_ij^k for k = 0..order."""
    eigenvalues = np.atleast_2d(np.asarray(eigenvalues, dtype=float))
    t, _ = eigenvalues.shape
    out = np.empty((t, order + 1))
    out[:, 0] = 1.0
    power = np.ones_like(eigenvalues)
    for k in range(1, order + 1):
        power = power * eigenvalues
        out[:, k] = power.mean(axis=1)
    return out


def estimate_moments(spectra, order: int) -> MomentEstimate:
    """Spectral moments mu_0..mu_order averaged over samples, with SEs.

    ``spectra`` is a (t, N) array, one spectrum per row, or a sequence of
    spectra (``SpectrumSample`` or 1-D arrays).
    """
    if order < 1:
        raise ValueError(f"need order >= 1, got {order}")
    if len(spectra) == 0:
        raise ValueError("need at least one spectrum sample")
    if isinstance(spectra, np.ndarray) and spectra.ndim == 2:
        eigs = np.ascontiguousarray(spectra, dtype=float)
    else:
        eigs = np.stack([
            s.eigenvalues if isinstance(s, SpectrumSample) else np.asarray(s, dtype=float)
            for s in spectra
        ])
    return MomentEstimate.from_table(per_sample_moments(eigs, 2 * order), order)


# ---------------------------------------------------------------------------
# the sampling pass: word traces and spectra of every pair

# Pairs are processed as stacks of at most _CELL_BUDGET // n^2 pairs (and at
# least one), so a stacked (c, n, n) product holds about this many doubles:
# small matrices share one numpy call per step, n = 200 goes pair by pair.
_CELL_BUDGET = 1 << 16


def _stack_groups(draw, indices: range, dimension: int):
    """Draw the pairs of ``indices`` as stacks, split by which letters are diagonal.

    Consecutive runs of at most max(1, _CELL_BUDGET // n^2) indices are
    drawn with ``draw(i)``, checked for the common dimension and stacked.
    Yields (at, a, b, diagonal): sample indices, the (c, n, n) stacks of
    those pairs and, per letter, whether all of its matrices are diagonal.
    Grouping by that pattern keeps each pair's arithmetic a function of the
    pair alone, however the indices are cut into stacks or threads.
    """
    size = max(1, _CELL_BUDGET // (dimension * dimension))
    for start in range(indices.start, indices.stop, size):
        run = range(start, min(start + size, indices.stop))
        pairs = [draw(i) for i in run]
        for i, pair in zip(run, pairs):
            if pair.dimension != dimension:
                raise ValueError(
                    f"sample {i} has dimension {pair.dimension}, expected {dimension}"
                )
        a = np.stack([p.a for p in pairs])
        b = np.stack([p.b for p in pairs])
        code = _diagonal_flags(a) + 2 * _diagonal_flags(b)
        for value in range(4):
            rows = np.flatnonzero(code == value)
            if rows.size == 0:
                continue
            diagonal = (bool(value & 1), bool(value & 2))
            if rows.size == len(pairs):
                yield start + rows, a, b, diagonal
            else:
                yield start + rows, a[rows], b[rows], diagonal


class _Powers:
    """Cached integer powers of one letter over a stack of pairs.

    ``matrices`` is a (c, n, n) stack, or (1, n, n) when one matrix serves
    the whole stack and broadcasts.  Diagonal matrices keep their powers as
    (c, n) rows of diagonals.
    """

    def __init__(self, matrices: np.ndarray, diagonal: bool):
        self.matrices = matrices
        self.diagonal = diagonal
        base = np.diagonal(matrices, axis1=1, axis2=2).copy() if diagonal else matrices
        self.cache: dict[int, np.ndarray] = {1: base}
        self._eigenvalues: np.ndarray | None = None

    def power(self, e: int) -> np.ndarray:
        if self.diagonal and e not in self.cache:
            self.cache[e] = self.cache[1] ** e
        # a dense letter holds every power up to its highest one and builds
        # the missing ones upward, X^j = X @ X^(j-1), without recursion
        for j in range(max(self.cache) + 1, e + 1):
            self.cache[j] = self.cache[1] @ self.cache[j - 1]
        return self.cache[e]

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues per matrix, (c, n) or (1, n); solved once."""
        if self._eigenvalues is None:
            self._eigenvalues = _eigenvalues(self.matrices, self.diagonal)
        return self._eigenvalues


def _letter(stack: np.ndarray, diagonal: bool, previous: _Powers | None) -> _Powers:
    """The powers of one letter over a stack of pairs.

    A matrix that is the same in every pair of the stack is kept once and
    broadcasts; when it is also the previous stack's single matrix, the
    previous powers are kept with their cached powers and eigenvalues (B of
    the chain ensemble, A and B of the Pauli pair).
    """
    first = stack[:1]
    if not (stack == first).all():
        return _Powers(stack, diagonal)
    if (previous is not None and previous.matrices.shape[0] == 1
            and np.array_equal(previous.matrices, first)):
        return previous
    return _Powers(first.copy(), diagonal)


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of stacked factors: (c, n) diagonal rows or (c, n, n) matrices."""
    if x.ndim == 2 and y.ndim == 2:
        return x * y
    if x.ndim == 2:
        return x[:, :, None] * y
    if y.ndim == 2:
        return x * y[:, None, :]
    return np.matmul(x, y)


def _trace(x: np.ndarray) -> np.ndarray:
    return x.sum(axis=1) if x.ndim == 2 else np.einsum("cii->c", x)


def _trace_product(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """tr(P X) per stack entry without forming the product."""
    spec = {(2, 2): "ci,ci->c", (2, 3): "ci,cii->c",
            (3, 2): "cii,ci->c", (3, 3): "cij,cji->c"}[p.ndim, x.ndim]
    return np.einsum(spec, p, x)


class WordTracePlan:
    """Raw normalized traces tr(W)/N of a fixed list of two-letter words.

    The words are visited in lexicographic order of their blocks, so words
    sharing a block prefix are adjacent and each prefix product is formed
    once per stack of pairs; the last block is folded into the trace instead
    of multiplied on.  A stack holds the current prefix's products, so at
    most one product per block of the longest word is alive at a time, and
    none outlives the call.  The words are taken as given: least rotations
    over the letters A (0) and B (1).  The plan itself is immutable and can
    be shared between threads.
    """

    def __init__(self, words):
        self.size = len(words)
        # per word in visiting order: (column, prefix products kept, blocks
        # to multiply on, last block or None for the empty word)
        self.steps = []
        current: tuple = ()
        for column in sorted(range(len(words)), key=lambda j: words[j].blocks):
            blocks = words[column].blocks
            prefix = blocks[:-1]
            keep = 0
            while keep < min(len(prefix), len(current)) and prefix[keep] == current[keep]:
                keep += 1
            self.steps.append((column, keep, prefix[keep:], blocks[-1] if blocks else None))
            current = prefix

    def traces(self, pa: _Powers, pb: _Powers, count: int) -> np.ndarray:
        """Rows of tr(W)/N, one per pair of a stack of ``count`` pairs with letters pa, pb."""
        dimension = pa.matrices.shape[-1]
        out = np.empty((count, self.size))
        stack: list[np.ndarray] = []
        for column, keep, push, last in self.steps:
            del stack[keep:]
            for letter, e in push:
                factor = (pb if letter else pa).power(e)
                stack.append(_mul(stack[-1], factor) if stack else factor)
            if last is None:
                out[:, column] = 1.0
                continue
            x = (pb if last[0] else pa).power(last[1])
            out[:, column] = ((_trace_product(stack[-1], x) if stack else _trace(x))
                              / dimension)
        return out


@dataclass(frozen=True)
class SampleTables:
    """The raw observations of one sampling pass (row i = sample i).

    ``traces`` holds the raw normalized traces tr(W)/N of ``words``;
    ``sums`` the spectrum of A + B; ``free_pool`` the free-rotated sum
    spectra, the rotations of one sample in consecutive rows; and
    ``classical_pool`` the permuted sum spectra.  A table the pass was not
    asked for is None.
    """

    words: list[Word]
    traces: np.ndarray
    sums: np.ndarray | None
    free_pool: np.ndarray | None
    classical_pool: np.ndarray | None


def sample_tables(draw, count: int, dimension: int, words, threads: int = 1,
                  with_sums: bool = False, seed: int = 0, free_rotations: int = 0,
                  with_classical: bool = False) -> SampleTables:
    """Draw each pair once and record the raw observations taken from it.

    ``draw(i)`` returns the i-th of ``count`` pairs of the given dimension.
    Each pair yields one row of raw traces of ``words`` (least rotations
    over A and B, see ``WordTracePlan``), the spectrum of
    A + B if ``with_sums``, ``free_rotations`` free-rotated sum spectra and,
    if ``with_classical``, its permuted sum spectrum; the rotations and
    permutations come from the per-index streams of ``seed``.  Pairs are
    drawn one index at a time but processed as stacks (``_stack_groups``),
    one numpy call per step for the whole stack.  With ``threads`` > 1 (and
    at least two indices per thread) contiguous chunks of indices run on a
    thread pool, and the first failing chunk in index order raises, so the
    error is the one a serial loop would meet first.  Every quantity is a
    function of the index alone, so the tables depend neither on
    ``threads`` nor on how the stacks are cut.
    """
    words = list(words)
    plan = WordTracePlan(words)
    traces = np.empty((count, plan.size))
    sums = np.empty((count, dimension)) if with_sums else None
    free_pool = np.empty((count * free_rotations, dimension)) if free_rotations else None
    classical_pool = np.empty((count, dimension)) if with_classical else None

    def run_chunk(indices):
        pa = pb = None
        for at, a, b, diagonal in _stack_groups(draw, indices, dimension):
            # errstate is per thread; the finite checks of the tables and of
            # the statistics derived from them report overflow
            with np.errstate(over="ignore", invalid="ignore"):
                pa, pb = _letter(a, diagonal[0], pa), _letter(b, diagonal[1], pb)
                if sums is not None:
                    sums[at] = _eigenvalues(a + b, all(diagonal))
                traces[at] = plan.traces(pa, pb, len(at))
                for j in range(free_rotations):
                    z = np.stack([stream(seed, i, _FREE_STREAM, j).standard_normal(
                        a.shape[1:]) for i in at])
                    free_pool[at * free_rotations + j] = _free_sum_eigenvalues(a, b, z)
                if classical_pool is not None:
                    perms = np.stack([stream(seed, i, _CLASSICAL_STREAM).permutation(
                        dimension) for i in at])
                    eb = np.take_along_axis(pb.eigenvalues(), perms, axis=1)
                    classical_pool[at] = np.sort(pa.eigenvalues() + eb, axis=1)

    if threads > 1 and count >= 2 * threads:
        bounds = [count * j // threads for j in range(threads + 1)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk, [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]))
    else:
        run_chunk(range(count))
    require_finite(traces, "word trace", [w.length for w in words])
    return SampleTables(words, traces, sums, free_pool, classical_pool)


def require_finite(table: np.ndarray, what: str, orders) -> None:
    """InputError naming the order of the first column with a non-finite entry."""
    bad = np.flatnonzero(~np.isfinite(table).all(axis=0))
    if bad.size:
        raise InputError(f"non-finite sample {what} at order {orders[bad[0]]}: "
                         "entries too large for double-precision powers")


def word_trace_table(pairs, words) -> np.ndarray:
    """Raw normalized traces tr(W)/N per sample and word.

    Returns an array of shape (t, len(words)); the empty word reads 1.
    Words may be given in any rotation over the letters A and B.
    Centered traces are linear in this table (see moments.centering_map).
    Traces that overflow double precision raise InputError naming the order.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one sample")
    words = [w.canonical() for w in words]
    if any(letter > 1 for w in words for letter, _ in w.blocks):
        raise ValueError("word estimation supports the two-letter alphabet")
    return sample_tables(pairs.__getitem__, len(pairs), pairs[0].dimension, words).traces


def estimate_word_net(samples, word: Word) -> tuple[float, float]:
    """Monte Carlo mean of tr(word)/N over samples and its standard error.

    The SE follows the variance proxy sqrt((<W^2> - <W>^2)/t) where <W^2>
    is the raw normalized trace of the doubled word; the radicand is
    clamped at zero (products of indefinite symmetric factors can have
    complex eigenvalue pairs making tr(W^2) small or negative).
    """
    table = word_trace_table(samples, [word, Word(word.blocks * 2, word.k)])
    v = table[:, 0]
    sq = table[:, 1]
    t = len(v)
    mean = float(v.mean())
    se = math.sqrt(max(0.0, float(sq.mean()) - mean * mean) / t)
    return mean, se
