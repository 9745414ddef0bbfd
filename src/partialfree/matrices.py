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
from .spectra import DenseSpectra
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
        if not a.size:
            raise ValueError("A and B must be at least 1x1, got 0x0")
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
        if not np.isfinite(vals).all():
            raise ValueError("eigenvalues must be finite")
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
    i = np.arange(n - 1)
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
    i = np.arange(0, dimension, 2)
    a[i, i + 1] = a[i + 1, i] = 1.0
    b[i + 1, (i + 2) % dimension] = b[(i + 2) % dimension, i + 1] = 1.0
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
            except (ValueError, TypeError, OverflowError) as exc:
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
    if index < 0:
        raise ValueError(f"sample index must be >= 0, got {index}")
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
    q *= d[..., None, :]
    return q


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
    """Per matrix of a (c, n, n) stack: True when every off-diagonal entry is zero.

    In row-major order the off-diagonal entries are the n after each
    diagonal entry but the last: a strided view, no copy of the stack.
    """
    c, n = stack.shape[:2]
    off = stack.reshape(c, n * n)[:, 1:].reshape(c, n - 1, n + 1)[:, :, :n]
    return ~off.any(axis=(1, 2))


def _free_sums(a: np.ndarray, b: np.ndarray, rngs, out: np.ndarray) -> np.ndarray:
    """Write a[i] + Q_i b[i] Q_i^T into out[i], Q_i Haar from normals drawn by rngs[i].

    The normals are drawn into ``out`` itself: the QR reads them before the
    product overwrites them, so no further stack of n x n matrices is held.
    """
    for slot, rng in zip(out, rngs):
        rng.standard_normal(out=slot)
    q = _haar_from_normals(out)
    np.matmul(q @ b, np.swapaxes(q, -1, -2), out=out)
    out += a
    return out


def sample_sum_spectrum(pair: MatrixPairSample) -> SpectrumSample:
    """Spectrum of the plain sum A + B."""
    return SpectrumSample(np.linalg.eigvalsh(pair.a + pair.b), "A+B")


def sample_free_sum_spectrum(pair: MatrixPairSample,
                             rng: np.random.Generator) -> SpectrumSample:
    """Spectrum of A + Q B Q^T with a fresh Haar-orthogonal Q."""
    n = pair.dimension
    free_sum = _free_sums(pair.a[None], pair.b[None], [rng], np.empty((1, n, n)))
    return SpectrumSample(np.linalg.eigvalsh(free_sum)[0], "free-rotated")


def sample_classical_sum_spectrum(pair: MatrixPairSample,
                                  rng: np.random.Generator) -> SpectrumSample:
    """Spectrum of Lambda_A + Pi Lambda_B Pi^T with a uniform permutation Pi.

    The permutation shuffles eigenvalues of B against those of A, so the
    aggregated law is the classical convolution of the two spectral laws
    (one eigenvalue of each, paired at random).  Conjugating the raw B by a
    permutation matrix would not achieve this for noncommuting pairs.
    """
    ea, eb = (_Powers(m[None], bool(_diagonal_flags(m[None])[0])).eigenvalues()[0]
              for m in (pair.a, pair.b))
    perm = rng.permutation(pair.dimension)
    return SpectrumSample(np.sort(ea + eb[perm]), "permuted")


@dataclass(frozen=True)
class MomentEstimate:
    """Moment estimates of ``estimate_moments``, with its pooled standard error

    SE(mu_k) = sqrt((mu_{2k} - mu_k^2) / t),

    which needs sample moments through twice the requested order.  The
    report's moment rows take ``column_stats`` of the per-sample moments.
    """

    values: np.ndarray
    se: np.ndarray
    count: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "se", np.asarray(self.se, dtype=float))


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
    """Spectral moments mu_0..mu_order averaged over samples, with pooled SEs.

    ``spectra`` is a (t, N) array, one spectrum per row, or a sequence of
    spectra (``SpectrumSample`` or 1-D arrays).  The SE pools every
    eigenvalue of every sample (``MomentEstimate``).
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
    mean = per_sample_moments(eigs, 2 * order).mean(axis=0)
    variance = np.maximum(0.0, mean[: 2 * order + 1: 2] - mean[: order + 1] ** 2)
    return MomentEstimate(mean[: order + 1], np.sqrt(variance / len(eigs)), len(eigs))


# ---------------------------------------------------------------------------
# the sampling pass: word traces and spectra of every pair

# Pairs are processed as stacks of at most _CELL_BUDGET // n^2 pairs (and at
# least one), so a stacked (c, n, n) product holds about this many doubles:
# small matrices share one numpy call per step, n = 200 goes pair by pair.
_CELL_BUDGET = 1 << 16


def _drawn(draw, i: int, dimension: int) -> MatrixPairSample:
    """``draw(i)``, checked for the common dimension before the next pair is drawn."""
    pair = draw(i)
    if pair.dimension != dimension:
        raise ValueError(f"sample {i} has dimension {pair.dimension}, expected {dimension}")
    return pair


def _stack_groups(draw, indices: range, dimension: int, size: int, shared):
    """Draw the pairs of ``indices`` as stacks, split by which letters are diagonal.

    Consecutive runs of at most ``size`` indices are drawn with ``_drawn``
    and stacked (a one-pair run as a view of its pair's arrays).
    Yields (at, pa, pb): sample indices and the ``_letter`` powers of A and B
    over those pairs, each letter diagonal in all of them or in none, and
    the run's ``shared`` letter of A or B where every matrix equals it.
    Grouping by that pattern keeps each pair's arithmetic a function of the
    pair alone, however the indices are cut into stacks or threads.
    """
    for start in range(indices.start, indices.stop, size):
        pairs = [_drawn(draw, i, dimension) for i in range(start, min(start + size, indices.stop))]
        if len(pairs) == 1:
            # row-major, as np.stack makes a longer stack
            a, b = (np.ascontiguousarray(m)[None] for m in (pairs[0].a, pairs[0].b))
        else:
            a = np.stack([p.a for p in pairs])
            b = np.stack([p.b for p in pairs])
        code = _diagonal_flags(a) + 2 * _diagonal_flags(b)
        for value in range(4):
            rows = np.flatnonzero(code == value)
            if rows.size == 0:
                continue
            pick = slice(None) if rows.size == len(pairs) else rows
            yield (start + rows, _letter(a[pick], bool(value & 1), shared[0]),
                   _letter(b[pick], bool(value & 2), shared[1]))


class _Powers:
    """Cached integer powers of one letter over a stack of pairs.

    ``matrices`` is a (c, n, n) stack, or (1, n, n) for the run's shared
    letter, which broadcasts against every stack that reads it.  Diagonal
    matrices keep their powers as (c, n) rows of diagonals.
    """

    def __init__(self, matrices: np.ndarray, diagonal: bool):
        self.matrices = matrices
        self.diagonal = diagonal
        base = np.diagonal(matrices, axis1=1, axis2=2).copy() if diagonal else matrices
        self.cache: dict[int, np.ndarray] = {1: base}
        self._eigenvalues: np.ndarray | None = None

    def power(self, e: int) -> np.ndarray:
        # every power up to the highest one asked for is held, built upward:
        # x^j for a diagonal letter, X^j = X @ X^(j-1) for a dense one
        x = self.cache[1]
        for j in range(len(self.cache) + 1, e + 1):
            self.cache[j] = x ** j if self.diagonal else x @ self.cache[j - 1]
        return self.cache[e]

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues per matrix, (c, n) or (1, n); solved once.

        A diagonal matrix's eigenvalues are its sorted diagonal, with no
        eigensolve; at ordinary scales that is what ``eigvalsh`` returns bit
        for bit, and it stays exact where LAPACK would rescale the matrix.
        """
        if self._eigenvalues is None:
            self._eigenvalues = (np.sort(self.cache[1], axis=1) if self.diagonal
                                 else np.linalg.eigvalsh(self.matrices))
        return self._eigenvalues


def _letter(stack: np.ndarray, diagonal: bool, shared: _Powers | None) -> _Powers:
    """The powers of one letter over a stack of pairs.

    ``shared`` is the run's letter (B of the chain ensemble, A and B of the
    Pauli pair), returned with its cached powers and eigenvalues when every
    matrix of the stack is its single matrix; any other stack's letter is
    its own.
    """
    if shared is not None and (stack == shared.matrices).all():
        return shared
    return _Powers(stack, diagonal)


def _trace(x: np.ndarray) -> np.ndarray:
    return x.sum(axis=1) if x.ndim == 2 else np.einsum("cii->c", x)


def _trace_product(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """tr(P X) per stack entry without forming the product; each factor of either kind."""
    if p.ndim == x.ndim:
        return np.einsum("ci,ci->c" if p.ndim == 2 else "cij,cji->c", p, x)
    return np.einsum("ci,cii->c" if p.ndim == 2 else "cii,ci->c", p, x)


def _least(pieces: tuple) -> tuple:
    """The key a product is kept under: its pieces or their reverse, whichever is less.

    Every factor is symmetric, so the product of the reversed pieces is the
    transpose of the product.
    """
    return min(pieces, pieces[::-1])


def _split(exponents: list) -> tuple:
    """(P, Q, a_i, a_j) of the cycle D^a_1 M^b_1 ... D^a_m M^b_m, m >= 2.

    ``exponents`` is (a_1, b_1, ..., a_m, b_m).  Cutting the cycle at the
    blocks a_i and a_j leaves the pieces P (from a_i to a_j) and Q (from
    a_j back to a_i), each an alternating run b, a, ..., b.  Each cut is
    listed with its transposed form (reversed Q, reversed P), which has the
    same trace.  The form taken halves the word's letters most nearly, so
    its pieces are short and shared by many words; ties go to the least
    (len P, P, len Q, Q), so every word that a cut serves names it by the
    same form, and a full tie to the form listed first.
    """
    forms = []
    for i in range(0, len(exponents), 2):
        cycle = exponents[i:] + exponents[:i]
        for j in range(2, len(cycle), 2):
            p, q = tuple(cycle[1:j]), tuple(cycle[j + 1:])
            forms += [(p, q, cycle[0], cycle[j]), (q[::-1], p[::-1], cycle[0], cycle[j])]
    return min(forms, key=lambda f: (sum(f[0]) ** 2 + sum(f[1]) ** 2,
                                     len(f[0]), f[0], len(f[1]), f[1]))


def _product(pieces: tuple, pd: _Powers, pm: _Powers, built: dict) -> np.ndarray:
    """The product M^b D^a ... M^b' of the alternating exponents ``pieces`` b, a, ..., b'.

    A single piece is a power of M.  A longer product is built once per
    ``built`` memo from its prefix, with one matmul by M^b' and, when D is
    dense, one by D^a (a diagonal D scales the prefix's columns instead),
    kept under ``_least`` and read transposed for the reversed pieces.
    """
    if len(pieces) == 1:
        return pm.power(pieces[0])
    key = _least(pieces)
    if key not in built:
        prefix = _product(key[:-2], pd, pm, built)
        d = pd.power(key[-2])
        prefix = prefix * d[:, None, :] if pd.diagonal else np.matmul(prefix, d)
        built[key] = np.matmul(prefix, pm.power(key[-1]))
    return built[key] if key == pieces else np.swapaxes(built[key], 1, 2)


class SplitTracePlan:
    """Raw normalized traces tr(W)/N of every word, over the stacks of one route.

    The route is the cut letter, A (0) or B (1), or None when both letters
    are diagonal; the plan sorts the words once.  The short words, with at
    most one block of each letter, are traced as 1, tr(X^k)/N or
    tr(A^a B^b)/N, and so is every word of the commuting route (None):
    diagonal letters commute, so a word is A^alpha B^beta, its letter counts
    (the A blocks of a least rotation are the even ones).  On a cut route a
    word with two or more blocks of each letter is a sum over closed
    two-site paths: cut at two blocks of the cut letter D (``_split``), with
    M the other letter, it is tr(D^a_i P D^a_j Q).  For m >= 3 blocks of D,
    P or Q is a "sandwich" product M^b D^a M^b' ... (``_product``), kept
    until the stack's traces are done: 2, 6, 16 and 31 per stack at K = 8,
    10, 12 and 14, each of max(2^16, n^2) doubles at most.  Words with the
    same (P, Q) form a group.  For a diagonal D with
    diagonal d the trace is (d^a_i)^T (P o Q^T) d^a_j (o the entrywise
    product): H = P o Q^T is formed once, and two batched matmuls of the
    stacked powers of d with H give every (a_i, a_j) of the group.  For a
    dense D it is the sum of X o Y^T with the factors X = D^a_i P and
    Y^T = Q^T D^a_j, summed by rows, then over rows; each factor is built
    once (23, 54 and 123 at K = 8, 10 and 12) and dropped after the last
    group that reads it (at most 9, 20 and 41 live).  No eigenbasis is
    taken, so integer matrices (the Pauli pair) keep exact traces.  Every
    sum runs within one pair and over at most n terms at once (numpy cuts
    longer stacked sums in pieces), so each pair's traces are its own.
    The words are taken as given: least rotations over the letters A (0)
    and B (1), which start with an A block.
    """

    def __init__(self, words, cut_letter: int | None):
        self.cut_letter = cut_letter
        self.short: list[tuple] = []  # (column, blocks) of the words traced whole
        groups: dict[tuple, list] = {}
        for column, word in enumerate(words):
            blocks = word.blocks
            if cut_letter is None and len(blocks) > 2:
                blocks = ((0, sum(e for _, e in blocks[::2])),
                          (1, sum(e for _, e in blocks[1::2])))
            if len(blocks) < 4:
                self.short.append((column, blocks))
                continue
            exponents = [e for _, e in blocks]
            p, q, a_i, a_j = _split(exponents[cut_letter:] + exponents[:cut_letter])
            groups.setdefault((p, q), []).append((a_i, a_j, column))
        # per group: (P, Q, exponents a_i, exponents a_j,
        # (row, column, trace column) per word)
        self.groups = []
        for (p, q), members in groups.items():
            rows = sorted({a_i for a_i, _, _ in members})
            cols = sorted({a_j for _, a_j, _ in members})
            entries = [(rows.index(a_i), cols.index(a_j), column)
                       for a_i, a_j, column in members]
            self.groups.append((p, q, rows, cols, entries))
        # per group, the keys of a dense D's factors D^a_i P and Q^T D^a_j, and
        # of those that no later group reads; a key names the factor's parts
        # in product order, an int for a power of D and pieces for M^b ...
        self.factors = [[(a, p) for a in rows] + [(q[::-1], a) for a in cols]
                        for p, q, rows, cols, _ in self.groups]
        last = {key: index for index, keys in enumerate(self.factors) for key in keys}
        self.spent: list[list] = [[] for _ in self.groups]
        for key, index in last.items():
            self.spent[index].append(key)

    def traces(self, pa: _Powers, pb: _Powers, out: np.ndarray) -> None:
        """Write tr(W)/N into the words' columns of ``out``, one row per pair of the stack."""
        dimension = pa.matrices.shape[-1]
        for column, blocks in self.short:
            factors = [(pb if letter else pa).power(e) for letter, e in blocks]
            trace = _trace_product if len(factors) == 2 else _trace
            out[:, column] = trace(*factors) / dimension if factors else 1.0
        pd, pm = (pb, pa) if self.cut_letter else (pa, pb)
        built: dict[tuple, np.ndarray] = {}
        factors: dict[tuple, np.ndarray] = {}
        for (p, q, rows, cols, entries), keys, spent in zip(self.groups, self.factors,
                                                            self.spent):
            if not pd.diagonal:
                for key in keys:
                    if key not in factors:
                        factors[key] = np.matmul(*(
                            pd.power(k) if isinstance(k, int) else _product(k, pd, pm, built)
                            for k in key))
                # tr(XY) is the sum of X o Y^T, X = D^a_i P and Y^T = Q^T D^a_j
                for row, col, column in entries:
                    x, y = factors[rows[row], p], factors[q[::-1], cols[col]]
                    out[:, column] = np.einsum("cij,cij->ci", x, y).sum(axis=1) / dimension
                for key in spent:
                    del factors[key]
                continue
            h = _product(p, pd, pm, built) * np.swapaxes(_product(q, pd, pm, built), 1, 2)
            left = np.stack([pd.power(a) for a in rows], axis=1)
            right = np.stack([pd.power(a) for a in cols], axis=2)
            paths = np.matmul(np.matmul(left, h), right)
            for row, col, column in entries:
                out[:, column] = paths[:, row, col] / dimension


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
    over A and B), the spectrum of A + B if ``with_sums``,
    ``free_rotations`` free-rotated sum spectra and, if
    ``with_classical``, its permuted sum spectrum; the rotations and
    permutations come from the per-index streams of ``seed``.  Pairs are
    drawn one index at a time but processed as stacks (``_stack_groups``),
    one numpy call per step for the whole stack.  One ``SplitTracePlan``
    per route, built by each chunk when it first meets the route, traces
    every word of a stack: the commuting route when both letters are
    diagonal, else the route cut at the diagonal letter, or at A when both
    letters are dense.  A chunk's dense sums and rotated sums share the
    calls of one ``spectra.DenseSpectra`` buffer, which takes each stack
    whole; a diagonal sum's spectrum is its sorted diagonal.  A letter
    equal in pairs 0 and 1 is the run's: one copy, built before the pool
    with its powers through the longest word and the eigenvalues the
    classical pool reads, and only read by each stack whose every matrix
    equals it; any other stack holds its own, and each value of either is
    a function of the matrix alone.  With
    ``threads`` > 1 (and at least two indices per thread) contiguous chunks
    of indices run on a thread pool, sharing only their disjoint rows of
    the tables and the shared letters, and the first failing chunk in
    index order raises, so the error is the one a serial loop would meet
    first.  Every quantity is a function of the index alone, so the tables
    depend neither on ``threads`` nor on how the stacks or batches are cut.
    """
    words = list(words)
    traces = np.empty((count, len(words)))
    sums = np.empty((count, dimension)) if with_sums else None
    free_pool = np.empty((count * free_rotations, dimension)) if free_rotations else None
    classical_pool = np.empty((count, dimension)) if with_classical else None

    height = max(1, _CELL_BUDGET // (dimension * dimension))  # pairs per stack
    shared = (None, None)
    if count >= 2:
        first, second = (_drawn(draw, i, dimension) for i in range(2))
        shared = tuple(_Powers(m[None].copy(), bool(_diagonal_flags(m[None])[0]))
                       if np.array_equal(m, other) else None
                       for m, other in ((first.a, second.a), (first.b, second.b)))
        del first, second  # the pass holds no pair beyond its stack
        # errstate is per thread, and this is the calling one
        with np.errstate(over="ignore", invalid="ignore"):
            for letter in filter(None, shared):
                letter.power(max([1] + [w.length for w in words]))
                if with_classical:
                    letter.eigenvalues()

    def run_chunk(indices):
        plans: dict[int | None, SplitTracePlan] = {}  # by route
        spectra = DenseSpectra(dimension, height)
        # errstate is per thread; the finite checks of the tables and of
        # the statistics derived from them report overflow
        with np.errstate(over="ignore", invalid="ignore"):
            for at, pa, pb in _stack_groups(draw, indices, dimension, height, shared):
                commuting = pa.diagonal and pb.diagonal
                if sums is not None:
                    if commuting:
                        sums[at] = np.sort(pa.power(1) + pb.power(1), axis=1)
                    else:
                        np.add(pa.matrices, pb.matrices, out=spectra.slot(sums, at))
                row = np.empty((len(at), len(words)))
                # commuting, else cut at the diagonal letter, or at A when both are dense
                cut = None if commuting else int(pb.diagonal)
                if cut not in plans:
                    plans[cut] = SplitTracePlan(words, cut)
                plans[cut].traces(pa, pb, row)
                traces[at] = row
                for j in range(free_rotations):
                    _free_sums(pa.matrices, pb.matrices,
                               (stream(seed, i, _FREE_STREAM, j) for i in at),
                               spectra.slot(free_pool, at * free_rotations + j))
                if classical_pool is not None:
                    perms = np.stack([stream(seed, i, _CLASSICAL_STREAM).permutation(
                        dimension) for i in at])
                    eb = np.take_along_axis(pb.eigenvalues(), perms, axis=1)
                    classical_pool[at] = np.sort(pa.eigenvalues() + eb, axis=1)
            spectra.flush()

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


def column_stats(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and Monte Carlo SE, std/sqrt(t), of every column of a (t, W) table.

    Each column is reduced as a contiguous row of the transpose: numpy sums
    pairwise along the last axis only, so it sums as its own 1-D slice would.
    A column that does not vary has SE exactly 0, where the rounding of its
    mean would leave a spread of a few ulps.
    """
    t = table.shape[0]
    rows = np.ascontiguousarray(table.T)
    se = rows.std(axis=1, ddof=1 if t > 1 else 0) / math.sqrt(t)
    se[(rows == rows[:, :1]).all(axis=1)] = 0.0
    return rows.mean(axis=1), se


def estimate_word_net(samples, word: Word) -> tuple[float, float]:
    """Monte Carlo mean of tr(word)/N over samples and its standard error.

    The SE is the sample standard deviation of tr(word)/N over the samples
    (ddof = 1) over sqrt(t), the rule the degree scan uses (``column_stats``).
    """
    mean, se = column_stats(word_trace_table(samples, [word]))
    return float(mean[0]), float(se[0])
