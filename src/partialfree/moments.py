"""Moment/cumulant conversions and the two convolutions of spectral laws.

Moment sequences are plain sequences indexed by order with mu[0] = 1.
Free cumulant sequences nu have nu[0] = 1 by convention; classical
cumulant sequences kappa use kappa[0] = 0 as a placeholder so that
kappa[j] is the j-th cumulant throughout.

Either cumulant family maps to the moments and back by a division-free
recursion that runs on exact numbers, floats and arrays of jackknife
replicates: mu_n = sum_s nu_s [z^(n-s)] M(z)^s (free; Speicher, Math. Ann.
298, 1994) and mu_n = sum_k C(n-1, k-1) kappa_k mu_(n-k) (classical; Smith,
Am. Stat. 49, 1995).  Free cumulants add under the free convolution; the
classical one is the binomial sum of the two moment sequences.

The joint-moment rules at the bottom are the exact side of the freeness
test: a cyclic two-letter word has one value forced by classical
independence (letters commute) and another forced by free independence
(all centered alternating products vanish).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, comb, isfinite, pi, sqrt

import numpy as np

from .matrices import _CELL_BUDGET
from .series import _classical_recursion, _is_exact
from .words import Word, canonical_blocks, word_expansion


def _check_moments(mu, name: str = "mu"):
    mu = tuple(mu)
    if not mu or mu[0] != 1:
        raise ValueError(f"{name} must satisfy {name}[0] = 1, got {mu[:1]!r}")
    return mu


def _free_recursion(seq, to_moments: bool) -> list:
    """Moments from free cumulants, or back, without division.

    With M(z) = sum_j mu_j z^j, mu_n = sum_{s=1..n} nu_s [z^(n-s)] M(z)^s
    (Speicher 1994; Nica-Speicher, Lectures on the Combinatorics of Free
    Probability, Lecture 11).  [z^j] M^s needs moments below order n only, so
    it is filled order by order: O(K^3) operations, all + - *.  Elements may
    be int, Fraction, float or equal-length 1-D arrays (one entry per
    replicate); exact inputs stay exact.
    """
    mu = [seq[0]] if to_moments else list(seq)
    nu = list(seq) if to_moments else [seq[0]]
    # power[s][j] = [z^j] M(z)^s; M^1 is mu itself and [z^0] M^s = 1
    power = [None, mu] + [[1] for _ in seq[2:]]
    for n in range(1, len(seq)):
        for s in range(2, n):
            j, prev = n - s, power[s - 1]
            power[s].append(sum(prev[j - i] * mu[i] for i in range(j + 1)))
        tail = sum(nu[s] * power[s][n - s] for s in range(1, n))
        if to_moments:
            mu.append(nu[n] + tail)
        else:
            nu.append(mu[n] - tail)
    return mu if to_moments else nu


def free_cumulants_from_moments(mu) -> list:
    """Free cumulants nu_0..nu_K (nu_0 = 1) of a moment sequence mu_0..mu_K.

    Solves mu_n = sum_{s=1..n} nu_s [z^(n-s)] M(z)^s for nu_n, order by order.
    """
    return _free_recursion(_check_moments(mu), to_moments=False)


def moments_from_free_cumulants(nu) -> list:
    """Inverse of :func:`free_cumulants_from_moments`: the same recursion, forwards."""
    return _free_recursion(_check_moments(nu, "nu"), to_moments=True)


def classical_cumulants_from_moments(mu) -> list:
    """Classical cumulants kappa_1..kappa_K (kappa[0] = 0 placeholder).

    kappa is the log of the exponential moment generating series,
    log(sum mu_n t^n / n!) = sum kappa_n t^n / n!, solved order by order
    from mu_n = sum_{k=1..n} C(n-1, k-1) kappa_k mu_(n-k).
    """
    return _classical_recursion(_check_moments(mu), to_moments=False)


def moments_from_classical_cumulants(kappa) -> list:
    """Moments from classical cumulants: mu_n = B_n(kappa_1..kappa_n)."""
    kappa = tuple(kappa)
    if not kappa:
        raise ValueError("empty cumulant sequence")
    return _classical_recursion(kappa, to_moments=True)


def _truncated(mu_a, mu_b, order):
    """Both moment sequences, checked and cut to orders 0..order (default: all shared)."""
    mu_a = _check_moments(mu_a, "mu_a")
    mu_b = _check_moments(mu_b, "mu_b")
    if order is None:
        order = min(len(mu_a), len(mu_b)) - 1
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order >= min(len(mu_a), len(mu_b)):
        raise ValueError(
            f"order {order} exceeds the available moments "
            f"({len(mu_a) - 1} and {len(mu_b) - 1})"
        )
    return mu_a[: order + 1], mu_b[: order + 1]


def free_convolve(mu_a, mu_b, order: int | None = None) -> list:
    """Moments of the free additive convolution through ``order``.

    Free cumulants add for k >= 1; nu_0 stays 1, which keeps the result a
    normalized moment sequence.
    """
    mu_a, mu_b = _truncated(mu_a, mu_b, order)
    ca = _free_recursion(mu_a, to_moments=False)
    cb = _free_recursion(mu_b, to_moments=False)
    return _free_recursion([ca[0]] + [x + y for x, y in zip(ca[1:], cb[1:])], to_moments=True)


def classical_convolve(mu_a, mu_b, order: int | None = None) -> list:
    """Moments of the classical additive convolution through ``order``.

    The moments of a sum of independent variables: mu_n = sum_k C(n, k) a_k b_(n-k).
    """
    mu_a, mu_b = _truncated(mu_a, mu_b, order)
    return [sum(comb(n, k) * mu_a[k] * mu_b[n - k] for k in range(n + 1))
            for n in range(len(mu_a))]


@dataclass(frozen=True)
class AtomicMeasure:
    """A finite discrete measure: ((location, weight), ...), weights sum to 1."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((loc, w) for loc, w in self.atoms)
        if not atoms:
            raise ValueError("an atomic measure needs at least one atom")
        locations = [loc for loc, _ in atoms]
        if len(set(locations)) != len(locations):
            raise ValueError(f"atom locations must be distinct, got {locations}")
        if any(w <= 0 for _, w in atoms):
            raise ValueError("atom weights must be positive")
        total = sum(w for _, w in atoms)
        if _is_exact([w for _, w in atoms]):
            if total != 1:
                raise ValueError(f"weights must sum to 1, got {total}")
        elif not abs(total - 1) <= 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")
        object.__setattr__(self, "atoms", atoms)

    def moments(self, order: int) -> list:
        return [sum(w * loc**k for loc, w in self.atoms) for k in range(order + 1)]


def atomic_classical_convolve(a: AtomicMeasure, b: AtomicMeasure) -> AtomicMeasure:
    """All pairwise sums of atoms with product weights, merged on collision."""
    merged: dict = {}
    for loc_a, w_a in a.atoms:
        for loc_b, w_b in b.atoms:
            loc = loc_a + loc_b
            merged[loc] = merged.get(loc, 0) + w_a * w_b
    return AtomicMeasure(tuple(sorted(merged.items())))


def arcsine_density(x: float) -> float:
    """Density 1/(pi sqrt(4 - x^2)) on (-2, 2), zero outside."""
    if not isfinite(x):
        raise ValueError(f"need a finite point, got {x}")
    if abs(x) >= 2:
        return 0.0
    return 1.0 / (pi * sqrt(4.0 - x * x))


def arcsine_cdf(x: float) -> float:
    """Distribution function of the arcsine law on [-2, 2]."""
    if x <= -2:
        return 0.0
    if x >= 2:
        return 1.0
    return 0.5 + asin(x / 2.0) / pi


def _letter_moments(word: Word, mu_a, mu_b):
    if word.k > 2 or any(letter > 1 for letter, _ in word.blocks):
        raise ValueError("joint-moment rules are defined for two-letter words")
    return (_check_moments(mu_a, "mu_a"), _check_moments(mu_b, "mu_b"))


def _pure_moment(mus, letter: int, order: int):
    mu = mus[letter]
    if order >= len(mu):
        raise ValueError(
            f"word needs moment of order {order} for letter {letter}, "
            f"only {len(mu) - 1} available"
        )
    return mu[order]


def classical_joint_moment(word: Word, mu_a, mu_b):
    """Joint moment under classical independence: letters commute.

    The value is mu_{sum of A-exponents}(A) * mu_{sum of B-exponents}(B).
    """
    mus = _letter_moments(word, mu_a, mu_b)
    totals = [0, 0]
    for letter, exponent in word.blocks:
        totals[letter] += exponent
    return _pure_moment(mus, 0, totals[0]) * _pure_moment(mus, 1, totals[1])


def _block_deletions(blocks: tuple, moment) -> list:
    """Expansion of the centered product prod_i (X_i^(e_i) - c_i) over block subsets.

    Returns (remaining blocks, coefficient) for every subset S of the
    blocks, the empty subset first and then in the order of the bit masks
    (bit i set: block i in S).  The term replaces the blocks of S by their
    scalars ``moment(letter, exponent)``, so its coefficient is the product
    of -moment over S.  The remaining blocks are not yet canonical:
    deleting blocks can leave equal letters adjacent.
    """
    terms = [((), 1)]
    for block in blocks:
        scalar = -moment(*block)
        terms = ([(rest + (block,), c) for rest, c in terms]
                 + [(rest, c * scalar) for rest, c in terms])
    return terms


def free_joint_moment(word: Word, mu_a, mu_b):
    """The unique joint-moment value forced by free independence.

    Expanding the product of centered blocks (X^e - <X^e>) and requiring it
    to vanish expresses the word as a signed sum over subsets of blocks
    replaced by their scalar means (see ``_block_deletions``); the shorter
    remainders recurse, so the recursion terminates.  Values are memoized
    per call on the canonical blocks.
    """
    mus = _letter_moments(word, mu_a, mu_b)
    memo: dict[tuple, object] = {}
    canonical: dict[tuple, tuple] = {}

    def moment(letter, exponent):
        return _pure_moment(mus, letter, exponent)

    def net(blocks: tuple):
        if not blocks:
            return 1
        if len(blocks) == 1:
            return moment(*blocks[0])
        cached = memo.get(blocks)
        if cached is not None:
            return cached
        total = 0
        for rest, coefficient in _block_deletions(blocks, moment)[1:]:
            if coefficient == 0:
                continue
            key = canonical.get(rest)
            if key is None:
                key = canonical[rest] = canonical_blocks(rest)
            total += coefficient * net(key)
        value = -total
        memo[blocks] = value
        return value

    return net(canonical_blocks(word.blocks))


# Longest word whose doubled bit string fits an int64 (see _packed_keys).
_MAX_PACKED_LENGTH = 31


def _packed_keys(bits: np.ndarray, length: np.ndarray) -> np.ndarray:
    """(1 << L) | least rotation of each L-bit string, first symbol in the top bit.

    With A = 0 and B = 1, integer order on strings of equal length is the
    lexicographic order of their symbols, so the least rotation is the one
    ``canonical_blocks`` picks.  Rotation r, the string read from its symbol
    r, is the L-bit window of the doubled string that starts r bits below the
    top; for r >= L the shift is clamped to 0, which gives the string itself.
    """
    doubled = (bits << length) | bits
    full = (1 << length) - 1
    best = bits
    for r in range(1, int(length.max(initial=0))):
        best = np.minimum(best, (doubled >> np.maximum(length - r, 0)) & full)
    return (1 << length) | best


def centering_map(words, mu_a, mu_b) -> np.ndarray:
    """Matrix taking raw normalized word traces to centered ones.

    ``words`` starts with the empty word, is ordered by length and holds
    every remainder of its own block deletions (all necklaces through some
    order do).  With ``raw`` holding tr(W)/N per sample in that column order
    (1 for the empty word), ``raw @ M`` holds tr(prod (X^e - mu_e(X)))/N.
    M has a unit diagonal and otherwise only entries M[i, j] with i < j,
    from words shorter than word j.  The words are taken as given, least
    rotations over A (0) and B (1), as ``matrices.WordTracePlan`` takes them.

    Column j sums the terms of ``_block_deletions`` of word j's canonical
    blocks, in the same bit-mask order and with the same products.  The
    terms are built as arrays, whole words at a time and at most
    _CELL_BUDGET terms per batch: each remainder is packed into a bit-string
    key (``_packed_keys``) and matched to its column by binary search.
    """
    words = list(words)
    if not words or words[0].blocks:
        raise ValueError("the word list must start with the empty word")
    if any(a.length > b.length for a, b in zip(words, words[1:])):
        raise ValueError("words must be ordered by length")
    if words[-1].length > _MAX_PACKED_LENGTH:
        raise ValueError(f"words longer than {_MAX_PACKED_LENGTH} letters are not supported")
    if any(letter > 1 for w in words for letter, _ in w.blocks):
        raise ValueError("the centering map is defined for two-letter words")
    keys = np.array([int("1" + "".join(str(letter) * e for letter, e in w.blocks), 2)
                     for w in words])
    lengths = np.array([w.length for w in words])
    rotated = np.flatnonzero(_packed_keys(keys ^ (1 << lengths), lengths) != keys)
    if rotated.size:
        raise ValueError(f"word {words[rotated[0]].to_string()} is not the least rotation "
                         "of its necklace")
    order = np.argsort(keys)
    sorted_keys = keys[order]
    if np.any(sorted_keys[1:] == sorted_keys[:-1]):
        raise ValueError("words must be distinct up to rotation")
    mus = tuple([float(v) for v in _check_moments(mu, name)]
                for mu, name in ((mu_a, "mu_a"), (mu_b, "mu_b")))

    # per word, padded to the most blocks: exponent, bits (all ones for B)
    # and -moment of each block; padding blocks have no letters
    counts = np.array([len(w.blocks) for w in words])
    flat = [block for w in words for block in w.blocks]
    filled = np.arange(counts.max()) < counts[:, None]
    letter, exponent = np.array(flat, dtype=np.int64).reshape(-1, 2).T
    exps = np.zeros(filled.shape, dtype=np.int64)
    runs = np.zeros_like(exps)
    scalars = np.ones(filled.shape)
    exps[filled] = exponent
    runs[filled] = letter * ((1 << exponent) - 1)
    scalars[filled] = [-_pure_moment(mus, *block) for block in flat]

    out = np.zeros((len(words), len(words)))
    sizes = 1 << counts
    ends = np.cumsum(sizes)
    starts = ends - sizes
    j = 0
    while j < len(words):
        stop = max(j + 1, int(np.searchsorted(ends, starts[j] + _CELL_BUDGET, side="right")))
        word = np.repeat(np.arange(j, stop), sizes[j:stop])
        mask = np.arange(starts[j], ends[stop - 1]) - starts[word]
        bits = np.zeros(word.size, dtype=np.int64)
        length = np.zeros_like(bits)
        coefficient = np.ones(word.size)
        for i in range(counts[j:stop].max()):
            gone = ((mask >> i) & 1).astype(bool)
            kept = np.where(gone, 0, exps[word, i])
            bits = (bits << kept) | np.where(gone, 0, runs[word, i])
            length += kept
            coefficient *= np.where(gone, scalars[word, i], 1.0)
        rest = _packed_keys(bits, length)
        at = np.minimum(np.searchsorted(sorted_keys, rest), len(words) - 1)
        missing = sorted_keys[at] != rest
        if missing.any():
            first = int(np.argmax(missing))
            lacking = format(int(rest[first]), "b")[1:].translate(str.maketrans("01", "AB"))
            raise ValueError(f"word list lacks {lacking}, "
                             f"a remainder of {words[word[first]].to_string()}")
        # terms run in (word, bit mask) order, so each cell sums in that order
        np.add.at(out, (order[at], word), coefficient)
        j = stop
    return out


def free_word_moments(expansion: np.ndarray) -> np.ndarray:
    """Free joint moments of all words of a ``centering_map``, in its column order.

    Free independence makes every centered word vanish, so each word's
    value follows from the shorter ones by forward substitution; the empty
    word is 1.  Agrees with :func:`free_joint_moment` word by word.
    """
    out = np.empty(expansion.shape[0])
    out[0] = 1.0
    for j in range(1, len(out)):
        out[j] = -(out[:j] @ expansion[:j, j])
    return out


def sum_moment_free(n: int, mu_a, mu_b):
    """Moment of order n of A + B predicted by freeness, via the word expansion.

    Sums multiplicity * free_joint_moment over all (n, 2)-necklaces.  Agrees
    with coefficient n of free_convolve; the two routes share no code and
    cross-validate each other.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    total = 0
    for necklace in word_expansion(n, 2):
        total += necklace.multiplicity * free_joint_moment(necklace.word, mu_a, mu_b)
    return total
