"""Moment/cumulant conversions and the two convolutions of spectral laws.

Moment sequences are plain sequences indexed by order with mu[0] = 1.
Free cumulant sequences nu have nu[0] = 1 by convention; classical
cumulant sequences kappa use kappa[0] = 0 as a placeholder so that
kappa[j] is the j-th cumulant throughout.

Free cumulants and moments determine each other through the division-free
recursion mu_n = sum_s nu_s [z^(n-s)] M(z)^s (Speicher, Math. Ann. 298,
1994), which runs unchanged on exact numbers, floats and arrays of
jackknife replicates; classical cumulants come from the log of the
exponential moment generating series.  Both families add componentwise
under their respective convolutions of spectral measures.

The joint-moment rules at the bottom are the exact side of the freeness
test: a cyclic two-letter word has one value forced by classical
independence (letters commute) and another forced by free independence
(all centered alternating products vanish).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, pi, sqrt, asin

import numpy as np

from .series import PowerSeries, _is_exact, complete_bell
from .words import Word, word_expansion


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


def _log_series(order: int) -> PowerSeries:
    one = Fraction(1)
    return PowerSeries((0,) + tuple((-one if m % 2 == 0 else one) / m
                                    for m in range(1, order + 1)))


def _exactify(values):
    """Exact rational copy of a numeric sequence (floats convert losslessly)."""
    return [v if isinstance(v, (int, Fraction)) else Fraction(float(v)) for v in values]


def classical_cumulants_from_moments(mu) -> list:
    """Classical cumulants kappa_1..kappa_K (kappa[0] = 0 placeholder).

    kappa is the log of the exponential moment generating series:
    log(sum mu_n t^n / n!) = sum kappa_n t^n / n!.  The factorial weights
    amplify rounding badly at higher orders, so the composition always runs
    in exact rational arithmetic; float inputs come back as floats.
    """
    mu = _check_moments(mu)
    exact = _is_exact(mu)
    work = _exactify(mu)
    order = len(work) - 1
    fact = Fraction(1)
    egf = [Fraction(1)]
    for n in range(1, order + 1):
        fact = fact / n
        egf.append(work[n] * fact)
    shifted = PowerSeries((0,) + tuple(egf[1:]))
    log_egf = _log_series(order).compose(shifted)
    kappa = [Fraction(0)]
    fact = Fraction(1)
    for n in range(1, order + 1):
        fact = fact * n
        kappa.append(log_egf.coeffs[n] * fact)
    return kappa if exact else [float(v) for v in kappa]


def moments_from_classical_cumulants(kappa) -> list:
    """Moments from classical cumulants: mu_n = B_n(kappa_1..kappa_n)."""
    kappa = tuple(kappa)
    if not kappa:
        raise ValueError("empty cumulant sequence")
    exact = _is_exact(kappa)
    tail = _exactify(kappa[1:])
    out = [complete_bell(n, tail[:n]) for n in range(len(kappa))]
    return out if exact else [float(v) for v in out]


def _convolve(mu_a, mu_b, order, to_cumulants, from_cumulants):
    mu_a = _check_moments(mu_a, "mu_a")
    mu_b = _check_moments(mu_b, "mu_b")
    if order is None:
        order = min(len(mu_a), len(mu_b)) - 1
    if order >= min(len(mu_a), len(mu_b)):
        raise ValueError(
            f"order {order} exceeds the available moments "
            f"({len(mu_a) - 1} and {len(mu_b) - 1})"
        )
    ca = to_cumulants(mu_a[: order + 1])
    cb = to_cumulants(mu_b[: order + 1])
    summed = [ca[0]] + [ca[j] + cb[j] for j in range(1, order + 1)]
    return from_cumulants(summed)


def free_convolve(mu_a, mu_b, order: int | None = None) -> list:
    """Moments of the free additive convolution through ``order``.

    Free cumulants add for k >= 1; nu_0 stays 1, which keeps the result a
    normalized moment sequence.
    """
    return _convolve(mu_a, mu_b, order,
                     free_cumulants_from_moments, moments_from_free_cumulants)


def classical_convolve(mu_a, mu_b, order: int | None = None) -> list:
    """Moments of the classical additive convolution through ``order``."""
    return _convolve(mu_a, mu_b, order,
                     classical_cumulants_from_moments, moments_from_classical_cumulants)


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


def _block_deletions(word: Word, canonical: dict):
    """Expansion of the centered product prod_i (X_i^(e_i) - c_i) over block subsets.

    Yields (sign, removed blocks, remaining word) for every subset S of the
    blocks, the empty subset first: the term replaces the blocks of S by
    their scalars with sign (-1)^|S|.  Deleting blocks shortens the word and
    cyclic merging re-normalizes it; the remainder is canonical.
    ``canonical`` memoizes remainders by their blocks across calls.
    """
    blocks = word.blocks
    for mask in range(1 << len(blocks)):
        removed = tuple(b for i, b in enumerate(blocks) if mask >> i & 1)
        rest = tuple(b for i, b in enumerate(blocks) if not mask >> i & 1)
        remainder = canonical.get(rest)
        if remainder is None:
            remainder = canonical[rest] = Word(rest, word.k).canonical()
        yield (-1) ** len(removed), removed, remainder


def free_joint_moment(word: Word, mu_a, mu_b):
    """The unique joint-moment value forced by free independence.

    Expanding the product of centered blocks (X^e - <X^e>) and requiring it
    to vanish expresses the word as a signed sum over subsets of blocks
    replaced by their scalar means (see ``_block_deletions``); the shorter
    remainders recurse, so the recursion terminates.  Values are memoized
    per call on the canonical rotation.
    """
    mus = _letter_moments(word, mu_a, mu_b)
    memo: dict[Word, object] = {}
    canonical: dict = {}

    def net(w: Word):
        blocks = w.blocks
        if not blocks:
            return 1
        if len(blocks) == 1:
            letter, exponent = blocks[0]
            return _pure_moment(mus, letter, exponent)
        cached = memo.get(w)
        if cached is not None:
            return cached
        total = 0
        for sign, removed, rest in _block_deletions(w, canonical):
            if not removed:
                continue
            scalar = 1
            for letter, exponent in removed:
                scalar *= _pure_moment(mus, letter, exponent)
            if scalar == 0:
                continue
            total += sign * scalar * net(rest)
        value = -total
        memo[w] = value
        return value

    return net(word.canonical())


def centering_map(words, mu_a, mu_b) -> np.ndarray:
    """Matrix taking raw normalized word traces to centered ones.

    ``words`` starts with the empty word, is ordered by length and holds
    every remainder of its own block deletions (all necklaces through some
    order do).  With ``raw`` holding tr(W)/N per sample in that column order
    (1 for the empty word), ``raw @ M`` holds tr(prod (X^e - mu_e(X)))/N.
    M has a unit diagonal and otherwise only entries M[i, j] with i < j,
    from words shorter than word j.
    """
    words = [w.canonical() for w in words]
    if not words or words[0].blocks:
        raise ValueError("the word list must start with the empty word")
    if any(a.length > b.length for a, b in zip(words, words[1:])):
        raise ValueError("words must be ordered by length")
    column = {w: j for j, w in enumerate(words)}
    if len(column) != len(words):
        raise ValueError("words must be distinct up to rotation")
    mus = tuple([float(v) for v in _check_moments(mu, name)]
                for mu, name in ((mu_a, "mu_a"), (mu_b, "mu_b")))
    out = np.zeros((len(words), len(words)))
    canonical: dict = {}
    for j, word in enumerate(words):
        for sign, removed, rest in _block_deletions(word, canonical):
            i = column.get(rest)
            if i is None:
                raise ValueError(
                    f"word list lacks {rest.to_string() or '<empty>'}, "
                    f"a remainder of {word.to_string()}")
            scalar = float(sign)
            for letter, exponent in removed:
                scalar *= _pure_moment(mus, letter, exponent)
            out[i, j] += scalar
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
