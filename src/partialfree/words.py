"""Cyclic-word combinatorics for trace terms.

The normalized trace of a product of noncommuting matrices is invariant
under cyclic rotation of the factors, so the distinct terms in the
expansion of tr((X_0 + ... + X_{k-1})^n) are indexed by necklaces:
equivalence classes of length-n strings over k symbols under rotation.
This module enumerates those classes, computes their sizes, and keeps a
canonical representative usable as a memoization key.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import gcd
from string import ascii_uppercase as _LETTERS

from .errors import ResourceLimitError

# the most classes enumerated at once (each costs about 1 KB)
_MAX_NECKLACES = 1 << 20


def _totient(d: int) -> int:
    count = 0
    for m in range(1, d + 1):
        if gcd(d, m) == 1:
            count += 1
    return count


def _merged(blocks) -> tuple:
    """Blocks without zero exponents and with equal neighbours merged.

    Merging also runs across the cyclic wrap: the first and last block of a
    trace term are adjacent.
    """
    merged: list[list[int]] = []
    for letter, exponent in blocks:
        if exponent == 0:
            continue
        if merged and merged[-1][0] == letter:
            merged[-1][1] += exponent
        else:
            merged.append([letter, exponent])
    while len(merged) > 1 and merged[0][0] == merged[-1][0]:
        merged[0][1] += merged.pop()[1]
    return tuple((letter, e) for letter, e in merged)


def canonical_blocks(blocks) -> tuple:
    """Blocks of the lexicographically least rotation of a cyclic word's symbols.

    With two or more letters the least rotation starts with its least
    letter and ends with another one, so its runs need no merge across the
    cyclic wrap.
    """
    symbols = tuple(letter for letter, e in blocks for _ in range(e))
    if not symbols:
        return ()
    best = min(symbols[i:] + symbols[:i] for i in range(len(symbols)))
    return tuple((letter, len(tuple(run))) for letter, run in groupby(best))


@dataclass(frozen=True)
class Word:
    """A cyclic word stored as (letter, exponent) blocks.

    Normalization at construction drops zero-exponent blocks and merges
    adjacent blocks with equal letters, including across the cyclic wrap,
    so two equal Word values always denote the same trace term.  The empty
    word is the identity.
    """

    blocks: tuple[tuple[int, int], ...]
    k: int = 2

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.k}")
        blocks = tuple(self.blocks)
        for letter, exponent in blocks:
            if exponent < 0:
                raise ValueError(f"negative exponent {exponent}")
            if not 0 <= letter < self.k:
                raise ValueError(f"letter {letter} outside alphabet of size {self.k}")
        object.__setattr__(self, "blocks", _merged(blocks))

    @classmethod
    def from_symbols(cls, symbols, k: int | None = None) -> "Word":
        symbols = tuple(symbols)
        if k is None:
            k = max(symbols) + 1 if symbols else 1
        # one block per symbol; the constructor merges the runs
        return cls(tuple((s, 1) for s in symbols), k)

    @classmethod
    def from_string(cls, text: str, k: int | None = None) -> "Word":
        try:
            symbols = tuple(_LETTERS.index(ch) for ch in text.upper())
        except ValueError:
            raise ValueError(f"word {text!r} contains characters outside A-Z") from None
        return cls.from_symbols(symbols, k)

    @classmethod
    def empty(cls, k: int = 2) -> "Word":
        return cls((), k)

    @property
    def length(self) -> int:
        return sum(e for _, e in self.blocks)

    @property
    def symbols(self) -> tuple[int, ...]:
        out: list[int] = []
        for letter, exponent in self.blocks:
            out.extend([letter] * exponent)
        return tuple(out)

    @property
    def is_pure(self) -> bool:
        return len(self.blocks) <= 1

    def canonical(self) -> "Word":
        """Lexicographically least rotation of the flattened symbol string."""
        return Word(canonical_blocks(self.blocks), self.k)

    def multiplicity(self) -> int:
        """Number of distinct rotations, i.e. the smallest period of the string."""
        s = self.symbols
        n = len(s)
        if n == 0:
            raise ValueError("multiplicity of the empty word is undefined")
        for p in range(1, n + 1):
            if n % p == 0 and all(s[i] == s[(i + p) % n] for i in range(n)):
                return p
        raise AssertionError("unreachable: n is always a period")

    def to_string(self) -> str:
        return "".join(_LETTERS[l] for l in self.symbols)

    def __str__(self) -> str:
        return self.to_string() or "<empty>"


@dataclass(frozen=True)
class Necklace:
    """A rotation class: canonical representative plus class size."""

    word: Word
    multiplicity: int


def word_multiplicity(word: Word) -> int:
    """Size of the rotation class of ``word`` (spec of Word.multiplicity)."""
    return word.multiplicity()


def necklace_count(n: int, k: int) -> int:
    """Number of (n, k)-necklaces: (1/n) * sum_{d|n} phi(d) k^(n/d).

    Exact integer arithmetic throughout; Python integers cannot overflow.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _totient(d) * k ** (n // d)
    assert total % n == 0
    return total // n


def _fkm_necklaces(n: int, k: int):
    """Generate (symbols, period) for all (n, k)-necklaces in lexicographic order."""
    a = [0] * (n + 1)
    out = []

    def db(t: int, p: int) -> None:
        if t > n:
            if n % p == 0:
                out.append((tuple(a[1:]), p))
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, k):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    return out


def enumerate_necklaces(n: int, k: int, fold_reflections: bool = False) -> list[Necklace]:
    """All (n, k)-necklaces with class sizes; multiplicities sum to k**n.

    With ``fold_reflections`` each class is merged with its mirror image
    (bracelets).  That identification is only sound when the trace of a
    reversed product equals the trace of the product itself, which holds
    for real-symmetric matrices; it is offered as an opt-in optimization.
    More than 2^20 classes raise ResourceLimitError before any is built.
    """
    count = necklace_count(n, k)
    if count > _MAX_NECKLACES:
        raise ResourceLimitError(
            f"there are {count} necklaces of length n = {n} over k = {k} letters, "
            f"more than the bound of 2^20 = {_MAX_NECKLACES}")
    necklaces = [
        Necklace(Word.from_symbols(symbols, k), period)
        for symbols, period in _fkm_necklaces(n, k)
    ]
    if not fold_reflections:
        return necklaces
    folded: dict[tuple[int, ...], int] = {}
    order: list[tuple[int, ...]] = []
    for neck in necklaces:
        s = neck.word.symbols
        mirror = Word.from_symbols(tuple(reversed(s)), k).canonical().symbols
        key = min(s, mirror)
        if key not in folded:
            folded[key] = 0
            order.append(key)
        folded[key] += neck.multiplicity
    return [Necklace(Word.from_symbols(key, k), folded[key]) for key in order]


def word_expansion(n: int, k: int = 2) -> list[Necklace]:
    """Unique cyclic terms of (X_0 + ... + X_{k-1})^n with their multiplicities.

    The degenerate n = 0 expansion is the empty word with multiplicity 1.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n == 0:
        return [Necklace(Word.empty(k), 1)]
    return enumerate_necklaces(n, k)
