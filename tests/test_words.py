from itertools import groupby, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialfree.errors import ResourceLimitError
from partialfree.moments import sum_moment_free
from partialfree.words import (
    Necklace,
    Word,
    enumerate_necklaces,
    necklace_count,
    word_expansion,
    word_multiplicity,
)

from oracles import rotation_classes, rotation_classes_bytes


def test_necklace_count_examples():
    assert necklace_count(1, 2) == 2
    assert necklace_count(4, 2) == 6
    assert necklace_count(6, 2) == 14


def test_necklace_count_matches_the_gcd_formula():
    # (1/n) sum_{d | n} phi(d) k^(n/d), with phi(d) counted by gcd over every m <= d
    for n in range(1, 301):
        for k in range(1, 6):
            total = sum(sum(1 for m in range(1, d + 1) if gcd(d, m) == 1) * k ** (n // d)
                        for d in range(1, n + 1) if n % d == 0)
            assert necklace_count(n, k) == total // n, (n, k)


def test_necklace_count_rejects_bad_args():
    with pytest.raises(ValueError):
        necklace_count(0, 2)
    with pytest.raises(ValueError):
        necklace_count(3, 0)


def test_counts_past_the_formatting_limit_are_resource_limits():
    # at least 2^99983 classes, more than 4300 digits: the message gives the power of two
    with pytest.raises(ResourceLimitError, match=r"at least 2\^99983 necklaces.*2\^20"):
        enumerate_necklaces(100000, 2)
    with pytest.raises(ResourceLimitError, match=r"n = 14300"):
        word_expansion(14300, 2)
    with pytest.raises(ResourceLimitError, match=r"n = 14300"):
        sum_moment_free(14300, [1.0, 0.0], [1.0, 0.0])


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_enumeration_matches_brute_force(n, k):
    classes = rotation_classes(n, k)
    necklaces = enumerate_necklaces(n, k)
    assert len(necklaces) == necklace_count(n, k)
    got = {neck.word.symbols: neck.multiplicity for neck in necklaces}
    assert got == classes
    assert sum(got.values()) == k**n


def test_enumeration_examples():
    got = [(n.word.to_string(), n.multiplicity) for n in enumerate_necklaces(4, 2)]
    assert got == [("AAAA", 1), ("AAAB", 4), ("AABB", 4), ("ABAB", 2), ("ABBB", 4), ("BBBB", 1)]
    assert [(n.word.to_string(), n.multiplicity) for n in enumerate_necklaces(1, 1)] == [("A", 1)]
    six_two = {n.word.to_string(): n.multiplicity for n in enumerate_necklaces(6, 2)}
    assert six_two["AABAAB"] == 3


def test_word_multiplicity_examples():
    assert word_multiplicity(Word.from_string("AABAAB")) == 3
    assert word_multiplicity(Word.from_string("AAAA")) == 1
    assert word_multiplicity(Word.from_string("ABAB")) == 2
    with pytest.raises(ValueError):
        word_multiplicity(Word.empty())


def test_word_expansion_examples():
    got = {n.word.to_string(): n.multiplicity for n in word_expansion(3, 2)}
    assert got == {"AAA": 1, "AAB": 3, "ABB": 3, "BBB": 1}
    assert sum(got.values()) == 8

    got2 = {n.word.to_string(): n.multiplicity for n in word_expansion(2, 2)}
    assert got2 == {"AA": 1, "AB": 2, "BB": 1}

    got8 = {n.word.to_string(): n.multiplicity for n in word_expansion(8, 2)}
    assert got8["ABABABAB"] == 2

    empty = word_expansion(0, 2)
    assert empty == [Necklace(Word.empty(2), 1)]


def test_word_normalization():
    # zero exponents dropped, adjacent blocks merged, cyclic wrap merged
    w = Word(((0, 2), (1, 0), (0, 1), (1, 3)), 2)
    assert w.blocks == ((0, 3), (1, 3))
    wrap = Word(((0, 1), (1, 2), (0, 2)), 2)
    assert wrap.blocks == ((0, 3), (1, 2))
    assert Word.from_string("ABA").blocks == ((0, 2), (1, 1))


def test_word_validation():
    with pytest.raises(ValueError):
        Word(((0, -1),), 2)
    with pytest.raises(ValueError):
        Word(((3, 1),), 2)
    with pytest.raises(ValueError):
        Word.from_string("A?B")


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=12),
       st.integers(min_value=0, max_value=11))
@settings(max_examples=200, deadline=None)
def test_canonical_is_rotation_invariant(symbols, shift):
    shift = shift % len(symbols)
    rotated = symbols[shift:] + symbols[:shift]
    a = Word.from_symbols(symbols, 3).canonical()
    b = Word.from_symbols(rotated, 3).canonical()
    assert a == b
    least = min(tuple(symbols[i:] + symbols[:i]) for i in range(len(symbols)))
    assert a.symbols == least


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_multiplicities_sum_to_strings(n, k):
    assert sum(neck.multiplicity for neck in enumerate_necklaces(n, k)) == k**n


def test_bracelet_folding_preserves_total():
    for n, k in [(5, 2), (6, 2), (7, 3)]:
        folded = enumerate_necklaces(n, k, fold_reflections=True)
        assert sum(neck.multiplicity for neck in folded) == k**n
        assert len(folded) <= necklace_count(n, k)
    # the first chiral pair appears at length 6 (AABABB vs its mirror)
    plain = {n.word.to_string() for n in enumerate_necklaces(6, 2)}
    folded = {n.word.to_string() for n in enumerate_necklaces(6, 2, fold_reflections=True)}
    assert folded < plain


def test_representative_is_least_rotation():
    for neck in enumerate_necklaces(7, 2):
        s = neck.word.symbols
        assert s == min(s[i:] + s[:i] for i in range(len(s)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_integer_rotation_oracle_matches_string_oracle(k):
    for n in range(1, 9):
        want = {bytes(canon): size for canon, size in rotation_classes(n, k).items()}
        assert rotation_classes_bytes(n, k) == want, n


def test_from_symbols_blocks_match_run_merged_blocks():
    for k in (1, 2, 3):
        for n in range(7):
            for symbols in product(range(k), repeat=n):
                runs = tuple((s, len(list(run))) for s, run in groupby(symbols))
                assert Word.from_symbols(symbols, k).blocks == Word(runs, k).blocks
