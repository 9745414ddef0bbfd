from fractions import Fraction

import numpy as np
import pytest

from partialfree.errors import ResourceLimitError
from partialfree.matrices import EnsembleSpec, estimate_word_net, sample_pair
from partialfree.pathsum import (
    LatticeModel,
    boundary_corrected_word_net,
    exact_word_net,
    gaussian_entry_moments,
)
from partialfree.words import Word, word_expansion

from oracles import site_sum_word_net

GAUSS8 = gaussian_entry_moments(8)


def chain(n, circulant=True, moments=GAUSS8):
    return LatticeModel.chain(n, moments, circulant=circulant)


def test_gaussian_entry_moments():
    assert gaussian_entry_moments(8) == (0, 1, 0, 3, 0, 15, 0, 105)


def test_long_pure_block_is_one_walk_step():
    # one deposit per A block: A^1500 stays far below the recursion limit
    moments = tuple(range(1, 1501))
    for circulant in (True, False):
        model = LatticeModel.chain(4, moments, circulant=circulant)
        assert exact_word_net(Word(((0, 1500),)), model) == 1500


def test_model_validation():
    with pytest.raises(ValueError):
        LatticeModel(np.array([[1, 0], [0, 0]]), (0, 1))  # nonzero diagonal
    with pytest.raises(ValueError):
        LatticeModel(np.array([[0, 1], [0, 0]]), (0, 1))  # not symmetric
    with pytest.raises(ValueError):
        LatticeModel(np.array([[0, 2], [2, 0]]), (0, 1))  # not 0/1


def test_single_hop_words_vanish():
    for n in (4, 9):
        for circulant in (True, False):
            assert exact_word_net(Word.from_string("AB"), chain(n, circulant)) == 0


def test_ab4_circulant_is_two():
    for n in (8, 50, 200):
        assert exact_word_net(Word.from_string("ABABABAB"), chain(n)) == 2


def test_a2b2_circulant():
    assert exact_word_net(Word.from_string("AABB"), chain(8)) == 2
    # against a direct matrix-product oracle at N = 8
    model = chain(8)
    assert site_sum_word_net(Word.from_string("AABB"), model.adjacency, GAUSS8) == 2


def test_ab4_open_chain_boundary_correction():
    for n in (2, 3, 5, 10, 50):
        got = boundary_corrected_word_net(Word.from_string("ABABABAB"),
                                          chain(n, circulant=False))
        assert got == Fraction(2) - Fraction(2, n)


def test_open_chain_difference_is_order_one_over_n():
    word = Word.from_string("ABABABAB")
    for n in (20, 40, 80):
        diff = exact_word_net(word, chain(n)) - boundary_corrected_word_net(
            word, chain(n, circulant=False))
        assert diff == Fraction(2, n)


def test_boundary_correction_requires_open_chain():
    with pytest.raises(ValueError):
        boundary_corrected_word_net(Word.from_string("AB"), chain(6, circulant=True))


def test_two_site_open_chain_b2():
    assert boundary_corrected_word_net(Word.from_string("BB"), chain(2, circulant=False)) == 1


def test_pure_words():
    model = chain(10)
    assert exact_word_net(Word.from_string("AAAA"), model) == 3
    assert exact_word_net(Word.from_string("BB"), model) == 2
    assert exact_word_net(Word.empty(), model) == 1


def test_odd_diagonal_power_vanishes_with_centered_entries():
    # any word forcing an odd entry power at some site has zero expectation
    model = chain(9)
    for text in ("ABBB", "AAABAB", "ABABAB"):
        assert exact_word_net(Word.from_string(text), model) == 0


def test_matches_site_sum_oracle_exhaustively():
    # every word of length <= 6 on small chains, both topologies, exact rationals
    for n in (2, 3, 4, 7):
        for circulant in (True, False):
            model = chain(n, circulant)
            for length in range(1, 7):
                for necklace in word_expansion(length, 2):
                    got = exact_word_net(necklace.word, model)
                    want = site_sum_word_net(necklace.word, model.adjacency, GAUSS8)
                    assert got == want, (n, circulant, necklace.word.to_string())


def test_chain_model_is_the_sampled_chain():
    # walk sums describe the B that the tridiagonal-adjacency ensemble samples
    for n in (2, 3, 8):
        for circulant in (True, False):
            spec = EnsembleSpec.tridiagonal_adjacency(n, seed=0, circulant=circulant)
            model = chain(n, circulant)
            assert np.array_equal(model.adjacency, sample_pair(spec, 0).b)
            assert model.is_open_chain() == (n == 2 or not circulant)


def test_non_gaussian_moments():
    # entries +-1 with equal weight: m = (0, 1, 0, 1, ...)
    moments = (0, 1, 0, 1, 0, 1, 0, 1)
    model = chain(12, moments=moments)
    got = exact_word_net(Word.from_string("AAAABBAABB"), model)
    want = site_sum_word_net(Word.from_string("AAAABBAABB"), model.adjacency, moments)
    assert got == want


def test_monte_carlo_agreement():
    spec = EnsembleSpec.tridiagonal_adjacency(64, seed=77, circulant=True)
    samples = [sample_pair(spec, i) for i in range(2000)]
    model = chain(64)
    for text in ("ABABABAB", "AABB", "AABABB"):
        word = Word.from_string(text)
        expected = float(exact_word_net(word, model))
        est, se = estimate_word_net(samples, word)
        assert abs(est - expected) < 3 * se + 1e-12, text


def test_hop_budget_enforced():
    model = LatticeModel.chain(6, GAUSS8, max_hops=3)
    with pytest.raises(ResourceLimitError):
        exact_word_net(Word.from_string("ABABABAB"), model)
    # at the bound is fine
    assert exact_word_net(Word.from_string("ABABAB"), model) == 0


def test_float_moments_give_floats():
    model = LatticeModel.chain(8, (0.0, 1.0, 0.0, 3.0))
    value = exact_word_net(Word.from_string("AABB"), model)
    assert isinstance(value, float)
    assert value == pytest.approx(2.0)


def test_walk_sums_read_the_model_neighbors(monkeypatch):
    # the neighbor lists are built with the model, not on each walk sum
    model = chain(12, circulant=False)
    calls = []
    real = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: calls.append(1) or real(a))
    for text in ("ABAB", "AABB", "ABABABAB"):
        exact_word_net(Word.from_string(text), model)
    assert calls == []


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_open_chain_degree_matches_its_exact_deviation(seed):
    # the open chain first departs from freeness at ABBABB, by the walk sums'
    # boundary term (2n - 4)/n^2 = 3/16 at n = 8; the whole pipeline must find
    # that order and word and estimate that value, derived apart from it
    from partialfree.analysis import AnalysisConfig, run_analysis
    from partialfree.moments import free_joint_moment

    model = chain(8, circulant=False)
    word = Word.from_string("ABBABB")
    mu_a = (1,) + GAUSS8
    mu_b = [1] + [exact_word_net(Word(((1, k),), 2), model) for k in range(1, 9)]
    deviation = exact_word_net(word, model) - free_joint_moment(word, mu_a, mu_b)
    assert deviation == Fraction(3, 16)
    spec = EnsembleSpec.tridiagonal_adjacency(8, seed=seed, circulant=False)
    report = run_analysis(AnalysisConfig(spec, 2000, 8, alpha=0.01))
    assert report.degree == 6
    assert [row.word for row in report.words if row.flagged_free] == [word]
    (row,) = [row for row in report.words if row.word == word]
    assert abs(row.centered_estimate - float(deviation)) <= 4 * row.centered_se
    assert "exact walk-sum deviation from freeness for ABBABB: 0.1875" in report.notes
