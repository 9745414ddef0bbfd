import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialfree import moments
from partialfree.analysis import gram_charlier_coefficients
from partialfree.moments import (
    AtomicMeasure,
    arcsine_cdf,
    arcsine_density,
    atomic_classical_convolve,
    centering_map,
    classical_convolve,
    classical_cumulants_from_moments,
    classical_joint_moment,
    free_convolve,
    free_cumulants_from_moments,
    free_joint_moment,
    free_word_moments,
    moments_from_classical_cumulants,
    moments_from_free_cumulants,
    sum_moment_free,
)
from partialfree.words import Word, word_expansion

from oracles import (
    centering_map_words,
    classical_cumulants_log_egf,
    moment_from_free_cumulants_nc,
    noncrossing_partitions,
)

TWO_ATOM = AtomicMeasure(((Fraction(-1), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))))


def test_noncrossing_partition_oracle_counts_catalan():
    assert [len(noncrossing_partitions(n)) for n in range(6)] == [1, 1, 2, 5, 14, 42]


def test_free_cumulants_point_mass():
    a = Fraction(3, 2)
    mu = [a**k for k in range(7)]
    nu = free_cumulants_from_moments(mu)
    assert nu[0] == 1 and nu[1] == a
    assert all(v == 0 for v in nu[2:])


def test_free_cumulants_two_atom():
    nu = free_cumulants_from_moments(TWO_ATOM.moments(8))
    assert nu[1] == 0 and nu[2] == 1 and nu[4] == -1
    assert nu[3] == nu[5] == nu[7] == 0


def test_free_cumulants_semicircle():
    nu = free_cumulants_from_moments([1, 0, 1, 0, 2, 0, 5])
    assert nu[2] == 1
    assert all(v == 0 for i, v in enumerate(nu) if i not in (0, 2))


def test_moments_from_free_cumulants_catalan():
    mu = moments_from_free_cumulants([Fraction(1), 0, 1, 0, 0, 0, 0])
    assert mu == [1, 0, 1, 0, 2, 0, 5]


def test_free_round_trip_against_noncrossing_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        nu = [Fraction(1)] + [Fraction(int(rng.integers(-3, 4)), 2) for _ in range(6)]
        mu = moments_from_free_cumulants(nu)
        for n in range(7):
            assert mu[n] == moment_from_free_cumulants_nc(nu, n)
        assert free_cumulants_from_moments(mu) == nu


def test_round_trips_order_12():
    rng = np.random.default_rng(7)
    for _ in range(10):
        mu = [1.0] + list(rng.uniform(-1, 1, size=12))
        back = moments_from_free_cumulants(free_cumulants_from_moments(mu))
        assert back == pytest.approx(mu, abs=1e-9)
        # cumulants grow ~ (n-1)! mu_1^n, so full-range inputs can push kappa_12
        # past 1e8 where the double interface alone costs 1e-8; keep the float
        # check at half scale and do the full range in exact rationals below
        mu_c = [1.0] + list(0.5 * rng.uniform(-1, 1, size=12))
        back2 = moments_from_classical_cumulants(classical_cumulants_from_moments(mu_c))
        assert back2 == pytest.approx(mu_c, abs=1e-9)


def test_round_trips_order_12_exact_mode():
    rng = np.random.default_rng(8)
    for _ in range(5):
        mu = [Fraction(1)] + [Fraction(int(rng.integers(-16, 17)), 16) for _ in range(12)]
        assert moments_from_free_cumulants(free_cumulants_from_moments(mu)) == mu
        assert moments_from_classical_cumulants(classical_cumulants_from_moments(mu)) == mu


def _goe_moments(order, t=40, n=16, seed=3):
    """Mean spectral moments of A and B over t sampled GOE(n) pairs."""
    from partialfree.matrices import EnsembleSpec, per_sample_moments, sample_pair

    spec = EnsembleSpec.goe(n, seed=seed)
    pairs = [sample_pair(spec, i) for i in range(t)]
    return [per_sample_moments(np.stack([np.linalg.eigvalsh(getattr(p, side)) for p in pairs]),
                               order).mean(axis=0).tolist()
            for side in ("a", "b")]


@pytest.mark.parametrize("order", [12, 16])
def test_float_free_recursion_matches_exact_route_on_goe_moments(order):
    mu_a, mu_b = _goe_moments(order)
    exact_a, exact_b = ([Fraction(v) for v in mu] for mu in (mu_a, mu_b))
    # the free cumulants themselves are small differences of order-K moments;
    # the tolerance is pinned on what the pipeline reads, the moments

    def close(got, want):
        for g, w in zip(got, want, strict=True):
            assert isinstance(g, float)
            assert abs(g - float(w)) <= 1e-12 * max(1.0, abs(float(w)))

    close(free_convolve(mu_a, mu_b), free_convolve(exact_a, exact_b))
    close(moments_from_free_cumulants(free_cumulants_from_moments(mu_b)), exact_b)


def test_exact_inputs_stay_exact():
    ints = [1, 0, 1, 0, 1, 0, 1, 0, 1]
    conv = free_convolve(ints, ints)
    assert conv == [1, 0, 2, 0, 6, 0, 20, 0, 70]
    assert all(type(v) is int for v in conv)
    fracs = [Fraction(1), Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11), Fraction(1, 9)]
    nu = free_cumulants_from_moments(fracs)
    assert all(isinstance(v, (int, Fraction)) for v in nu)
    assert [moment_from_free_cumulants_nc(nu, n) for n in range(5)] == fracs
    assert moments_from_free_cumulants(nu) == fracs
    for mu in (ints, fracs):
        kappa = classical_cumulants_from_moments(mu)
        outputs = (kappa, moments_from_classical_cumulants(kappa),
                   classical_convolve(mu, fracs), gram_charlier_coefficients(mu))
        assert all(isinstance(v, (int, Fraction)) for out in outputs for v in out)
        assert outputs[1] == mu


def test_free_convolve_batches_over_replicates():
    # array elements carry one entry per replicate; each column must equal
    # the scalar call on that column, operation for operation
    rng = np.random.default_rng(5)
    table_a, table_b = rng.uniform(-1, 1, size=(2, 10, 7))
    batched = free_convolve([1, *table_a], [1, *table_b])
    for r in range(7):
        want = free_convolve([1.0, *table_a[:, r]], [1.0, *table_b[:, r]])
        assert [float(v[r]) for v in batched[1:]] == want[1:]


def test_classical_cumulants_examples():
    kappa = classical_cumulants_from_moments([1, 0, 1, 0, 3])
    assert kappa == [0, 0, 1, 0, 0]
    a = Fraction(5, 4)
    kpoint = classical_cumulants_from_moments([a**k for k in range(6)])
    assert kpoint[1] == a and all(v == 0 for v in kpoint[2:])


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=9))
@settings(max_examples=60, deadline=None)
def test_classical_cumulants_against_recursion(tail):
    mu = [Fraction(1)] + [Fraction(c, 2) for c in tail]
    got = classical_cumulants_from_moments(mu)
    want = classical_cumulants_log_egf(mu)
    assert got == want
    assert got[2] == mu[2] - mu[1] ** 2


def test_free_convolve_two_atom_is_central_binomial():
    mu = TWO_ATOM.moments(12)
    conv = free_convolve(mu, mu)
    for n in range(7):
        assert conv[2 * n] == math.comb(2 * n, n)
    assert all(conv[k] == 0 for k in range(1, 13, 2))


def test_free_convolve_identity_and_semicircle():
    mu = [1.0, 0.25, 0.9, -0.3, 1.7]
    delta0 = [1.0, 0.0, 0.0, 0.0, 0.0]
    assert free_convolve(mu, delta0) == pytest.approx(mu, abs=1e-12)

    semi = [1, 0, 1, 0, 2]
    twice = free_convolve(semi, semi)
    assert twice[2] == 2 and twice[4] == 8


def test_classical_convolve_examples():
    mu = TWO_ATOM.moments(4)
    conv = classical_convolve(mu, mu)
    assert conv[2] == 2 and conv[4] == 8

    gauss = [1, 0, 1, 0, 3]
    gg = classical_convolve(gauss, gauss)
    assert gg[2] == 2 and gg[4] == 12

    mu2 = [1.0, 0.3, 0.8, 0.1, 1.1]
    assert classical_convolve(mu2, [1, 0, 0, 0, 0]) == pytest.approx(mu2, abs=1e-12)


def test_classical_convolve_order_16_matches_exact_binomial_sum():
    rng = np.random.default_rng(16)
    for _ in range(20):
        mu_a, mu_b = ([1.0] + list(rng.uniform(-1, 1, size=16)) for _ in range(2))
        exact_a, exact_b = ([Fraction(v) for v in mu] for mu in (mu_a, mu_b))
        want = [sum(math.comb(n, k) * exact_a[k] * exact_b[n - k] for k in range(n + 1))
                for n in range(17)]
        for got, w in zip(classical_convolve(mu_a, mu_b), want, strict=True):
            assert abs(got - float(w)) <= 1e-12 * max(1.0, abs(float(w)))


def test_free_and_classical_agree_through_order_three():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mu_a = [Fraction(1)] + [Fraction(int(rng.integers(-8, 9)), 4) for _ in range(3)]
        mu_b = [Fraction(1)] + [Fraction(int(rng.integers(-8, 9)), 4) for _ in range(3)]
        assert free_convolve(mu_a, mu_b) == classical_convolve(mu_a, mu_b)


def test_convolve_order_validation():
    with pytest.raises(ValueError):
        free_convolve([1, 0, 1], [1, 0, 1], order=5)


@pytest.mark.parametrize("convolve", [free_convolve, classical_convolve])
@pytest.mark.parametrize("order", [-1, -2])
def test_convolve_rejects_a_negative_order(convolve, order):
    with pytest.raises(ValueError, match=f"order must be >= 0, got {order}"):
        convolve([1, 0, 1], [1, 0, 1], order)


def test_atomic_convolve_examples():
    conv = atomic_classical_convolve(TWO_ATOM, TWO_ATOM)
    assert conv.atoms == ((-2, Fraction(1, 4)), (0, Fraction(1, 2)), (2, Fraction(1, 4)))
    delta0 = AtomicMeasure(((0.0, 1.0),))
    assert atomic_classical_convolve(TWO_ATOM, delta0).atoms == ((-1.0, 0.5), (1.0, 0.5))
    da = AtomicMeasure(((1.5, 1.0),))
    db = AtomicMeasure(((-0.25, 1.0),))
    assert atomic_classical_convolve(da, db).atoms == ((1.25, 1.0),)


def test_atomic_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure(((0.0, 0.5), (0.0, 0.5)))
    with pytest.raises(ValueError):
        AtomicMeasure(((0.0, 0.4), (1.0, 0.4)))
    with pytest.raises(ValueError):
        AtomicMeasure(((0.0, -0.5), (1.0, 1.5)))


def test_arcsine_density():
    assert arcsine_density(0.0) == pytest.approx(1 / (2 * math.pi))
    assert arcsine_density(2.5) == 0.0
    assert arcsine_density(-2.5) == 0.0
    # midpoint quadrature with the substitution x = 2 sin(theta), which
    # absorbs the endpoint singularities; dx = 2 cos(theta) dtheta
    edges = np.linspace(-np.pi / 2, np.pi / 2, 20001)
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    integrand = np.array([arcsine_density(2 * math.sin(t)) * 2 * math.cos(t) for t in mids])
    integral = float((integrand * widths).sum())
    assert integral == pytest.approx(1.0, abs=1e-6)
    # the cdf matches quadrature of the density over the lower half
    half = float((integrand[: len(mids) // 2] * widths[: len(mids) // 2]).sum())
    assert arcsine_cdf(0.0) == pytest.approx(half, abs=1e-6)
    assert arcsine_cdf(-2.0) == 0.0 and arcsine_cdf(2.0) == 1.0


def test_arcsine_moments_match_free_convolution():
    # quadrature moments of the arcsine law equal the two-atom free convolution
    edges = np.linspace(-np.pi / 2, np.pi / 2, 40001)
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    conv = free_convolve(TWO_ATOM.moments(6), TWO_ATOM.moments(6))
    for k in (2, 4, 6):
        integrand = np.array([
            (2 * math.sin(t)) ** k * arcsine_density(2 * math.sin(t)) * 2 * math.cos(t)
            for t in mids
        ])
        got = float((integrand * widths).sum())
        assert got == pytest.approx(float(conv[k]), rel=1e-6)


def test_classical_joint_moment():
    w = Word.from_string("AABABB")
    mu_a = [1, 0, 0, 2]
    mu_b = [1, 0, 0, 5]
    assert classical_joint_moment(w, mu_a, mu_b) == 10
    centered = [1, 0, 0.5, 0.1]
    assert classical_joint_moment(Word.from_string("AB"), centered, mu_b) == 0
    assert classical_joint_moment(Word.empty(), mu_a, mu_b) == 1
    with pytest.raises(ValueError):
        classical_joint_moment(Word.from_string("AAAB"), [1, 0], mu_b)


def test_free_joint_moment_base_cases():
    mu_a = [1, 0.3, 1.1, 0.2]
    mu_b = [1, -0.4, 0.7, 0.9]
    ab = free_joint_moment(Word.from_string("AB"), mu_a, mu_b)
    assert ab == pytest.approx(mu_a[1] * mu_b[1])

    centered_a = [1, 0, 1.3, 0.0, 2.0]
    centered_b = [1, 0, 0.6, 0.0, 1.0]
    assert free_joint_moment(Word.from_string("ABAB"), centered_a, centered_b) == 0


def test_free_joint_moment_abab_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a1, a2, b1, b2 = rng.uniform(-1, 1, size=4)
        mu_a = [1, a1, a2]
        mu_b = [1, b1, b2]
        got = free_joint_moment(Word.from_string("ABAB"), mu_a, mu_b)
        want = a2 * b1**2 + a1**2 * b2 - a1**2 * b1**2
        assert got == pytest.approx(want, abs=1e-12)


def test_free_joint_moment_single_letter_words():
    mu_a = [1, 0.1, 0.5, -0.2, 0.8]
    mu_b = [1, 0.0, 1.0, 0.0, 2.0]
    assert free_joint_moment(Word.from_string("AAAA"), mu_a, mu_b) == mu_a[4]
    assert free_joint_moment(Word.from_string("AABB"), mu_a, mu_b) == pytest.approx(
        mu_a[2] * mu_b[2]
    )


def test_free_word_moments_match_exact_free_joint_moment():
    # forward substitution on the float centering map against the exact
    # rational recursion, for every necklace through order 8
    rng = np.random.default_rng(29)
    mu_a = [Fraction(1)] + [Fraction(int(v), 8) for v in rng.integers(-8, 9, size=8)]
    mu_b = [Fraction(1)] + [Fraction(int(v), 8) for v in rng.integers(-8, 9, size=8)]
    words = [Word.empty()] + [n.word for k in range(1, 9) for n in word_expansion(k, 2)]
    got = free_word_moments(centering_map(words, mu_a, mu_b))
    assert got[0] == 1.0
    for word, value in zip(words[1:], got[1:]):
        want = free_joint_moment(word, mu_a, mu_b)
        assert isinstance(want, Fraction)
        assert abs(value - float(want)) <= 1e-12 * max(1.0, abs(float(want))), word


def _necklaces_through(order):
    return [Word.empty()] + [n.word for k in range(1, order + 1) for n in word_expansion(k, 2)]


def test_centering_map_matches_word_based_construction():
    # the array-built map equals one Word per block subset exactly, for
    # every necklace through order 12
    rng = np.random.default_rng(37)
    mu_a = [1.0] + list(rng.uniform(-1.5, 1.5, size=12))
    mu_b = [1.0] + list(rng.uniform(-1.5, 1.5, size=12))
    words = _necklaces_through(12)
    assert np.array_equal(centering_map(words, mu_a, mu_b),
                          centering_map_words(words, mu_a, mu_b))


def test_centering_map_rejects_rotated_words():
    # the words are taken as given, so a word that is not the least
    # rotation of its necklace (BA, BAA, ...) is refused by name
    mu = [1.0, 0.5, 0.25, 0.1]
    words = _necklaces_through(3)
    refused = []
    for j, word in enumerate(words):
        rotated = Word(word.blocks[1:] + word.blocks[:1])
        if rotated == word:
            continue
        with pytest.raises(ValueError, match=f"word {rotated.to_string()} is not the least "
                                             "rotation of its necklace"):
            centering_map(words[:j] + [rotated] + words[j + 1:], mu, mu)
        refused.append(rotated.to_string())
    assert refused == ["BA", "BAA", "BBA"]


def test_centering_map_is_independent_of_its_batches(monkeypatch):
    # whole words per batch: a budget below one word's subsets, or a few
    # words' worth, gives the same cells bit for bit
    rng = np.random.default_rng(43)
    mu_a = [1.0] + list(rng.uniform(-1.5, 1.5, size=8))
    mu_b = [1.0] + list(rng.uniform(-1.5, 1.5, size=8))
    words = _necklaces_through(8)
    want = centering_map(words, mu_a, mu_b)
    for budget in (1, 5, 64, 1000):
        monkeypatch.setattr(moments, "_CELL_BUDGET", budget)
        assert np.array_equal(centering_map(words, mu_a, mu_b), want), budget


def test_centering_map_accepts_fraction_moments():
    mu_a = [Fraction(1), Fraction(1, 3), Fraction(5, 4), Fraction(-2, 7), Fraction(3)]
    mu_b = [Fraction(1), Fraction(-1, 2), Fraction(2, 3), Fraction(1, 5), Fraction(7, 2)]
    words = _necklaces_through(4)
    assert np.array_equal(centering_map(words, mu_a, mu_b),
                          centering_map(words, [float(v) for v in mu_a],
                                        [float(v) for v in mu_b]))


def test_centering_map_rejects_incomplete_word_lists():
    mu = [1.0, 0.5, 0.25]
    with pytest.raises(ValueError, match="empty word"):
        centering_map([Word.from_string("A")], mu, mu)
    with pytest.raises(ValueError, match="lacks B, a remainder of AB"):
        centering_map([Word.empty(), Word.from_string("A"), Word.from_string("AB")], mu, mu)
    with pytest.raises(ValueError, match="lacks AA, a remainder of AAB"):
        centering_map([Word.empty(), Word.from_string("A"), Word.from_string("B"),
                       Word.from_string("AB"), Word.from_string("AAB")], mu, mu)
    with pytest.raises(ValueError, match="ordered by length"):
        centering_map([Word.empty(), Word.from_string("AA"), Word.from_string("A")], mu, mu)
    with pytest.raises(ValueError, match="distinct up to rotation"):
        centering_map([Word.empty(), Word.from_string("A"), Word.from_string("B"),
                       Word.from_string("AB"), Word.from_string("AB")], mu, mu)
    with pytest.raises(ValueError, match="order 3 for letter 0, only 2 available"):
        centering_map(_necklaces_through(3), mu, [1.0, 0.5, 0.25, 0.1])
    with pytest.raises(ValueError, match="two-letter words"):
        centering_map([Word.empty(), Word.from_string("C")], mu, mu)
    with pytest.raises(ValueError, match="longer than 31 letters"):
        centering_map([Word.empty(), Word.from_string("A" * 32)], mu, mu)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_classical_joint_moment_block_permutation_invariant(data):
    blocks = data.draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=1), st.integers(min_value=1, max_value=3)),
        min_size=1, max_size=5))
    perm = data.draw(st.permutations(blocks))
    mu_a = [1, 0.2, 0.9, 0.4, 1.3, 0.1, 2.0, 0.3, 3.1, 0.2, 4.0, 1.0, 5.0, 1.0, 6.0, 1.0]
    mu_b = [1, -0.1, 0.8, 0.0, 1.9, 0.2, 2.4, 0.1, 3.3, 0.1, 4.4, 1.0, 5.5, 1.0, 6.6, 1.0]
    w1 = Word(tuple(blocks), 2)
    w2 = Word(tuple(perm), 2)
    assert classical_joint_moment(w1, mu_a, mu_b) == pytest.approx(
        classical_joint_moment(w2, mu_a, mu_b), rel=1e-12, abs=1e-12
    )


def test_sum_moment_free_small_orders():
    mu_a = [1, 0.3, 1.2, -0.1]
    mu_b = [1, -0.5, 0.9, 0.2]
    assert sum_moment_free(1, mu_a, mu_b) == pytest.approx(mu_a[1] + mu_b[1])
    want2 = mu_a[2] + 2 * mu_a[1] * mu_b[1] + mu_b[2]
    assert sum_moment_free(2, mu_a, mu_b) == pytest.approx(want2)


def test_sum_moment_free_matches_convolution_dual_path():
    mu = TWO_ATOM.moments(8)
    assert sum_moment_free(8, mu, mu) == 70

    rng = np.random.default_rng(19)
    for _ in range(25):
        mu_a = [1.0] + list(rng.uniform(-1, 1, size=8))
        mu_b = [1.0] + list(rng.uniform(-1, 1, size=8))
        conv = free_convolve(mu_a, mu_b)
        for n in range(9):
            assert sum_moment_free(n, mu_a, mu_b) == pytest.approx(conv[n], abs=1e-9)
