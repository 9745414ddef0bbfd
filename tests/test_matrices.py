import gc
import json
import math
import re
from functools import partial

import numpy as np
import pytest
from scipy import stats as scipy_stats

from partialfree.errors import ConfigError, InputError
from partialfree.matrices import (
    _VARIANTS,
    EnsembleSpec,
    MatrixPairSample,
    SplitTracePlan,
    SpectrumSample,
    chain_adjacency,
    column_stats,
    estimate_moments,
    estimate_word_net,
    haar_orthogonal,
    load_pair_file,
    pauli_block_matrices,
    random_permutation,
    sample_classical_sum_spectrum,
    sample_free_sum_spectrum,
    sample_pair,
    sample_sum_spectrum,
    sample_tables,
    stream,
    symmetric_eigenvalues,
    word_trace_table,
)
from partialfree.moments import centering_map
from partialfree.words import Word, word_expansion

from oracles import block_power_trace, chain_adjacency_loop, pauli_block_matrices_loop


def test_sampling_is_deterministic_and_streams_independent():
    spec = EnsembleSpec.goe(8, seed=123)
    a1 = sample_pair(spec, 3)
    a2 = sample_pair(spec, 3)
    assert np.array_equal(a1.a, a2.a) and np.array_equal(a1.b, a2.b)
    other = sample_pair(spec, 4)
    assert not np.array_equal(a1.a, other.a)


def test_pair_validation():
    with pytest.raises(ValueError):
        MatrixPairSample(np.array([[0.0, 1.0], [0.5, 0.0]]), np.eye(2))
    with pytest.raises(ValueError):
        MatrixPairSample(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        MatrixPairSample(np.array([[np.nan, 0.0], [0.0, 0.0]]), np.eye(2))


def test_gaussian_diagonal_is_diagonal():
    spec = EnsembleSpec.gaussian_diagonal(6, seed=1)
    pair = sample_pair(spec, 0)
    assert np.count_nonzero(pair.a - np.diag(np.diagonal(pair.a))) == 0
    assert np.count_nonzero(pair.b - np.diag(np.diagonal(pair.b))) == 0


def test_pauli_pair_properties():
    for dim in (6, 8, 12):
        a, b = pauli_block_matrices(dim)
        assert np.array_equal(a @ a, np.eye(dim))
        assert np.array_equal(b @ b, np.eye(dim))
        half = dim // 2
        ab = a @ b
        power = np.eye(dim)
        for k in range(1, half):
            power = power @ ab
            assert np.trace(power) == 0
        assert np.allclose(power @ ab, np.eye(dim))


def test_rotation_pair_eigenvalues():
    spec = EnsembleSpec.rotation_pair(seed=5)
    for i in range(5):
        pair = sample_pair(spec, i)
        assert np.linalg.eigvalsh(pair.a) == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert np.linalg.eigvalsh(pair.b) == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_ensemble_spec_validation():
    with pytest.raises(ConfigError):
        EnsembleSpec("pauli-block-pair", 7, 0)
    with pytest.raises(ConfigError):
        EnsembleSpec("unknown", 4, 0)
    with pytest.raises(ConfigError):
        EnsembleSpec("rotation-pair-2x2", 4, 0)


def test_haar_orthogonal_contract():
    rng = np.random.default_rng(0)
    q = haar_orthogonal(50, rng)
    assert np.abs(q.T @ q - np.eye(50)).max() < 1e-12

    # N = 1: signs +-1 with equal probability
    rng = np.random.default_rng(1)
    signs = [haar_orthogonal(1, rng)[0, 0] for _ in range(400)]
    assert set(np.unique(signs)) == {-1.0, 1.0}
    assert abs(np.mean(signs)) < 4 / math.sqrt(400)


def test_haar_first_column_matches_normalized_gaussian():
    # rotation invariance: the first column is a uniform point on the sphere,
    # matching a normalized Gaussian vector (two-sample KS on one coordinate)
    rng = np.random.default_rng(7)
    n = 6
    draws = 2000
    qs = haar_orthogonal(n, rng, size=draws)
    coords = qs[:, 0, 0]
    g = rng.standard_normal((draws, n))
    ref = g[:, 0] / np.linalg.norm(g, axis=1)
    result = scipy_stats.ks_2samp(coords, ref)
    assert result.pvalue > 0.01


def test_haar_batch_matches_single_shapes():
    rng = np.random.default_rng(3)
    batch = haar_orthogonal(4, rng, size=5)
    assert batch.shape == (5, 4, 4)
    for q in batch:
        assert np.abs(q.T @ q - np.eye(4)).max() < 1e-12


def test_random_permutation_contract():
    rng = np.random.default_rng(11)
    assert np.array_equal(random_permutation(1, rng), np.eye(1))
    p = random_permutation(7, rng)
    assert np.array_equal(p.sum(axis=0), np.ones(7))
    assert np.array_equal(p.sum(axis=1), np.ones(7))


def test_random_permutation_uniform():
    rng = np.random.default_rng(2)
    counts = {}
    draws = 6000
    for _ in range(draws):
        p = random_permutation(3, rng)
        key = tuple(int(np.argmax(row)) for row in p)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    # each permutation within 3 sigma of draws/6
    sigma = math.sqrt(draws * (1 / 6) * (5 / 6))
    for count in counts.values():
        assert abs(count - draws / 6) < 3.3 * sigma


def test_fixed_matrices_match_their_loop_oracles():
    for n in range(2, 13):
        for circulant in (True, False):
            assert np.array_equal(chain_adjacency(n, circulant),
                                  chain_adjacency_loop(n, circulant)), (n, circulant)
        if n % 2 == 0:
            for got, want in zip(pauli_block_matrices(n), pauli_block_matrices_loop(n)):
                assert np.array_equal(got, want), n


def test_symmetric_eigenvalues_examples():
    assert symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0])) == pytest.approx([1, 2, 3])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert symmetric_eigenvalues(sx) == pytest.approx([-1, 1])
    n = 8
    ev = symmetric_eigenvalues(chain_adjacency(n, circulant=True))
    want = np.sort(2 * np.cos(2 * np.pi * np.arange(n) / n))
    assert ev == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigenvalue_sum_matches_trace():
    rng = np.random.default_rng(4)
    for n in (3, 10, 40):
        g = rng.standard_normal((n, n))
        m = g + g.T
        ev = symmetric_eigenvalues(m)
        scale = n * np.abs(m).max()
        assert abs(ev.sum() - np.trace(m)) < 1e-9 * scale


def test_estimate_word_net_pauli_exact():
    spec = EnsembleSpec.pauli_block_pair(6)
    samples = [sample_pair(spec, i) for i in range(3)]
    est, se = estimate_word_net(samples, Word.from_string("AA"))
    assert est == 1.0 and se == 0.0
    est3, se3 = estimate_word_net(samples, Word.from_string("ABABAB"))
    assert est3 == pytest.approx(1.0, abs=1e-12)
    assert se3 == pytest.approx(0.0, abs=1e-9)
    # AA overflows: InputError naming its order, not inf
    huge = [MatrixPairSample(np.eye(2) * 1e200, np.eye(2))]
    with pytest.raises(InputError, match="order 2"):
        estimate_word_net(huge, Word.from_string("AA"))


@pytest.mark.parametrize("spec", [
    pytest.param(EnsembleSpec.goe(8, seed=5), id="goe"),
    pytest.param(EnsembleSpec.tridiagonal_adjacency(8, seed=6), id="chain"),
])
def test_estimate_word_net_se_is_the_sample_spread(spec):
    # the SE of the mean over the samples, the rule of the degree scan
    samples = [sample_pair(spec, i) for i in range(50)]
    word = Word.from_string("ABABAB")
    column = word_trace_table(samples, [word])[:, 0].copy()
    assert estimate_word_net(samples, word) == (column.mean(),
                                                column.std(ddof=1) / math.sqrt(50))


def test_column_stats_constant_column_has_zero_se():
    # 31 copies of 0.7 average to a rounded mean and a spread of about 2e-16;
    # a column that does not vary has SE 0, every other column std/sqrt(t)
    t = 31
    table = np.random.default_rng(4).standard_normal((t, 3))
    table[:, 1] = 0.7
    mean, se = column_stats(table)
    assert np.ascontiguousarray(table[:, 1]).std(ddof=1) > 0.0
    assert se[1] == 0.0
    for j in (0, 2):
        column = np.ascontiguousarray(table[:, j])
        assert mean[j] == column.mean()
        assert se[j] == column.std(ddof=1) / math.sqrt(t)


def test_estimate_word_net_repeated_pair_has_zero_se():
    g = np.random.default_rng(13).standard_normal((2, 5, 5))
    samples = [MatrixPairSample(*(g + g.transpose(0, 2, 1)) / np.sqrt(10))] * 31
    for word in ("AA", "AB", "AABB", "ABAB"):
        assert estimate_word_net(samples, Word.from_string(word))[1] == 0.0


def test_estimate_word_net_cross_word_near_zero():
    spec = EnsembleSpec.tridiagonal_adjacency(32, seed=9, circulant=True)
    samples = [sample_pair(spec, i) for i in range(600)]
    # tr(AB) vanishes identically here (zero diagonal of the adjacency)
    est, se = estimate_word_net(samples, Word.from_string("AB"))
    assert est == 0.0 and se == 0.0
    # ABAB fluctuates around zero
    est2, se2 = estimate_word_net(samples, Word.from_string("ABAB"))
    assert se2 > 0
    assert abs(est2) < 4 * se2


def test_estimate_word_net_similarity_invariance():
    spec = EnsembleSpec.goe(10, seed=21)
    samples = [sample_pair(spec, i) for i in range(4)]
    rng = np.random.default_rng(0)
    perm = random_permutation(10, rng)
    conjugated = [
        MatrixPairSample(perm.T @ s.a @ perm, perm.T @ s.b @ perm) for s in samples
    ]
    word = Word.from_string("AABAB")
    for s, c in zip(samples, conjugated):
        v1, _ = estimate_word_net([s], word)
        v2, _ = estimate_word_net([c], word)
        assert v1 == pytest.approx(v2, rel=1e-10, abs=1e-12)


def test_estimate_moments_constant_spectrum():
    spectra = [SpectrumSample(np.ones(4), "A") for _ in range(5)]
    est = estimate_moments(spectra, 3)
    assert est.values == pytest.approx([1, 1, 1, 1])
    assert est.se == pytest.approx([0, 0, 0, 0], abs=1e-12)


def test_estimate_moments_rotation_pair():
    spec = EnsembleSpec.rotation_pair(seed=2)
    spectra = [
        SpectrumSample(np.linalg.eigvalsh(sample_pair(spec, i).a), "A") for i in range(50)
    ]
    est = estimate_moments(spectra, 2)
    assert est.values[2] == pytest.approx(1.0, abs=1e-12)
    assert est.se[2] == pytest.approx(0.0, abs=1e-9)


def test_estimate_moments_takes_a_pool_as_it_is():
    # a (t, N) array and the list of its rows give the same estimate bit for bit
    pool = np.sort(np.random.default_rng(8).standard_normal((300, 7)), axis=1)
    for order in (1, 4):
        whole, rows = estimate_moments(pool, order), estimate_moments(list(pool), order)
        samples = estimate_moments([SpectrumSample(r, "A") for r in pool], order)
        for other in (rows, samples):
            assert np.array_equal(whole.values, other.values)
            assert np.array_equal(whole.se, other.se)
            assert whole.count == other.count == 300
    assert np.array_equal(estimate_moments(np.asfortranarray(pool), 3).values,
                          estimate_moments(list(pool), 3).values)


def test_free_sum_spectrum_basics():
    rng = np.random.default_rng(5)
    a = np.diag([1.0, 2.0, 5.0])
    zero = np.zeros((3, 3))
    spectrum = sample_free_sum_spectrum(MatrixPairSample(a, zero), rng)
    assert spectrum.eigenvalues == pytest.approx([1, 2, 5], abs=1e-12)
    assert spectrum.source == "free-rotated"

    spec = EnsembleSpec.goe(12, seed=3)
    for i in range(10):
        pair = sample_pair(spec, i)
        ea = np.linalg.eigvalsh(pair.a)
        eb = np.linalg.eigvalsh(pair.b)
        s = sample_free_sum_spectrum(pair, stream(3, i, 1)).eigenvalues
        assert s.min() >= ea.min() + eb.min() - 1e-9
        assert s.max() <= ea.max() + eb.max() + 1e-9


def test_classical_sum_spectrum_basics():
    rng = np.random.default_rng(6)
    a = np.diag([1.0, 2.0, 5.0])
    zero = np.zeros((3, 3))
    spectrum = sample_classical_sum_spectrum(MatrixPairSample(a, zero), rng)
    assert spectrum.eigenvalues == pytest.approx([1, 2, 5], abs=1e-12)
    assert spectrum.source == "permuted"


def test_classical_sum_diagonal_pairs_eigenvalues():
    # for diagonal pairs the law equals independently paired eigenvalue sums
    rng_model = np.random.default_rng(8)
    a = np.diag(rng_model.standard_normal(5))
    b = np.diag(rng_model.standard_normal(5))
    pair = MatrixPairSample(a, b)
    draws = 4000
    got = np.concatenate([
        sample_classical_sum_spectrum(pair, stream(99, i)).eigenvalues
        for i in range(draws)
    ])
    ea = np.sort(np.diagonal(a))
    eb = np.sort(np.diagonal(b))
    resampled = np.concatenate([
        np.sort(ea + eb[stream(360, i).permutation(5)]) for i in range(draws)
    ])
    result = scipy_stats.ks_2samp(got, resampled)
    assert result.pvalue > 0.01


def test_diagonal_eigenvalues_are_the_sorted_diagonal():
    # the classical sampler reads a diagonal matrix's spectrum off its
    # diagonal; at ordinary scales that is eigvalsh's answer bit for bit
    for n in (2, 16, 200):
        spec = EnsembleSpec.gaussian_diagonal(n, seed=n)
        for i in range(5):
            pair = sample_pair(spec, i)
            got = sample_classical_sum_spectrum(pair, stream(1, i)).eigenvalues
            perm = stream(1, i).permutation(n)
            want = np.sort(np.linalg.eigvalsh(pair.a) + np.linalg.eigvalsh(pair.b)[perm])
            assert np.array_equal(got, want)


def test_dense_spectra_batches_give_the_same_bits_wherever_they_are_cut(monkeypatch):
    # at n = 100 a stack holds 6 pairs and the buffer 5 + 6 matrices: the
    # stack of 4 that would not fit solves the 10 before it, and the stack
    # of 6 fills the buffer exactly, which the chunk's end solves
    from partialfree.matrices import _CELL_BUDGET
    from partialfree.spectra import DenseSpectra

    n, sizes = 100, [1, 4, 3, 2, 4, 1, 6]
    g = np.random.default_rng(31).standard_normal((sum(sizes), n, n))
    want = np.linalg.eigvalsh(g + np.swapaxes(g, 1, 2))
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or real(m))
    # rows in reverse, so each stack's values land away from its place in the batch
    rows = np.arange(len(g))[::-1]
    got = np.full_like(want, np.nan)
    spectra = DenseSpectra(n, _CELL_BUDGET // (n * n))
    start = 0
    for size in sizes:
        stack = g[rows[start:start + size]]
        np.add(stack, np.swapaxes(stack, 1, 2), out=spectra.slot(got, rows[start:start + size]))
        start += size
    spectra.flush()
    assert np.array_equal(got, want)
    assert calls == [(10, n, n), (11, n, n)]


def test_a_chunks_sums_and_rotated_sums_share_one_eigensolve(monkeypatch):
    # GOE at n = 16: a stack holds 256 pairs, so the buffer takes all 40 sums
    # and 40 rotated sums, and the chunk's end solves them in one call
    from partialfree.matrices import _FREE_STREAM

    spec = EnsembleSpec.goe(16, seed=41)
    t = 40
    pairs = [sample_pair(spec, i) for i in range(t)]
    want_sums = np.stack([np.linalg.eigvalsh(p.a + p.b) for p in pairs])
    want_free = np.stack([sample_free_sum_spectrum(p, stream(spec.seed, i, _FREE_STREAM, 0))
                          .eigenvalues for i, p in enumerate(pairs)])
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or real(m))
    tables = sample_tables(pairs.__getitem__, t, 16, [Word.empty()], with_sums=True,
                           seed=spec.seed, free_rotations=1)
    assert calls == [(2 * t, 16, 16)]
    assert np.array_equal(tables.sums, want_sums)
    assert np.array_equal(tables.free_pool, want_free)


def test_rotation_pair_classical_atoms():
    spec = EnsembleSpec.rotation_pair(seed=31)
    draws = 4000
    values = np.concatenate([
        sample_classical_sum_spectrum(sample_pair(spec, i), stream(31, i, 2)).eigenvalues
        for i in range(draws)
    ])
    weights = {
        atom: np.mean(np.abs(values - atom) < 0.25) for atom in (-2.0, 0.0, 2.0)
    }
    assert weights[-2.0] + weights[0.0] + weights[2.0] == pytest.approx(1.0)
    for atom, want in ((-2.0, 0.25), (0.0, 0.5), (2.0, 0.25)):
        sigma = math.sqrt(want * (1 - want) / draws)
        assert abs(weights[atom] - want) < 4 * sigma


def test_word_trace_table_centered_columns():
    spec = EnsembleSpec.gaussian_diagonal(12, seed=13)
    samples = [sample_pair(spec, i) for i in range(8)]
    words = [Word.empty(), Word.from_string("A"), Word.from_string("B"),
             Word.from_string("AB")]
    table = word_trace_table(samples, words)
    centered_table = table @ centering_map(words, [1.0, 0.5], [1.0, -0.25])
    for i, pair in enumerate(samples):
        da = np.diagonal(pair.a)
        db = np.diagonal(pair.b)
        raw = np.mean(da * db)
        centered = np.mean((da - 0.5) * (db + 0.25))
        assert table[i, 3] == pytest.approx(raw)
        assert centered_table[i, 3] == pytest.approx(centered)


def _goe_against_diagonal(i):
    # dense A against diagonal B: the least rotations start with A, and the
    # mixed kernel cuts each word at its B blocks
    pair = sample_pair(EnsembleSpec.goe(6, seed=47), i)
    return MatrixPairSample(pair.a, np.diag(stream(47, i).standard_normal(6)))


def _shared_diagonal(i):
    # one diagonal A for every pair, so it broadcasts against the dense B
    return MatrixPairSample(np.diag(stream(48, 0).standard_normal(6)),
                            sample_pair(EnsembleSpec.goe(6, seed=48), i).b)


def _diagonal_shared_by_pairs_0_and_1(i):
    # pairs 0 and 1 share a diagonal A, the run's letter, which pair 2's
    # differs from: the stack of all three holds its own A
    return MatrixPairSample(np.diag(stream(49, 0 if i < 2 else i).standard_normal(6)),
                            sample_pair(EnsembleSpec.goe(6, seed=49), i).b)


@pytest.mark.parametrize("draw", [
    pytest.param(partial(sample_pair, EnsembleSpec.goe(6, seed=41)), id="goe"),
    pytest.param(partial(sample_pair, EnsembleSpec.gaussian_diagonal(6, seed=42)),
                 id="gaussian-diagonal"),
    pytest.param(partial(sample_pair, EnsembleSpec.tridiagonal_adjacency(8, seed=43)),
                 id="tridiagonal-adjacency"),
    pytest.param(partial(sample_pair,
                         EnsembleSpec.tridiagonal_adjacency(8, seed=43, circulant=False)),
                 id="open-chain"),
    pytest.param(_goe_against_diagonal, id="goe-against-diagonal"),
    pytest.param(_shared_diagonal, id="shared-diagonal"),
    pytest.param(_diagonal_shared_by_pairs_0_and_1, id="diagonal-shared-by-pairs-0-and-1"),
])
def test_word_traces_match_block_power_oracle(draw):
    # raw kernel plus the centering map against explicit block products,
    # for every necklace through order 8
    samples = [draw(i) for i in range(3)]
    words = [Word.empty()] + [n.word for k in range(1, 9) for n in word_expansion(k, 2)]
    n = samples[0].dimension
    mu_a, mu_b = (
        np.mean([[np.trace(np.linalg.matrix_power(m, e)) / n for e in range(9)]
                 for m in matrices], axis=0)
        for matrices in ([p.a for p in samples], [p.b for p in samples])
    )
    raw = word_trace_table(samples, words)
    centered = raw @ centering_map(words, mu_a, mu_b)
    for i, pair in enumerate(samples):
        for j, word in enumerate(words):
            want = block_power_trace(word.blocks, pair.a, pair.b)
            assert abs(raw[i, j] - want) <= 1e-10 * max(1.0, abs(want)), word
            want = block_power_trace(word.blocks, pair.a, pair.b, (mu_a, mu_b))
            assert abs(centered[i, j] - want) <= 1e-10 * max(1.0, abs(want)), word


@pytest.mark.parametrize("draw", [
    pytest.param(partial(sample_pair, EnsembleSpec.tridiagonal_adjacency(8, seed=43)),
                 id="tridiagonal-adjacency"),
    pytest.param(_goe_against_diagonal, id="goe-against-diagonal"),
    pytest.param(partial(sample_pair, EnsembleSpec.goe(6, seed=41)), id="goe"),
])
def test_mixed_kernel_reads_reversed_products(draw):
    # from order 10 on, a word may need a sandwich product in the reverse of
    # the orientation it is kept in (ABABABBABB reads pieces 2, 1, 1 of the
    # product kept as 1, 1, 2), which the kernel takes as the transpose
    samples = [draw(i) for i in range(3)]
    words = [n.word for n in word_expansion(10, 2) if len(n.word.blocks) >= 6]
    raw = word_trace_table(samples, words)
    for i, pair in enumerate(samples):
        for j, word in enumerate(words):
            want = block_power_trace(word.blocks, pair.a, pair.b)
            assert abs(raw[i, j] - want) <= 1e-10 * max(1.0, abs(want)), word


def test_each_word_is_traced_in_one_place():
    # the empty word, X^k and A^a B^b (at most one block of each letter) are
    # traced by the pass itself; the kernel takes only the longer words
    from partialfree.analysis import _table_words

    words = _table_words(10)
    longer = [j for j, word in enumerate(words) if len(word.blocks) >= 4]
    assert len(words) - len(longer) == 66
    for cut_letter in (0, 1):
        groups = SplitTracePlan(words, cut_letter).groups
        assert sorted(column for *_, entries in groups for *_, column in entries) == longer


_SANDWICH_DRAWS = {"": partial(sample_pair, EnsembleSpec.tridiagonal_adjacency(8, seed=43)),
                   "goe-": partial(sample_pair, EnsembleSpec.goe(8, seed=41))}


@pytest.mark.parametrize("draw, order, products", [
    pytest.param(draw, order, products, id=f"{name}{order}-{products}")
    for name, draw in _SANDWICH_DRAWS.items() for order, products in [(8, 2), (10, 6), (12, 16)]
])
def test_split_kernel_builds_each_sandwich_product_once(monkeypatch, draw, order, products):
    # one stack of pairs: every product M^b D^a M^b' ... that the groups
    # need is built once and then reused, in either orientation
    from partialfree import matrices
    from partialfree.analysis import _table_words

    product, builds, memos = matrices._product, [], []

    def counted(pieces, pd, pm, built):
        key = matrices._least(pieces)
        kept = built.get(key)
        out = product(pieces, pd, pm, built)
        builds.append(len(pieces) > 1 and built[key] is not kept)
        memos.append(built)
        return out

    monkeypatch.setattr(matrices, "_product", counted)
    sample_tables(draw, 3, 8, _table_words(order))
    assert (sum(builds), len(memos[-1])) == (products, products)
    assert all(memo is memos[0] for memo in memos)


@pytest.mark.parametrize("spec", [
    EnsembleSpec.goe(16, seed=4), EnsembleSpec.goe(200, seed=4),
    EnsembleSpec.gaussian_diagonal(16, seed=4), EnsembleSpec.tridiagonal_adjacency(16, seed=4),
    EnsembleSpec.pauli_block_pair(6), EnsembleSpec.pauli_block_pair(12),
], ids=lambda spec: f"{spec.variant}{spec.dimension}")
def test_pass_sums_are_the_public_sum_spectra(spec):
    # the pass solves dense sums in batches and sorts diagonal ones; each row
    # is still, bit for bit, the spectrum of that pair's sum on its own
    sums = sample_tables(partial(sample_pair, spec), 6, spec.dimension, [],
                         with_sums=True).sums
    for i in range(6):
        want = sample_sum_spectrum(sample_pair(spec, i))
        assert want.source == "A+B"
        assert np.array_equal(sums[i], want.eigenvalues), i


def test_diagonal_stacks_trace_letter_counts():
    # diagonal letters commute: each longer word of an all-diagonal stack is
    # traced as A^alpha B^beta, its letter counts
    from partialfree.analysis import _table_words

    draw = partial(sample_pair, EnsembleSpec.gaussian_diagonal(6, seed=42))
    words = _table_words(10)
    traces = sample_tables(draw, 3, 6, words).traces
    for j, word in enumerate(words):
        if len(word.blocks) >= 4:
            counts = [sum(e for letter, e in word.blocks if letter == x) for x in (0, 1)]
            short = words.index(Word(((0, counts[0]), (1, counts[1])), 2))
            assert np.array_equal(traces[:, j], traces[:, short]), word
    for i in range(3):
        pair = draw(i)
        want = np.mean(np.diagonal(pair.a) ** 3 * np.diagonal(pair.b) ** 3)
        assert traces[i, words.index(Word.from_string("ABABAB"))] == pytest.approx(want)


def test_shared_chain_letter_is_built_and_solved_once_per_pass(monkeypatch):
    # example19's chain B is the same in every pair: it is built into one
    # _Powers, powers and eigenvalues filled before the pool, and the pool
    # threads only read it
    import threading

    from partialfree import matrices
    from partialfree.analysis import _table_words

    n, t = 200, 8
    spec = EnsembleSpec.tridiagonal_adjacency(n, seed=44)
    chain = chain_adjacency(n)
    words = _table_words(6)
    built, filled, solved = [], [], []

    class Counted(matrices._Powers):
        def __init__(self, stack, diagonal):
            super().__init__(stack, diagonal)
            built.append(self)

        def power(self, e):
            if e not in self.cache:
                filled.append((self, threading.get_ident()))
            return super().power(e)

        def eigenvalues(self):
            if self._eigenvalues is None:
                filled.append((self, threading.get_ident()))
            return super().eigenvalues()

    real = np.linalg.eigvalsh

    def counted(m):
        if m.shape == (1, n, n) and np.array_equal(m[0], chain):
            solved.append(1)
        return real(m)

    monkeypatch.setattr(matrices, "_Powers", Counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    tables = sample_tables(partial(sample_pair, spec), t, n, words, threads=2,
                           with_sums=True, seed=spec.seed, free_rotations=1,
                           with_classical=True)
    chains = [p for p in built if np.array_equal(p.matrices, chain[None])]
    assert len(chains) == 1
    assert len(solved) == 1
    main = threading.get_ident()
    assert {ident for p, ident in filled if p is chains[0]} == {main}
    assert len({ident for _, ident in filled} - {main}) == 2  # the pool ran

    monkeypatch.setattr(np.linalg, "eigvalsh", real)
    serial = sample_tables(partial(sample_pair, spec), t, n, words, threads=1,
                           with_sums=True, seed=spec.seed, free_rotations=1,
                           with_classical=True)
    for field in ("traces", "sums", "free_pool", "classical_pool"):
        assert np.array_equal(getattr(tables, field), getattr(serial, field)), field


def test_late_shared_letter_gives_the_bits_of_its_own_pairs(monkeypatch):
    # CI's late-B file: pair 0 has its own B and pairs 1-39 share one, so no
    # letter is the run's, and a later stack whose every B is equal holds its own
    from partialfree import matrices
    from partialfree.analysis import _table_words

    n, t = 48, 40
    g = np.random.default_rng(37).standard_normal((t + 2, n, n))
    s = (g + g.transpose(0, 2, 1)) / np.sqrt(2 * n)
    pairs = [MatrixPairSample(a, s[t + 1] if i == 0 else s[t]) for i, a in enumerate(s[:t])]
    words = _table_words(8)

    def tables(threads):
        return sample_tables(pairs.__getitem__, t, n, words, threads=threads,
                             with_sums=True, seed=37, free_rotations=1, with_classical=True)

    fields = ("traces", "sums", "free_pool", "classical_pool")
    want = tables(1)
    runs = [tables(2)]
    monkeypatch.setattr(matrices, "_CELL_BUDGET", n * n)  # one pair per stack
    runs += [tables(1), tables(2)]
    for got in runs:
        for field in fields:
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
    for i, pair in enumerate(pairs):
        assert np.array_equal(want.traces[i], word_trace_table([pair], words)[0]), i


def test_no_seed_letter_is_held_once_the_pass_draws(monkeypatch):
    # the letters that pairs 0 and 1 share are found before the pool; what
    # was drawn to find them is released before the pass draws pair 2
    import weakref

    from partialfree import matrices
    from partialfree.analysis import _table_words

    n, t = 200, 4
    spec = EnsembleSpec.tridiagonal_adjacency(n, seed=45)
    seeds, stacks, alive = [], [], []

    class Spied(matrices._Powers):
        def __init__(self, stack, diagonal):
            super().__init__(stack, diagonal)
            if len(stack) == 2:
                stacks.append(weakref.ref(self))

    def draw(i):
        if i == 2 and not alive:
            alive.append([r for r in seeds + stacks if r() is not None])
        pair = sample_pair(spec, i)
        if len(seeds) < 2:
            seeds.append(weakref.ref(pair))
        return pair

    monkeypatch.setattr(matrices, "_Powers", Spied)
    sample_tables(draw, t, n, _table_words(6), with_sums=True)
    assert len(seeds) == 2
    assert alive == [[]]


def _zeroed_copy_flags(stack):
    off = stack.copy()
    i = np.arange(stack.shape[-1])
    off[:, i, i] = 0.0
    return ~off.any(axis=(1, 2))


def test_diagonal_flags_read_the_off_diagonal_entries_only():
    from partialfree.matrices import _diagonal_flags

    stacks = []
    for n in (1, 2, 3, 5):
        # one nonzero entry at each place in turn, then the zero matrix
        single = np.zeros((n * n + 1, n, n))
        single.reshape(n * n + 1, n * n)[np.arange(n * n), np.arange(n * n)] = 7.0
        stacks.append(single)
    signed = np.zeros((3, 2, 2))
    signed[0, 0, 1] = -0.0
    signed[1, 1, 0] = np.nan
    signed[2, 1, 1] = np.nan
    stacks.append(signed)
    rng = np.random.default_rng(45)
    mixed = rng.standard_normal((6, 5, 5))
    mixed[::2] = [np.diag(np.diag(m)) for m in mixed[::2]]
    stacks.append(mixed)
    for stack in stacks:
        assert np.array_equal(_diagonal_flags(stack), _zeroed_copy_flags(stack))
    assert _diagonal_flags(signed).tolist() == [True, False, True]
    assert _diagonal_flags(mixed).tolist() == [True, False] * 3

    # a pair built from transposed arrays holds them column-major; the pass
    # traces it as its row-major copy, bit for bit
    g = rng.standard_normal((2, 6, 6))
    dense = g[0] + g[0].T
    diagonal = np.diag(g[1][0])
    for b in (diagonal, dense):
        pair = MatrixPairSample(dense.T, b.T)
        assert pair.a.flags.f_contiguous and not pair.a.flags.c_contiguous
        for m in (pair.a, pair.b):
            assert np.array_equal(_diagonal_flags(m[None]), _zeroed_copy_flags(m[None]))
        words = [Word.from_string(s) for s in ("A", "AB", "AABB", "ABAB", "AABAB", "ABBABB")]
        copy = MatrixPairSample(np.ascontiguousarray(dense), np.ascontiguousarray(b))
        assert np.array_equal(word_trace_table([pair], words), word_trace_table([copy], words))


def test_sampling_pass_leaves_no_cyclic_garbage():
    # each stack's letters, powers and products are freed by reference
    # counting as soon as the stack is done; a reference cycle would keep
    # its (c, n, n) arrays alive until the cyclic collector runs
    from partialfree.analysis import _table_words

    words = _table_words(10)
    runs = [(partial(sample_pair, EnsembleSpec.tridiagonal_adjacency(8, seed=43)), 8),
            (partial(sample_pair, EnsembleSpec.goe(6, seed=41)), 6)]
    for draw, n in runs:
        sample_tables(draw, 3, n, words, threads=1)
    gc.collect()
    gc.disable()
    try:
        for draw, n in runs:
            sample_tables(draw, 3, n, words, threads=1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_table_words_are_least_rotations():
    # the sampling pass takes the scan's words as given
    from partialfree.analysis import _table_words

    for order in range(1, 13):
        for word in _table_words(order):
            assert word == word.canonical(), word


def test_word_trace_table_canonicalizes_rotated_words():
    spec = EnsembleSpec.goe(5, seed=44)
    samples = [sample_pair(spec, i) for i in range(6)]
    rotated = [Word.from_string(w) for w in ("BA", "BBA", "BAA", "BABA", "BBAAB", "ABBAB")]
    least = [Word.from_string(w) for w in ("AB", "ABB", "AAB", "ABAB", "AABBB", "ABABB")]
    assert [w.canonical() for w in rotated] == least
    assert np.array_equal(word_trace_table(samples, rotated), word_trace_table(samples, least))


def test_word_trace_table_builds_high_powers_without_recursion():
    # A^1500 is 1499 products built upward in a loop; the spectral radius of
    # A is 1.0005, so every trace stays within double range
    spec = EnsembleSpec.goe(3, seed=46)
    samples = []
    for i in range(4):
        pair = sample_pair(spec, i)
        radius = np.abs(np.linalg.eigvalsh(pair.a)).max()
        samples.append(MatrixPairSample(pair.a * (1.0005 / radius), pair.b))
    got = word_trace_table(samples, [Word.from_string("A" * 1500)])[:, 0]
    want = np.array([np.sum(np.linalg.eigvalsh(p.a) ** 1500) / 3 for p in samples])
    assert np.allclose(got, want, rtol=1e-9, atol=0.0)


def test_word_trace_table_rejects_a_third_letter():
    samples = [sample_pair(EnsembleSpec.goe(4, seed=45), 0)]
    with pytest.raises(ValueError, match="word estimation supports the two-letter alphabet"):
        word_trace_table(samples, [Word.from_string("ABC")])


def test_pass_raises_the_error_a_serial_loop_meets_first():
    # each pair is checked as it is drawn, before the next is drawn, and the
    # letters shared by pairs 0 and 1 are drawn the same way before the pool
    good, small = (MatrixPairSample(np.eye(n), np.eye(n)) for n in (3, 2))

    def draw(i, bad):
        if i == 1 and 0 in bad:
            raise InputError("pair 1 unreadable")
        return small if i in bad else good

    for bad, first in (({0}, 0), ({2, 6}, 2), ({6}, 6)):
        for threads in (1, 2):
            with pytest.raises(ValueError, match=f"sample {first} has dimension 2, expected 3"):
                sample_tables(partial(draw, bad=bad), 8, 3, [Word.empty()], threads)


def test_load_pair_file_sees_rewritten_file(tmp_path):
    path = tmp_path / "pairs.jsonl"
    record = json.dumps({"A": [[1.0]], "B": [[2.0]]})
    path.write_text(record + "\n")
    assert len(load_pair_file(str(path))) == 1
    path.write_text((record + "\n") * 3)
    assert len(load_pair_file(str(path))) == 3


def test_file_cache_keeps_only_the_latest_path(tmp_path):
    from partialfree.matrices import _file_cache

    record = json.dumps({"A": [[1.0]], "B": [[2.0]]}) + "\n"
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    first.write_text(record)
    second.write_text(record * 2)
    assert len(load_pair_file(str(first))) == 1
    assert len(load_pair_file(str(second))) == 2
    assert list(_file_cache) == [str(second)]


def test_convergence_rate_of_word_se():
    # quadrupling the sample count should halve the standard error
    spec = EnsembleSpec.tridiagonal_adjacency(32, seed=23, circulant=True)
    word = Word.from_string("ABABABAB")
    small = [sample_pair(spec, i) for i in range(200)]
    large = [sample_pair(spec, i) for i in range(800)]
    _, se_small = estimate_word_net(small, word)
    _, se_large = estimate_word_net(large, word)
    ratio = se_small / se_large
    assert 2 / 1.5 < ratio < 2 * 1.5


def test_from_file_round_trip(tmp_path):
    path = tmp_path / "pairs.jsonl"
    rng = np.random.default_rng(1)
    records = []
    for _ in range(3):
        g = rng.standard_normal((3, 3))
        a = (g + g.T) / 2
        records.append({"A": a.tolist(), "B": np.diag(rng.standard_normal(3)).tolist()})
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    spec = EnsembleSpec.from_file(str(path))
    assert spec.dimension == 3
    pair = sample_pair(spec, 2)
    assert pair.a == pytest.approx(np.array(records[2]["A"]))
    with pytest.raises(InputError):
        sample_pair(spec, 3)


@pytest.mark.parametrize("variant", list(_VARIANTS))
def test_sample_pair_refuses_a_negative_index(tmp_path, variant):
    # checked before any draw or file read (the path names no file): a
    # file's records would be read from the end, numpy refuses the seed
    # key, and the Pauli pair takes any index
    spec = EnsembleSpec(variant, 2, 0, path=str(tmp_path / "missing.jsonl"))
    for index in (-1, -2):
        with pytest.raises(ValueError, match=f"sample index must be >= 0, got {index}"):
            sample_pair(spec, index)


def test_from_file_errors_carry_line_numbers(tmp_path):
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text('{"A": [[0]], "B": [[0]]}\nnot json\n')
    with pytest.raises(InputError, match="line 2"):
        EnsembleSpec.from_file(str(bad_json))

    asym = tmp_path / "asym.jsonl"
    asym.write_text('{"A": [[0, 1], [0.5, 0]], "B": [[0, 0], [0, 0]]}\n')
    with pytest.raises(InputError, match="line 1"):
        EnsembleSpec.from_file(str(asym))

    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text('{"A": [[0]], "B": [[0]]}\n{"A": [[0, 0], [0, 0]], "B": [[0, 0], [0, 0]]}\n')
    with pytest.raises(InputError, match="line 2"):
        EnsembleSpec.from_file(str(mixed))

    with pytest.raises(InputError):
        EnsembleSpec.from_file(str(tmp_path / "missing.jsonl"))


def _generated_specs():
    for n in (1, 3, 8):
        yield EnsembleSpec.goe(n, seed=n)
        yield EnsembleSpec.gaussian_diagonal(n, seed=n)
        yield EnsembleSpec.tridiagonal_adjacency(n, seed=n, circulant=True)
        yield EnsembleSpec.tridiagonal_adjacency(n, seed=n, circulant=False)
    for n in (2, 4, 10):
        yield EnsembleSpec.pauli_block_pair(n)
    yield EnsembleSpec.rotation_pair(seed=3)


@pytest.mark.parametrize("spec", list(_generated_specs()),
                         ids=lambda s: f"{s.variant}-{s.dimension}-{s.circulant}")
def test_generated_pairs_pass_the_checks_they_skip(spec):
    # sample_pair builds these pairs without MatrixPairSample's checks
    n = spec.dimension
    for i in range(200):
        pair = sample_pair(spec, i)
        for m in (pair.a, pair.b):
            assert m.dtype == np.float64 and m.shape == (n, n)
            assert np.isfinite(m).all()
            assert np.array_equal(m, m.T)
        checked = MatrixPairSample(pair.a, pair.b)
        assert checked.a is pair.a and checked.b is pair.b


def _goe_lines(count=35, n=3, seed=5):
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(count):
        ga, gb = rng.standard_normal((2, n, n))
        lines.append(json.dumps({"A": ((ga + ga.T) / 2).tolist(),
                                 "B": ((gb + gb.T) / 2).tolist()}).encode())
    return lines


_NEWLINE_COPIES = {
    "lf": (b"", b"\n"),
    "bom-lf": (b"\xef\xbb\xbf", b"\n"),
    "crlf": (b"", b"\r\n"),
    "bom-crlf": (b"\xef\xbb\xbf", b"\r\n"),
    "cr": (b"", b"\r"),
}


@pytest.mark.parametrize("copy", sorted(_NEWLINE_COPIES))
def test_line_endings_and_byte_order_mark_read_alike(tmp_path, copy):
    bom, eol = _NEWLINE_COPIES[copy]
    lines = _goe_lines()
    plain = tmp_path / "plain.jsonl"
    plain.write_bytes(b"\n".join(lines) + b"\n")
    want = load_pair_file(str(plain))
    path = tmp_path / f"{copy}.jsonl"
    path.write_bytes(bom + eol.join(lines) + eol)
    got = load_pair_file(str(path))
    assert len(got) == len(want) == 35
    for g, w in zip(got, want):
        assert np.array_equal(g.a, w.a) and np.array_equal(g.b, w.b)

    for bad, message in ((b"not json", "invalid JSON"),
                         (b'{"A": [[1.0]], "B": [[2.\xff]]}', "not UTF-8 text (byte 0xff)")):
        broken = tmp_path / f"{copy}-broken.jsonl"
        broken.write_bytes(bom + eol.join(lines[:4] + [bad] + lines[5:]) + eol)
        with pytest.raises(InputError, match=rf"line 5: {re.escape(message)}"):
            load_pair_file(str(broken))


def test_byte_order_mark_is_stripped_from_line_one_only(tmp_path):
    line = json.dumps({"A": [[1.0]], "B": [[2.0]]}).encode()
    path = tmp_path / "pairs.jsonl"
    path.write_bytes(line + b"\n\xef\xbb\xbf" + line + b"\n")
    with pytest.raises(InputError, match="line 2: invalid JSON"):
        load_pair_file(str(path))
