import json
import math
import re

import numpy as np
import pytest
from scipy import stats as scipy_stats

from partialfree.errors import ConfigError, InputError
from partialfree.matrices import (
    EnsembleSpec,
    MatrixPairSample,
    SpectrumSample,
    chain_adjacency,
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
    stream,
    symmetric_eigenvalues,
    word_trace_table,
)
from partialfree.moments import centering_map
from partialfree.words import Word, word_expansion

from oracles import block_power_trace


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
    # the doubled word AA overflows: InputError naming its order, not inf
    huge = [MatrixPairSample(np.eye(2) * 1e200, np.eye(2))]
    with pytest.raises(InputError, match="order 2"):
        estimate_word_net(huge, Word.from_string("A"))


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


@pytest.mark.parametrize("spec", [
    EnsembleSpec.goe(6, seed=41),
    EnsembleSpec.gaussian_diagonal(6, seed=42),
    EnsembleSpec.tridiagonal_adjacency(8, seed=43),
], ids=lambda spec: spec.variant)
def test_word_traces_match_block_power_oracle(spec):
    # raw kernel plus the centering map against explicit block products,
    # for every necklace through order 8
    samples = [sample_pair(spec, i) for i in range(3)]
    words = [Word.empty()] + [n.word for k in range(1, 9) for n in word_expansion(k, 2)]
    n = spec.dimension
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
