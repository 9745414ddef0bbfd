"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  The heavyweight fixtures (the 2x2 rotation ensemble at
t = 100000 and the 200-site chain at t = 500) are built once per module
and shared between the criteria that reference them.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from partialfree.analysis import AnalysisConfig, _trapz, ks_statistic, run_analysis
from partialfree.matrices import (
    EnsembleSpec,
    estimate_moments,
    estimate_word_net,
    sample_classical_sum_spectrum,
    sample_free_sum_spectrum,
    sample_pair,
    stream,
)
from partialfree.moments import (
    AtomicMeasure,
    arcsine_cdf,
    classical_convolve,
    classical_cumulants_from_moments,
    free_convolve,
    free_cumulants_from_moments,
    moments_from_classical_cumulants,
    moments_from_free_cumulants,
    sum_moment_free,
)
from partialfree.pathsum import (
    LatticeModel,
    boundary_corrected_word_net,
    exact_word_net,
    gaussian_entry_moments,
)
from partialfree.words import Word, enumerate_necklaces, necklace_count, word_expansion

from oracles import rotation_classes_bytes, site_sum_word_net

TWO_ATOM = AtomicMeasure(((Fraction(-1), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))))


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def arcsine_free_run():
    """t = 100000 Haar-rotated 2x2 spectra, generated single-threaded and timed."""
    t = 100_000
    seed = 7
    spec = EnsembleSpec.rotation_pair(seed=seed)
    start = time.perf_counter()
    eigs = np.empty((t, 2))
    for i in range(t):
        pair = sample_pair(spec, i)
        eigs[i] = sample_free_sum_spectrum(pair, stream(seed, i, 1)).eigenvalues
    moments = estimate_moments(eigs, 4)
    elapsed = time.perf_counter() - start
    return {"eigs": eigs, "moments": moments, "elapsed": elapsed, "t": t}


@pytest.fixture(scope="module")
def example19_report():
    spec = EnsembleSpec.tridiagonal_adjacency(200, seed=7, circulant=True)
    config = AnalysisConfig(ensemble=spec, sample_count=500, order=8, alpha=0.01,
                            threads=2)
    start = time.perf_counter()
    report = run_analysis(config)
    elapsed = time.perf_counter() - start
    return report, elapsed


# ---------------------------------------------------------------------------
# criteria


@pytest.mark.slow
def test_criterion_01_arcsine_law(arcsine_free_run):
    data = arcsine_free_run
    distance = ks_statistic(data["eigs"].ravel(), arcsine_cdf)
    assert distance < 0.01
    moments = data["moments"]
    assert abs(moments.values[2] - 2.0) <= 3 * moments.se[2]
    assert abs(moments.values[4] - 6.0) <= 3 * moments.se[4]
    assert data["elapsed"] < 30.0


def test_criterion_02_classical_convolution_atoms():
    t = 100_000
    seed = 11
    spec = EnsembleSpec.rotation_pair(seed=seed)
    values = np.empty((t, 2))
    for i in range(t):
        pair = sample_pair(spec, i)
        values[i] = sample_classical_sum_spectrum(pair, stream(seed, i, 2)).eigenvalues
    flat = values.ravel()
    for atom, want in ((-2.0, 0.25), (0.0, 0.5), (2.0, 0.25)):
        weight = float(np.mean(np.abs(flat - atom) < 0.25))
        sigma = math.sqrt(want * (1 - want) / t)
        assert abs(weight - want) <= 3 * sigma, (atom, weight)


def test_criterion_03_exact_free_moments():
    mu = TWO_ATOM.moments(12)
    exact = free_convolve(mu, mu)
    for n in range(7):
        assert exact[2 * n] == math.comb(2 * n, n)
    assert all(exact[k] == 0 for k in range(1, 13, 2))

    floats = free_convolve([float(v) for v in mu], [float(v) for v in mu])
    for n in range(7):
        assert abs(floats[2 * n] - math.comb(2 * n, n)) < 1e-12


@pytest.mark.slow
def test_criterion_04_example19_pipeline(example19_report):
    report, elapsed = example19_report
    assert elapsed < 300.0

    rows = {row.order: row for row in report.moments}
    for order, want in ((2, 3.0), (4, 17.0), (6, 125.0), (8, 1099.0)):
        row = rows[order]
        assert abs(row.estimate - want) <= 3 * row.se, (order, row.estimate, row.se)

    assert report.degree == 8

    flagged = [w for w in report.words if w.flagged_free]
    assert [w.word.to_string() for w in flagged] == ["ABABABAB"]
    stat = flagged[0]
    walk_value = float(exact_word_net(Word.from_string("ABABABAB"),
                                      LatticeModel.chain(200, gaussian_entry_moments(8))))
    assert walk_value == 2.0
    assert abs(stat.centered_estimate - walk_value) <= 3 * stat.centered_se


def test_criterion_05_pauli_determinism():
    for half in (3, 4, 5, 6):
        dim = 2 * half
        spec = EnsembleSpec.pauli_block_pair(dim)
        pair = sample_pair(spec, 0)
        ab = pair.a @ pair.b
        power = np.eye(dim)
        for k in range(1, half):
            power = power @ ab
            assert np.trace(power) == 0.0, (half, k)
        samples = [sample_pair(spec, i) for i in range(32)]
        word = Word(((0, 1), (1, 1)) * half, 2)
        net, se = estimate_word_net(samples, word)
        assert net == 1.0 and se == 0.0

        from partialfree.analysis import detect_degree

        result = detect_degree(samples, dim, 0.01)
        assert result.degree == dim, half


@pytest.mark.slow
def test_criterion_06_combinatorics_brute_force():
    for k in (1, 2, 3):
        for n in range(1, 15):
            necklaces = enumerate_necklaces(n, k)
            assert len(necklaces) == necklace_count(n, k)
            assert sum(m.multiplicity for m in necklaces) == k**n
            classes = rotation_classes_bytes(n, k)
            got = {bytes(m.word.symbols): m.multiplicity for m in necklaces}
            assert got == classes, (n, k)
    six_two = {m.word.to_string(): m.multiplicity for m in enumerate_necklaces(6, 2)}
    assert six_two["AABAAB"] == 3


def test_criterion_07_dual_path_consistency():
    rng = np.random.default_rng(123)
    for _ in range(100):
        mu_a = [1.0] + list(rng.uniform(-1, 1, size=8))
        mu_b = [1.0] + list(rng.uniform(-1, 1, size=8))
        conv = free_convolve(mu_a, mu_b)
        for n in range(1, 9):
            assert abs(sum_moment_free(n, mu_a, mu_b) - conv[n]) < 1e-9

    specs = [
        EnsembleSpec.goe(40, seed=5),
        EnsembleSpec.gaussian_diagonal(32, seed=6),
        EnsembleSpec.tridiagonal_adjacency(64, seed=7, circulant=True),
        EnsembleSpec.pauli_block_pair(20),
        EnsembleSpec.rotation_pair(seed=8),
    ]
    t = 300
    order = 8
    for spec in specs:
        m_a = np.empty((t, order + 1))
        m_b = np.empty((t, order + 1))
        free_eigs = np.empty((t, spec.dimension))
        from partialfree.matrices import per_sample_moments

        for i in range(t):
            pair = sample_pair(spec, i)
            m_a[i] = per_sample_moments(np.linalg.eigvalsh(pair.a), order)[0]
            m_b[i] = per_sample_moments(np.linalg.eigvalsh(pair.b), order)[0]
            free_eigs[i] = sample_free_sum_spectrum(pair, stream(spec.seed, i, 1)).eigenvalues
        predicted = np.array(free_convolve(m_a.mean(axis=0).tolist(),
                                           m_b.mean(axis=0).tolist()))
        # jackknife SE of the prediction
        tot_a, tot_b = m_a.sum(axis=0), m_b.sum(axis=0)
        loo = np.empty((t, order + 1))
        for i in range(t):
            loo[i] = free_convolve(((tot_a - m_a[i]) / (t - 1)).tolist(),
                                   ((tot_b - m_b[i]) / (t - 1)).tolist())
        pred_se = np.sqrt((t - 1) / t * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))
        sampled = estimate_moments(free_eigs, order)
        for k in range(1, order + 1):
            combined = math.hypot(sampled.se[k], pred_se[k])
            assert abs(sampled.values[k] - predicted[k]) <= 3 * combined + 1e-9, (
                spec.variant, k)


def test_criterion_08_pathsum_oracle():
    moments = gaussian_entry_moments(8)
    for n in range(2, 11):
        for circulant in (False, True):
            model = LatticeModel.chain(n, moments, circulant=circulant)
            for length in range(1, 9):
                for necklace in word_expansion(length, 2):
                    got = exact_word_net(necklace.word, model)
                    want = site_sum_word_net(necklace.word, model.adjacency, moments)
                    assert got == want, (n, circulant, necklace.word.to_string())
    for n in range(2, 11):
        open_model = LatticeModel.chain(n, moments, circulant=False)
        got = boundary_corrected_word_net(Word.from_string("ABABABAB"), open_model)
        assert got == Fraction(2) - Fraction(2, n)


@pytest.mark.slow
def test_criterion_09_edgeworth_correction(example19_report):
    report, _ = example19_report
    d = report.densities
    grid = np.array(d["grid"])
    f_sum = np.array(d["f_sum"])
    f_free = np.array(d["f_free"])
    f_corrected = np.array(d["f_corrected"])
    f_derivative = np.array(d["f_derivative"])
    delta_mu = d["delta_mu"]
    p = d["derivative_order"]
    assert p == 8

    l1_base = _trapz(np.abs(f_free - f_sum), grid)
    l1_corrected = _trapz(np.abs(f_corrected - f_sum), grid)
    assert l1_corrected < l1_base

    # the unclipped correction integrates x^p to exactly the applied mismatch
    term = ((-1.0) ** p * delta_mu / math.factorial(p)) * f_derivative
    recovered = _trapz(grid**p * term, grid)
    assert abs(recovered - delta_mu) <= 0.02 * abs(delta_mu)


def test_criterion_10_word_se_convergence():
    spec = EnsembleSpec.tridiagonal_adjacency(64, seed=17, circulant=True)
    word = Word.from_string("ABABABAB")
    small = [sample_pair(spec, i) for i in range(400)]
    large = [sample_pair(spec, i) for i in range(1600)]
    _, se_small = estimate_word_net(small, word)
    _, se_large = estimate_word_net(large, word)
    ratio = se_small / se_large
    assert 2 / 1.5 <= ratio <= 2 * 1.5


def test_criterion_11_round_trips():
    rng = np.random.default_rng(31)
    for _ in range(20):
        mu = [1.0] + list(rng.uniform(-1, 1, size=12))
        back = moments_from_free_cumulants(free_cumulants_from_moments(mu))
        assert max(abs(a - b) for a, b in zip(mu, back)) < 1e-9
        # classical cumulants reach ~(n-1)! mu_1^n, so the float interface
        # pins full-range order-12 checks at ~1e-8; half scale keeps the
        # identity test meaningful (the exact mode below has no tolerance)
        mu_c = [1.0] + list(0.5 * rng.uniform(-1, 1, size=12))
        back_c = moments_from_classical_cumulants(classical_cumulants_from_moments(mu_c))
        assert max(abs(a - b) for a, b in zip(mu_c, back_c)) < 1e-9

        exact = [Fraction(1)] + [Fraction(int(rng.integers(-12, 13)), 8) for _ in range(12)]
        assert moments_from_free_cumulants(free_cumulants_from_moments(exact)) == exact
        assert moments_from_classical_cumulants(
            classical_cumulants_from_moments(exact)) == exact

        mu_a3 = [Fraction(1)] + [Fraction(int(rng.integers(-8, 9)), 4) for _ in range(3)]
        mu_b3 = [Fraction(1)] + [Fraction(int(rng.integers(-8, 9)), 4) for _ in range(3)]
        assert free_convolve(mu_a3, mu_b3) == classical_convolve(mu_a3, mu_b3)
