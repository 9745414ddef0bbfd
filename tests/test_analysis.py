import json
import math

import numpy as np
import pytest

from partialfree.analysis import (
    AnalysisConfig,
    DensityEstimate,
    detect_degree,
    edgeworth_corrected_density,
    gram_charlier_coefficients,
    kde_density,
    kde_derivative,
    ks_statistic,
    localize_violations,
    run_analysis,
    silverman_bandwidth,
)
from partialfree.errors import ConfigError
from partialfree.matrices import EnsembleSpec, sample_pair
from partialfree.moments import (
    classical_cumulants_from_moments,
    moments_from_classical_cumulants,
)
from partialfree.series import hermite_coefficients

# ---------------------------------------------------------------------------
# density estimation


def test_silverman_bandwidth_special_cases():
    rng = np.random.default_rng(0)
    sample = rng.standard_normal(4000)
    h = silverman_bandwidth(sample)
    assert 0.9 * sample.std() * 4000 ** (-0.2) * 0.5 < h < 0.9 * sample.std() * 4000 ** (-0.2) * 1.5
    with pytest.raises(ValueError):
        silverman_bandwidth(np.ones(100))
    # derivative bandwidths shrink slower with n and grow with order
    assert silverman_bandwidth(sample, 2) > silverman_bandwidth(sample, 0)


def test_kde_density_normalizes():
    rng = np.random.default_rng(1)
    sample = rng.standard_normal(5000)
    est = kde_density(sample)
    assert est.integral() == pytest.approx(1.0, abs=1e-3)
    assert est.derivative_order == 0
    assert np.all(est.values >= 0)


def test_kde_density_degenerate_sample():
    with pytest.raises(ValueError):
        kde_density(np.full(50, 2.5))


def test_kde_density_matches_normal_reference():
    rng = np.random.default_rng(2)
    sample = rng.standard_normal(40000)
    est = kde_density(sample)
    inner = np.abs(est.grid) < 2.0
    dens = np.exp(-est.grid[inner] ** 2 / 2) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(est.values[inner] - dens)) < 0.02


def test_kde_derivative_symmetry_and_mass():
    rng = np.random.default_rng(3)
    sample = rng.standard_normal(3000)
    sym = np.concatenate([sample, -sample])
    d1 = kde_derivative(sym, 1)
    # odd derivative of an exactly symmetric estimate vanishes at the center
    mid = np.argmin(np.abs(d1.grid))
    center = kde_derivative(sym, 1, bandwidth=d1.bandwidth, grid=np.array([0.0]))
    assert abs(center.values[0]) < 1e-6
    for r in (1, 2, 3, 4):
        dr = kde_derivative(sym, r)
        assert abs(dr.integral()) < 1e-6, r


def test_kde_derivative_matches_finite_differences():
    rng = np.random.default_rng(4)
    sample = rng.standard_normal(800)
    h = 1.0
    for r in (1, 2, 3, 4):
        grid = np.linspace(-2.5, 2.5, 41)
        analytic = kde_derivative(sample, r, bandwidth=h, grid=grid)
        step = 5e-3
        # r-fold central first difference of the plain density estimate
        offsets = [(r / 2 - j) * step for j in range(r + 1)]
        signs = [(-1) ** j * math.comb(r, j) for j in range(r + 1)]
        fd = np.zeros_like(grid)
        for s, off in zip(signs, offsets):
            vals = kde_density(sample, bandwidth=h, grid=grid + off).values
            fd += s * vals
        fd /= step**r
        assert np.max(np.abs(analytic.values - fd)) < 1e-4, r


def test_kde_explicit_grid_and_validation():
    with pytest.raises(ValueError):
        kde_density(np.array([]))
    with pytest.raises(ValueError):
        kde_density(np.arange(10.0), bandwidth=-1.0)
    with pytest.raises(ValueError):
        kde_derivative(np.arange(10.0), 0)
    with pytest.raises(ValueError):
        DensityEstimate(np.array([0.0, 1.0]), np.array([1.0]), 0.1)
    with pytest.raises(ValueError):
        DensityEstimate(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 0.1)


# ---------------------------------------------------------------------------
# correction and expansion coefficients


def _gaussian_fixture(n=20000, seed=5):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n)


def test_edgeworth_zero_delta_is_identity():
    sample = _gaussian_fixture()
    base = kde_density(sample)
    deriv = kde_derivative(sample, 4, grid=base.grid)
    corrected = edgeworth_corrected_density(base, deriv, 0.0)
    assert corrected.values == pytest.approx(base.values)
    assert corrected.clipped_mass == 0.0


def test_edgeworth_mass_conserved_before_clipping():
    sample = _gaussian_fixture()
    h4 = silverman_bandwidth(sample, 4)
    pad = 10.0 * h4
    grid = np.linspace(sample.min() - pad, sample.max() + pad, 700)
    base = kde_density(sample, grid=grid)
    deriv = kde_derivative(sample, 4, bandwidth=h4, grid=grid)
    delta = 0.3
    term = (delta / math.factorial(4)) * deriv.values
    assert abs(np.trapezoid(term, grid)) < 1e-6
    corrected = edgeworth_corrected_density(base, deriv, delta)
    raw_mass = np.trapezoid(base.values + term, grid)
    assert raw_mass == pytest.approx(base.integral(), abs=1e-6)


def test_edgeworth_moment_recovery():
    sample = _gaussian_fixture()
    p = 4
    h = silverman_bandwidth(sample, p)
    pad = (6 + p) * h
    grid = np.linspace(sample.min() - pad, sample.max() + pad, 900)
    base = kde_density(sample, grid=grid)
    deriv = kde_derivative(sample, p, bandwidth=h, grid=grid)
    delta = 0.25
    term = ((-1.0) ** p * delta / math.factorial(p)) * deriv.values
    got = np.trapezoid(grid**p * term, grid)
    assert got == pytest.approx(delta, rel=0.02)


def test_edgeworth_clipping_reported():
    grid = np.linspace(-1, 1, 201)
    base = DensityEstimate(grid, np.full(201, 0.5), 0.1)
    deriv = DensityEstimate(grid, np.full(201, 300.0), 0.1, derivative_order=1)
    corrected = edgeworth_corrected_density(base, deriv, 0.01)
    assert corrected.clipped_mass > 0
    assert np.all(corrected.values >= 0)


def test_edgeworth_grid_mismatch_rejected():
    grid = np.linspace(-1, 1, 64)
    base = DensityEstimate(grid, np.ones(64), 0.1)
    deriv = DensityEstimate(grid + 0.5, np.ones(64), 0.1, derivative_order=2)
    with pytest.raises(ValueError):
        edgeworth_corrected_density(base, deriv, 0.1)


def test_gram_charlier_gaussian_matches_itself():
    mu = moments_from_classical_cumulants([0, 0, 1, 0, 0, 0, 0])
    coeffs = gram_charlier_coefficients(mu)
    assert coeffs[0] == 1
    assert coeffs[1:] == pytest.approx([0] * 6, abs=1e-12)


def test_gram_charlier_third_cumulant():
    d = 0.375
    mu = moments_from_classical_cumulants([0, 0, 1, d, 0, 0])
    coeffs = gram_charlier_coefficients(mu)
    assert coeffs[1] == pytest.approx(0, abs=1e-12)
    assert coeffs[2] == pytest.approx(0, abs=1e-12)
    assert coeffs[3] == pytest.approx(d)


def test_gram_charlier_dual_route():
    # Bell-polynomial route vs Hermite-moment inner products
    rng = np.random.default_rng(6)
    for _ in range(5):
        kappa = [0.0, rng.uniform(-0.5, 0.5), 1 + rng.uniform(-0.3, 0.3)] + list(
            rng.uniform(-0.4, 0.4, size=6))
        mu = moments_from_classical_cumulants(kappa)
        coeffs = gram_charlier_coefficients(mu)
        for m in range(9):
            hermite_route = sum(
                a * mu[k] for k, a in enumerate(hermite_coefficients(m)))
            assert coeffs[m] == pytest.approx(hermite_route, rel=1e-9, abs=1e-9)


def test_gram_charlier_unknown_reference():
    with pytest.raises(ValueError):
        gram_charlier_coefficients([1, 0, 1], reference="cauchy")


def test_ks_statistic():
    xs = np.linspace(0.0005, 0.9995, 1000)
    assert ks_statistic(xs, lambda x: x) < 0.002
    assert ks_statistic(np.array([0.0]), lambda x: 0.5) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# degree detection and localization


def _diagonal_samples(n=24, t=300, seed=101):
    spec = EnsembleSpec.gaussian_diagonal(n, seed=seed)
    return [sample_pair(spec, i) for i in range(t)]


def test_detect_degree_commuting_diagonals():
    result = detect_degree(_diagonal_samples(), 6, 0.01)
    assert result.degree == 4


def test_detect_degree_rotation_pair_none():
    spec = EnsembleSpec.rotation_pair(seed=13)
    samples = [sample_pair(spec, i) for i in range(2000)]
    result = detect_degree(samples, 6, 0.01)
    assert result.degree is None
    assert len(result.rows) == 6


def test_detect_degree_pauli_deterministic():
    for half in (3, 4):
        spec = EnsembleSpec.pauli_block_pair(2 * half)
        samples = [sample_pair(spec, i) for i in range(30)]
        result = detect_degree(samples, 2 * half, 0.01)
        assert result.degree == 2 * half


def test_detect_degree_validation():
    samples = _diagonal_samples(t=30)
    with pytest.raises(ConfigError):
        detect_degree(samples[:10], 4, 0.01)
    with pytest.raises(ConfigError):
        detect_degree(samples, 1, 0.01)
    with pytest.raises(ConfigError):
        detect_degree(samples, 4, 1.5)


def test_detect_degree_relabel_invariance():
    samples = _diagonal_samples(t=200, seed=29)
    from partialfree.matrices import MatrixPairSample

    swapped = [MatrixPairSample(s.b, s.a) for s in samples]
    assert detect_degree(samples, 5, 0.01).degree == detect_degree(swapped, 5, 0.01).degree


def test_localize_violations_diagonal_fixture():
    samples = _diagonal_samples(t=400, seed=17)
    stats = localize_violations(samples, 4, 0.01)
    by_word = {s.word.to_string(): s for s in stats}
    assert set(by_word) == {"AAAA", "AAAB", "AABB", "ABAB", "ABBB", "BBBB"}
    abab = by_word["ABAB"]
    assert abab.flagged_free
    # centered value approaches Var(A) Var(B) = 1
    assert abs(abab.centered_estimate - 1.0) < 4 * abab.centered_se
    # pure words carry no cross information
    for text in ("AAAA", "BBBB"):
        stat = by_word[text]
        assert not stat.flagged_free
        assert not stat.flagged_classical
        assert stat.estimate == pytest.approx(stat.classical_prediction, rel=1e-12)
    # flags are a pure function of the stored statistic
    level = 0.01 / len(stats)
    z_star = -scipy_norm_ppf(level / 2)
    for stat in stats:
        if stat.centered_se > 0:
            assert stat.flagged_free == (
                abs(stat.centered_estimate) > z_star * stat.centered_se)


def scipy_norm_ppf(q):
    from scipy.stats import norm

    return float(norm.ppf(q))


def test_word_statistics_use_monte_carlo_se():
    samples = _diagonal_samples(t=120, seed=23)
    stats = localize_violations(samples, 4, 0.05)
    from partialfree.matrices import word_trace_table

    for stat in stats:
        table = word_trace_table(samples, [stat.word])
        v = table[:, 0]
        t = len(v)
        want_se = v.std(ddof=1) / math.sqrt(t)
        assert stat.se == pytest.approx(want_se, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# pipeline and report


@pytest.fixture(scope="module")
def diagonal_report():
    spec = EnsembleSpec.gaussian_diagonal(24, seed=101)
    config = AnalysisConfig(ensemble=spec, sample_count=300, order=6, alpha=0.01)
    return run_analysis(config), config


def test_report_structure(diagonal_report):
    report, config = diagonal_report
    assert report.degree == 4
    assert [row.order for row in report.moments] == [1, 2, 3, 4, 5, 6]
    assert {w.word.to_string() for w in report.words} == {
        "AAAA", "AAAB", "AABB", "ABAB", "ABBB", "BBBB"}
    locus_lengths = {w.word.length for w in report.words}
    assert locus_lengths == {4}
    d = report.densities
    assert d["f_sum"] is not None and d["f_classical"] is not None
    assert d["f_corrected"] is not None and d["delta_mu"] is not None
    grid = np.array(d["grid"])
    f_free = np.array(d["f_free"])
    assert np.trapezoid(f_free, grid) == pytest.approx(1.0, abs=1e-3)


def test_report_moment_table_columns(diagonal_report):
    report, _ = diagonal_report
    for row in report.moments:
        assert row.sampled_free is not None
        assert row.sampled_classical is not None
        combined = math.hypot(row.se, row.sampled_free_se)
        if row.order <= 3:
            assert abs(row.estimate - row.sampled_free) <= 4 * combined + 1e-9


def test_report_serialization_deterministic(diagonal_report):
    report, config = diagonal_report
    text1 = report.to_json()
    report2 = run_analysis(config)
    assert report2.to_json() == text1
    payload = json.loads(text1)
    assert payload["degree"] == 4
    assert set(payload["densities"]) >= {"grid", "f_sum", "f_free", "f_corrected"}
    csv = report.densities_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "grid,f_sum,f_free,f_corrected"
    assert len(lines) == 1 + len(payload["densities"]["grid"])


def test_report_optional_sections_disabled():
    spec = EnsembleSpec.gaussian_diagonal(16, seed=31)
    config = AnalysisConfig(ensemble=spec, sample_count=60, order=4, alpha=0.01,
                            include_exact_sum=False, include_classical=False)
    report = run_analysis(config)
    assert report.densities["f_sum"] is None
    assert report.densities["f_classical"] is None
    for row in report.moments:
        assert row.sampled_classical is None
    assert any("exact-sum sampling disabled" in note for note in report.notes)
    assert any("classical sampling disabled" in note for note in report.notes)


def test_config_validation():
    spec = EnsembleSpec.gaussian_diagonal(8, seed=0)
    with pytest.raises(ConfigError):
        AnalysisConfig(ensemble=spec, sample_count=10, order=4).validate()
    with pytest.raises(ConfigError):
        AnalysisConfig(ensemble=spec, sample_count=50, order=1).validate()
    with pytest.raises(ConfigError):
        AnalysisConfig(ensemble=spec, sample_count=50, order=4, alpha=2.0).validate()


def test_kde_matches_arcsine_away_from_endpoints():
    # 2 cos(theta) with uniform theta is an exact arcsine sample
    from partialfree.moments import arcsine_density

    rng = np.random.default_rng(44)
    sample = 2.0 * np.cos(rng.uniform(0.0, 2.0 * np.pi, size=200_000))
    est = kde_density(sample)
    inner = np.abs(est.grid) <= 1.8
    reference = np.array([arcsine_density(x) for x in est.grid[inner]])
    assert np.max(np.abs(est.values[inner] - reference)) < 0.05


@pytest.mark.parametrize("variant", ["goe", "gaussian_diagonal"])
@pytest.mark.parametrize("order", [8, 12])
def test_batched_jackknife_matches_per_replicate_loop(variant, order):
    from partialfree.analysis import _moment_stage
    from partialfree.matrices import per_sample_moments
    from partialfree.moments import free_convolve

    spec = getattr(EnsembleSpec, variant)(8, seed=41)
    t = 40
    pairs = [sample_pair(spec, i) for i in range(t)]
    m_a, m_b, m_s = (per_sample_moments(np.stack([np.linalg.eigvalsh(m) for m in mats]),
                                        2 * order)
                     for mats in ([p.a for p in pairs], [p.b for p in pairs],
                                  [p.a + p.b for p in pairs]))
    rows = _moment_stage(m_a, m_b, m_s, order, 0.01)

    # the per-replicate loop of acceptance criterion 07, plus the sum side
    predicted = np.array(free_convolve(m_a.mean(axis=0)[: order + 1].tolist(),
                                       m_b.mean(axis=0)[: order + 1].tolist()))
    tot_a, tot_b, tot_s = m_a.sum(axis=0), m_b.sum(axis=0), m_s.sum(axis=0)
    loo = np.empty((t, order + 1))
    loo_diff = np.empty((t, order + 1))
    for i in range(t):
        loo[i] = free_convolve(((tot_a - m_a[i]) / (t - 1))[: order + 1].tolist(),
                               ((tot_b - m_b[i]) / (t - 1))[: order + 1].tolist())
        loo_diff[i] = ((tot_s - m_s[i]) / (t - 1))[: order + 1] - loo[i]
    pred_se = np.sqrt((t - 1) / t * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))
    diff_se = np.sqrt((t - 1) / t * ((loo_diff - loo_diff.mean(axis=0)) ** 2).sum(axis=0))

    def close(got, want, rtol):
        assert abs(got - want) <= rtol * max(1.0, abs(want))

    for row in rows:
        k = row.order
        close(row.predicted_free, predicted[k], 1e-12)
        close(row.predicted_free_se, pred_se[k], 1e-10)
        close(row.diff_se, diff_se[k], 1e-10)


def test_word_table_rejects_dimension_mismatch():
    from partialfree.matrices import word_trace_table
    from partialfree.words import Word

    spec_small = EnsembleSpec.gaussian_diagonal(6, seed=1)
    spec_big = EnsembleSpec.gaussian_diagonal(8, seed=1)
    mixed = [sample_pair(spec_small, 0), sample_pair(spec_big, 0)]
    with pytest.raises(ValueError, match="dimension"):
        word_trace_table(mixed, [Word.from_string("AB")])


def test_pipeline_classical_moments_match_public_sampler():
    # the pass hands its eig(A), eig(B) to the permuted-sum sampler; the
    # result must equal what the public sampler computes on its own
    from partialfree.analysis import _CLASSICAL_STREAM
    from partialfree.matrices import estimate_moments, sample_classical_sum_spectrum, stream

    spec = EnsembleSpec.goe(6, seed=12)
    config = AnalysisConfig(ensemble=spec, sample_count=30, order=4, alpha=0.01)
    report = run_analysis(config)
    spectra = [sample_classical_sum_spectrum(sample_pair(spec, i),
                                             stream(spec.seed, i, _CLASSICAL_STREAM))
               for i in range(config.sample_count)]
    want = estimate_moments(spectra, config.order)
    for row in report.moments:
        assert row.sampled_classical == float(want.values[row.order])
        assert row.sampled_classical_se == float(want.se[row.order])


def _write_goe_pairs(path, n=5, t=32, seed=4):
    rng = np.random.default_rng(seed)
    with open(path, "w") as fh:
        for _ in range(t):
            a, b = (g + g.T for g in rng.standard_normal((2, n, n)))
            fh.write(json.dumps({"A": a.tolist(), "B": b.tolist()}) + "\n")


def test_reports_identical_across_thread_counts(tmp_path):
    path = tmp_path / "pairs.jsonl"
    _write_goe_pairs(path)
    configs = [
        (EnsembleSpec.tridiagonal_adjacency(24, seed=5, circulant=True), 40, 6),
        (EnsembleSpec.from_file(str(path), seed=2), 32, 5),
    ]
    for spec, t, order in configs:
        texts = [run_analysis(AnalysisConfig(ensemble=spec, sample_count=t, order=order,
                                             alpha=0.01, threads=threads)).to_json()
                 for threads in (1, 2)]
        assert texts[0] == texts[1], spec.variant


def test_tridiagonal_report_carries_walk_sum_note():
    spec = EnsembleSpec.tridiagonal_adjacency(32, seed=3, circulant=True)
    config = AnalysisConfig(ensemble=spec, sample_count=300, order=8, alpha=0.01,
                            threads=2)
    report = run_analysis(config)
    assert report.degree == 8
    notes = [n for n in report.notes if n.startswith("exact walk-sum value")]
    assert notes == ["exact walk-sum value for ABABABAB: 2.0"]
