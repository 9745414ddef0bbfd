import json
import math
import tracemalloc
import warnings
from functools import partial

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
    _quartiles,
    _tests,
    _trapz,
    ks_statistic,
    localize_violations,
    run_analysis,
    silverman_bandwidth,
)
from partialfree.errors import ConfigError, InputError, ResourceLimitError
from partialfree.matrices import EnsembleSpec, sample_pair
from partialfree.moments import (
    classical_cumulants_from_moments,
    moments_from_classical_cumulants,
)
from partialfree.series import hermite_coefficients

from oracles import kernel_sum_binning_bound, kernel_sum_per_point

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


def test_silverman_bandwidth_is_exact_under_power_of_two_scaling():
    # tiny values must not underflow in the variance: the bandwidth of
    # v * 2**-1000 is exactly that of v, scaled
    sample = np.random.default_rng(1).standard_normal(500)
    for r in (0, 4):
        tiny = silverman_bandwidth(sample * 2.0**-1000, r)
        assert tiny == silverman_bandwidth(sample, r) * 2.0**-1000


@pytest.mark.parametrize("order", [-1, -2, -3])
def test_silverman_bandwidth_rejects_a_negative_derivative_order(order):
    sample = np.random.default_rng(0).standard_normal(100)
    with pytest.raises(ValueError, match=f"derivative order must be >= 0, got {order}"):
        silverman_bandwidth(sample, order)


def _quartile_samples():
    rng = np.random.default_rng(5)
    for n in [*range(2, 65), 1000, 4097, 64000]:
        yield rng.standard_normal(n)
        yield np.round(rng.standard_normal(n), 1)  # ties
        yield rng.integers(-2, 3, n).astype(float)  # heavy ties
        yield np.full(n, -0.375)
        yield rng.standard_normal(n) * 1e-300


def test_quartiles_match_numpy_percentile_bit_for_bit():
    for sample in _quartile_samples():
        want = np.percentile(sample, [75.0, 25.0])
        got = _quartiles(sample)
        assert np.array_equal(got, want), (sample.size, got, want)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("values, warning", [
    ([0.0, 1.0, _NAN, 2.0], None),
    ([_NAN, _NAN], None),
    ([0.0, 1.0, _INF, 2.0], "invalid value encountered in subtract"),
    ([-_INF, 0.0, 1.0, 2.0], "invalid value encountered in subtract"),
    ([-_INF, 0.0, 1.0, _INF], "invalid value encountered in reduce"),
    ([_INF, _NAN, 1.0], "invalid value encountered in subtract"),
    ([_INF, _INF], "invalid value encountered in subtract"),
])
def test_silverman_bandwidth_on_non_finite_values(values, warning):
    # a NaN or an infinity is refused before any arithmetic: the variance of
    # these values would be NaN, quietly or with ``warning`` (an error here)
    for r in (0, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="bandwidth selection needs finite values"):
                silverman_bandwidth(values, r)


@pytest.mark.parametrize("bandwidth", [_NAN, _INF, -_INF, 0.0])
def test_kde_refuses_a_bandwidth_that_is_not_positive_and_finite(bandwidth):
    # a NaN bandwidth would give an all-NaN estimate, an infinite one a
    # failure inside the binning
    sample = np.random.default_rng(6).standard_normal(100)
    for estimate in (kde_density, partial(kde_derivative, order=2)):
        with pytest.raises(ValueError,
                           match=f"bandwidth must be positive and finite, got {bandwidth}"):
            estimate(sample, bandwidth=bandwidth)


@pytest.mark.parametrize("value", [_NAN, _INF, -_INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("estimate", [kde_density, partial(kde_derivative, order=2)],
                         ids=["density", "derivative"])
def test_kde_refuses_non_finite_values_given_a_bandwidth(estimate, value):
    # no bandwidth selection reads the values then: a NaN gave an all-NaN
    # estimate quietly, an infinity one on a grid holding it, with a warning
    sample = np.append(np.random.default_rng(6).standard_normal(100), value)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="density estimation needs finite values"):
            estimate(sample, bandwidth=0.3)


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


@pytest.mark.parametrize("grid", [[0.0, _NAN, 1.0], [0.0, 1.0, _INF], [-_INF, 0.0, 1.0]],
                         ids=["nan", "inf", "-inf"])
def test_density_grid_points_must_be_finite(grid):
    # a NaN compares false in the ascending check, and an infinity passes it
    with pytest.raises(ValueError, match="grid points must be finite"):
        DensityEstimate(grid, np.ones(3), 0.1)
    sample = np.random.default_rng(6).standard_normal(100)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="grid points must be finite"):
            kde_density(sample, bandwidth=0.3, grid=grid)


# ---------------------------------------------------------------------------
# correction and expansion coefficients


def _gaussian_fixture(n=20000, seed=5):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n)


def _values_are_nodes(values, h):
    # the binning rule asks for ceil(16 ptp / h) + 1 nodes; with at least
    # as many nodes as values, the values themselves are the nodes
    return math.ceil(16 * np.ptp(values) / h) + 1 >= values.size


def _assert_within_binning_bound(est, values, grid, h, order):
    # the binning bound (none when the values are the nodes), plus a
    # rounding slack scaled to the oracle
    oracle = kernel_sum_per_point(values, grid, h, order)
    assert np.all(np.isfinite(est))
    slack = 1e-12 * max(1.0, np.abs(oracle).max())
    bound = 0.0 if _values_are_nodes(values, h) else kernel_sum_binning_bound(h, order)
    assert np.max(np.abs(est - oracle)) <= bound + slack


def _kernel_estimate(values, order, h, grid):
    if order:
        return kde_derivative(values, order, bandwidth=h, grid=grid).values
    return kde_density(values, bandwidth=h, grid=grid).values


@pytest.mark.parametrize("size", [200, 3_000, 70_000],
                         ids=["below-one-block", "ragged-blocks", "above-budget"])
@pytest.mark.parametrize("order", [0, 1, 8])
def test_kernel_sums_match_per_point_oracle(size, order):
    # linear binning onto nodes at most h/16 apart stays within its error
    # bound of the exact per-point sums; the 200 values are the nodes
    # themselves, so only rounding separates the two
    values = np.random.default_rng(53).standard_normal(size)
    grid = np.linspace(-4.0, 4.0, 101)
    h = 0.3
    assert _values_are_nodes(values, h) == (size == 200)
    _assert_within_binning_bound(_kernel_estimate(values, order, h, grid),
                                 values, grid, h, order)


def _normal(seed, size):
    return np.random.default_rng(seed).standard_normal(size)


@pytest.mark.parametrize("values, grid", [
    (np.full(50, 2.5), np.linspace(1.0, 4.0, 31)),
    (np.array([1.25]), np.linspace(-1.0, 3.0, 41)),
    (np.repeat([0.0, 0.37, 1.0], 400), np.linspace(-1.0, 2.0, 61)),
    (np.concatenate([_normal(61, 300), [-1e4, 1e4]]), np.linspace(-4.0, 4.0, 81)),
    (_normal(62, 5000), np.array([0.1])),
    (_normal(63, 5000), np.sort(np.random.default_rng(64).uniform(-4.0, 4.0, 57))),
], ids=["all-equal", "single-value", "atoms", "far-outliers", "one-point-grid",
        "non-uniform-grid"])
@pytest.mark.parametrize("order", [0, 3])
def test_binned_kernel_sums_edge_cases(values, grid, order):
    # a point mass gives one node, one value or far outliers make the values
    # the nodes, atoms between nodes get no averaging over positions, and
    # any grid takes the same path
    h = 0.4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = _kernel_estimate(values, order, h, grid)
    assert est.shape == grid.shape
    _assert_within_binning_bound(est, values, grid, h, order)


def test_report_densities_within_binning_bound_of_oracle():
    from partialfree.matrices import sample_tables

    # the pools are the pipeline's, redrawn through the public sampler
    spec = EnsembleSpec.tridiagonal_adjacency(24, seed=3, circulant=True)
    config = AnalysisConfig(ensemble=spec, sample_count=40, order=8, alpha=1e-3)
    d = run_analysis(config).densities
    assert d["derivative_order"] == 8
    tables = sample_tables(lambda i: sample_pair(spec, i), 40, 24, [], with_sums=True,
                           seed=spec.seed, free_rotations=config.free_rotations,
                           with_classical=True)
    grid = np.array(d["grid"])
    for key, pool, h, order in (
            ("f_free", tables.free_pool, d["bandwidth"], 0),
            ("f_sum", tables.sums, d["bandwidth"], 0),
            ("f_classical", tables.classical_pool, d["bandwidth"], 0),
            ("f_derivative", tables.free_pool, d["derivative_bandwidth"],
             d["derivative_order"])):
        _assert_within_binning_bound(np.array(d[key]), pool.ravel(), grid, h, order)


def test_kde_derivative_memory_is_bounded():
    values = np.random.default_rng(59).standard_normal(8000)
    tracemalloc.start()
    try:
        kde_derivative(values, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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
    assert abs(_trapz(term, grid)) < 1e-6
    corrected = edgeworth_corrected_density(base, deriv, delta)
    raw_mass = _trapz(base.values + term, grid)
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
    got = _trapz(grid**p * term, grid)
    assert got == pytest.approx(delta, rel=0.02)


def test_edgeworth_clipping_reported():
    grid = np.linspace(-1, 1, 201)
    base = DensityEstimate(grid, np.full(201, 0.5), 0.1)
    deriv = DensityEstimate(grid, np.full(201, 300.0), 0.1, derivative_order=1)
    corrected = edgeworth_corrected_density(base, deriv, 0.01)
    assert corrected.clipped_mass > 0
    assert np.all(corrected.values >= 0)


@pytest.mark.parametrize("delta", [_NAN, _INF, -_INF], ids=["nan", "inf", "-inf"])
def test_edgeworth_refuses_a_non_finite_delta(delta):
    # a NaN gave an all-NaN density with clipped mass 0, an infinity an
    # infinite clipped mass
    grid = np.linspace(-1, 1, 64)
    base = DensityEstimate(grid, np.ones(64), 0.1)
    deriv = DensityEstimate(grid, np.ones(64), 0.1, derivative_order=2)
    with pytest.raises(ValueError, match=f"delta_mu must be finite, got {delta}"):
        edgeworth_corrected_density(base, deriv, delta)


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
    # a NaN cdf value would make the distance NaN
    for value in (_NAN, -0.1, 1.5):
        with pytest.raises(ValueError, match=r"cdf values must lie in \[0, 1\]"):
            ks_statistic([0.1, 0.2, 0.3], lambda x: value if x == 0.2 else x)


# ---------------------------------------------------------------------------
# degree detection and localization


def test_one_rule_tests_every_statistic():
    # row j: statistic j over three samples, with its difference and SE
    values = np.array([[1.0, 2.0, 3.0],    # within its floor at SE 0
                       [2.0, 2.0, 2.0],    # constant, SE 0, below its prediction
                       [3.0, 3.0, 3.0],    # constant, SE 0, above it
                       [0.1, 0.2, 0.4],
                       [0.3, 0.7, 0.9]])
    diffs = np.array([1e-12, -0.5, 0.25, 0.3, -1.7])
    floors = np.full(5, 1e-9)
    orders = [1, 2, 3, 4, 5]
    what = "word statistic"
    tests = _tests(values, diffs, np.array([0.0, 0.0, 0.0, 0.1, 0.9]), floors, what, orders)
    assert tests[:3] == [(0.0, 1.0), (-math.inf, 0.0), (math.inf, 0.0)]
    assert math.copysign(1.0, tests[0][0]) == 1.0
    for (z, p), d, s in zip(tests[3:], [0.3, -1.7], [0.1, 0.9]):
        assert type(z) is float and type(p) is float
        assert z == d / s and p == math.erfc(abs(z) / math.sqrt(2))

    # an SE below the smallest normal double is refused where the statistic
    # varies and the test reads it, naming the first such order; row 0 is
    # within its floor
    for underflowed, order in ((np.array([0.0, 0.0, 0.0, 1e-320, 0.0]), 4),
                               (np.array([0.0, 0.0, 0.0, 0.1, 0.0]), 5)):
        with pytest.raises(InputError) as refused:
            _tests(values, diffs, underflowed, floors, what, orders)
        assert str(refused.value) == (f"underflowing standard error of the {what} at order "
                                      f"{order}: entries too small for double-precision squares")
    # the same SE on constant statistics is the exact test
    constant = np.repeat(values[:, :1], 3, axis=1)
    assert _tests(constant, diffs, np.zeros(5), floors, what, orders) == [
        (0.0, 1.0), (-math.inf, 0.0), (math.inf, 0.0), (math.inf, 0.0), (-math.inf, 0.0)]


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
    # A + B is the adjacency of the n-cycle: below order n its closed walks
    # number 0 at odd k and C(k, k/2) at even k, and every sample agrees
    for half in (3, 4):
        spec = EnsembleSpec.pauli_block_pair(2 * half)
        samples = [sample_pair(spec, i) for i in range(30)]
        result = detect_degree(samples, 2 * half, 0.01)
        assert result.degree == 2 * half
        for row in result.rows[:result.degree - 1]:
            k = row.order
            assert row.se == 0.0, k
            assert row.estimate == (math.comb(k, k // 2) if k % 2 == 0 else 0), k


def test_detect_degree_validation():
    samples = _diagonal_samples(t=30)
    with pytest.raises(ConfigError):
        detect_degree(samples[:10], 4, 0.01)
    with pytest.raises(ConfigError):
        detect_degree(samples, 1, 0.01)
    with pytest.raises(ConfigError):
        detect_degree(samples, 4, 1.5)


def test_scan_orders_whose_tables_cannot_fit_are_refused_before_sampling(monkeypatch):
    # order 18 needs W = 31238 words: the W x W centering map alone is 7.3 GiB
    spec = EnsembleSpec.goe(4, seed=2)
    samples = [sample_pair(spec, i) for i in range(30)]
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1))
    with pytest.raises(ResourceLimitError, match=r"K = 18.*W = 31238.*2\^29"):
        detect_degree(samples, 18, 0.01)
    with pytest.raises(ResourceLimitError, match="K = 18"):
        localize_violations(samples, 18, 0.01)
    with pytest.raises(ResourceLimitError, match="K = 18"):
        AnalysisConfig(ensemble=spec, sample_count=30, order=18).validate()
    assert calls == []
    # the bound counts samples too: order 16 fits at t = 30 but not at t = 10^5
    AnalysisConfig(ensemble=spec, sample_count=30, order=16).validate()
    with pytest.raises(ResourceLimitError, match="K = 16"):
        AnalysisConfig(ensemble=spec, sample_count=100000, order=16).validate()


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


@pytest.mark.parametrize("alpha", [2.0, 0.0, -1.0, math.nan])
def test_localize_violations_refuses_alpha_outside_unit_interval(alpha):
    # the range detect_degree accepts; NaN compares false and is refused too
    spec = EnsembleSpec.goe(6, seed=3)
    samples = [sample_pair(spec, i) for i in range(40)]
    with pytest.raises(ConfigError, match=r"alpha must be in \(0, 1\)"):
        localize_violations(samples, 4, alpha)


@pytest.mark.parametrize("threads", [0, -2])
@pytest.mark.parametrize("scan", [detect_degree, localize_violations],
                         ids=["detect_degree", "localize_violations"])
def test_scans_refuse_threads_below_one(scan, threads):
    # the message AnalysisConfig.validate gives; no count runs serially
    spec = EnsembleSpec.goe(6, seed=3)
    samples = [sample_pair(spec, i) for i in range(40)]
    with pytest.raises(ConfigError, match="need threads >= 1"):
        scan(samples, 4, 0.01, threads=threads)


@pytest.mark.parametrize("variant", ["example19", "goe", "mixed-file"])
def test_sum_moments_from_the_word_columns_match_the_spectra(variant, tmp_path):
    # tr((A + B)^k)/N summed over the table's necklaces of length k, each
    # once per rotation, is the k-th power sum of the spectrum of A + B; the
    # moment rows report its means and their column_stats SEs
    from partialfree.analysis import _order_sums, _sample_words
    from partialfree.matrices import column_stats, per_sample_moments

    t = 30
    if variant == "mixed-file":
        _mixed_pair_file(tmp_path / "pairs.jsonl", t=t)
        spec, order = EnsembleSpec.from_file(str(tmp_path / "pairs.jsonl")), 6
    else:
        spec = {"example19": EnsembleSpec.tridiagonal_adjacency(24, seed=7, circulant=True),
                "goe": EnsembleSpec.goe(16, seed=9)}[variant]
        order = 8
    pairs = [sample_pair(spec, i) for i in range(t)]
    tables = _sample_words(pairs.__getitem__, t, spec.dimension, order, 1)
    words = _order_sums(tables.words, tables.traces)
    spectra = per_sample_moments(np.stack([np.linalg.eigvalsh(p.a + p.b) for p in pairs]),
                                 order)
    assert words.shape == spectra.shape == (t, order + 1)
    # within 1e-13 of each order's largest moment (6e-15 measured)
    assert (np.abs(words - spectra) <= 1e-13 * np.abs(spectra).max(axis=0)).all()
    rows = detect_degree(pairs, order, 0.01).rows
    assert [row.estimate for row in rows] == words.mean(axis=0)[1:].tolist()
    assert [row.se for row in rows] == column_stats(words)[1][1:].tolist()


def test_scans_without_f_sum_draw_no_sum_spectrum(monkeypatch):
    # the statistics read the word columns alone; the spectrum of A + B is
    # drawn only for its density
    from partialfree import analysis

    asked = []
    real = analysis.sample_tables
    monkeypatch.setattr(analysis, "sample_tables",
                        lambda *args, **kwargs: asked.append(kwargs.get("with_sums", False))
                        or real(*args, **kwargs))
    spec = EnsembleSpec.goe(6, seed=3)
    result = detect_degree([sample_pair(spec, i) for i in range(30)], 4, 0.01)
    assert len(result.rows) == 4
    report = run_analysis(AnalysisConfig(ensemble=spec, sample_count=30, order=4,
                                         include_exact_sum=False))
    assert report.densities["f_sum"] is None
    assert asked == [False, False]
    run_analysis(AnalysisConfig(ensemble=spec, sample_count=30, order=4))
    assert asked == [False, False, True]


def test_localize_violations_runs_no_eigensolve(monkeypatch):
    # localization reads only the word-trace table, never a spectrum
    samples = _diagonal_samples(t=30, seed=17)
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or real(m))
    localize_violations(samples, 4, 0.01)
    assert calls == []


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
    assert _trapz(f_free, grid) == pytest.approx(1.0, abs=1e-3)


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
    assert lines[0] == "grid,f_sum,f_free,f_corrected,f_classical"
    assert len(lines) == 1 + len(payload["densities"]["grid"])


def _csv_by_cells(report):
    names = ("grid", "f_sum", "f_free", "f_corrected", "f_classical")
    densities = report.to_dict()["densities"]
    lines = [",".join(names)]
    for i in range(len(densities["grid"]) if densities else 0):
        cells = []
        for name in names:
            column = densities[name]
            cells.append("" if column is None else repr(column[i]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_densities_csv_matches_cells_of_the_report(diagonal_report, tmp_path):
    full = diagonal_report[0]
    assert all(full.densities[k] is not None
               for k in ("f_sum", "f_free", "f_corrected", "f_classical"))
    bare = run_analysis(AnalysisConfig(
        ensemble=EnsembleSpec.gaussian_diagonal(8, seed=31), sample_count=40, order=4,
        alpha=0.01, include_exact_sum=False, include_classical=False))
    assert bare.densities["f_sum"] is None and bare.densities["f_classical"] is None
    path = tmp_path / "pairs.jsonl"
    path.write_text((json.dumps({"A": np.eye(3).tolist(), "B": np.eye(3).tolist()}) + "\n") * 40)
    point_mass = run_analysis(AnalysisConfig(ensemble=EnsembleSpec.from_file(str(path)),
                                             sample_count=40, order=4))
    assert point_mass.densities is None
    for report in (full, bare, point_mass):
        assert report.densities_csv() == _csv_by_cells(report)
    assert point_mass.densities_csv() == "grid,f_sum,f_free,f_corrected,f_classical\n"


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
                                        order)
                     for mats in ([p.a for p in pairs], [p.b for p in pairs],
                                  [p.a + p.b for p in pairs]))
    rows = _moment_stage(m_a, m_b, m_s, 0.01, np.zeros(order + 1))

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
    # the pass's permuted-sum and free-rotated spectra (stacked rotations,
    # eigenvalues once per diagonal or fixed matrix) must equal what the
    # public one-pair samplers draw from the same per-index streams; the
    # report's moments and SEs are column_stats of their per-sample moments
    from partialfree.matrices import (_CLASSICAL_STREAM, _FREE_STREAM, column_stats,
                                      per_sample_moments, sample_classical_sum_spectrum,
                                      sample_free_sum_spectrum, stream)

    for spec in (EnsembleSpec.goe(6, seed=12), EnsembleSpec.tridiagonal_adjacency(10, seed=14),
                 EnsembleSpec.gaussian_diagonal(6, seed=15), EnsembleSpec.pauli_block_pair(6)):
        config = AnalysisConfig(ensemble=spec, sample_count=30, order=4, alpha=0.01)
        report = run_analysis(config)
        pairs = [sample_pair(spec, i) for i in range(config.sample_count)]

        def moments(draw):
            spectra = np.stack([draw(i, p).eigenvalues for i, p in enumerate(pairs)])
            return column_stats(per_sample_moments(spectra, config.order))

        want = moments(lambda i, p: sample_classical_sum_spectrum(
            p, stream(spec.seed, i, _CLASSICAL_STREAM)))
        free = moments(lambda i, p: sample_free_sum_spectrum(
            p, stream(spec.seed, i, _FREE_STREAM, 0)))
        for row in report.moments:
            assert row.sampled_classical == float(want[0][row.order]), spec.variant
            assert row.sampled_classical_se == float(want[1][row.order]), spec.variant
            assert row.sampled_free == float(free[0][row.order]), spec.variant
            assert row.sampled_free_se == float(free[1][row.order]), spec.variant


def _mixed_pair_file(path, n=5, t=23, seed=61):
    # every third A and every fourth B diagonal, the rest dense
    rng = np.random.default_rng(seed)
    with open(path, "w") as fh:
        for i in range(t):
            a, b = (g + g.T for g in rng.standard_normal((2, n, n)))
            if i % 3 == 0:
                a = np.diag(np.diagonal(a))
            if i % 4 == 1:
                b = np.diag(rng.standard_normal(n))
            fh.write(json.dumps({"A": a.tolist(), "B": b.tolist()}) + "\n")


@pytest.mark.parametrize("variant", ["goe", "goe-24", "goe-100", "gaussian-diagonal",
                                     "tridiagonal", "pauli", "mixed-file"])
def test_sample_pass_independent_of_stack_size(variant, monkeypatch, tmp_path):
    # stacks of 1, 7 (ragged) and all t pairs, on one thread or two, give
    # bit-identical raw tables: the dense spectra share one buffer of
    # ⌊500/n⌋ + c matrices across stacks of c pairs up to each chunk's end,
    # and at n = 100 a dense-cut word's trace sums n^2 > 8192 products,
    # which must not depend on the stack's height either
    from partialfree import matrices
    from partialfree.analysis import _table_words
    from partialfree.matrices import sample_tables, word_trace_table

    t = 23
    if variant == "mixed-file":
        _mixed_pair_file(tmp_path / "pairs.jsonl", t=t)
        spec = EnsembleSpec.from_file(str(tmp_path / "pairs.jsonl"), seed=3)
    else:
        spec = {"goe": EnsembleSpec.goe(6, seed=62),
                "goe-24": EnsembleSpec.goe(24, seed=65),
                "goe-100": EnsembleSpec.goe(100, seed=66),
                "gaussian-diagonal": EnsembleSpec.gaussian_diagonal(6, seed=63),
                "tridiagonal": EnsembleSpec.tridiagonal_adjacency(8, seed=64),
                "pauli": EnsembleSpec.pauli_block_pair(6, seed=67)}[variant]
    n = spec.dimension
    words = _table_words(6)
    tables = []
    for size in (1, 7, t):
        monkeypatch.setattr(matrices, "_CELL_BUDGET", size * n * n)
        for threads in (1, 2):
            tables.append(sample_tables(lambda i: sample_pair(spec, i), t, n, words, threads,
                                        with_sums=True, seed=spec.seed, free_rotations=2,
                                        with_classical=True))
    for other in tables[1:]:
        for field in ("traces", "sums", "free_pool", "classical_pool"):
            assert np.array_equal(getattr(tables[0], field), getattr(other, field)), field
    pairs = [sample_pair(spec, i) for i in range(t)]
    assert np.array_equal(word_trace_table(pairs, words), tables[0].traces)


def test_pipeline_eigensolves_once_per_pair_and_fixed_matrix(monkeypatch):
    # example19: A is diagonal (sorted diagonal, no eigensolve) and the chain
    # B is eigensolved once, so at most the sum and the rotated sum per pair;
    # the count is of matrices solved, however many calls hold them
    spec = EnsembleSpec.tridiagonal_adjacency(24, seed=7, circulant=True)
    t = 40
    solved = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solved.append(len(m)) or real(m))
    run_analysis(AnalysisConfig(ensemble=spec, sample_count=t, order=8, alpha=1e-9,
                                threads=1))
    assert 0 < sum(solved) <= 2 * t + 1


def test_pool_threads_solve_dense_spectra_in_batches_that_release_the_gil(monkeypatch):
    # numpy's eigvalsh holds the GIL unless one call returns more than 500
    # eigenvalues; at n = 200 a stack holds one pair, so each chunk's sums and
    # rotated sums wait in batches of three, and only a chunk's last call may
    # be smaller.  The classical pool is off: its one eigensolve of the chain
    # B, made once before the pool, is not batched.
    import threading

    spec = EnsembleSpec.tridiagonal_adjacency(200, seed=8, circulant=True)
    t = 31
    sizes = {}
    real = np.linalg.eigvalsh

    def counted(m):
        sizes.setdefault(threading.get_ident(), []).append(m.shape[0] * m.shape[-1])
        return real(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    run_analysis(AnalysisConfig(ensemble=spec, sample_count=t, order=4, alpha=1e-9,
                                include_classical=False, threads=2))
    assert len(sizes) == 2
    for chunk in sizes.values():
        assert all(size > 500 for size in chunk[:-1]), chunk
    assert sum(map(sum, sizes.values())) == 2 * t * spec.dimension


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
    notes = [n for n in report.notes if n.startswith("exact walk-sum deviation")]
    assert notes == ["exact walk-sum deviation from freeness for ABABABAB: 2.0"]


def test_word_rows_are_built_for_the_reported_order_only(monkeypatch):
    from partialfree import analysis

    built, classical = [], []
    row, prediction = analysis.WordStatistic, analysis.classical_joint_moment
    monkeypatch.setattr(analysis, "WordStatistic",
                        lambda **kw: built.append(kw["word"]) or row(**kw))
    monkeypatch.setattr(analysis, "classical_joint_moment",
                        lambda word, *mu: classical.append(word) or prediction(word, *mu))
    report = run_analysis(AnalysisConfig(ensemble=EnsembleSpec.goe(6, seed=0),
                                         sample_count=40, order=6, alpha=1e-9))
    assert report.degree is None
    assert built == [] and classical == []

    spec = EnsembleSpec.tridiagonal_adjacency(24, seed=3, circulant=True)
    report = run_analysis(AnalysisConfig(ensemble=spec, sample_count=40, order=8,
                                         alpha=1e-3))
    assert report.degree == 8
    assert len(built) == 36 and {w.length for w in built} == {8}
    assert classical == built == [w.word for w in report.words]


def test_localization_matches_the_report_rows(diagonal_report):
    # the report scans through K = 6, localization tables stop at the degree
    from dataclasses import fields

    report, config = diagonal_report
    samples = [sample_pair(config.ensemble, i) for i in range(config.sample_count)]
    stats = localize_violations(samples, report.degree, config.alpha)
    assert [s.word for s in stats] == [w.word for w in report.words]
    for got, want in zip(stats, report.words):
        for field in fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, float):
                assert math.isclose(a, b, rel_tol=1e-12), (want.word, field.name)
            else:
                assert a == b, (want.word, field.name)


def test_localization_at_degree_one():
    # no order-2 word is localized, but its pure moments set the noise scale
    stats = localize_violations(_diagonal_samples(t=40, seed=5), 1, 0.01)
    assert [s.word.to_string() for s in stats] == ["A", "B"]
    assert not any(s.flagged_free for s in stats)


@pytest.mark.parametrize("letter", [0, 1])
@pytest.mark.parametrize("e", [-8, 8])
def test_word_tests_are_invariant_under_rescaling_one_matrix(letter, e):
    # a word with a letters A is homogeneous of degree a in A, its statistics
    # and noise floor alike, so scaling one matrix by a power of two leaves
    # every word test bit for bit; the example19 degree stays 8
    from partialfree.matrices import MatrixPairSample

    spec = EnsembleSpec.tridiagonal_adjacency(24, seed=3, circulant=True)
    samples = [sample_pair(spec, i) for i in range(40)]
    scaled = [MatrixPairSample(*(m * 2.0**e if j == letter else m
                                 for j, m in enumerate((s.a, s.b)))) for s in samples]

    def scan(pairs):
        result = detect_degree(pairs, 8, 1e-3)
        return (result.degree, result.triggered_by, result.triggering_words,
                [(w.word, w.p_value_free, w.p_value_classical, w.flagged_free,
                  w.flagged_classical) for w in localize_violations(pairs, 8, 1e-3)])

    unit = scan(samples)
    assert unit[:3] == (8, "word", ("ABABABAB",))
    assert scan(scaled) == unit


@pytest.mark.parametrize("n", [3, 6, 12])
def test_spiky_deterministic_pairs_free_with_zero_or_identity(n):
    # rank-1 A is free from B = 0 and from B = I; with zero SEs the moment
    # test is an exact comparison, whose rounding follows the spectrum's
    # mean |eigenvalue|^k, far above mu_2(A)^(k/2) for a spike
    from partialfree.matrices import MatrixPairSample

    v = np.random.default_rng(3).standard_normal(n)
    a = np.outer(v, v)
    for b in (np.zeros((n, n)), np.eye(n)):
        assert detect_degree([MatrixPairSample(a, b)] * 40, 10, 0.05).degree is None


def test_generated_pairs_reach_the_pass_unchecked_and_file_records_checked(monkeypatch,
                                                                         tmp_path):
    from partialfree import matrices

    checked = []
    real = matrices._require_symmetric
    monkeypatch.setattr(matrices, "_require_symmetric",
                        lambda m, what, atol: checked.append(what) or real(m, what, atol))
    for spec in (EnsembleSpec.rotation_pair(seed=1), EnsembleSpec.goe(4, seed=2),
                 EnsembleSpec.gaussian_diagonal(4, seed=3),
                 EnsembleSpec.tridiagonal_adjacency(8, seed=4),
                 EnsembleSpec.pauli_block_pair(6)):
        run_analysis(AnalysisConfig(ensemble=spec, sample_count=40, order=4, alpha=1e-9))
    assert checked == []

    path = tmp_path / "pairs.jsonl"
    _write_goe_pairs(path, n=4, t=35)
    run_analysis(AnalysisConfig(ensemble=EnsembleSpec.from_file(str(path)),
                                sample_count=35, order=4, alpha=1e-9))
    assert checked == ["A", "B"] * 35
