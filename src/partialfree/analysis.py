"""Statistical pipeline: detect the order where two matrices stop acting free.

Monte Carlo samples of a pair (A, B) yield moment estimates for A + B;
the prediction under free independence is computed exactly from the
estimated pure moments, never from the rotated samples.  A two-sided
z-test with Bonferroni correction scans moment orders; the first
rejection is the reported degree.  The uncertainty of each difference is
a leave-one-out jackknife, which propagates the pure-moment estimation
error through the nonlinear prediction and keeps the strong cancellation
between the two sides (a per-side error bar would be far too wide to
detect anything at practical sample counts).

The order-p difference is then localized to individual cyclic words, and
the density of the rotated sum is corrected by the leading asymptotic
term (-1)^p (delta mu_p / p!) f^(p).

All of it derives from one streaming pass over the sample indices (run on
a chunked thread pool): each pair is drawn once and yields its spectral
moments, its free-rotated and permuted sum spectra and one row of raw
normalized word traces, and is then dropped.  Centered word traces and
the free word predictions both follow from the raw table afterwards,
through one linear inclusion-exclusion map (moments.centering_map), so no
pair is ever regenerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InputError
from .matrices import (
    EnsembleSpec,
    PairPowers,
    WordTracePlan,
    estimate_moments,
    for_each_chunk,
    per_sample_moments,
    sample_classical_sum_spectrum,
    sample_free_sum_spectrum,
    sample_pair,
    stream,
)
from .moments import (
    centering_map,
    classical_cumulants_from_moments,
    classical_joint_moment,
    free_convolve,
    free_word_moments,
)
from .series import complete_bell, hermite
from .words import Word, necklace_count, word_expansion

_trapz = getattr(np, "trapezoid", None) or np.trapz

_EXACT_ATOL = 1e-9

_FREE_STREAM, _CLASSICAL_STREAM = 1, 2


def _two_sided_test(diff: float, se: float, scale: float) -> tuple[float, float]:
    """z statistic and p-value; differences at numerical-noise scale never reject.

    With a zero standard error (deterministic ensembles) the test degrades
    to an exact comparison at the same absolute tolerance.
    """
    atol = _EXACT_ATOL * max(1.0, scale)
    if abs(diff) <= atol:
        return 0.0, 1.0
    if se > 0.0:
        z = diff / se
        return z, math.erfc(abs(z) / math.sqrt(2.0))
    return math.inf if diff > 0 else -math.inf, 0.0


@dataclass(frozen=True)
class MomentRow:
    """One order of the moment comparison table."""

    order: int
    estimate: float
    se: float
    predicted_free: float
    predicted_free_se: float
    diff: float
    diff_se: float
    z: float
    p_value: float
    reject: bool
    sampled_free: float | None = None
    sampled_free_se: float | None = None
    sampled_classical: float | None = None
    sampled_classical_se: float | None = None


@dataclass(frozen=True)
class DegreeResult:
    """Smallest rejected order (None if nothing rejected up to the scan limit).

    ``triggered_by`` records which test stage fired: "moment" for the
    aggregated moment difference, "word" for an individual cyclic term.
    """

    degree: int | None
    order: int
    alpha: float
    rows: tuple[MomentRow, ...]
    triggered_by: str | None = None
    triggering_words: tuple[str, ...] = ()


@dataclass(frozen=True)
class WordStatistic:
    """Monte Carlo estimate of one cyclic word with both independence predictions."""

    word: Word
    multiplicity: int
    estimate: float
    se: float
    classical_prediction: float
    free_prediction: float
    centered_estimate: float
    centered_se: float
    p_value_classical: float
    p_value_free: float
    flagged_classical: bool
    flagged_free: bool


@dataclass(frozen=True)
class DensityEstimate:
    """Gaussian-kernel density (or derivative) values on an ascending grid."""

    grid: np.ndarray
    values: np.ndarray
    bandwidth: float
    derivative_order: int = 0
    clipped_mass: float = 0.0

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.shape != values.shape or grid.ndim != 1:
            raise ValueError("grid and values must be matching 1-D arrays")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly ascending")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def integral(self) -> float:
        return float(_trapz(self.values, self.grid))


@dataclass(frozen=True)
class _SampleTables:
    """What the single pass over the sample indices keeps (row i = sample i).

    ``m_a``, ``m_b``, ``m_s`` hold the spectral moments of A, B and A + B;
    ``traces`` the raw normalized traces of ``words``: the empty word, then
    the necklaces by order.  The spectrum pools are filled for
    ``run_analysis`` only.
    """

    m_a: np.ndarray
    m_b: np.ndarray
    m_s: np.ndarray
    words: list[Word]
    traces: np.ndarray
    free_pool: np.ndarray | None = None
    sum_pool: np.ndarray | None = None
    classical_pool: np.ndarray | None = None


def _sample_pass(draw, count: int, dimension: int, order2: int, necklaces_by_order,
                 threads: int, config: AnalysisConfig | None = None) -> _SampleTables:
    """Draw each pair once and record everything the pipeline reads from it.

    ``draw(i)`` returns the i-th pair.  Every quantity is a function of the
    index alone (the spectra use the per-index streams), so the tables do
    not depend on ``threads``.  With ``config`` the free-rotated, exact and
    permuted sum spectra are pooled as well.
    """
    words = [Word.empty()] + [n.word for necklaces in necklaces_by_order.values()
                              for n in necklaces]
    plan = WordTracePlan(words)
    m_a = np.empty((count, order2 + 1))
    m_b = np.empty((count, order2 + 1))
    m_s = np.empty((count, order2 + 1))
    traces = np.empty((count, plan.size))
    free_pool = sum_pool = classical_pool = None
    if config is not None:
        rotations = config.free_rotations
        seed = config.ensemble.seed
        free_pool = np.empty((count * rotations, dimension))
        sum_pool = np.empty((count, dimension)) if config.include_exact_sum else None
        classical_pool = np.empty((count, dimension)) if config.include_classical else None

    def run_chunk(indices):
        powers = PairPowers()
        for i in indices:
            pair = draw(i)
            if pair.dimension != dimension:
                raise ValueError(
                    f"sample {i} has dimension {pair.dimension}, expected {dimension}"
                )
            ea = np.linalg.eigvalsh(pair.a)
            eb = np.linalg.eigvalsh(pair.b)
            es = np.linalg.eigvalsh(pair.a + pair.b)
            # errstate is per thread; the finite check below reports overflow
            with np.errstate(over="ignore", invalid="ignore"):
                m_a[i] = per_sample_moments(ea, order2)[0]
                m_b[i] = per_sample_moments(eb, order2)[0]
                m_s[i] = per_sample_moments(es, order2)[0]
                traces[i] = plan.traces(powers.load(pair))
            if config is None:
                continue
            if sum_pool is not None:
                sum_pool[i] = es
            for j in range(rotations):
                spectrum = sample_free_sum_spectrum(pair, stream(seed, i, _FREE_STREAM, j))
                free_pool[i * rotations + j] = spectrum.eigenvalues
            if classical_pool is not None:
                spectrum = sample_classical_sum_spectrum(
                    pair, stream(seed, i, _CLASSICAL_STREAM), eigenvalues=(ea, eb))
                classical_pool[i] = spectrum.eigenvalues

    for_each_chunk(count, threads, run_chunk)
    checks = [(f"moment of {name}", table, range(order2 + 1))
              for name, table in (("A", m_a), ("B", m_b), ("A + B", m_s))]
    for what, table, orders in checks + [("word trace", traces, [w.length for w in words])]:
        bad = np.flatnonzero(~np.isfinite(table).all(axis=0))
        if bad.size:
            raise InputError(f"non-finite sample {what} at order {orders[bad[0]]}: "
                             "entries too large for double-precision powers")
    return _SampleTables(m_a, m_b, m_s, words, traces, free_pool, sum_pool, classical_pool)


def _necklaces_through(order: int) -> dict:
    """Necklaces of every order 1..order, keyed by order."""
    return {k: word_expansion(k, 2) for k in range(1, order + 1)}


def _paper_se(mean_table: np.ndarray, t: int, k: int) -> float:
    return math.sqrt(max(0.0, mean_table[2 * k] - mean_table[k] ** 2) / t)


def _moment_stage(m_a: np.ndarray, m_b: np.ndarray, m_s: np.ndarray,
                  order: int, level: float) -> list[MomentRow]:
    """Per-order comparison of the estimated sum moments with the free prediction.

    The test statistic is the difference between the Monte Carlo mean and
    the prediction computed from the estimated pure moments; its standard
    error is a leave-one-out jackknife over samples, recomputing the
    prediction each time, which keeps the large cancellation between the
    two correlated sides.  The full-sample means and the t leave-one-out
    means form one replicate table, so a single batched ``free_convolve``
    call yields the point prediction and every jackknife replicate.
    """
    t = m_a.shape[0]
    if m_a.shape[1] < 2 * order + 1:
        raise ValueError(f"need sample moments through order {2 * order}")
    mean_s = m_s.mean(axis=0)

    def replicates(m):
        # column 0: full-sample means; column i: means without sample i - 1
        m = m[:, : order + 1]
        return np.column_stack([m.mean(axis=0), ((m.sum(axis=0) - m) / (t - 1)).T])

    rep_a, rep_b, rep_s = replicates(m_a), replicates(m_b), replicates(m_s)
    convolved = free_convolve([1, *rep_a[1:]], [1, *rep_b[1:]])
    rep_pred = np.array([rep_a[0], *convolved[1:]])
    rep_diff = rep_s - rep_pred
    predicted, diffs = rep_pred[:, 0], rep_diff[:, 0]

    constant = all(np.all(m == m[0]) for m in (m_a, m_b, m_s))
    if constant:
        # deterministic ensemble: every leave-one-out replicate is identical
        diff_se = pred_se = np.zeros(order + 1)
    else:
        loo = np.stack([rep_diff[:, 1:], rep_pred[:, 1:]])
        spread = ((loo - loo.mean(axis=2, keepdims=True)) ** 2).sum(axis=2)
        diff_se, pred_se = np.sqrt((t - 1) / t * spread)

    rows = []
    for k in range(1, order + 1):
        z, p_value = _two_sided_test(
            float(diffs[k]), float(diff_se[k]),
            max(abs(float(mean_s[k])), abs(float(predicted[k]))),
        )
        rows.append(MomentRow(
            order=k,
            estimate=float(mean_s[k]),
            se=_paper_se(mean_s, t, k),
            predicted_free=float(predicted[k]),
            predicted_free_se=float(pred_se[k]),
            diff=float(diffs[k]),
            diff_se=float(diff_se[k]),
            z=z,
            p_value=p_value,
            reject=p_value < level,
        ))
    return rows


def _word_family_size(order: int) -> int:
    return sum(necklace_count(k, 2) for k in range(1, order + 1))


def _detect(tables: _SampleTables, necklaces_by_order, order: int, alpha: float):
    """Two-stage scan for the first order deviating from free independence.

    Stage one tests the aggregated moment difference at each order.  Stage
    two tests the centered estimate of every cyclic term of that order: the
    degree is defined by the first order at which some joint term violates
    the free recurrence, and the aggregated moment can bury a one-word
    violation in the Monte Carlo noise of the many other terms, so the word
    stage is what gives the scan its power at practical sample counts.  The
    budget alpha is split evenly between the stages, Bonferroni-corrected
    within each (K moment tests; all cyclic terms through order K).

    Returns the DegreeResult plus the per-order word statistics, so callers
    can reuse them for localization.
    """
    moment_level = alpha / (2 * order)
    word_level = alpha / (2 * _word_family_size(order))
    rows = _moment_stage(tables.m_a, tables.m_b, tables.m_s, order, moment_level)
    stats_by_order = _word_statistics(necklaces_by_order, tables, word_level)
    degree = None
    triggered_by = None
    triggering: tuple[str, ...] = ()
    for k in range(1, order + 1):
        if rows[k - 1].reject:
            degree, triggered_by = k, "moment"
            break
        rejected = [s.word.to_string() for s in stats_by_order[k] if s.flagged_free]
        if rejected:
            degree, triggered_by, triggering = k, "word", tuple(rejected)
            break
    return DegreeResult(degree, order, alpha, tuple(rows), triggered_by,
                        triggering), stats_by_order


def _word_statistics(necklaces_by_order, tables: _SampleTables,
                     flag_level: float) -> dict[int, list[WordStatistic]]:
    """Word statistics for every order of ``necklaces_by_order``.

    The centered traces tr(prod (X^e - mu_e))/N are the raw table times the
    inclusion-exclusion map, and the free predictions solve that same map.
    """
    mu_a = tables.m_a.mean(axis=0)
    mu_b = tables.m_b.mean(axis=0)
    expansion = centering_map(tables.words, mu_a, mu_b)
    centered = tables.traces @ expansion
    free = free_word_moments(expansion)
    out: dict[int, list[WordStatistic]] = {}
    column = 1
    for k, necklaces in necklaces_by_order.items():
        columns = slice(column, column + len(necklaces))
        column += len(necklaces)
        out[k] = _stats_from_table(necklaces, tables.traces[:, columns],
                                   centered[:, columns], free[columns],
                                   mu_a, mu_b, flag_level)
    return out


def detect_degree(samples, order: int, alpha: float, threads: int = 1) -> DegreeResult:
    """Smallest moment order where A + B departs from the free prediction.

    ``samples`` is a sequence of MatrixPairSample; needs at least 30 of them
    so the jackknife error bars mean something.
    """
    samples = list(samples)
    if len(samples) < 30:
        raise ConfigError(f"need at least 30 samples for the degree test, got {len(samples)}")
    if order < 2:
        raise ConfigError(f"need a scan order >= 2, got {order}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    necklaces_by_order = _necklaces_through(order)
    tables = _sample_pass(samples.__getitem__, len(samples), samples[0].dimension,
                          2 * order, necklaces_by_order, threads)
    result, _ = _detect(tables, necklaces_by_order, order, alpha)
    return result


def _stats_from_table(necklaces, raw: np.ndarray, centered: np.ndarray, free: np.ndarray,
                      mu_a, mu_b, level: float) -> list[WordStatistic]:
    # Standard errors here are the plain Monte Carlo ones, std/sqrt(t) over
    # per-sample traces.  The <W^2>-based proxy (see estimate_word_net) is
    # not the sampling variance of the mean and can even vanish while the
    # statistic fluctuates, which would break the hypothesis tests.
    t = raw.shape[0]
    ddof = 1 if t > 1 else 0
    stats = []
    for j, necklace in enumerate(necklaces):
        v, cv = raw[:, j], centered[:, j]
        estimate = float(v.mean())
        se = float(v.std(ddof=ddof)) / math.sqrt(t)
        centered_mean = float(cv.mean())
        centered_se = float(cv.std(ddof=ddof)) / math.sqrt(t)
        classical = float(classical_joint_moment(necklace.word, mu_a, mu_b))
        _, p_classical = _two_sided_test(estimate - classical, se,
                                         max(abs(estimate), abs(classical)))
        _, p_free = _two_sided_test(centered_mean, centered_se, abs(centered_mean))
        stats.append(WordStatistic(
            word=necklace.word,
            multiplicity=necklace.multiplicity,
            estimate=estimate,
            se=se,
            classical_prediction=classical,
            free_prediction=float(free[j]),
            centered_estimate=centered_mean,
            centered_se=centered_se,
            p_value_classical=p_classical,
            p_value_free=p_free,
            flagged_classical=p_classical < level,
            flagged_free=p_free < level,
        ))
    return stats


def localize_violations(samples, degree: int, alpha: float,
                        threads: int = 1) -> list[WordStatistic]:
    """Word-level statistics for every cyclic term of order ``degree``.

    The free prediction of each word comes from the estimated pure moments;
    the centered estimate would vanish in expectation were the pair free, so
    its Bonferroni-corrected test flags the violating words.
    """
    samples = list(samples)
    if degree < 1:
        raise ConfigError(f"need degree >= 1, got {degree}")
    if not samples:
        raise ConfigError("need samples")
    necklaces_by_order = _necklaces_through(degree)
    tables = _sample_pass(samples.__getitem__, len(samples), samples[0].dimension,
                          degree, necklaces_by_order, threads)
    level = alpha / len(necklaces_by_order[degree])
    return _word_statistics(necklaces_by_order, tables, level)[degree]


# ---------------------------------------------------------------------------
# density estimation


def silverman_bandwidth(values, derivative_order: int = 0) -> float:
    """Rule-of-thumb Gaussian-kernel bandwidth, generalized to derivatives.

    Order 0 is Silverman's 0.9 * min(std, iqr/1.34) * n^(-1/5).  For the
    r-th derivative the normal-reference optimum changes the exponent to
    -1/(2r+5) and the constant to ((2r+1) R(phi^(r)) / R(phi^(r+2)))^(1/(2r+5))
    with R(phi^(m)) = (2m)! / (2^(2m+1) m! sqrt(pi)); r = 0 recovers the
    classic (4/3)^(1/5) rule.
    """
    values = np.asarray(values, dtype=float).ravel()
    n = values.size
    if n < 2:
        raise ValueError("bandwidth selection needs at least two values")
    std = float(values.std())
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = float(q75 - q25)
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    if scale <= 0:
        raise ValueError("zero-variance sample: density estimate is degenerate")
    r = derivative_order
    if r == 0:
        return 0.9 * scale * n ** (-0.2)
    ratio = 16.0 * (r + 1) * (r + 2) / ((2 * r + 2) * (2 * r + 3) * (2 * r + 4))
    return scale * (ratio / n) ** (1.0 / (2 * r + 5))


def _kernel_sum(values: np.ndarray, grid: np.ndarray, bandwidth: float,
                derivative_order: int) -> np.ndarray:
    out = np.zeros(grid.size)
    chunk = max(1, int(4_000_000 // max(1, values.size)))
    for start in range(0, grid.size, chunk):
        block = grid[start:start + chunk]
        u = (block[:, None] - values[None, :]) / bandwidth
        w = np.exp(-0.5 * u * u)
        if derivative_order:
            w = w * hermite(derivative_order, u)
        out[start:start + chunk] = w.sum(axis=1)
    sign = -1.0 if derivative_order % 2 else 1.0
    norm = values.size * bandwidth ** (derivative_order + 1) * math.sqrt(2.0 * math.pi)
    return sign * out / norm


def kde_density(values, bandwidth: float | None = None, grid=None,
                grid_points: int = 512) -> DensityEstimate:
    """Gaussian-kernel density estimate on an automatic or supplied grid."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("need a nonempty sample")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(values)
    elif bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if grid is None:
        grid = np.linspace(values.min() - 3.0 * bandwidth,
                           values.max() + 3.0 * bandwidth, grid_points)
    else:
        grid = np.asarray(grid, dtype=float)
    return DensityEstimate(grid, _kernel_sum(values, grid, bandwidth, 0), bandwidth, 0)


def kde_derivative(values, order: int, bandwidth: float | None = None, grid=None,
                   grid_points: int = 512) -> DensityEstimate:
    """Analytic r-th derivative of the Gaussian-kernel density estimate.

    Each kernel differentiates in closed form,
    d^r/dx^r phi_h(x - x_i) = (-1)^r He_r(u) phi(u) / h^(r+1), u = (x - x_i)/h,
    so no finite differencing is involved.  The default grid extends
    (6 + r) bandwidths beyond the data because the Hermite-weighted tails
    decay more slowly than the density itself.
    """
    if order < 1:
        raise ValueError(f"need derivative order >= 1, got {order}")
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("need a nonempty sample")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(values, order)
    elif bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if grid is None:
        pad = (6.0 + order) * bandwidth
        grid = np.linspace(values.min() - pad, values.max() + pad, grid_points)
    else:
        grid = np.asarray(grid, dtype=float)
    return DensityEstimate(grid, _kernel_sum(values, grid, bandwidth, order),
                           bandwidth, order)


def edgeworth_corrected_density(base: DensityEstimate, derivative: DensityEstimate,
                                delta_mu: float) -> DensityEstimate:
    """Apply the leading moment-mismatch correction to a reference density.

    Returns base + (-1)^p (delta_mu / p!) * derivative clipped at zero, where
    p is the derivative's order; the clipped (negative) mass is recorded on
    the result rather than silently discarded.
    """
    if base.derivative_order != 0:
        raise ValueError("base must be a plain density (derivative order 0)")
    if derivative.derivative_order < 1:
        raise ValueError("derivative estimate must have order >= 1")
    if base.grid.shape != derivative.grid.shape or not np.array_equal(base.grid, derivative.grid):
        raise ValueError("base and derivative must share one grid")
    p = derivative.derivative_order
    sign = -1.0 if p % 2 else 1.0
    corrected = base.values + sign * (delta_mu / math.factorial(p)) * derivative.values
    clipped = max(0.0, float(-_trapz(np.minimum(corrected, 0.0), base.grid)))
    return DensityEstimate(base.grid, np.maximum(corrected, 0.0), base.bandwidth,
                           0, clipped_mass=clipped)


def gram_charlier_coefficients(mu, reference: str = "standard-gaussian") -> list:
    """Expansion coefficients c_n = B_n(cumulant differences) about the reference.

    c_0 = 1 and c_n vanishes whenever the first n cumulants match the
    reference; equivalently c_m is the expected value of the m-th
    orthogonal polynomial of the reference weight.
    """
    if reference != "standard-gaussian":
        raise ValueError(f"unsupported reference {reference!r}")
    kappa = classical_cumulants_from_moments(mu)
    delta = list(kappa[1:])
    if len(delta) >= 2:
        delta[1] = delta[1] - 1
    return [complete_bell(n, delta[:n]) for n in range(len(kappa))]


def ks_statistic(values, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a distribution function."""
    values = np.sort(np.asarray(values, dtype=float).ravel())
    n = values.size
    if n == 0:
        raise ValueError("need a nonempty sample")
    f = np.array([cdf(x) for x in values])
    i = np.arange(1, n + 1)
    return float(max((i / n - f).max(), (f - (i - 1) / n).max()))


# ---------------------------------------------------------------------------
# pipeline


@dataclass
class AnalysisConfig:
    """Everything one reproducible run needs."""

    ensemble: EnsembleSpec
    sample_count: int
    order: int
    alpha: float = 0.05
    include_exact_sum: bool = True
    include_classical: bool = True
    free_rotations: int = 1
    threads: int = 1
    grid_points: int = 512

    def validate(self) -> None:
        if self.sample_count < 30:
            raise ConfigError(f"need at least 30 samples, got {self.sample_count}")
        if self.order < 2:
            raise ConfigError(f"need order >= 2, got {self.order}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.free_rotations < 1:
            raise ConfigError("need at least one rotation per pair")
        if self.threads < 1:
            raise ConfigError("need threads >= 1")
        if self.grid_points < 16:
            raise ConfigError("need at least 16 grid points")

    def describe(self) -> dict:
        return {
            "ensemble": self.ensemble.describe(),
            "dimension": self.ensemble.dimension,
            "sample_count": self.sample_count,
            "order": self.order,
            "alpha": self.alpha,
            "seed": self.ensemble.seed,
            "include_exact_sum": self.include_exact_sum,
            "include_classical": self.include_classical,
            "free_rotations": self.free_rotations,
            "grid_points": self.grid_points,
        }


@dataclass(frozen=True)
class FreenessReport:
    """Full record of one pipeline run, serializable as a single JSON document."""

    config: dict
    degree: int | None
    moments: tuple[MomentRow, ...]
    words: tuple[WordStatistic, ...]
    densities: dict | None
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "degree": self.degree,
            "moments": [_moment_row_dict(row) for row in self.moments],
            "words": [_word_stat_dict(stat) for stat in self.words],
            "densities": self.densities,
            "notes": list(self.notes),
        }

    def to_json(self, indent: int | None = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          allow_nan=False) + "\n"

    def densities_csv(self) -> str:
        if not self.densities:
            return "grid,f_sum,f_free,f_corrected\n"
        grid = self.densities["grid"]
        columns = [self.densities.get(k) for k in ("f_sum", "f_free", "f_corrected")]
        lines = ["grid,f_sum,f_free,f_corrected"]
        for i, x in enumerate(grid):
            cells = [repr(x)]
            for col in columns:
                cells.append(repr(col[i]) if col is not None else "")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _finite_or_none(x: float) -> float | str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _moment_row_dict(row: MomentRow) -> dict:
    return {
        "order": row.order,
        "estimate": row.estimate,
        "se": row.se,
        "predicted_free": row.predicted_free,
        "predicted_free_se": row.predicted_free_se,
        "diff": row.diff,
        "diff_se": row.diff_se,
        "z": _finite_or_none(row.z),
        "p_value": row.p_value,
        "reject": row.reject,
        "sampled_free": row.sampled_free,
        "sampled_free_se": row.sampled_free_se,
        "sampled_classical": row.sampled_classical,
        "sampled_classical_se": row.sampled_classical_se,
    }


def _word_stat_dict(stat: WordStatistic) -> dict:
    return {
        "word": stat.word.to_string(),
        "multiplicity": stat.multiplicity,
        "estimate": stat.estimate,
        "se": stat.se,
        "classical_prediction": stat.classical_prediction,
        "free_prediction": stat.free_prediction,
        "centered_estimate": stat.centered_estimate,
        "centered_se": stat.centered_se,
        "p_value_classical": stat.p_value_classical,
        "p_value_free": stat.p_value_free,
        "flagged_classical": stat.flagged_classical,
        "flagged_free": stat.flagged_free,
    }


def run_analysis(config: AnalysisConfig) -> FreenessReport:
    """Run the full sampling / testing / density pipeline for one ensemble."""
    config.validate()
    spec = config.ensemble
    t, order = config.sample_count, config.order
    necklaces_by_order = _necklaces_through(order)
    tables = _sample_pass(lambda i: sample_pair(spec, i), t, spec.dimension, 2 * order,
                          necklaces_by_order, config.threads, config)
    degree_result, stats_by_order = _detect(tables, necklaces_by_order, order,
                                            config.alpha)
    free_est = estimate_moments(tables.free_pool, order)
    classical_est = (estimate_moments(tables.classical_pool, order)
                     if config.include_classical else None)

    rows = [replace(
        row,
        sampled_free=float(free_est.values[row.order]),
        sampled_free_se=float(free_est.se[row.order]),
        sampled_classical=float(classical_est.values[row.order]) if classical_est else None,
        sampled_classical_se=float(classical_est.se[row.order]) if classical_est else None,
    ) for row in degree_result.rows]

    notes = ["field: real-symmetric"]
    degree = degree_result.degree
    words: list[WordStatistic] = []
    delta_mu = None
    if degree is None:
        notes.append(f"no deviation from the free prediction detected up to order {order}")
    else:
        notes.append(f"first deviating moment order: {degree}"
                     f" (trigger: {degree_result.triggered_by})")
        # reuse the scan's estimates; re-flag at the per-order family level
        locus_level = config.alpha / len(stats_by_order[degree])
        words = [replace(stat,
                         flagged_classical=stat.p_value_classical < locus_level,
                         flagged_free=stat.p_value_free < locus_level)
                 for stat in stats_by_order[degree]]
        flagged = [w for w in words if w.flagged_free]
        if flagged:
            notes.append("words violating the free prediction: "
                         + ", ".join(w.word.to_string() for w in flagged))
            # The sparse word-level reconstruction of the moment mismatch is a
            # far lower-variance estimate than the aggregated moment difference.
            delta_mu = float(sum(w.multiplicity * w.centered_estimate for w in flagged))
            notes.extend(_walk_sum_notes(spec, flagged))
        else:
            delta_mu = degree_result.rows[degree - 1].diff

    densities = _density_section(config, degree, delta_mu, tables.free_pool,
                                 tables.sum_pool, tables.classical_pool, notes)
    if not config.include_exact_sum:
        notes.append("exact-sum sampling disabled; f_sum density omitted")
    if not config.include_classical:
        notes.append("classical sampling disabled; f_classical omitted")

    return build_report(config, rows, degree, words, densities, notes)


def _walk_sum_notes(spec: EnsembleSpec, flagged) -> list[str]:
    """Exact walk-sum values for flagged words on chain-adjacency ensembles."""
    if spec.variant != "tridiagonal-adjacency":
        return []
    from .errors import ResourceLimitError
    from .pathsum import LatticeModel, exact_word_net, gaussian_entry_moments

    notes = []
    for stat in flagged:
        order = stat.word.length
        model = LatticeModel.chain(spec.dimension, gaussian_entry_moments(order),
                                   circulant=spec.circulant)
        try:
            value = exact_word_net(stat.word, model)
        except (ResourceLimitError, ValueError):
            continue
        notes.append(
            f"exact walk-sum value for {stat.word.to_string()}: {float(value)!r}")
    return notes


def _density_section(config, degree, delta_mu, free_pool, sum_pool,
                     classical_pool, notes) -> dict:
    flat_free = free_pool.ravel()
    h0 = silverman_bandwidth(flat_free)
    if degree is not None:
        hp = silverman_bandwidth(flat_free, degree)
        pad = (6.0 + degree) * hp
    else:
        hp = None
        pad = 3.0 * h0
    lo = flat_free.min()
    hi = flat_free.max()
    if sum_pool is not None:
        lo = min(lo, sum_pool.min())
        hi = max(hi, sum_pool.max())
    grid = np.linspace(lo - pad, hi + pad, config.grid_points)

    f_free = kde_density(flat_free, bandwidth=h0, grid=grid)
    section = {
        "grid": [float(x) for x in grid],
        "f_free": [float(v) for v in f_free.values],
        "bandwidth": h0,
        "f_sum": None,
        "f_corrected": None,
        "f_classical": None,
        "f_derivative": None,
        "derivative_order": degree,
        "derivative_bandwidth": hp,
        "delta_mu": None,
        "clipped_mass": None,
    }
    if sum_pool is not None:
        f_sum = kde_density(sum_pool.ravel(), bandwidth=h0, grid=grid)
        section["f_sum"] = [float(v) for v in f_sum.values]
    if classical_pool is not None:
        f_classical = kde_density(classical_pool.ravel(), bandwidth=h0, grid=grid)
        section["f_classical"] = [float(v) for v in f_classical.values]
    if degree is not None and delta_mu is not None:
        derivative = kde_derivative(flat_free, degree, bandwidth=hp, grid=grid)
        corrected = edgeworth_corrected_density(f_free, derivative, delta_mu)
        section["f_corrected"] = [float(v) for v in corrected.values]
        section["f_derivative"] = [float(v) for v in derivative.values]
        section["delta_mu"] = float(delta_mu)
        section["clipped_mass"] = corrected.clipped_mass
        notes.append(f"corrected density clipped mass: {corrected.clipped_mass:.3e}")
    return section


def build_report(config: AnalysisConfig, rows, degree, words, densities,
                 notes) -> FreenessReport:
    """Assemble the serializable report from pipeline intermediates."""
    return FreenessReport(
        config=config.describe(),
        degree=degree,
        moments=tuple(rows),
        words=tuple(words),
        densities=densities,
        notes=tuple(notes),
    )
