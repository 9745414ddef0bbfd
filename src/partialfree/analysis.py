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

All of it derives from one streaming pass over the sample indices
(matrices.sample_tables, which owns the drawing, stacking and threading):
each pair is drawn once and leaves only raw observations, one row of raw
normalized traces tr(W)/N of every necklace through the scan order (plus,
for a full run, its free-rotated and permuted sum spectra, and for f_sum
the spectrum of A + B), and is then dropped.  The pure moments are columns
of that raw table, and the moments of A + B are its order-k columns
summed, each necklace once per rotation.
Centered word traces and the free word predictions both follow from the
raw table through one linear inclusion-exclusion map
(moments.centering_map), so no pair is ever regenerated.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, InputError, ResourceLimitError
from .matrices import (
    _CELL_BUDGET,
    EnsembleSpec,
    SampleTables,
    column_stats,
    per_sample_moments,
    require_finite,
    sample_pair,
    sample_tables,
)
from .moments import (
    centering_map,
    classical_cumulants_from_moments,
    classical_joint_moment,
    free_convolve,
    free_joint_moment,
    free_word_moments,
    moments_from_classical_cumulants,
)
from .pathsum import LatticeModel, exact_word_net, gaussian_entry_moments
from .series import hermite
from .words import Word, necklace_count, word_expansion

_trapz = getattr(np, "trapezoid", None) or np.trapz

# noise floors, relative to the scale of a word and, for the rounding of a
# moment, to the size of the moment (a few thousand ulps)
_EXACT_RTOL = 1e-9
_ROUNDING_RTOL = 1e-12

# the statistics stage: every statistic bound for the report is checked
# finite, so overflow ends in an InputError instead of a warning
_QUIET = {"over": "ignore", "invalid": "ignore"}


def _tests(values: np.ndarray, diffs: np.ndarray, se: np.ndarray, floors: np.ndarray,
           what: str, orders) -> list[tuple[float, float]]:
    """Two-sided (z, p-value) per statistic; differences within the floor give (0, 1).

    Row j of ``values`` holds statistic j over the samples or replicates.  The
    test reads an SE only where |diff| > floor.  There an SE below the smallest
    normal double is an InputError naming the first such order where the
    values differ; where they are all equal (SE 0, deterministic ensembles)
    the test is an exact comparison, z = ±inf and p = 0.
    """
    tested = np.abs(diffs) > floors
    bad = np.flatnonzero(tested & (se < np.finfo(float).tiny)
                         & (values != values[:, :1]).any(axis=1))
    if bad.size:
        raise InputError(f"underflowing standard error of the {what} at order "
                         f"{orders[bad[0]]}: entries too small for double-precision squares")
    zs = [(d / s if s > 0.0 else math.copysign(math.inf, d)) if read else 0.0
          for d, s, read in zip(diffs.tolist(), se.tolist(), tested.tolist())]
    return [(z, math.erfc(abs(z) / math.sqrt(2.0))) for z in zs]


def _word_floors(words, mu_a, mu_b) -> np.ndarray:
    """1e-9 mu_2(A)^(a/2) mu_2(B)^(b/2) per word with a letters A and b letters B.

    Like the word's statistics it is homogeneous of degree a in A and b in
    B, so rescaling either matrix leaves every word test unchanged.
    """
    counts = np.array([[sum(e for x, e in w.blocks if x == letter) for letter in (0, 1)]
                       for w in words])
    return _EXACT_RTOL * np.sqrt(mu_a[2]) ** counts[:, 0] * np.sqrt(mu_b[2]) ** counts[:, 1]


def _pure_moments(tables: SampleTables) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample moments tr(X^k)/N of A and of B, k = 0 through the longest word.

    The pure word X^k is the necklace of order k with one block, so each
    moment is a column of the raw trace table (the empty word gives k = 0),
    which lists its words by length.
    """
    return tuple(tables.traces[:, [j for j, w in enumerate(tables.words)
                                   if w.blocks in ((), ((letter, w.length),))]]
                 for letter in (0, 1))


def _order_sums(words, columns: np.ndarray) -> np.ndarray:
    """Per order k, the sum over the words w of length k of mult(w) times column w.

    The mult(w) rotations of a necklace w share its trace, so on the raw
    traces this gives the moments tr((A + B)^k)/N, and on their |means| the
    sum |x_i| whose gamma_n multiple bounds the rounding of that sum (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, 4.2).
    """
    lengths = np.array([w.length for w in words])
    weights = np.array([w.multiplicity() if w.length else 1 for w in words], dtype=float)
    return np.stack([(columns[..., lengths == k] * weights[lengths == k]).sum(axis=-1)
                     for k in range(lengths.max() + 1)], axis=-1)


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
        if not np.isfinite(grid).all():
            raise ValueError("grid points must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly ascending")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def integral(self) -> float:
        return float(_trapz(self.values, self.grid))


def _table_words(order: int) -> list[Word]:
    """The trace table's columns: the empty word, then the necklaces of orders 1..order."""
    return [Word.empty()] + [n.word for k in range(1, order + 1) for n in word_expansion(k, 2)]


def _moment_stage(m_a: np.ndarray, m_b: np.ndarray, m_s: np.ndarray, level: float,
                  floors: np.ndarray, sampled=(None, None)) -> list[MomentRow]:
    """Per-order comparison of the estimated sum moments with the free prediction.

    Row i of ``m_a``, ``m_b`` and ``m_s`` holds sample i's moments of A, B
    and A + B through order K.  The test statistic is the difference
    between the Monte Carlo mean and the prediction computed from the
    estimated pure moments; its standard error is a leave-one-out jackknife
    over samples, recomputing the prediction each time, which keeps the
    large cancellation between the two correlated sides.  One batched
    ``free_convolve`` call over the full-sample and leave-one-out means
    yields the prediction and every replicate.  Replicates that are all
    equal give SE exactly 0, where the rounding of their mean would leave a
    few ulps.  The order-k difference is tested against ``floors[k]``.  The
    estimate's SE is ``column_stats``, as is each (mean, SE) in ``sampled``,
    the free-rotated and permuted sums' moments (None if not drawn).
    """
    t, width = m_s.shape
    # column 0: full-sample means; column i: means without sample i - 1
    rep_a, rep_b, rep_s = (np.column_stack([m.mean(axis=0), ((m.sum(axis=0) - m) / (t - 1)).T])
                           for m in (m_a, m_b, m_s))
    convolved = free_convolve([1, *rep_a[1:]], [1, *rep_b[1:]])
    rep_pred = np.array([rep_a[0], *convolved[1:]])
    rep_diff = rep_s - rep_pred
    estimate, predicted, diffs = rep_s[:, 0], rep_pred[:, 0], rep_diff[:, 0]

    loo = np.stack([rep_diff[:, 1:], rep_pred[:, 1:]])
    spread = ((loo - loo.mean(axis=2, keepdims=True)) ** 2).sum(axis=2)
    spread[(loo == loo[..., :1]).all(axis=2)] = 0.0
    diff_se, pred_se = np.sqrt((t - 1) / t * spread)

    se = column_stats(m_s)[1]
    require_finite(np.stack([estimate, se, predicted, pred_se, diffs, diff_se, floors]),
                   "moment statistic", range(width))
    tests = _tests(rep_diff[:, 1:], diffs, diff_se, floors, "moment difference", range(width))
    free, classical = sampled
    rows = []
    for k in range(1, width):
        z, p_value = tests[k]
        rows.append(MomentRow(
            order=k,
            estimate=float(estimate[k]),
            se=float(se[k]),
            predicted_free=float(predicted[k]),
            predicted_free_se=float(pred_se[k]),
            diff=float(diffs[k]),
            diff_se=float(diff_se[k]),
            z=z,
            p_value=p_value,
            reject=p_value < level,
            sampled_free=float(free[0][k]) if free else None,
            sampled_free_se=float(free[1][k]) if free else None,
            sampled_classical=float(classical[0][k]) if classical else None,
            sampled_classical_se=float(classical[1][k]) if classical else None,
        ))
    return rows


# cells of the raw and centered trace tables plus the centering map: 4 GiB
_TABLE_CELLS_LIMIT = 1 << 29


def _require_tables_fit(order: int, t: int) -> None:
    """ResourceLimitError, before any sampling, when the order's tables cannot fit.

    W only grows with the order, so the words are counted order by order
    and the count stops at the first order whose words pass the bound.
    """
    width = 1
    for k in range(1, order + 1):
        width += necklace_count(k, 2)
        if (2 * t + width) * width > _TABLE_CELLS_LIMIT:
            words = (f"W = {width} words" if k == order else
                     f"more than W = {width} words (those through order {k})")
            raise ResourceLimitError(
                f"scan order K = {order} needs {words}; the trace tables and "
                f"centering map, (2t + W)W cells at t = {t}, exceed the bound of "
                f"2^29 = {_TABLE_CELLS_LIMIT} cells")


def _sample_words(draw, count: int, dimension: int, order: int, threads: int,
                  **pass_options) -> SampleTables:
    """``sample_tables`` over every necklace through ``order``, and at least order 2.

    The order-2 pure moments set the tests' noise scale.  The table bound
    is checked before any pair is drawn.
    """
    order = max(order, 2)
    _require_tables_fit(order, count)
    return sample_tables(draw, count, dimension, _table_words(order), threads,
                         **pass_options)


class _WordScan:
    """Per column of a raw trace table: the centered mean, its SE and the free p-value.

    The centered traces tr(prod (X^e - mu_e))/N are the raw table times the
    inclusion-exclusion map (moments.centering_map).  The degree scan reads
    only the p-values; ``rows`` builds the report rows of one order.
    """

    def __init__(self, tables: SampleTables, mu, floors: np.ndarray):
        self.tables = tables
        self.lengths = [w.length for w in tables.words]
        self.mu = mu
        self.floors = floors
        self.expansion = centering_map(tables.words, *mu)
        centered = tables.traces @ self.expansion
        mean, se = column_stats(centered)
        require_finite(np.stack([mean, se, self.floors]), "centered word statistic",
                       self.lengths)
        self.p_free = [p for _, p in _tests(centered.T, mean, se, self.floors,
                                            "centered word statistic", self.lengths)]
        self.mean, self.se = mean.tolist(), se.tolist()

    def flagged(self, order: int, level: float) -> list[str]:
        """The words of ``order`` whose free test rejects at ``level``."""
        return [w.to_string() for w, k, p in zip(self.tables.words, self.lengths, self.p_free)
                if k == order and p < level]

    def rows(self, order: int, alpha: float) -> list[WordStatistic]:
        """Report rows of the words of ``order``, flagged at alpha / (their count)."""
        columns = [c for c, k in enumerate(self.lengths) if k == order]
        level = alpha / len(columns)
        words = [self.tables.words[c] for c in columns]
        raw = self.tables.traces[:, columns]
        estimates, ses = column_stats(raw)
        classical = np.array([classical_joint_moment(w, *self.mu) for w in words], dtype=float)
        # the free predictions through this order solve the centering map
        free = free_word_moments(self.expansion[:columns[-1] + 1, :columns[-1] + 1])[columns]
        require_finite(np.stack([estimates, ses, classical, free]), "word statistic",
                       [order] * len(columns))
        tests = _tests(raw.T, estimates - classical, ses, self.floors[columns],
                       "word statistic", [order] * len(columns))
        rows = []
        for c, word, estimate, se, prediction, free_prediction, (_, p_classical) in zip(
                columns, words, estimates.tolist(), ses.tolist(), classical.tolist(),
                free.tolist(), tests):
            rows.append(WordStatistic(
                word=word,
                multiplicity=word.multiplicity(),
                estimate=estimate,
                se=se,
                classical_prediction=prediction,
                free_prediction=free_prediction,
                centered_estimate=self.mean[c],
                centered_se=self.se[c],
                p_value_classical=p_classical,
                p_value_free=self.p_free[c],
                flagged_classical=p_classical < level,
                flagged_free=self.p_free[c] < level,
            ))
        return rows


def _detect(tables: SampleTables, order: int, alpha: float):
    """Two-stage scan for the first order deviating from free independence.

    Stage one tests the aggregated moment difference at each order.  Stage
    two tests the centered estimate of every cyclic term of that order: the
    degree is defined by the first order at which some joint term violates
    the free recurrence, and the aggregated moment can bury a one-word
    violation in the Monte Carlo noise of the many other terms, so the word
    stage is what gives the scan its power at practical sample counts.  The
    budget alpha is split evenly between the stages, Bonferroni-corrected
    within each (K moment tests; all cyclic terms through order K).

    Both stages read the raw trace table alone, through order K.  The
    order-k moment floor is the largest floor of a mixed word of length k
    (A^k and B^k cancel in expectation) plus 1e-12 times the bound on the
    rounding of its word sum.  Returns the DegreeResult and the word scan.
    """
    pure = _pure_moments(tables)
    mu = [m.mean(axis=0) for m in pure]
    floors = _word_floors(tables.words, *mu)
    mixed = [j for j, w in enumerate(tables.words) if not w.is_pure]
    word_floor = np.zeros(order + 1)
    np.maximum.at(word_floor, [tables.words[j].length for j in mixed], floors[mixed])
    rounding = _ROUNDING_RTOL * _order_sums(tables.words, np.abs(tables.traces.mean(axis=0)))
    sampled = [column_stats(per_sample_moments(pool, order)) if pool is not None else None
               for pool in (tables.free_pool, tables.classical_pool)]
    rows = _moment_stage(*pure, _order_sums(tables.words, tables.traces),
                         alpha / (2 * order), word_floor + rounding, sampled)
    scan = _WordScan(tables, mu, floors)
    for what, est in zip(("rotated", "permuted"), sampled):
        if est is not None:
            require_finite(np.stack(est), f"{what}-sum moment", range(order + 1))
    word_level = alpha / (2 * (len(tables.words) - 1))
    degree = None
    triggered_by = None
    triggering: tuple[str, ...] = ()
    for k in range(1, order + 1):
        if rows[k - 1].reject:
            degree, triggered_by = k, "moment"
            break
        rejected = scan.flagged(k, word_level)
        if rejected:
            degree, triggered_by, triggering = k, "word", tuple(rejected)
            break
    return DegreeResult(degree, order, alpha, tuple(rows), triggered_by, triggering), scan


def detect_degree(samples, order: int, alpha: float, threads: int = 1) -> DegreeResult:
    """Smallest moment order where A + B departs from the free prediction.

    ``samples`` is a sequence of MatrixPairSample; needs at least 30 of them
    so the jackknife error bars mean something.
    """
    samples = list(samples)
    if threads < 1:
        raise ConfigError("need threads >= 1")
    if len(samples) < 30:
        raise ConfigError(f"need at least 30 samples for the degree test, got {len(samples)}")
    if order < 2:
        raise ConfigError(f"need a scan order >= 2, got {order}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    tables = _sample_words(samples.__getitem__, len(samples), samples[0].dimension, order, threads)
    with np.errstate(**_QUIET):
        return _detect(tables, order, alpha)[0]


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
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if threads < 1:
        raise ConfigError("need threads >= 1")
    if not samples:
        raise ConfigError("need samples")
    tables = _sample_words(samples.__getitem__, len(samples), samples[0].dimension, degree,
                           threads)
    mu = [m.mean(axis=0) for m in _pure_moments(tables)]
    with np.errstate(**_QUIET):
        return _WordScan(tables, mu, _word_floors(tables.words, *mu)).rows(degree, alpha)


# ---------------------------------------------------------------------------
# density estimation


def _quartiles(values: np.ndarray) -> tuple[float, float]:
    """The 75th and 25th percentiles as ``np.percentile`` gives them, bit for bit.

    numpy's linear rule puts quantile q at index (n - 1) q, between order
    statistics a and b at fraction t, and takes a + (b - a) t below t = 0.5
    and b - (b - a) (1 - t) from there, with the same array operations (so
    the same floating-point warnings) as here.  One partition finds a and b;
    unlike ``np.percentile`` this does not import numpy.ma.  NaN is not
    propagated.
    """
    spots = (values.size - 1) * np.array([0.75, 0.25])
    lows = spots.astype(np.intp)
    ordered = np.partition(values, np.concatenate([lows, lows + 1]))
    a, b, t = ordered[lows], ordered[lows + 1], spots - lows
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return float(out[0]), float(out[1])


def silverman_bandwidth(values, derivative_order: int = 0) -> float:
    """Rule-of-thumb Gaussian-kernel bandwidth, generalized to derivatives.

    Order 0 is Silverman's 0.9 * min(std, iqr/1.34) * n^(-1/5).  For the
    r-th derivative the normal-reference optimum changes the exponent to
    -1/(2r+5) and the constant to ((2r+1) R(phi^(r)) / R(phi^(r+2)))^(1/(2r+5))
    with R(phi^(m)) = (2m)! / (2^(2m+1) m! sqrt(pi)); r = 0 recovers the
    classic (4/3)^(1/5) rule.
    """
    if derivative_order < 0:
        raise ValueError(f"derivative order must be >= 0, got {derivative_order}")
    values = np.asarray(values, dtype=float).ravel()
    n = values.size
    if n < 2:
        raise ValueError("bandwidth selection needs at least two values")
    if not np.isfinite(values).all():
        raise ValueError("bandwidth selection needs finite values")
    # spread of values / 2**e, 2**(e-1) <= max|v| < 2**e: the power-of-two
    # scaling is exact, and squares of tiny values no longer underflow
    _, e = np.frexp(np.abs(values).max())
    unit = np.ldexp(values, -e)
    std = float(unit.std())
    q75, q25 = _quartiles(unit)
    iqr = q75 - q25
    scale = math.ldexp(min(std, iqr / 1.34) if iqr > 0 else std, int(e))
    if scale <= 0:
        raise ValueError("zero-variance sample: density estimate is degenerate")
    r = derivative_order
    if r == 0:
        return 0.9 * scale * n ** (-0.2)
    ratio = 16.0 * (r + 1) * (r + 2) / ((2 * r + 2) * (2 * r + 3) * (2 * r + 4))
    return scale * (ratio / n) ** (1.0 / (2 * r + 5))


_NODES_PER_BANDWIDTH = 16


def _binned(values: np.ndarray, bandwidth: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the linear binning of ``values``.

    The m = ceil(16 ptp / h) + 1 nodes are uniform over [min, max], at most
    h/16 apart; each value splits its unit weight between its two nodes in
    proportion to its distance from the other one.  When m >= N the values
    themselves are the nodes, with unit weights.  The nodes depend on the
    values and h only, never on the derivative order, so every f^(r) is the
    exact derivative of one binned density.
    """
    lo = values.min()
    span = values.max() - lo
    ratio = _NODES_PER_BANDWIDTH * span / bandwidth
    # m >= N exactly when ratio > N - 2; an infinite or NaN ratio (values
    # that overflow or are not finite) takes this branch too
    if not ratio <= values.size - 2:
        return values, np.ones(values.size)
    if span == 0:
        return values[:1], np.array([float(values.size)])
    m = math.ceil(ratio) + 1
    step = span / (m - 1)
    pos = (values - lo) / step
    left = np.minimum(pos.astype(np.intp), m - 2)
    right_share = pos - left
    weights = (np.bincount(left, 1.0 - right_share, m)
               + np.bincount(left + 1, right_share, m))
    return lo + step * np.arange(m), weights


def _kernel_sum(values: np.ndarray, grid: np.ndarray, bandwidth: float,
                derivative_order: int) -> np.ndarray:
    nodes, weights = _binned(values, bandwidth)
    # blocks of whole grid rows of about _CELL_BUDGET kernel cells keep the
    # temporaries small; each row stays one reduction over all the nodes
    out = np.empty(grid.size)
    chunk = max(1, _CELL_BUDGET // nodes.size)
    for start in range(0, grid.size, chunk):
        block = grid[start:start + chunk]
        u = (block[:, None] - nodes[None, :]) / bandwidth
        w = np.exp(-0.5 * u * u)
        if derivative_order:
            w = w * hermite(derivative_order, u)
        out[start:start + chunk] = (w * weights).sum(axis=1)
    sign = -1.0 if derivative_order % 2 else 1.0
    norm = values.size * bandwidth ** (derivative_order + 1) * math.sqrt(2.0 * math.pi)
    return sign * out / norm


def _kde(values, order: int, pad: float, bandwidth: float | None, grid,
         grid_points: int) -> DensityEstimate:
    """Order-``order`` kernel estimate; the default grid extends ``pad`` bandwidths."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("need a nonempty sample")
    if not np.isfinite(values).all():
        raise ValueError("density estimation needs finite values")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(values, order)
    elif not 0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    if grid is None:
        reach = pad * bandwidth
        grid = np.linspace(values.min() - reach, values.max() + reach, grid_points)
    else:
        grid = np.asarray(grid, dtype=float)
    return DensityEstimate(grid, _kernel_sum(values, grid, bandwidth, order),
                           bandwidth, order)


def kde_density(values, bandwidth: float | None = None, grid=None,
                grid_points: int = 512) -> DensityEstimate:
    """Gaussian-kernel density estimate on an automatic or supplied grid.

    The values are first linearly binned onto nodes at most h/16 apart,
    which moves the estimate by at most (1/16)^2 / (8 sqrt(2 pi) h), about
    2e-4 / h, at any grid point.
    """
    return _kde(values, 0, 3.0, bandwidth, grid, grid_points)


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
    return _kde(values, order, 6.0 + order, bandwidth, grid, grid_points)


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
    if not math.isfinite(delta_mu):
        raise ValueError(f"delta_mu must be finite, got {delta_mu}")
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
    if len(kappa) > 2:
        kappa[2] -= 1
    return moments_from_classical_cumulants(kappa)


def ks_statistic(values, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a distribution function."""
    values = np.sort(np.asarray(values, dtype=float).ravel())
    n = values.size
    if n == 0:
        raise ValueError("need a nonempty sample")
    f = np.array([cdf(x) for x in values], dtype=float)
    if not ((f >= 0.0) & (f <= 1.0)).all():
        raise ValueError("cdf values must lie in [0, 1]")
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
        _require_tables_fit(self.order, self.sample_count)

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
            "moments": [{**asdict(row), "z": _finite_or_none(row.z)}
                        for row in self.moments],
            "words": [{**asdict(stat), "word": stat.word.to_string()}
                      for stat in self.words],
            "densities": self.densities,
            "notes": list(self.notes),
        }

    def to_json(self, indent: int | None = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          allow_nan=False) + "\n"

    def densities_csv(self) -> str:
        names = ("f_sum", "f_free", "f_corrected", "f_classical")
        header = ",".join(("grid",) + names)
        if not self.densities:
            return header + "\n"
        columns = [self.densities.get(k) for k in ("grid",) + names]
        rows = [",".join("" if col is None else repr(col[i]) for col in columns)
                for i in range(len(columns[0]))]
        return "\n".join([header, *rows]) + "\n"


def _finite_or_none(x: float) -> float | str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def run_analysis(config: AnalysisConfig) -> FreenessReport:
    """Run the full sampling / testing / density pipeline for one ensemble."""
    config.validate()
    spec = config.ensemble
    order = config.order
    tables = _sample_words(lambda i: sample_pair(spec, i), config.sample_count,
                           spec.dimension, order, config.threads,
                           with_sums=config.include_exact_sum,
                           seed=spec.seed, free_rotations=config.free_rotations,
                           with_classical=config.include_classical)
    with np.errstate(**_QUIET):
        degree_result, scan = _detect(tables, order, config.alpha)
        degree = degree_result.degree
        words = scan.rows(degree, config.alpha) if degree is not None else []

    notes = ["field: real-symmetric"]
    delta_mu = None
    if degree is None:
        notes.append(f"no deviation from the free prediction detected up to order {order}")
    else:
        notes.append(f"first deviating moment order: {degree}"
                     f" (trigger: {degree_result.triggered_by})")
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
                                 tables.sums, tables.classical_pool, notes)
    if not config.include_exact_sum:
        notes.append("exact-sum sampling disabled; f_sum density omitted")
    if not config.include_classical:
        notes.append("classical sampling disabled; f_classical omitted")

    return FreenessReport(config=config.describe(), degree=degree, moments=degree_result.rows,
                          words=tuple(words), densities=densities, notes=tuple(notes))


def _walk_sum_notes(spec: EnsembleSpec, flagged) -> list[str]:
    """Exact deviations from freeness (walk sum less free value) of flagged chain words."""
    if spec.variant != "tridiagonal-adjacency":
        return []
    moments = gaussian_entry_moments(flagged[0].word.length)  # all of the degree's length
    model = LatticeModel.chain(spec.dimension, moments, circulant=spec.circulant)
    notes, mu_b = [], [1]
    for word in [stat.word for stat in flagged]:
        try:
            mu_b += [exact_word_net(Word(((1, k),), 2), model)  # through the word's B count
                     for k in range(len(mu_b), sum(word.symbols) + 1)]
            value = exact_word_net(word, model) - free_joint_moment(word, (1, *moments), mu_b)
        except (ResourceLimitError, ValueError):
            continue
        notes.append(f"exact walk-sum deviation from freeness for {word.to_string()}: "
                     f"{float(value)!r}")
    return notes


def _density_section(config, degree, delta_mu, free_pool, sum_pool,
                     classical_pool, notes) -> dict | None:
    flat_free = free_pool.ravel()
    if np.ptp(flat_free) <= config.grid_points * np.spacing(np.abs(flat_free).max()):
        # a point mass: no grid of grid_points steps resolves its spread
        notes.append("free-rotated spectra have no spread at double precision "
                     "(point mass); densities omitted")
        return None
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
    section = {"grid": grid.tolist(), "f_free": f_free.values.tolist(), "bandwidth": h0,
               "derivative_order": degree, "derivative_bandwidth": hp, "f_corrected": None,
               "f_derivative": None, "delta_mu": None, "clipped_mass": None}
    for name, pool in (("f_sum", sum_pool), ("f_classical", classical_pool)):
        section[name] = (None if pool is None else
                         kde_density(pool.ravel(), bandwidth=h0, grid=grid).values.tolist())
    if degree is not None and delta_mu is not None:
        # f^(p) scales as 1/h^(p+1), beyond double range for tiny spreads
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            derivative = kde_derivative(flat_free, degree, bandwidth=hp, grid=grid)
        if not np.isfinite(derivative.values).all():
            notes.append(f"order-{degree} derivative density is out of double range; "
                         "f_derivative and f_corrected omitted")
            return section
        corrected = edgeworth_corrected_density(f_free, derivative, delta_mu)
        section.update(f_corrected=corrected.values.tolist(),
                       f_derivative=derivative.values.tolist(), delta_mu=float(delta_mu),
                       clipped_mass=corrected.clipped_mass)
        notes.append(f"corrected density clipped mass: {corrected.clipped_mass:.3e}")
    return section
