"""Independent brute-force references shared by the test modules.

Everything here recomputes results by a different route than the library:
strings are grouped by literal rotation, free moments come from explicit
non-crossing partitions, classical cumulants from the logarithm of the
exponential moment generating series, series reversion from the Lagrange
formula, word traces from index sums over matrix entries or from
explicit block powers, the centering map from per-subset ``Word`` objects,
kernel density sums one grid point at a time (with the bound on the
error that linear binning may add to them) and the fixed chain and Pauli
matrices one entry at a time.  None of it calls the
code paths under test beyond basic data types.
"""

from fractions import Fraction
from itertools import product
import math
from math import factorial

import numpy as np


def rotation_classes(n, k):
    """Map canonical string -> class size, by grouping all k**n strings."""
    classes = {}
    for symbols in product(range(k), repeat=n):
        canon = min(symbols[i:] + symbols[:i] for i in range(n))
        classes[canon] = classes.get(canon, 0) + 1
    return classes


def rotation_classes_bytes(n, k):
    """Same as rotation_classes, keyed by bytes, in one integer pass.

    String x, read as n base-k digits, rotates left by one digit to
    (x % k**(n-1)) * k + x // k**(n-1); the least of its n rotations is the
    least rotation of the string, and equal ones are counted by np.unique.
    """
    top = k ** (n - 1)
    x = np.arange(k**n, dtype=np.int64)
    least = x.copy()
    for _ in range(n - 1):
        x = (x % top) * k + x // top
        np.minimum(least, x, out=least)
    canon, counts = np.unique(least, return_counts=True)
    digits = (canon[:, None] // k ** np.arange(n - 1, -1, -1)) % k
    return {row.tobytes(): int(c) for row, c in zip(digits.astype(np.uint8), counts)}


def series_reciprocal(coeffs):
    out = [Fraction(1) / coeffs[0]]
    for j in range(1, len(coeffs)):
        out.append(-sum(coeffs[i] * out[j - i] for i in range(1, j + 1)) / coeffs[0])
    return out


def lagrange_revert(coeffs):
    """Compositional inverse via the Lagrange inversion formula.

    g_n = (1/n) [w^(n-1)] (w / f(w))^n for f with f(0) = 0, f'(0) != 0.
    """
    order = len(coeffs) - 1
    f_over_w = [Fraction(c) for c in coeffs[1:]]
    base = series_reciprocal(f_over_w)  # (w/f)^1
    out = [Fraction(0), base[0]]
    power = list(base)
    for n in range(2, order + 1):
        # power <- (w/f)^n, truncated
        power = [sum(power[i] * base[j - i] for i in range(j + 1)) for j in range(order)]
        out.append(power[n - 1] / n)
    return out


def noncrossing_partitions(n):
    """All non-crossing partitions of {0..n-1} as tuples of blocks."""
    if n == 0:
        return [()]
    result = []

    def helper(elements):
        if not elements:
            return [()]
        first, rest = elements[0], elements[1:]
        partitions = []
        # choose the block of `first`: any subset of rest that splits the
        # remainder into independent intervals (non-crossing condition)
        m = len(rest)
        for mask in range(1 << m):
            block = (first,) + tuple(rest[i] for i in range(m) if mask >> i & 1)
            # segments between consecutive block members must be partitioned
            # independently; collect them and recurse
            segments = []
            prev_positions = [i for i in range(m) if mask >> i & 1]
            start = 0
            ok = True
            for pos in prev_positions:
                segments.append(rest[start:pos])
                start = pos + 1
            segments.append(rest[start:])
            subresults = [()]
            for seg in segments:
                seg_parts = helper(seg)
                subresults = [a + b for a in subresults for b in seg_parts]
            partitions.extend((block,) + p for p in subresults)
        return partitions

    return helper(tuple(range(n)))


def moment_from_free_cumulants_nc(nu, n):
    """mu_n as a sum over non-crossing partitions of products of cumulants."""
    total = Fraction(0)
    for partition in noncrossing_partitions(n):
        term = Fraction(1)
        for block in partition:
            term *= Fraction(nu[len(block)])
        total += term
    return total


def classical_cumulants_log_egf(mu):
    """kappa_n = n! [t^n] log(sum_n mu_n t^n / n!), kappa[0] = 0.

    With x = sum_(n>=1) mu_n t^n / n!, the log is expanded as
    log(1 + x) = sum_m (-1)^(m+1) x^m / m on truncated lists of Fractions.
    """
    order = len(mu) - 1
    x = [Fraction(0)] + [Fraction(mu[n]) / factorial(n) for n in range(1, order + 1)]
    log = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for m in range(1, order + 1):
        power = [sum(power[i] * x[j - i] for i in range(j + 1)) for j in range(order + 1)]
        log = [acc + Fraction((-1) ** (m + 1), m) * p for acc, p in zip(log, power)]
    return [log[n] * factorial(n) for n in range(order + 1)]


def site_sum_word_net(word, adjacency, entry_moments):
    """Expected normalized trace by exact index sums over matrix entries.

    Blocks of the diagonal letter pin indices and deposit entry powers;
    blocks of the adjacency letter contribute integer entries of matrix
    powers.  Expectation factorizes over distinct sites.  Exact rationals.
    """
    n = adjacency.shape[0]
    adj_powers = {1: adjacency.astype(object)}

    def apow(e):
        if e not in adj_powers:
            adj_powers[e] = adj_powers[1] @ apow(e - 1)
        return adj_powers[e]

    def m(order):
        if order == 0:
            return Fraction(1)
        return Fraction(entry_moments[order - 1])

    blocks = word.blocks
    if not blocks:
        return Fraction(1)
    if len(blocks) == 1:
        letter, e = blocks[0]
        if letter == 0:
            return m(e)
        return Fraction(int(np.trace(apow(e))), n)

    # segments: positions between consecutive adjacency blocks (cyclic);
    # each segment carries the diagonal power deposited before its hop
    hops = [e for letter, e in blocks if letter == 1]
    powers = []
    pending = 0
    for letter, e in blocks:
        if letter == 0:
            pending += e
        else:
            powers.append(pending)
            pending = 0
    if pending:  # word ends with the diagonal letter: wraps onto segment 0
        powers[0] += pending

    segments = len(hops)
    total = Fraction(0)
    for sites in product(range(n), repeat=segments):
        weight = Fraction(1)
        for j in range(segments):
            entry = apow(hops[j])[sites[j], sites[(j + 1) % segments]]
            if entry == 0:
                weight = Fraction(0)
                break
            weight *= int(entry)
        if weight == 0:
            continue
        collected = {}
        for j in range(segments):
            collected[sites[j]] = collected.get(sites[j], 0) + powers[j]
        for site, power in collected.items():
            weight *= m(power)
            if weight == 0:
                break
        total += weight
    return total / n


def block_power_trace(blocks, a, b, centers=None):
    """tr(prod over (letter, exponent) blocks of X^e)/N by explicit matrix powers.

    With ``centers`` = (c_A, c_B), indexable by exponent, every factor is
    (X^e - c_X[e] I) instead.  Letter 0 is A, letter 1 is B.
    """
    n = a.shape[0]
    product = np.eye(n)
    for letter, exponent in blocks:
        factor = np.linalg.matrix_power(a if letter == 0 else b, exponent)
        if centers is not None:
            factor = factor - centers[letter][exponent] * np.eye(n)
        product = product @ factor
    return float(np.trace(product)) / n


def centering_map_words(words, mu_a, mu_b):
    """Raw-to-centered word-trace map built with one ``Word`` per block subset.

    The subsets are visited in bit-mask order and their scalars multiplied
    in block order, so the float result is the library's bit for bit.
    """
    from partialfree.words import Word

    words = [w.canonical() for w in words]
    column = {w: j for j, w in enumerate(words)}
    mus = ([float(v) for v in mu_a], [float(v) for v in mu_b])
    out = np.zeros((len(words), len(words)))
    for j, word in enumerate(words):
        blocks = word.blocks
        for mask in range(1 << len(blocks)):
            removed = [b for i, b in enumerate(blocks) if mask >> i & 1]
            rest = Word(tuple(b for i, b in enumerate(blocks) if not mask >> i & 1), word.k)
            scalar = float((-1) ** len(removed))
            for letter, exponent in removed:
                scalar *= mus[letter][exponent]
            out[column[rest.canonical()], j] += scalar
    return out


def kernel_sum_per_point(values, grid, bandwidth, order):
    """Gaussian-kernel density (order 0) or its order-th derivative, point by point.

    Each grid point is one sum over all values of exp(-u^2/2) He_order(u),
    u = (x - v)/h, with He from He_(m+1) = u He_m - m He_(m-1), scaled by
    (-1)^order / (t h^(order+1) sqrt(2 pi)).
    """
    values = np.asarray(values, dtype=float)
    out = np.empty(len(grid))
    for k, x in enumerate(grid):
        u = (x - values) / bandwidth
        w = np.exp(-0.5 * u * u)
        if order:
            prev, cur = np.ones_like(u), u * np.ones_like(u)
            for m in range(1, order):
                prev, cur = cur, u * cur - m * prev
            w = w * cur
        out[k] = w.sum()
    sign = -1.0 if order % 2 else 1.0
    norm = values.size * bandwidth ** (order + 1) * math.sqrt(2.0 * math.pi)
    return sign * out / norm


def kernel_sum_binning_bound(bandwidth, order):
    """Largest error linear binning can add to ``kernel_sum_per_point``.

    Binning replaces each value's kernel by its linear interpolant between
    two nodes at most delta = h / 16 apart, which errs by at most delta^2 / 8
    times the largest second derivative in the value.  At every grid point
    that is (delta/h)^2 / 8 * max_u |He_(order+2)(u) exp(-u^2/2)|
    / (sqrt(2 pi) h^(order+1)), the maximum taken on a 1e-4 grid of u.
    """
    r = order + 2
    u = np.linspace(-(r + 10.0), r + 10.0, int(2e4 * (r + 10)) + 1)
    prev, cur = np.ones_like(u), u.copy()
    for m in range(1, r):
        prev, cur = cur, u * cur - m * prev
    peak = np.abs(cur * np.exp(-0.5 * u * u)).max()
    return ((1.0 / 16) ** 2 / 8.0 * peak
            / (math.sqrt(2.0 * math.pi) * bandwidth ** (order + 1)))


def chain_adjacency_loop(n, circulant=True):
    """0/1 adjacency of the n-site chain, one edge at a time."""
    m = np.zeros((n, n))
    for i in range(n - 1):
        m[i, i + 1] = m[i + 1, i] = 1.0
    if circulant and n > 2:
        m[0, n - 1] = m[n - 1, 0] = 1.0
    return m


def pauli_block_matrices_loop(dimension):
    """[[0,1],[1,0]] blocks on sites (0,1), (2,3), ... for A and (1,2), ..., (n-1,0) for B."""
    a = np.zeros((dimension, dimension))
    b = np.zeros((dimension, dimension))
    for i in range(0, dimension, 2):
        a[i, i + 1] = a[i + 1, i] = 1.0
    for i in range(1, dimension - 1, 2):
        b[i, i + 1] = b[i + 1, i] = 1.0
    b[0, dimension - 1] = b[dimension - 1, 0] = 1.0
    return a, b
