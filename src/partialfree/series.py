"""Truncated formal power series, Bell polynomials, Hermite polynomials.

A PowerSeries holds coefficients c_0..c_K of sum_j c_j x**j.  Binary
operations truncate to the shorter operand; no coefficients are ever
fabricated beyond what both inputs determine.  Coefficients may be floats
or exact numbers (int / fractions.Fraction); arithmetic preserves
exactness when every input is exact, which lets desk-scale combinatorial
identities come out as integers rather than approximations.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np


def _is_exact(values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


class PowerSeries:
    """Coefficients of a series truncated at a fixed order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = coeffs

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        """The series x, truncated at ``order``."""
        if order < 1:
            raise ValueError("identity needs order >= 1")
        return cls((0, 1) + (0,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, j: int):
        return self.coeffs[j]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PowerSeries({list(self.coeffs)!r})"

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(tuple(-c for c in self.coeffs))

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        return PowerSeries(tuple(self.coeffs[j] + other.coeffs[j] for j in range(n)))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + (-other)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        """Cauchy product truncated at min(K_a, K_b)."""
        n = min(len(self.coeffs), len(other.coeffs))
        out = [0] * n
        for i in range(n):
            a = self.coeffs[i]
            if a == 0:
                continue
            for j in range(n - i):
                out[i + j] += a * other.coeffs[j]
        return PowerSeries(tuple(out))

    def scale(self, factor) -> "PowerSeries":
        return PowerSeries(tuple(factor * c for c in self.coeffs))

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Coefficients of self(inner(x)); inner must have zero constant term."""
        if inner.coeffs[0] != 0:
            raise ValueError(
                f"composition needs inner constant term 0, got {inner.coeffs[0]!r}"
            )
        n = min(len(self.coeffs), len(inner.coeffs))
        inner = PowerSeries(inner.coeffs[:n])
        # Horner from the top coefficient down; every product stays truncated.
        acc = PowerSeries((self.coeffs[n - 1],) + (0,) * (n - 1))
        for j in range(n - 2, -1, -1):
            acc = acc * inner
            acc = PowerSeries((acc.coeffs[0] + self.coeffs[j],) + acc.coeffs[1:])
        return acc

    def reciprocal(self) -> "PowerSeries":
        """Series of 1/self; requires a nonzero constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ValueError("reciprocal needs a nonzero constant term")
        one = Fraction(1) if _is_exact(self.coeffs) else 1.0
        out = [one / c0]
        for j in range(1, len(self.coeffs)):
            s = sum(self.coeffs[i] * out[j - i] for i in range(1, j + 1))
            out.append(-s / c0)
        return PowerSeries(tuple(out))

    def revert(self) -> "PowerSeries":
        """Compositional inverse g with self(g(x)) = x through the truncation order.

        Solved order by order: with g known through order m-1 and the next
        coefficient g_m unknown, [x^m] self(g + g_m x^m) = [x^m] self(g) + c_1 g_m.
        """
        c = self.coeffs
        if c[0] != 0:
            raise ValueError(f"reversion needs c_0 = 0, got c_0 = {c[0]!r}")
        if len(c) < 2 or c[1] == 0:
            raise ValueError("reversion needs c_1 != 0, got c_1 = 0")
        one = Fraction(1) if _is_exact(c) else 1.0
        g = [0 * one, one / c[1]]
        for m in range(2, len(c)):
            partial = PowerSeries(tuple(g) + (0,) * (len(c) - len(g)))
            residue = self.compose(partial).coeffs[m]
            g.append(-residue / c[1])
        return PowerSeries(tuple(g))

    def __call__(self, x):
        acc = 0 * x + 0
        for cj in reversed(self.coeffs):
            acc = acc * x + cj
        return acc


def cauchy_series_from_moments(mu) -> PowerSeries:
    """Moment generating series in u = 1/w: coefficient of u^(k+1) is mu_k."""
    mu = tuple(mu)
    if not mu or mu[0] != 1:
        raise ValueError(f"moment sequence must start with mu_0 = 1, got {mu[:1]!r}")
    return PowerSeries((0,) + mu)


def _classical_recursion(seq, to_moments: bool) -> list:
    """Moments from classical cumulants, or back, without division.

    m_n = sum_{k=1..n} C(n-1, k-1) kappa_k m_(n-k) (Smith, Am. Stat. 49,
    1995), solved for m_n or for kappa_n order by order: O(K^2) operations,
    all + - *.  Index 0 is m_0 = 1 and the placeholder kappa_0 = 0; neither
    is read.  Elements may be int, Fraction, float or equal-length 1-D
    arrays (one entry per replicate); exact inputs stay exact.
    """
    mu = [1] if to_moments else list(seq)
    kappa = list(seq) if to_moments else [0]
    for n in range(1, len(seq)):
        tail = sum(comb(n - 1, k - 1) * kappa[k] * mu[n - k] for k in range(1, n))
        if to_moments:
            mu.append(kappa[n] + tail)
        else:
            kappa.append(mu[n] - tail)
    return mu if to_moments else kappa


def complete_bell(n: int, a):
    """Complete Bell polynomial B_n(a_1..a_n).

    Defined by exp(sum_j a_j t^j / j!) = sum_n B_n t^n / n!: the moment of
    order n of the classical cumulants a_1..a_n, with B_0 = 1.
    """
    if n < 0:
        raise ValueError("complete_bell needs n >= 0")
    a = tuple(a)
    if len(a) < n:
        raise ValueError(f"need at least {n} arguments a_1..a_n, got {len(a)}")
    return _classical_recursion((0,) + a[:n], to_moments=True)[n]


def hermite(n: int, x):
    """Probabilist's Hermite polynomial He_n(x); x may be a scalar or ndarray.

    He_n satisfies He_n(x) phi(x) = (-1)^n d^n/dx^n phi(x) for the standard
    normal density phi, and the recurrence He_{n+1} = x He_n - n He_{n-1}.
    """
    if n < 0:
        raise ValueError("hermite needs n >= 0")
    if isinstance(x, np.ndarray):
        prev = np.ones_like(x, dtype=float)
    else:
        prev = 1.0
    if n == 0:
        return prev
    cur = x * prev
    for m in range(1, n):
        prev, cur = cur, x * cur - m * prev
    return cur


def hermite_coefficients(n: int) -> tuple[int, ...]:
    """Monomial coefficients (a_0..a_n) of He_n, exact integers."""
    if n < 0:
        raise ValueError("hermite_coefficients needs n >= 0")
    prev = [1]
    if n == 0:
        return tuple(prev)
    cur = [0, 1]
    for m in range(1, n):
        nxt = [0] + cur
        for j, c in enumerate(prev):
            nxt[j] -= m * c
        prev, cur = cur, nxt
    return tuple(cur)
