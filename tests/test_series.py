import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from partialfree.series import (
    PowerSeries,
    cauchy_series_from_moments,
    complete_bell,
    hermite,
    hermite_coefficients,
)

from oracles import lagrange_revert


def test_series_arithmetic_and_evaluation():
    p = PowerSeries([1, 2, Fraction(1, 3)])
    q = PowerSeries([Fraction(1, 2), -1])
    value = p(Fraction(1, 2))
    assert value == Fraction(25, 12) and isinstance(value, Fraction)
    assert p.scale(3).coeffs == (3, 6, 1)
    # binary operations truncate to the shorter operand
    assert (p + q).coeffs == (Fraction(3, 2), 1)
    assert (p - q).coeffs == (Fraction(1, 2), 3)
    assert (-p).coeffs == (-1, -2, Fraction(-1, 3))
    assert (p.order, len(p), p[1], p[-1]) == (2, 3, 2, Fraction(1, 3))
    x = PowerSeries.identity(3)
    assert x.coeffs == (0, 1, 0, 0) and x(Fraction(2, 3)) == Fraction(2, 3)
    with pytest.raises(ValueError, match="order >= 1"):
        PowerSeries.identity(0)
    # equal coefficients compare and hash equal, whatever their number type
    same = PowerSeries([3.0, 6, Fraction(1)])
    assert p.scale(3) == same and hash(p.scale(3)) == hash(same)
    assert p != PowerSeries([1, 2]) and p != (1, 2, Fraction(1, 3))
    f = PowerSeries([1.0, 2.0, 0.5])
    assert f(0.5) == 2.125
    assert np.array_equal(f(np.array([0.0, 1.0, -2.0])), [1.0, 3.5, -1.0])


def test_multiply_examples():
    one_plus = PowerSeries([1, 1, 0])
    one_minus = PowerSeries([1, -1, 0])
    assert (one_plus * one_minus).coeffs == (1, 0, -1)
    s = PowerSeries([1, 1, 1])
    assert (s * PowerSeries([1, 0, 0])).coeffs == (1, 1, 1)
    x = PowerSeries([0, 1, 0])
    assert (x * x).coeffs == (0, 0, 1)


def test_multiply_truncates_to_shorter():
    a = PowerSeries([1, 2, 3, 4, 5])
    b = PowerSeries([1, 1])
    assert len((a * b).coeffs) == 2


def test_compose_examples():
    x = PowerSeries([0, 1, 0, 0, 0])
    inner = PowerSeries([0, 1, 1, 0, 0])
    assert PowerSeries([0, 1, 0, 0, 0]).compose(inner).coeffs == inner.coeffs
    sq = PowerSeries([0, 0, 1, 0, 0])
    assert sq.compose(inner).coeffs == (0, 0, 1, 2, 1)
    geo = PowerSeries([1, 1, 1, 1, 1])
    assert geo.compose(x).coeffs == geo.coeffs


def test_compose_requires_zero_constant():
    with pytest.raises(ValueError):
        PowerSeries([1, 1]).compose(PowerSeries([1, 1]))


def test_revert_examples():
    ident = PowerSeries([0, 1, 0]).revert()
    assert ident.coeffs == (0, 1, 0)

    f = PowerSeries([0, 1, 1, 0, 0, 0])
    g = f.revert()
    assert g.coeffs == (0, 1, -1, 2, -5, 14)
    assert f.compose(g).coeffs == (0, 1, 0, 0, 0, 0)

    f2 = PowerSeries([0, 1, -1, 0, 0])
    g2 = f2.revert()
    assert g2.coeffs == (0, 1, 1, 2, 5)
    assert f2.compose(g2).coeffs == (0, 1, 0, 0, 0)


def test_revert_error_names_coefficient():
    with pytest.raises(ValueError, match="c_0"):
        PowerSeries([1, 1]).revert()
    with pytest.raises(ValueError, match="c_1"):
        PowerSeries([0, 0, 1]).revert()


def test_revert_matches_lagrange_inversion():
    coeffs = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3),
              Fraction(2, 7), Fraction(1, 5), Fraction(-3, 11)]
    got = PowerSeries(coeffs).revert()
    want = lagrange_revert(coeffs)
    assert list(got.coeffs) == want


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=7))
@settings(max_examples=60, deadline=None)
def test_revert_round_trip(tail):
    coeffs = [Fraction(0), Fraction(1)] + [Fraction(c) for c in tail]
    f = PowerSeries(coeffs)
    g = f.revert()
    identity = (0, 1) + (0,) * (len(coeffs) - 2)
    assert f.compose(g).coeffs == identity


def test_reciprocal():
    s = PowerSeries([1, 1, 0, 0])
    assert s.reciprocal().coeffs == (1, -1, 1, -1)
    with pytest.raises(ValueError):
        PowerSeries([0, 1]).reciprocal()


@given(st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=1, max_size=6),
       st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_multiply_commutes(a, b):
    pa, pb = PowerSeries(a), PowerSeries(b)
    left = (pa * pb).coeffs
    right = (pb * pa).coeffs
    assert left == pytest.approx(right, abs=1e-12)


def test_multiply_associates():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b, c = (PowerSeries(rng.uniform(-1, 1, size=6)) for _ in range(3))
        left = ((a * b) * c).coeffs
        right = (a * (b * c)).coeffs
        assert left == pytest.approx(right, abs=1e-12)


def test_cauchy_series_examples():
    assert cauchy_series_from_moments([1, 0, 1]).coeffs == (0, 1, 0, 1)
    a = 0.7
    assert cauchy_series_from_moments([1, a]).coeffs == (0, 1, a)
    arcsine = cauchy_series_from_moments([1, 0, 2, 0, 6])
    assert arcsine.coeffs == (0, 1, 0, 2, 0, 6)
    with pytest.raises(ValueError):
        cauchy_series_from_moments([2, 0])


def test_complete_bell_examples():
    assert complete_bell(0, []) == 1
    a1, a2, a3 = Fraction(3), Fraction(-2), Fraction(5)
    assert complete_bell(2, [a1, a2]) == a1**2 + a2
    assert complete_bell(3, [0, 0, a3]) == a3


def test_complete_bell_gaussian_moments():
    # cumulants (0, 1, 0, 0, ...) reproduce standard normal raw moments
    kappa = [0, 1] + [0] * 8
    for n in range(11):
        want = 0 if n % 2 else math.prod(range(1, n, 2)) if n else 1
        assert complete_bell(n, kappa[:n]) == want


def test_hermite_examples():
    assert hermite(0, 0.3) == 1.0
    xs = np.linspace(-2, 2, 7)
    assert hermite(2, xs) == pytest.approx(xs**2 - 1)
    assert hermite(3, 2.0) == pytest.approx(2.0)


def test_hermite_against_rodrigues():
    # (-1)^n (d^n/dx^n phi)(x) / phi(x), differentiated symbolically
    x = sympy.symbols("x")
    phi = sympy.exp(-(x**2) / 2)
    for n in range(0, 9):
        poly = sympy.simplify((-1) ** n * sympy.diff(phi, x, n) / phi)
        for val in (-2.5, -0.5, 0.0, 1.0, 3.0):
            want = float(poly.subs(x, val))
            assert hermite(n, val) == pytest.approx(want, abs=1e-9)


def test_hermite_recurrence():
    xs = np.linspace(-5, 5, 21)
    for n in range(1, 20):
        lhs = hermite(n + 1, xs)
        rhs = xs * hermite(n, xs) - n * hermite(n - 1, xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(lhs)))


def test_hermite_coefficients():
    assert hermite_coefficients(0) == (1,)
    assert hermite_coefficients(2) == (-1, 0, 1)
    assert hermite_coefficients(3) == (0, -3, 0, 1)
    coeffs = hermite_coefficients(8)
    xs = np.linspace(-3, 3, 11)
    vals = sum(c * xs**j for j, c in enumerate(coeffs))
    assert vals == pytest.approx(hermite(8, xs))


def test_exact_mode_stays_rational():
    f = PowerSeries([Fraction(0), Fraction(2), Fraction(1, 3)])
    g = f.revert()
    assert all(isinstance(c, Fraction) for c in g.coeffs)
    assert f.compose(g).coeffs == (Fraction(0), Fraction(1), Fraction(0))
