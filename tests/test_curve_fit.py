"""Criterion 10's curve diagnostic: the degree-6 fit and its curvature peak."""

import numpy as np
import pytest

from curve_fit import polyfit6, second_derivative_peak


def test_polyfit6_recovers_planted_coefficients():
    planted = (0.3, -1.2, 0.8, 0.05, -0.004, 0.0002, -0.000007)
    xs = [2.0 + 0.25 * i for i in range(21)]
    points = [(x, sum(c * x**j for j, c in enumerate(planted))) for x in xs]
    assert polyfit6(points) == pytest.approx(planted, abs=1e-6)


def test_polyfit6_needs_seven_distinct_abscissae():
    points = [(float(i % 6), 1.0) for i in range(12)]
    with pytest.raises(ValueError):
        polyfit6(points)


def test_second_derivative_of_quadratic_is_two():
    points = [(x, x * x) for x in [2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0]]
    curvature = np.polynomial.polynomial.polyder(polyfit6(points), 2)
    for x in (2.0, 3.7, 6.5):
        assert np.polynomial.polynomial.polyval(x, curvature) == pytest.approx(2.0, abs=1e-6)


def test_second_derivative_peak_finds_interior_maximum():
    # y = -(x - 4)^4 has second derivative -12 (x - 4)^2, peaking at x = 4
    points = [(x, -((x - 4.0) ** 4)) for x in [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.5, 6.0, 7.0]]
    assert second_derivative_peak(polyfit6(points), 2.0, 7.0) == pytest.approx(4.0, abs=1e-2)


def test_second_derivative_peak_monotone_falls_back_to_boundary():
    points = [(x, x**3) for x in [2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0]]
    fit = polyfit6(points)
    assert second_derivative_peak(fit, 2.0, 7.0) == pytest.approx(7.0, abs=1e-9)
    with pytest.raises(ValueError):
        second_derivative_peak(fit, 3.0, 3.0)
