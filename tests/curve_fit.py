"""Criterion 10's curve diagnostic: a degree-6 least-squares fit of winner
share against alpha, and the peak of its second derivative."""

import numpy as np


def polyfit6(points) -> np.ndarray:
    """Coefficients c0..c6 of the degree-6 least-squares fit of (alpha, y)
    points, y = sum c_j * alpha**j.

    Solved by least squares on a column-scaled Vandermonde matrix; plain
    normal equations lose ~12 digits of conditioning here and miss the
    exact-recovery tolerance, so they are not used.
    """
    alphas, ys = np.array(points, dtype=float).T
    if len(set(alphas.tolist())) < 7:
        raise ValueError("need at least 7 distinct abscissae for a degree-6 fit")
    vander = np.vander(alphas, 7, increasing=True)
    scale = np.linalg.norm(vander, axis=0)
    return np.linalg.lstsq(vander / scale, ys, rcond=None)[0] / scale


def second_derivative_peak(coefficients, lo: float, hi: float) -> float:
    """Location of the highest interior local maximum of the fitted curve's
    second derivative on a 2001-point grid over [lo, hi].

    Degree-6 fits can swing wildly at the window edges, so the boundary
    argmax is only returned when no interior local maximum exists.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    grid = np.linspace(lo, hi, 2001)
    c = coefficients
    # scalar powers: numpy's array power rounds differently in the last bit
    values = np.array([sum(j * (j - 1) * c[j] * a ** (j - 2) for j in range(2, 7)) for a in grid])
    mid = values[1:-1]
    interior = 1 + np.flatnonzero((mid >= values[:-2]) & (mid >= values[2:]))
    if interior.size:
        return float(grid[interior[np.argmax(values[interior])]])
    return float(grid[np.argmax(values)])
