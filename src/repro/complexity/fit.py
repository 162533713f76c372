"""Growth-rate classification: polynomial vs exponential scaling.

Fits two models to a series ``(n_i, y_i)``:

* polynomial: ``log y = d·log n + c``  (degree ``d``),
* exponential: ``log y = r·n + c``     (base ``e^r``),

by least squares, and classifies by which model has the smaller residual.
This is how the experiment sweeps turn the paper's complexity-class
claims ("PTIME" vs "EXPTIME-complete") into checkable statements about
measured curves: a Table 2 engine should classify as polynomial in
``|B| + |e|``; the unbounded baselines of Table 1 should classify as
exponential in the expression parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class GrowthFit:
    """Outcome of fitting one model."""

    model: str          # 'polynomial' | 'exponential'
    coefficient: float  # degree d, or rate r (base = e^r)
    intercept: float
    residual: float     # mean squared residual in log space

    @property
    def base(self) -> float:
        """For the exponential model: the per-unit growth factor."""
        return math.exp(self.coefficient)


def _least_squares(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float, float]:
    """Slope, intercept, mean squared residual of a 1-D linear fit."""
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points to fit")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate fit: all x values equal")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residual = sum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)
    ) / n
    return slope, intercept, residual


def _positive(values: Sequence[float], floor: float = 1e-12) -> List[float]:
    return [max(v, floor) for v in values]


def fit_polynomial(ns: Sequence[float], ys: Sequence[float]) -> GrowthFit:
    """Fit ``y ≈ c · n^d`` (log-log linear regression)."""
    log_n = [math.log(n) for n in _positive(ns)]
    log_y = [math.log(y) for y in _positive(ys)]
    slope, intercept, residual = _least_squares(log_n, log_y)
    return GrowthFit("polynomial", slope, intercept, residual)


def fit_exponential(ns: Sequence[float], ys: Sequence[float]) -> GrowthFit:
    """Fit ``y ≈ c · b^n`` (semi-log linear regression)."""
    log_y = [math.log(y) for y in _positive(ys)]
    slope, intercept, residual = _least_squares(list(ns), log_y)
    return GrowthFit("exponential", slope, intercept, residual)


def classify_growth(
    ns: Sequence[float], ys: Sequence[float]
) -> Tuple[str, GrowthFit, GrowthFit]:
    """``(winner, polynomial fit, exponential fit)`` for a series.

    The winner is the model with the smaller log-space residual.  For a
    genuinely exponential series the polynomial "degree" keeps growing
    with the range swept, while the exponential rate stays put — when in
    doubt, sweep further.
    """
    poly = fit_polynomial(ns, ys)
    expo = fit_exponential(ns, ys)
    winner = "polynomial" if poly.residual <= expo.residual else "exponential"
    return winner, poly, expo


def looks_polynomial(
    ns: Sequence[float],
    ys: Sequence[float],
    max_degree: float = 8.0,
) -> bool:
    """Convenience check for growth-shape assertions."""
    winner, poly, _ = classify_growth(ns, ys)
    return winner == "polynomial" and poly.coefficient <= max_degree


def looks_exponential(ns: Sequence[float], ys: Sequence[float]) -> bool:
    """Convenience check for growth-shape assertions."""
    winner, _, _ = classify_growth(ns, ys)
    return winner == "exponential"
