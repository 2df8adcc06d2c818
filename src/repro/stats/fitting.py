"""Piecewise curve fitting for the tail-latency-vs-throughput knee.

Fig. 15 fits the measurement points with a piecewise function — linear
below a knee throughput, quadratic above it — and reports the R² of
both pieces.  :func:`fit_piecewise_linear_quadratic` reproduces that
fit with ordinary least squares on each segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


def _r_squared(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Coefficient of determination."""
    residual = float(np.sum((y - y_hat) ** 2))
    total = float(np.sum((y - y.mean()) ** 2))
    if total == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return 1.0 - residual / total


@dataclass
class PiecewiseFit:
    """A fitted knee curve: linear below the knee, quadratic above."""

    knee: float
    linear_coeffs: Tuple[float, float]          # (intercept, slope)
    quadratic_coeffs: Tuple[float, float, float]  # (c0, c1, c2)
    r2_linear: float
    r2_quadratic: float

    def predict(self, x: float) -> float:
        """Evaluate the fitted curve at *x*."""
        if x < self.knee:
            b0, b1 = self.linear_coeffs
            return b0 + b1 * x
        c0, c1, c2 = self.quadratic_coeffs
        return c0 + c1 * x + c2 * x * x

    def format_paper_style(self, name: str) -> str:
        """Render the fit the way Fig. 15 annotates it."""
        b0, b1 = self.linear_coeffs
        c0, c1, c2 = self.quadratic_coeffs
        return (
            f"{name} = {{ {b0:.4g} + {b1:.4g}X            (X < {self.knee:g})\n"
            f"{' ' * len(name)}   {c0:.4g} + {c1:.4g}X + {c2:.4g}X^2  (X >= {self.knee:g})"
        )


def fit_piecewise_linear_quadratic(
    x: Sequence[float],
    y: Sequence[float],
    knee: float,
) -> PiecewiseFit:
    """Fit Fig. 15's piecewise model with a fixed knee.

    Args:
        x: throughputs.
        y: tail latencies.
        knee: split point (the paper uses 37 Gbps).

    Raises:
        ValueError: when either segment has too few points for its
            polynomial degree.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    low = xa < knee
    high = ~low
    if low.sum() < 2:
        raise ValueError(f"need >= 2 points below the knee, have {int(low.sum())}")
    if high.sum() < 3:
        raise ValueError(f"need >= 3 points above the knee, have {int(high.sum())}")
    slope, intercept = np.polyfit(xa[low], ya[low], 1)
    c2, c1, c0 = np.polyfit(xa[high], ya[high], 2)
    linear_pred = intercept + slope * xa[low]
    quad_pred = c0 + c1 * xa[high] + c2 * xa[high] ** 2
    return PiecewiseFit(
        knee=knee,
        linear_coeffs=(float(intercept), float(slope)),
        quadratic_coeffs=(float(c0), float(c1), float(c2)),
        r2_linear=_r_squared(ya[low], linear_pred),
        r2_quadratic=_r_squared(ya[high], quad_pred),
    )
