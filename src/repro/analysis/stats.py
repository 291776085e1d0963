"""Statistics helpers shared by the experiment drivers and benches.

Small, numpy-backed, and defensive about degenerate inputs (constant
series, empty arrays) so experiment code never trips over edge cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation; 0.0 for degenerate (constant/short) input."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("series must have matching shapes")
    if x.size < 2 or np.std(x) == 0 or np.std(y) == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def absolute_errors(predicted: Sequence[float],
                    actual: Sequence[float]) -> np.ndarray:
    """Element-wise absolute prediction errors."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape:
        raise ValueError("series must have matching shapes")
    return np.abs(predicted - actual)


def fraction_within(errors: Sequence[float], bound: float) -> float:
    """Share of absolute errors at or below ``bound`` (0..1)."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        return 1.0
    return float(np.mean(errors <= bound))


@dataclass(frozen=True)
class AccuracySummary:
    """The paper's standard accuracy triple (Table 6 row format)."""

    pearson: float
    within_5pct: float
    within_10pct: float
    count: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "pearson": self.pearson,
            "within_5pct": self.within_5pct,
            "within_10pct": self.within_10pct,
            "count": float(self.count),
        }


def accuracy_summary(predicted: Sequence[float],
                     actual: Sequence[float]) -> AccuracySummary:
    """Pearson + error-bound shares for a prediction series."""
    errors = absolute_errors(predicted, actual)
    return AccuracySummary(
        pearson=pearson(predicted, actual),
        within_5pct=fraction_within(errors, 0.05),
        within_10pct=fraction_within(errors, 0.10),
        count=len(errors),
    )


def cdf_points(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted values, cumulative fractions) for CDF plots/tables."""
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        return values, values
    fractions = np.arange(1, values.size + 1) / values.size
    return values, fractions


def percentile_row(values: Sequence[float],
                   percentiles: Iterable[float] = (10, 25, 50, 75, 90)
                   ) -> Dict[str, float]:
    """Named percentile summary used in the distribution tables."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return {f"p{int(p)}": float("nan") for p in percentiles}
    return {f"p{int(p)}": float(np.percentile(values, p))
            for p in percentiles}


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (values must be positive)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return float("nan")
    if np.any(values <= 0):
        raise ValueError("geometric mean needs positive values")
    return float(np.exp(np.mean(np.log(values))))
