"""Replication statistics: sample means and Student-t confidence intervals.

The paper reports simulation results "with 95% confidence interval"
(Fig. 11).  :class:`ReplicationSet` collects one scalar observation per
independent replication and produces the classic t-interval.

The Student-t quantile is ``scipy.special.stdtrit``, the function
``scipy.stats.t.ppf`` evaluates, loaded on the first interval: the
program imports neither ``scipy.stats`` nor ``scipy.special``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator

__all__ = ["ConfidenceInterval", "ReplicationSet", "student_t_interval"]


@dataclasses.dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around a sample mean."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        """Lower endpoint."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper endpoint."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return f"{self.mean:.6g} ± {self.half_width:.2g} ({self.confidence:.0%}, n={self.n})"


def _total(values) -> float:
    """``values`` added left to right, on every interpreter: Python
    3.12's builtin ``sum`` compensates float rounding, 3.11's does not."""
    return functools.reduce(operator.add, values, 0.0)


def student_t_interval(
    samples: list[float] | tuple[float, ...],
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of i.i.d. samples."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n = len(samples)
    if n == 0:
        raise ValueError("cannot build an interval from zero samples")
    mean = _total(samples) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=float("inf"), confidence=confidence, n=1)
    variance = _total((x - mean) ** 2 for x in samples) / (n - 1)
    std_err = math.sqrt(variance / n)
    from scipy.special import stdtrit

    t_crit = float(stdtrit(n - 1, 0.5 + confidence / 2.0))
    return ConfidenceInterval(mean=mean, half_width=t_crit * std_err, confidence=confidence, n=n)


class ReplicationSet:
    """Accumulates named scalar metrics across independent replications."""

    def __init__(self) -> None:
        self._samples: dict[str, list[float]] = {}

    def add(self, metric: str, value: float) -> None:
        """Record one replication's value of ``metric``."""
        if not math.isfinite(value):
            raise ValueError(f"non-finite sample for {metric!r}: {value!r}")
        self._samples.setdefault(metric, []).append(float(value))

    def metrics(self) -> list[str]:
        """Names of all recorded metrics."""
        return sorted(self._samples)

    def _recorded(self, metric: str) -> list[float]:
        try:
            return self._samples[metric]
        except KeyError:
            known = ", ".join(sorted(self._samples)) or "<none recorded>"
            raise KeyError(
                f"unknown metric {metric!r}; known metrics: {known}"
            ) from None

    def samples(self, metric: str) -> list[float]:
        """All samples recorded for ``metric``.

        Raises :class:`KeyError` naming the known metrics when
        ``metric`` was never recorded.
        """
        return list(self._recorded(metric))

    def count(self, metric: str) -> int:
        """Number of replications recorded for ``metric``."""
        return len(self._samples.get(metric, ()))

    def mean(self, metric: str) -> float:
        """Sample mean of ``metric`` (KeyError lists known metrics)."""
        values = self._recorded(metric)
        return _total(values) / len(values)

    def interval(self, metric: str, confidence: float = 0.95) -> ConfidenceInterval:
        """Student-t interval for ``metric`` (KeyError lists known metrics)."""
        return student_t_interval(self._recorded(metric), confidence)
