"""Bernoulli-proportion estimates with Wilson score confidence intervals,
the one number format of every CLI and CSV output, and the Graham–Pike
limit that both the conjecture grid and the recommendations evaluate."""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1, sqrt


def format_number(value: float) -> str:
    """``value`` to 12 significant digits, as every output line writes it."""
    return f"{value:.12g}"


def graham_pike_limit(c: float) -> float:
    """Limiting failure probability 1 - exp(-2 exp(-c)) at p = (ln n + c)/n."""
    return -expm1(-2.0 * exp(-c))


# two-sided 95% normal quantile
_Z95 = 1.96


def wilson_interval(events: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because it stays inside [0, 1]
    and behaves sanely for proportions at or near 0 and 1.
    """
    if trials <= 0:
        return (0.0, 1.0)
    p = events / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    margin = (z / denom) * sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    # the interval brackets p by construction; min/max shields the float noise
    low = min(max(0.0, center - margin), p)
    high = max(min(1.0, center + margin), p)
    return (low, high)


@dataclass(frozen=True)
class EstimateResult:
    """Monte Carlo estimate of an event probability.

    ``failures`` counts the trials in which the monitored event occurred
    (non-strong-connectivity for digraph campaigns, adversary success for
    deanonymisation experiments); ``estimate`` is ``failures / trials``.
    """

    trials: int
    failures: int
    estimate: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, trials: int, failures: int) -> "EstimateResult":
        if trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= failures <= trials:
            raise ValueError("failures must lie in [0, trials]")
        low, high = wilson_interval(failures, trials)
        return cls(trials, failures, failures / trials, low, high)
