"""Small statistics helpers used by experiments and tests.

Pure-Python so the core library has no hard dependency on numpy; the
experiment harnesses may still use numpy for bulk work.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on an empty sequence."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def population_stdev(values: Sequence[float]) -> float:
    """Population standard deviation; 0.0 for a single value."""
    if not values:
        raise ValueError("stdev of empty sequence")
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values.

    The conventional aggregate for normalized-performance numbers
    (Fig. 8a reports per-mix normalized performance; we aggregate
    across mixes with the geomean).
    """
    if not values:
        raise ValueError("geometric mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def confidence_interval_95(values: Sequence[float]) -> tuple[float, float]:
    """Normal-approximation 95 % CI of the mean (half-width form).

    Returns ``(mean, half_width)``.  With fewer than two samples the
    half-width is 0.
    """
    mu = mean(values)
    if len(values) < 2:
        return mu, 0.0
    variance = sum((v - mu) ** 2 for v in values) / (len(values) - 1)
    half = 1.96 * math.sqrt(variance / len(values))
    return mu, half


def histogram(values: Iterable[int]) -> dict[int, int]:
    """Counting histogram of integer values, sorted by key."""
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return dict(sorted(counts.items()))


class RunningStat:
    """Welford online mean/variance accumulator.

    Used by long simulations to accumulate latency statistics without
    storing every sample.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the accumulator."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Mean of the samples seen so far (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance of the samples seen so far."""
        return self._m2 / self.count if self.count else 0.0

    @property
    def stdev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStat") -> None:
        """Fold another accumulator into this one (parallel merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def state(self) -> dict:
        """Canonical (JSON-safe) serialization of the accumulator.

        Folding the same samples in the same order always reproduces
        this dict bit-exactly — the property the campaign runner's
        resume-equivalence digest relies on.
        """
        return {
            "count": self.count,
            "mean": self._mean,
            "m2": self._m2,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RunningStat":
        """Rebuild an accumulator from a :meth:`state` dict.

        Round-trips bit-exactly: ``RunningStat.from_state(s.state())``
        merges and serializes identically to ``s`` — the property the
        observability layer relies on when worker processes ship their
        telemetry back to the supervisor as plain dicts.
        """
        stat = cls()
        stat.count = int(state["count"])
        stat._mean = float(state["mean"])
        stat._m2 = float(state["m2"])
        if stat.count:
            stat.minimum = float(state["min"])
            stat.maximum = float(state["max"])
        return stat

    def __repr__(self) -> str:
        return (
            f"RunningStat(count={self.count}, mean={self.mean:.4g}, "
            f"stdev={self.stdev:.4g})"
        )


class QuantileSketch:
    """Fixed-size log-histogram quantile sketch.

    ``bins`` geometrically spaced buckets cover ``[lo, hi]``; a value
    lands in the bucket whose bounds bracket it, so the sketch is a
    pure function of the multiset of samples — independent of arrival
    order, mergeable, and **fixed-size** no matter how many samples
    stream through.  A quantile estimate is the geometric midpoint of
    the bucket holding the ranked sample, which bounds the relative
    error by ``sqrt(gamma) - 1`` where ``gamma = (hi/lo)**(1/bins)``
    (exposed as :attr:`relative_error`; ~2.7 % at the defaults).
    Values at or below ``lo`` are clamped to ``lo``; values at or
    above ``hi`` clamp into the last bucket.

    This is the campaign runner's percentile primitive: a 10⁶-tenant
    sweep keeps latency/capacity/BER distributions in a few hundred
    ints instead of 10⁶ floats.
    """

    __slots__ = ("lo", "hi", "bins", "count", "underflow", "_counts",
                 "_log_lo", "_log_gamma")

    # Absolute slack on relative_error for floating-point rounding.
    _ROUNDING = 1e-12

    def __init__(self, lo: float = 1.0, hi: float = 1e9, bins: int = 384):
        if not (0 < lo < hi):
            raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = bins
        self.count = 0
        self.underflow = 0          # samples clamped to lo
        self._counts: dict[int, int] = {}
        self._log_lo = math.log(self.lo)
        self._log_gamma = (math.log(self.hi) - self._log_lo) / bins

    @property
    def relative_error(self) -> float:
        """Worst-case relative error of a quantile estimate for
        samples inside ``(lo, hi)``.

        ``sqrt(gamma) - 1`` is reached exactly by a sample on a
        bucket's lower edge, so the bound is tight; the log/exp bucket
        arithmetic can overshoot it by a few ulps there.  The
        ``_ROUNDING`` allowance covers that for any ``lo``/``hi`` a
        float can hold (``|log| < 710``)."""
        return math.expm1(self._log_gamma / 2) + self._ROUNDING

    def add(self, value: float) -> None:
        """Fold one sample into the sketch."""
        self.count += 1
        if value <= self.lo:
            self.underflow += 1
            return
        index = int((math.log(value) - self._log_lo) / self._log_gamma)
        if index >= self.bins:
            index = self.bins - 1
        self._counts[index] = self._counts.get(index, 0) + 1

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile (``0 < q <= 1``); None if empty.

        The rank convention matches ``sorted(samples)[ceil(q*n) - 1]``,
        so an estimate always comes from the bucket that holds that
        exact ranked sample.
        """
        if not 0 < q <= 1:
            raise ValueError(f"q must be in (0, 1], got {q}")
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.underflow:
            return self.lo
        seen = self.underflow
        for index in sorted(self._counts):
            seen += self._counts[index]
            if seen >= rank:
                return math.exp(
                    self._log_lo + (index + 0.5) * self._log_gamma
                )
        return self.hi  # unreachable unless counts were mutated

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch with identical geometry into this one."""
        if (other.lo, other.hi, other.bins) != (self.lo, self.hi, self.bins):
            raise ValueError("cannot merge sketches with different geometry")
        self.count += other.count
        self.underflow += other.underflow
        for index, n in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + n

    def state(self) -> dict:
        """Canonical (JSON-safe, bit-reproducible) serialization."""
        return {
            "lo": self.lo,
            "hi": self.hi,
            "bins": self.bins,
            "count": self.count,
            "underflow": self.underflow,
            "counts": {
                str(index): self._counts[index]
                for index in sorted(self._counts)
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "QuantileSketch":
        """Rebuild a sketch from a :meth:`state` dict (bit-exact
        round-trip, mergeable into sketches of the same geometry)."""
        sketch = cls(lo=state["lo"], hi=state["hi"], bins=state["bins"])
        sketch.count = int(state["count"])
        sketch.underflow = int(state["underflow"])
        sketch._counts = {
            int(index): int(n) for index, n in state["counts"].items()
        }
        return sketch
