"""Gaussian kernel density models with bounded support and seeded sampling.

A fitted model is a mixture of Gaussian kernels centred on the data points.
Supports may be half-open or closed intervals; the density is renormalized
by the kernel mass falling inside the support. Sampling is exact and
vectorized: each draw picks a kernel with probability proportional to its
mass inside the bounds and inverts that kernel's truncated normal CDF, so
no draw is rejected, redrawn or clamped. All randomness comes from
caller-provided numpy Generators, so sampling is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DataError

_SQRT_2PI = math.sqrt(2.0 * math.pi)

UNBOUNDED = (-math.inf, math.inf)


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5).

    Uses the n-1 sample standard deviation and linear-interpolation
    quantiles. Returns 0 for degenerate data (n < 2 or no spread).
    """
    n = samples.size
    if n < 2:
        return 0.0
    sd = float(samples.std(ddof=1))
    q25, q75 = np.percentile(samples, [25.0, 75.0])
    spread = min(sd, (q75 - q25) / 1.34)
    return 0.9 * spread * n ** (-0.2)


@dataclass
class KdeModel:
    """Gaussian KDE over one feature, truncated to ``support``.

    Attributes:
        samples: the data points (kernel centres), all inside support.
        bandwidth: kernel standard deviation, > 0.
        support: closed interval (lo, hi); either end may be infinite.
    """

    samples: np.ndarray
    bandwidth: float
    support: tuple[float, float] = UNBOUNDED
    _mass: float = field(init=False, repr=False)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.size == 0:
            raise DataError("KdeModel requires at least one sample")
        if not self.bandwidth > 0:
            raise DataError(f"bandwidth must be positive, got {self.bandwidth}")
        lo, hi = self.support
        if not lo < hi:
            raise DataError(f"empty support interval: {self.support}")
        if self.samples.min() < lo or self.samples.max() > hi:
            raise DataError("sample outside declared support")
        self._mass = self._support_mass()

    def _support_mass(self) -> float:
        _, p_lo, p_hi = self._kernel_bounds(*self.support)
        return float(np.mean(np.abs(p_hi - p_lo)))

    def _kernel_bounds(self, lo: float, hi: float):
        """Per-kernel normal probabilities at the bounds ``lo`` < ``hi``.

        Returns ``(tail, p_lo, p_hi)``. For a kernel whose centre lies below
        ``lo`` (``tail``), the probabilities are upper-tail ones, Q(z) =
        ndtr(-z), which keep full precision far from the centre; otherwise
        they are ndtr values. Either way ``|p_hi - p_lo|`` is the kernel's
        mass inside [lo, hi].
        """
        alpha = (lo - self.samples) / self.bandwidth
        beta = (hi - self.samples) / self.bandwidth
        tail = alpha > 0
        return tail, ndtr(np.where(tail, -alpha, alpha)), ndtr(np.where(tail, -beta, beta))

    def pdf(self, x):
        """Density at ``x`` (scalar or array); 0 outside the support."""
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - self.samples) / self.bandwidth
        raw = np.exp(-0.5 * z * z).mean(axis=-1) / (self.bandwidth * _SQRT_2PI)
        lo, hi = self.support
        inside = (x >= lo) & (x <= hi)
        out = np.where(inside, raw / self._mass, 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        """Cumulative distribution of the truncated mixture."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        clipped = np.clip(x, lo, hi)
        upper = ndtr((clipped[..., None] - self.samples) / self.bandwidth).mean(axis=-1)
        lower = (
            float(np.mean(ndtr((lo - self.samples) / self.bandwidth)))
            if math.isfinite(lo) else 0.0
        )
        out = np.clip((upper - lower) / self._mass, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def sample_many(
        self, rng: np.random.Generator, count: int, lower: float = -math.inf
    ) -> np.ndarray:
        """``count`` independent draws from the density, optionally also
        truncated below at ``lower``.

        Exact inversion: one uniform per draw picks a kernel with probability
        proportional to its mass inside [max(lo, lower), hi], a second one
        is mapped through that kernel's truncated normal quantile function.
        The stream consumes ``count`` uniforms for the kernels, then
        ``count`` for the inversion.
        """
        lo = max(self.support[0], lower)
        hi = self.support[1]
        if not lo < hi:
            raise DataError(f"empty sampling interval [{lo}, {hi}]")
        tail, p_lo, p_hi = self._kernel_bounds(lo, hi)
        cum = np.cumsum(np.abs(p_hi - p_lo))
        if not cum[-1] > 0:
            raise DataError(f"density has no mass inside [{lo}, {hi}]")
        # cum / cum[-1] ends at exactly 1.0 and uniforms are < 1, so every
        # pick is a kernel with positive mass.
        k = np.searchsorted(cum / cum[-1], rng.random(count), side="right")
        p = p_lo[k] + rng.random(count) * (p_hi[k] - p_lo[k])
        z = ndtri(p)
        x = self.samples[k] + self.bandwidth * np.where(tail[k], -z, z)
        # The quantile is lo or hi at p = p_lo or p_hi exactly; the clip keeps
        # the last-ulp rounding of centre + h * z on the right side of them.
        return np.clip(x, lo, hi)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        lo, hi = self.support
        return {
            "samples": [float(s) for s in self.samples],
            "bandwidth": float(self.bandwidth),
            "support": [
                None if math.isinf(lo) else float(lo),
                None if math.isinf(hi) else float(hi),
            ],
        }


def fit_kde(samples, support: tuple[float, float] = UNBOUNDED) -> KdeModel:
    """Fit a Gaussian KDE with Silverman bandwidth to ``samples``.

    Degenerate data (all points identical, or a single point) falls back to
    a bandwidth of max(1e-6, 0.01 * max(1, largest |sample|)).
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise DataError("cannot fit a density to an empty sample array")
    if not np.all(np.isfinite(x)):
        raise DataError("samples must be finite")
    lo, hi = support
    if x.min() < lo or x.max() > hi:
        raise DataError(
            f"sample range [{x.min()}, {x.max()}] exceeds support [{lo}, {hi}]"
        )

    h = silverman_bandwidth(x)
    if not h > 0:
        h = max(1e-6, 0.01 * max(1.0, float(np.max(np.abs(x)))))
    return KdeModel(samples=x, bandwidth=h, support=support)
