"""Gaussian kernel density models with bounded support and seeded sampling.

A fitted model is a mixture of Gaussian kernels centred on the data points.
Supports may be half-open or closed intervals. Sampling is exact and
vectorized: each draw picks a kernel with probability proportional to its
mass inside the bounds (tables built once per model and lower bound, with
``math.erfc``) and inverts that kernel's truncated normal CDF with
``ndtri``, so no draw is rejected, redrawn or clamped. All randomness comes
from caller-provided numpy Generators, so sampling is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

_SQRT1_2 = math.sqrt(0.5)

UNBOUNDED = (-math.inf, math.inf)

# Wichura's AS241 (Applied Statistics 37, 1988) normal quantile: numerator
# and denominator, highest degree first, with the coefficients and the
# evaluation order of CPython's statistics.NormalDist().inv_cdf.
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0),
)
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _ratio(coeffs, r: np.ndarray, scale=1.0) -> np.ndarray:
    num, den = (np.full_like(r, c[0]) for c in coeffs)
    for a, b in zip(coeffs[0][1:], coeffs[1][1:]):
        num = num * r + a
        den = den * r + b
    return num * scale / den


def ndtri(p) -> np.ndarray:
    """Standard normal quantile of each probability in ``p``, within a few
    ulp over (0, 1); ``ndtri(0) = -inf`` and ``ndtri(1) = inf``."""
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    central = np.abs(p - 0.5) <= 0.425
    q = p[central] - 0.5
    out[central] = _ratio(_AS241_CENTRAL, 0.180625 - q * q, q)
    tail = p[~central]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.minimum(tail, 1.0 - tail)))
        x = np.where(r <= 5.0, _ratio(_AS241_NEAR, r - 1.6), _ratio(_AS241_FAR, r - 5.0))
    out[~central] = np.copysign(np.where(r == math.inf, math.inf, x), tail - 0.5)
    return out


def _ndtr(bound: float, centres: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Normal cdf of ``(bound - centres) / scale`` by ``math.erfc``; at an
    infinite bound every value is exactly 0 or 1."""
    z = (bound - centres) / scale
    if math.isinf(bound):
        return (z > 0).astype(float)
    return 0.5 * np.fromiter(map(math.erfc, (-z * _SQRT1_2).tolist()), float, z.size)


def invert(centre, scale, p, lo, hi) -> np.ndarray:
    """Draws ``centre + scale * ndtri(p)`` of kernel picks, clipped to
    [lo, hi] (scalars or arrays) against the last-ulp rounding of the sum."""
    return np.clip(centre + scale * ndtri(p), lo, hi)


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
    # Kernel tables by sampling lower bound, built on first use.
    _tables: dict = field(init=False, repr=False, compare=False, default_factory=dict)

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

    def _table(self, lo: float):
        """``(p_lo, width, scale, cdf)`` for draws inside [lo, hi]: each
        kernel's probability at lo, its signed mass inside [lo, hi], and
        bandwidth; the cumulative mass, ending at 1.0. Kernels centred below
        lo have upper-tail probabilities (a negated ``scale``), which keep
        full precision far from the centre."""
        table = self._tables.get(lo)
        if table is None:
            hi = self.support[1]
            if not lo < hi:
                raise DataError(f"empty sampling interval [{lo}, {hi}]")
            scale = np.where(self.samples < lo, -self.bandwidth, self.bandwidth)
            p_lo = _ndtr(lo, self.samples, scale)
            width = _ndtr(hi, self.samples, scale) - p_lo
            cum = np.cumsum(np.abs(width))
            if not cum[-1] > 0:
                raise DataError(f"density has no mass inside [{lo}, {hi}]")
            table = self._tables[lo] = (p_lo, width, scale, cum / cum[-1])
        return table

    def pick(self, rng: np.random.Generator, count: int, lower: float = -math.inf):
        """``(centre, scale, p, lo, hi)`` of ``count`` draws inside [lo, hi] =
        [max(support lo, lower), support hi], for ``invert``. The stream
        consumes ``count`` uniforms that pick kernels with probability
        proportional to their mass inside [lo, hi], then ``count`` that place
        ``p`` uniformly between each kernel's probabilities at lo and hi."""
        lo = max(self.support[0], lower)
        p_lo, width, scale, cdf = self._table(lo)
        # cdf ends at exactly 1.0 and uniforms are < 1, so every pick is a
        # kernel with positive mass.
        k = cdf.searchsorted(rng.random(count), side="right")
        p = p_lo[k] + rng.random(count) * width[k]
        return self.samples[k], scale[k], p, lo, self.support[1]

    def sample_many(
        self, rng: np.random.Generator, count: int, lower: float = -math.inf
    ) -> np.ndarray:
        """``count`` independent draws from the density, optionally also
        truncated below at ``lower``."""
        return invert(*self.pick(rng, count, lower))

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
