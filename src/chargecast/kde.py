"""Gaussian kernel density models with bounded support and seeded sampling.

A fitted model is a mixture of Gaussian kernels centred on the data points.
Supports may be half-open or closed intervals. Sampling is exact and
vectorized: each draw picks a kernel with probability proportional to its
mass inside the support (a table of three arrays each model builds when it
is built, with ``math.erfc``) and inverts that kernel's truncated normal CDF
with ``ndtri``, so no draw is rejected, redrawn or clamped. ``pick`` makes
the picks, each with its kernel's signed scale (negative for a kernel
centred below the support, whose draws come from its upper tail), and
``invert`` turns them into draws in the buffer of their probabilities, with
an in-place ``ndtri``, so that a batch of draws holds few temporaries. All
randomness comes from caller-provided uniforms or Generators, so sampling is
reproducible.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Real

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
    """``num(r) * scale / den(r)`` by Horner's rule, in one pair of buffers."""
    num, den = (np.full_like(r, c[0]) for c in coeffs)
    for a, b in zip(coeffs[0][1:], coeffs[1][1:]):
        num *= r
        num += a
        den *= r
        den += b
    num *= scale
    num /= den
    return num


def ndtri(p, out=None) -> np.ndarray:
    """Standard normal quantile of each probability in ``p``, within a few
    ulp over (0, 1); ``ndtri(0) = -inf`` and ``ndtri(1) = inf``. ``out`` may
    be ``p`` itself, which is then overwritten."""
    p = np.asarray(p, dtype=float)
    central = np.abs(p - 0.5) <= 0.425
    q = p[central] - 0.5
    tail = p[~central]
    if out is None:
        out = np.empty_like(p)
    out[central] = _ratio(_AS241_CENTRAL, 0.180625 - q * q, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.minimum(tail, 1.0 - tail)))
        x = np.piecewise(r, [r <= 5.0], [lambda v: _ratio(_AS241_NEAR, v - 1.6),
                                         lambda v: _ratio(_AS241_FAR, v - 5.0)])
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
    [lo, hi] (scalars, or arrays that broadcast) against the last-ulp
    rounding of the sum. The draws overwrite ``p``."""
    x = ndtri(p, out=p)
    x *= scale
    x += centre
    return np.clip(x, lo, hi, out=x)


def _quartile(ordered: np.ndarray, q: float) -> float:
    """``np.percentile(x, 100 q)`` of sorted ``x``, step for step (it imports numpy.ma)."""
    i, t = divmod((ordered.size - 1) * q, 1.0)
    a, b = ordered[int(i)], ordered[int(i) + 1]
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5).

    Uses the n-1 sample standard deviation and linear-interpolation
    quantiles. Returns 0 for degenerate data (n < 2 or no spread).
    """
    n = samples.size
    if n < 2:
        return 0.0
    sd = float(samples.std(ddof=1))
    ordered = np.sort(samples)
    spread = min(sd, (_quartile(ordered, 0.75) - _quartile(ordered, 0.25)) / 1.34)
    return 0.9 * spread * n ** (-0.2)


@dataclass
class KdeModel:
    """Gaussian KDE over one feature, truncated to ``support``, which holds
    every draw. It checks itself and builds its sampling table when built.

    Attributes:
        samples: the data points (kernel centres), one-dimensional and finite;
            a centre outside ``support`` counts with its mass inside it.
        bandwidth: kernel standard deviation, a real number, finite and > 0.
        support: closed interval (lo, hi) with some of the density's mass;
            either end may be infinite.
    """

    samples: np.ndarray
    bandwidth: float
    support: tuple[float, float] = UNBOUNDED
    # (p_lo, width, cdf): each kernel's probability at lo and its signed
    # mass inside [lo, hi]; the cumulative mass, ending at 1.0. A kernel
    # centred below lo has upper-tail probabilities (a negated bandwidth as
    # its scale), which keep full precision far from the centre.
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise DataError("KdeModel samples must be one-dimensional")
        if self.samples.size == 0:
            raise DataError("KdeModel requires at least one sample")
        if not np.isfinite(self.samples).all():
            raise DataError("KdeModel samples must be finite")
        if not (isinstance(self.bandwidth, Real) and 0 < self.bandwidth < math.inf):
            raise DataError(f"bandwidth must be positive and finite, got {self.bandwidth!r}")
        lo, hi = self.support
        if not lo < hi:
            raise DataError(f"empty support interval: {self.support}")
        scale = np.where(self.samples < lo, -self.bandwidth, self.bandwidth)
        p_lo = _ndtr(lo, self.samples, scale)
        width = _ndtr(hi, self.samples, scale) - p_lo
        cdf = np.cumsum(np.abs(width))
        if not cdf[-1] > 0:
            raise DataError(f"density has no mass inside [{lo}, {hi}]")
        cdf /= cdf[-1]
        self._table = (p_lo, width, cdf)

    def pick(self, uniforms: np.ndarray):
        """``(centre, scale, p, lo, hi)`` of draws inside the support [lo, hi],
        for ``invert``: one draw per column of the ``(2, count)``
        ``uniforms``. Row 0 picks kernels with probability proportional to
        their mass inside [lo, hi]; row 1 places ``p`` uniformly between each
        kernel's probabilities at lo and hi."""
        p_lo, width, cdf = self._table
        # cdf ends at exactly 1.0 and uniforms are < 1, so every pick is a
        # kernel with positive mass.
        k = cdf.searchsorted(uniforms[0], side="right")
        p = p_lo[k] + uniforms[1] * width[k]
        centre, (lo, hi) = self.samples[k], self.support
        return centre, np.where(centre < lo, -self.bandwidth, self.bandwidth), p, lo, hi

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` independent draws from the density: ``pick`` of the next
        ``(2, count)`` uniforms."""
        return invert(*self.pick(rng.random((2, count))))


@contextmanager
def overflow_as_data_error(message: str):
    """Numpy float overflow or invalid results as a ``DataError``, not a warned inf or NaN."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise DataError(f"{message} ({exc})") from None


@overflow_as_data_error("a sample is too large for the density fit")
def fit_kde(samples, support: tuple[float, float] = UNBOUNDED) -> KdeModel:
    """Fit a Gaussian KDE with Silverman bandwidth to ``samples``.

    Degenerate data (all points identical, or a single point) falls back to
    a bandwidth of max(1e-6, 0.01 * max(1, largest |sample|)).
    """
    x = np.asarray(samples, dtype=float).ravel()
    # Checked before the bandwidth rule, whose spread of an inf is a NaN.
    if x.size == 0 or not np.isfinite(x).all():
        raise DataError("cannot fit a density to an empty or non-finite sample array")
    h = silverman_bandwidth(x)
    if not h > 0:
        h = max(1e-6, 0.01 * max(1.0, float(np.max(np.abs(x)))))
    return KdeModel(samples=x, bandwidth=h, support=support)
