"""Density fitting and sampling: bandwidths, truncation, reproducibility."""

import hashlib
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import kstest

from chargecast.errors import DataError
from chargecast.forecast import FEATURE_VELOCITY, ModelSet, feature_keys
from chargecast.kde import (
    _AS241_CENTRAL,
    _AS241_FAR,
    _AS241_NEAR,
    KdeModel,
    fit_kde,
    ndtri,
    silverman_bandwidth,
)
from chargecast.survey import (
    CHAIN_TYPES,
    FEATURE_END_TIME,
    ChainFeatureDataset,
    chain_type_proportions,
    sample_key,
    save_dataset,
)
from chargecast.survey import feature_keys as column_keys
from conftest import rebuilt_models


def _kernel_mass(u, v):
    """Standard normal mass of [u, v], from the tail on the far side of 0 so
    that it keeps its precision far from the centre."""
    return np.where(u > 0, ndtr(-u) - ndtr(-v), ndtr(v) - ndtr(u))


def pdf(model: KdeModel, x):
    """Density of ``model`` at ``x`` (scalar or array); 0 outside the support."""
    x = np.asarray(x, dtype=float)
    lo, hi = model.support
    s, h = model.samples, model.bandwidth
    z = (x[..., None] - s) / h
    raw = np.exp(-0.5 * z * z).mean(axis=-1) / (h * math.sqrt(2.0 * math.pi))
    mass = float(np.mean(_kernel_mass((lo - s) / h, (hi - s) / h)))
    out = np.where((x >= lo) & (x <= hi), raw / mass, 0.0)
    return float(out) if out.ndim == 0 else out


def cdf(model: KdeModel, x):
    """Cumulative distribution of ``model`` truncated to its support [lo, hi],
    the distribution ``sample_many`` draws from.

    The mass below ``x`` and the mass above it are each summed from kernel
    masses that keep their precision in the tails, so the upper tail is a
    complement (ndtr(-z)) rather than a difference from 1.
    """
    lo, hi = model.support
    x = np.clip(np.asarray(x, dtype=float), lo, hi)
    s, h = model.samples, model.bandwidth
    z = (x[..., None] - s) / h
    below = _kernel_mass((lo - s) / h, z).sum(axis=-1)
    above = _kernel_mass(z, (hi - s) / h).sum(axis=-1)
    out = below / (below + above)
    return float(out) if out.ndim == 0 else out


def integral_over_support(model: KdeModel, points_per_bandwidth: int = 250) -> float:
    """Fine-trapezoid quadrature of the pdf, the normalization oracle.

    The grid must resolve the kernel width well: the dominant trapezoid
    error is the boundary term at a truncated support edge, which shrinks
    quadratically in the step size.
    """
    lo, hi = model.support
    span_lo = max(lo, model.samples.min() - 12 * model.bandwidth)
    span_hi = min(hi, model.samples.max() + 12 * model.bandwidth)
    n = min(int((span_hi - span_lo) / model.bandwidth * points_per_bandwidth) + 2, 2_000_000)
    grid = np.linspace(span_lo, span_hi, max(n, 2000))
    return float(np.trapezoid(pdf(model, grid), grid))


class TestBandwidth:
    def test_two_point_silverman(self):
        # Direct arithmetic: sd (n-1) = sqrt(0.5), IQR (linear quantiles) = 0.5.
        sd = math.sqrt(0.5)
        iqr = 0.5
        expected = 0.9 * min(sd, iqr / 1.34) * 2 ** (-0.2)
        model = fit_kde([0.0, 1.0])
        assert model.bandwidth == pytest.approx(expected, rel=1e-12)

    def test_identical_samples_fallback(self):
        assert fit_kde([5.0, 5.0, 5.0]).bandwidth == pytest.approx(0.05)

    def test_single_sample_fallback(self):
        assert fit_kde([2.0]).bandwidth == pytest.approx(0.02)

    def test_small_values_fallback_floor(self):
        # max(1e-6, 0.01 * max(1, |x|)) with |x| < 1 floors at 0.01.
        assert fit_kde([0.0, 0.0]).bandwidth == pytest.approx(0.01)

    def test_scale_consistency(self):
        rng = np.random.default_rng(7)
        x = rng.normal(10.0, 3.0, size=200)
        h = fit_kde(x).bandwidth
        for a in (0.25, 3.0, 117.0):
            assert fit_kde(a * x).bandwidth == pytest.approx(a * h, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.floats(-1e10, 1e10), min_size=2, max_size=3),
            st.lists(st.floats(-1e10, 1e10), min_size=4, max_size=60),
            st.lists(st.integers(-3, 3).map(float), min_size=2, max_size=60),  # ties
        ),
        scale=st.sampled_from([1.0, -2.5e-7, 1e-300, 3.0e140]),
    )
    def test_quartiles_match_np_percentile(self, values, scale):
        """The sorted-copy quartiles give the bandwidth of the
        ``np.percentile`` formula bit for bit."""
        x = np.asarray(values) * scale
        q25, q75 = np.percentile(x, [25.0, 75.0])
        expected = 0.9 * min(float(x.std(ddof=1)), (q75 - q25) / 1.34) * x.size ** (-0.2)
        assert np.float64(silverman_bandwidth(x)).tobytes() == np.float64(expected).tobytes()

    def test_zero_iqr_with_spread_uses_fallback(self):
        x = [3.0] * 10 + [9.0]
        assert silverman_bandwidth(np.asarray(x)) == 0.0
        assert fit_kde(x).bandwidth == pytest.approx(0.09)  # 0.01 * 9


class TestPdf:
    def test_single_sample_peak_value(self):
        model = fit_kde([4.0])
        assert pdf(model, 4.0) == pytest.approx(1.0 / (model.bandwidth * math.sqrt(2 * math.pi)))

    def test_kernel_symmetry(self):
        model = fit_kde([4.0])
        for delta in (0.001, 0.5, 3.0):
            assert pdf(model, 4.0 + delta) == pytest.approx(pdf(model, 4.0 - delta), rel=1e-12)

    def test_far_tail_is_effectively_zero(self):
        model = fit_kde([0.0, 1.0])
        far = 1.0 + 100 * model.bandwidth
        assert pdf(model, far) < 1e-300

    def test_zero_outside_support(self):
        model = fit_kde([5.0, 6.0, 7.0], support=(0.0, 10.0))
        assert pdf(model, -0.5) == 0.0
        assert pdf(model, 10.5) == 0.0
        assert np.all(pdf(model, np.linspace(-5, 15, 101)) >= 0.0)

    def test_normalization_unbounded(self):
        rng = np.random.default_rng(3)
        model = fit_kde(rng.normal(50, 12, size=300))
        assert integral_over_support(model) == pytest.approx(1.0, abs=1e-6)

    def test_normalization_truncated(self):
        rng = np.random.default_rng(4)
        model = fit_kde(np.abs(rng.normal(0, 30, size=200)), support=(0.0, math.inf))
        assert integral_over_support(model) == pytest.approx(1.0, abs=1e-6)

    def test_truncation_raises_density(self):
        # Mass cut off outside the bounds must be redistributed inside.
        unbounded = fit_kde([0.0, 1.0, 2.0])
        bounded = KdeModel(unbounded.samples, unbounded.bandwidth, support=(0.0, 2.0))
        assert pdf(bounded, 1.0) > pdf(unbounded, 1.0)


class TestSampling:
    def test_same_seed_same_sequence(self):
        model = fit_kde([10.0, 20.0, 30.0], support=(0.0, 50.0))
        a = model.sample_many(np.random.default_rng(42), 100)
        b = model.sample_many(np.random.default_rng(42), 100)
        assert np.array_equal(a, b)

    def test_draws_respect_support(self):
        rng = np.random.default_rng(0)
        model = fit_kde([5.0, 700.0, 1400.0], support=(0.0, 1440.0))
        draws = model.sample_many(rng, 100_000)
        assert draws.min() >= 0.0 and draws.max() <= 1440.0

    def test_mean_matches_mixture_mean(self):
        rng = np.random.default_rng(11)
        x = rng.normal(100.0, 25.0, size=400)
        model = fit_kde(x)
        n = 100_000
        draws = model.sample_many(np.random.default_rng(1), n)
        sigma2 = x.var() + model.bandwidth ** 2  # kernel noise inflates variance
        assert abs(draws.mean() - x.mean()) < 4 * math.sqrt(sigma2 / n)

    def test_heavy_truncation_keeps_sampler_exact(self):
        # Support admits ~4% of the kernel mass: the draws must still match
        # the renormalized density.
        model = KdeModel(np.array([0.0]), bandwidth=5.0, support=(0.0, 0.5))
        draws = model.sample_many(np.random.default_rng(6), 5000)
        assert draws.min() >= 0.0 and draws.max() <= 0.5
        assert cdf(model, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert integral_over_support(model) == pytest.approx(1.0, abs=1e-6)
        assert kstest(draws, lambda x: cdf(model, x)).statistic < 0.03

    def test_empirical_cdf_matches_model(self):
        model = fit_kde(
            np.array([420.0, 450.0, 470.0, 480.0, 495.0, 520.0, 560.0, 610.0]),
            support=(0.0, 1440.0),
        )
        draws = model.sample_many(np.random.default_rng(2), 100_000)
        assert kstest(draws, lambda x: cdf(model, x)).statistic < 0.01

    def test_draws_of_kernels_centred_below_lo_are_pinned(self):
        """A kernel centred below lo picks the upper-tail branch (a negated
        scale). No golden holds one, so its draws are pinned here, bit for bit."""
        model = KdeModel(np.array([-3.0, 0.5, 2.0]), bandwidth=2.0, support=(0.0, math.inf))
        centre, scale, *_ = model.pick(np.random.default_rng(2026).random((2, 1000)))
        assert (scale < 0).sum() == (centre < 0).sum() == 36
        draws = model.sample_many(np.random.default_rng(2026), 1000)
        assert draws.min() >= 0.0
        assert hashlib.sha256(draws.tobytes()).hexdigest() == (
            "f8780160c4f581fc89f0c352b8994050804c59ebba4dfbd7f79cab5086301ee2")

    def test_fitted_model_keeps_three_arrays_beyond_its_samples(self):
        """The sampling table is each kernel's probability at lo, its mass
        inside the support and the cumulative mass: no per-kernel scale."""
        samples = np.random.default_rng(3).normal(size=100_000)
        tracemalloc.start()
        try:
            model = fit_kde(samples, support=(0.0, math.inf))
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.shares_memory(model.samples, samples)
        assert kept <= 3 * samples.nbytes + 65_536

    def test_fit_holds_no_python_float_per_kernel(self):
        """Building the table passes the kernels to ``math.erfc`` one at a
        time: the fit peaks at five arrays of the samples' size (4.0 MB for
        100,000), not at a list of Python floats beside them (5.6 MB)."""
        samples = np.random.default_rng(3).normal(size=100_000)
        tracemalloc.start()
        try:
            fit_kde(samples, support=(0.0, math.inf))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * samples.nbytes

    def test_no_mass_above_lower_bound_is_data_error(self):
        """A support without mass fails when the model is built, not at its first draw."""
        with pytest.raises(DataError, match="no mass"):
            KdeModel(np.array([0.0]), bandwidth=1e-3, support=(1.0, 5.0))  # 1000 bandwidths
        with pytest.raises(DataError, match="no mass"):
            fit_kde([0.0, 0.0], support=(1.0, math.inf))  # bandwidth 0.01: 100 bandwidths
        with pytest.raises(DataError, match="empty support interval"):
            KdeModel(np.array([0.0]), bandwidth=1e-3, support=(5.0, 5.0))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated_draws_property(self, data):
        """Random truncated mixtures, with the support's lower end often
        above some or all kernel centres: draws stay inside the support and
        follow the renormalized cdf (KS bound 0.04 for 4000 draws: p < 1e-5)."""
        n = data.draw(st.integers(1, 12), label="kernels")
        centres = np.array(data.draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n)))
        bandwidth = data.draw(st.floats(0.05, 30.0), label="bandwidth")
        hi = data.draw(st.sampled_from([math.inf, 100.0, 150.0]), label="hi")
        # Up to 12 bandwidths above the highest centre, where the bounded
        # mass is below 1e-32 of the whole.
        top = min(float(centres.max()) + 12.0 * bandwidth, hi - 1e-6)
        lo = data.draw(st.floats(-20.0, top), label="lo")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        model = KdeModel(centres, bandwidth, (lo, hi))

        draws = model.sample_many(np.random.default_rng(seed), 4000)
        assert lo <= draws.min() and draws.max() <= hi
        statistic = kstest(draws, lambda x: cdf(model, x)).statistic
        assert statistic < 0.04


def _oracle_ratio(coeffs, r, scale=1.0):
    num, den = (np.full_like(r, c[0]) for c in coeffs)
    for a, b in zip(coeffs[0][1:], coeffs[1][1:]):
        num = num * r + a
        den = den * r + b
    return num * scale / den


def _oracle_ndtri(p):
    """The out-of-place AS241 quantile that ``ndtri`` must equal byte for
    byte: both branch ratios on every tail value, then ``np.where``."""
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    central = np.abs(p - 0.5) <= 0.425
    q = p[central] - 0.5
    out[central] = _oracle_ratio(_AS241_CENTRAL, 0.180625 - q * q, q)
    tail = p[~central]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.minimum(tail, 1.0 - tail)))
        x = np.where(
            r <= 5.0, _oracle_ratio(_AS241_NEAR, r - 1.6), _oracle_ratio(_AS241_FAR, r - 5.0)
        )
    out[~central] = np.copysign(np.where(r == math.inf, math.inf, x), tail - 0.5)
    return out


class TestNdtri:
    def test_equals_out_of_place_oracle_bytes(self):
        """Uniforms, both tails down to the smallest subnormal and up to
        1 - 1e-16, the neighbours of the 0.075 and 0.925 branch edges, 0 and
        1 give the oracle's float64 bytes, in a new array and in place."""
        lower = np.concatenate([10.0 ** -np.linspace(1.0, 323.0, 20_000), [5e-324, 1e-323]])
        edges = np.concatenate(
            [edge + np.spacing(edge) * np.arange(-8, 9) for edge in (0.075, 0.925)]
        )
        for p in (
            np.random.default_rng(5).random(200_000),
            lower,
            1.0 - 10.0 ** -np.linspace(1.0, 16.0, 20_000),
            edges,
            np.array([0.0, 1.0, 0.5]),
        ):
            expected = _oracle_ndtri(p).tobytes()
            assert ndtri(p).tobytes() == expected
            in_place = p.copy()
            assert ndtri(in_place, out=in_place) is in_place
            assert in_place.tobytes() == expected

    def test_matches_statistics_inv_cdf_bit_for_bit(self):
        p = np.concatenate([
            np.linspace(1e-12, 1.0 - 1e-12, 1000), np.random.default_rng(3).random(1000),
        ])
        expected = [statistics.NormalDist().inv_cdf(v) for v in p.tolist()]
        assert ndtri(p).tolist() == expected

    def test_within_8_ulp_of_scipy(self):
        uniforms = np.random.default_rng(4).random(1_000_000)
        tails = np.logspace(-300, -1, 3000)
        for p in (uniforms, tails, 1.0 - tails[tails > 1e-16]):
            reference = scipy_ndtri(p)
            assert np.all(np.abs(ndtri(p) - reference) <= 8 * np.spacing(np.abs(reference)))

    def test_endpoints(self):
        assert ndtri(np.array([0.0, 0.5, 1.0])).tolist() == [-math.inf, 0.0, math.inf]


class TestValidationAndSerialization:
    def test_empty_samples_error(self):
        for samples in ([], [1.0, math.inf]):
            with pytest.raises(DataError):
                fit_kde(samples)

    def test_overflowing_sample_is_data_error(self):
        # The squared deviations of the bandwidth's standard deviation overflow.
        with pytest.raises(DataError, match="too large"):
            fit_kde(np.array([1e300, -1e300, 0.0, 2.0]))

    @pytest.mark.parametrize("samples, support", [
        ([1.0, 5.0], (0.0, 4.0)), ([0.3, 0.5, 0.8, 2.0, 3.0], (1.0, math.inf)),
    ], ids=["above_hi", "below_lo"])
    def test_kernel_centred_outside_support_draws_inside(self, samples, support):
        """A kernel centred outside the support is valid: its mass inside
        counts, and every draw lies inside and follows the renormalized cdf."""
        model = fit_kde(samples, support=support)
        draws = model.sample_many(np.random.default_rng(4), 20_000)
        assert support[0] <= draws.min() and draws.max() <= support[1]
        assert kstest(draws, lambda x: cdf(model, x)).statistic < 0.02

    def test_nonpositive_bandwidth_error(self):
        with pytest.raises(DataError):
            KdeModel(np.array([1.0]), bandwidth=0.0)

    def test_no_sample_error(self):
        with pytest.raises(DataError, match="requires at least one sample"):
            KdeModel(np.array([]), 1.0)

    @pytest.mark.parametrize("samples, bandwidth", [
        ([1.0, math.nan], 0.5), ([1.0, math.inf], 0.5), ([1.0], math.inf),
    ], ids=["nan_sample", "inf_sample", "inf_bandwidth"])
    def test_non_finite_model_error(self, samples, bandwidth):
        with pytest.raises(DataError):
            KdeModel(np.array(samples), bandwidth=bandwidth, support=(0.0, math.inf))

    @pytest.mark.parametrize("samples, bandwidth, message", [
        (np.array([[1.0, 2.0], [3.0, 4.0]]), 0.5, "one-dimensional"),
        (np.array(1.0), 0.5, "one-dimensional"),
        ([1.0, 2.0], "0.5", "bandwidth"),
        ([1.0, 2.0], None, "bandwidth"),
    ], ids=["two_dimensional_samples", "scalar_sample", "string_bandwidth", "no_bandwidth"])
    def test_bad_model_input_is_data_error(self, samples, bandwidth, message):
        with pytest.raises(DataError, match=message) as info:
            KdeModel(samples, bandwidth, (0.0, math.inf))
        assert info.value.exit_code == 3

    @staticmethod
    def _save_and_rebuild(tmp_path, dataset: ChainFeatureDataset, models: ModelSet):
        """Write ``dataset`` and ``models`` as the pipeline does, then rebuild
        the models as a reader of ``models.json`` does."""
        save_dataset(dataset, tmp_path)
        models.save(tmp_path / "models.json")
        return rebuilt_models(tmp_path, tmp_path / "models.json")

    def test_json_round_trip_pdf_exact(self, fixture_ingest, fixture_models, tmp_path):
        _, loaded = self._save_and_rebuild(tmp_path, fixture_ingest[2], fixture_models)
        for key, model in fixture_models.models.items():
            back = loaded[sample_key(*key)]
            assert back.bandwidth == model.bandwidth
            grid = np.linspace(0.0, 2.0 * model.samples.max(), 257)
            orig = pdf(model, grid)
            nonzero = orig > 0
            assert np.all(np.abs(pdf(back, grid)[nonzero] / orig[nonzero] - 1.0) <= 1e-12), key

    def test_round_trip_preserves_unbounded_support(self, tmp_path):
        ctype = CHAIN_TYPES[0]
        dataset = ChainFeatureDataset(
            {ctype: 2}, {(ctype, *key): np.array([1.0, 2.0]) for key in column_keys(ctype)}
        )
        models = ModelSet(chain_type_proportions(dataset),
                          {(ctype, *key): fit_kde([1.0, 2.0]) for key in feature_keys(ctype)})
        doc, loaded = self._save_and_rebuild(tmp_path, dataset, models)
        for key, model in models.models.items():
            assert doc["models"][sample_key(*key)]["support"] == [None, None]
            assert loaded[sample_key(*key)].support == model.support == (-math.inf, math.inf)

    def test_models_json_entry_encoding(self, fixture_ingest, fixture_models, tmp_path):
        doc, _ = self._save_and_rebuild(tmp_path, fixture_ingest[2], fixture_models)
        assert doc["schema"] == "fitted-models/v2"
        assert list(doc["models"]) == [sample_key(*key) for key in fixture_models.models]
        for key, model in fixture_models.models.items():
            hi = 1440.0 if key[1:] == (FEATURE_END_TIME, 1) else None
            lo = 1.0 if key[1] == FEATURE_VELOCITY else 0.0
            assert doc["models"][sample_key(*key)] == {"bandwidth": model.bandwidth, "support": [lo, hi]}
