import warnings

import numpy as np
import pytest
from scipy.special import expit

from rayvis.counters import counters
from rayvis.errors import InputError, IntervalOrderError
from rayvis.raydist import (
    DensityProfile,
    DistributionMap,
    MixtureOfLogistics,
    RawRayParams,
    SIGMA_MIN_FRACTION,
    decode,
    decode_arrays,
    decode_backward,
    decode_stack,
    density_visibility_oracle,
    grad_cdf,
    hit_prob_interval,
    input_ray_alpha,
    mixture_cdf,
    mixture_cdf_grads,
    mixture_cdf_param_grads,
    mixture_cdf_terms,
    occlusion_cdf,
    rows_by_cell,
    sigmoid,
    softmax,
    softplus,
    visibility,
)

from logistic_fit import fit_logistics_to_density


def random_raw(rng, n=2):
    return RawRayParams(*rng.normal(0, 1.5, size=(3, n)))


SINGLE = MixtureOfLogistics([1.0], [0.5], [1.0])


class TestDecode:
    def test_all_zero_raw(self):
        mix = decode(RawRayParams(np.zeros(2), np.zeros(2), np.zeros(2)), (1.0, 3.0))
        np.testing.assert_allclose(mix.means, [2.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(mix.weights, [0.5, 0.5], atol=1e-12)
        expected_sigma = SIGMA_MIN_FRACTION * 2.0 + np.log(2.0)
        np.testing.assert_allclose(mix.scales, expected_sigma, atol=1e-12)

    def test_weight_logit_saturation(self):
        mix = decode(RawRayParams([0, 0], [0, 0], [20.0, -20.0]), (1.0, 3.0))
        np.testing.assert_allclose(mix.weights, [1.0, 0.0], atol=1e-8)

    def test_mean_saturation_to_far(self):
        mix = decode(RawRayParams([20.0], [0.0], [0.0]), (1.0, 3.0))
        assert abs(mix.means[0] - 3.0) < 1e-6 * 2.0

    def test_always_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            mix = decode(random_raw(rng), (0.5, 4.5))
            assert abs(mix.weights.sum() - 1.0) <= 1e-9
            assert np.all(mix.scales >= SIGMA_MIN_FRACTION * 4.0)

    def test_total_function_at_extreme_raw_values(self):
        # decode must stay valid even where sigmoid/softmax saturate
        mix = decode(RawRayParams([1e6, -1e6], [-1e3, 1e3], [800.0, -800.0]), (1, 3))
        assert np.all(mix.weights > 0)
        assert abs(mix.weights.sum() - 1.0) <= 1e-9
        assert np.all(mix.scales > 0)
        assert np.all((1.0 <= mix.means) & (mix.means <= 3.0))


class TestSigmoid:
    def test_within_4_ulp_of_expit(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.uniform(-750.0, 750.0, 200_000), rng.normal(0.0, 10.0, 200_000),
                            rng.normal(0.0, 1.0, 200_000)])
        want = expit(x)
        normal = want >= np.finfo(np.float64).tiny
        assert normal.mean() > 0.9
        # positive floats are ordered like their bit patterns, so the integer
        # difference counts the ulps between them
        ulps = np.abs(sigmoid(x).view(np.int64) - want.view(np.int64))
        assert ulps[normal].max() <= 4

    def test_exact_at_limits(self):
        x = np.array([0.0, np.inf, -np.inf, 1e300, -1e300])
        assert np.array_equal(sigmoid(x), [0.5, 1.0, 0.0, 1.0, 0.0])

    def test_in_place_returns_its_argument(self):
        x = np.linspace(-800.0, 800.0, 101)
        want = sigmoid(x)
        assert sigmoid(x, out=x) is x
        assert np.array_equal(x, want)

    def test_overflow_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sigmoid(np.array([-1e4, -710.0, -1e300])).sum() == 0.0


class TestSoftplus:
    def test_within_4_ulp_of_logaddexp(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.uniform(-750.0, 750.0, 200_000), rng.normal(0.0, 10.0, 200_000),
                            rng.normal(0.0, 1.0, 200_000)])
        want = np.logaddexp(0.0, x)
        # positive floats are ordered like their bit patterns
        ulps = np.abs(softplus(x).view(np.int64) - want.view(np.int64))
        assert ulps.max() <= 4

    def test_exact_at_limits(self):
        x = np.array([0.0, np.inf, -np.inf, 1e300, -1e300])
        assert np.array_equal(softplus(x), [np.log(2.0), np.inf, 0.0, 1e300, 0.0])

    def test_in_place_returns_its_argument(self):
        x = np.linspace(-800.0, 800.0, 101)
        want = softplus(x)
        assert softplus(x, out=x) is x
        assert np.array_equal(x, want)

    def test_overflow_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(softplus(np.array([1e4, 710.0, -1e4])), [1e4, 710.0, 0.0])


class TestComponentSums:
    """The decode reduces over the component axis by explicit adds in
    component order. That equals NumPy's ``max``/``sum`` reduce bit for bit
    up to 7 components; from 8 on NumPy sums pairwise, a few ulp apart."""

    @staticmethod
    def numpy_softmax(x):
        ex = np.exp(np.maximum(x - np.max(x, axis=-1, keepdims=True), -700.0))
        return ex / np.sum(ex, axis=-1, keepdims=True)

    def numpy_decode(self, params, near, far):
        span = far - near
        return (near + span * sigmoid(params[..., 0, :]),
                SIGMA_MIN_FRACTION * span + softplus(params[..., 1, :]),
                self.numpy_softmax(params[..., 2, :]))

    def numpy_decode_backward(self, params, near, far, gmu, gsig, gw):
        span = far - near
        sm = sigmoid(params[..., 0, :])
        w = self.numpy_softmax(params[..., 2, :])
        out = np.empty_like(params)
        out[..., 0, :] = gmu * span * sm * (1.0 - sm)
        out[..., 1, :] = gsig * sigmoid(params[..., 1, :])
        out[..., 2, :] = w * (gw - np.sum(gw * w, axis=-1, keepdims=True))
        return out

    def draw(self, n):
        rng = np.random.default_rng(70 + n)
        params = rng.normal(0.0, 3.0, size=(4000, 3, n))
        params[:50, 2, 0] = 800.0           # logit gaps past the -700 clamp
        return params, rng.normal(size=(3, 4000, n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bit_identical_up_to_seven_components(self, n):
        params, grads = self.draw(n)
        assert np.array_equal(softmax(params[:, 2]), self.numpy_softmax(params[:, 2]))
        for ours, numpy_ in zip(decode_arrays(params, 1.0, 5.0),
                                self.numpy_decode(params, 1.0, 5.0)):
            assert np.array_equal(ours, numpy_)
        assert np.array_equal(decode_backward(params, 1.0, 5.0, np.moveaxis(grads, -1, 1)),
                              self.numpy_decode_backward(params, 1.0, 5.0, *grads))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_decode_stack_is_decode_arrays(self, n):
        """The component-major stack holds the decode bit for bit."""
        params = self.draw(n + 1)[0].reshape(4, 1000, 3, n + 1)
        plain = decode_stack(params, 1.0, 5.0)
        assert plain.shape == (3, n + 1, 4, 1000) and plain.flags.c_contiguous
        for got, ours, numpy_ in zip(plain, decode_arrays(params, 1.0, 5.0),
                                     self.numpy_decode(params, 1.0, 5.0)):
            assert np.array_equal(got, np.moveaxis(ours, -1, 0))
            assert np.array_equal(got, np.moveaxis(numpy_, -1, 0))

    @pytest.mark.parametrize("n", [8, 9])
    def test_within_a_few_ulp_from_eight_components(self, n):
        params, grads = self.draw(n)
        eps = np.finfo(np.float64).eps
        w = self.numpy_softmax(params[:, 2])
        np.testing.assert_allclose(softmax(params[:, 2]), w, rtol=4 * eps, atol=0)
        ours = decode_backward(params, 1.0, 5.0, np.moveaxis(grads, -1, 1))
        numpy_ = self.numpy_decode_backward(params, 1.0, 5.0, *grads)
        assert np.array_equal(ours[:, :2], numpy_[:, :2])
        # the weight row is w * (gw - sum(gw * w)): bound by the ulps of its terms
        gw = grads[2]
        scale = w * (np.abs(gw) + np.sum(np.abs(gw * w), axis=-1, keepdims=True))
        assert np.all(np.abs(ours[:, 2] - numpy_[:, 2]) <= 8 * eps * scale)


class TestOcclusionCdf:
    def test_sigmoid_symmetry_at_mean(self):
        assert occlusion_cdf(SINGLE, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_quarter_point(self):
        assert occlusion_cdf(SINGLE, 1.0 + 0.5 * np.log(3)) == pytest.approx(0.75, abs=1e-12)

    def test_two_component_mirror_symmetry(self):
        mix = MixtureOfLogistics([1.0, 2.0], [0.1, 0.1], [0.5, 0.5])
        assert occlusion_cdf(mix, 1.5) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_and_open_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            mix = decode(random_raw(rng), (1.0, 5.0))
            grid = np.linspace(1.0, 5.0, 256)
            t = occlusion_cdf(mix, grid)
            assert np.all(np.diff(t) >= 0)
            assert np.all(t > 0) and np.all(t < 1)


class TestVisibility:
    def test_complement(self):
        assert visibility(SINGLE, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_limits(self):
        assert visibility(SINGLE, -1e6) == pytest.approx(1.0, abs=1e-12)
        assert visibility(SINGLE, 1e6) == pytest.approx(0.0, abs=1e-12)

    def test_nonincreasing(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            mix = decode(random_raw(rng), (1.0, 5.0))
            z0, z1 = sorted(rng.uniform(0.0, 6.0, size=2))
            assert visibility(mix, z1) <= visibility(mix, z0) + 1e-15


class TestHitProbInterval:
    def test_quarter_interval(self):
        v = hit_prob_interval(SINGLE, 1.0, 1.0 + 0.5 * np.log(3))
        assert v == pytest.approx(0.25, abs=1e-12)

    def test_degenerate_interval(self):
        assert hit_prob_interval(SINGLE, 1.7, 1.7) == 0.0

    def test_ordering_enforced(self):
        with pytest.raises(IntervalOrderError):
            hit_prob_interval(SINGLE, 2.0, 1.0)

    def test_telescoping_64_bins(self):
        rng = np.random.default_rng(3)
        mix = decode(random_raw(rng), (1.0, 5.0))
        edges = np.linspace(1.0, 5.0, 65)
        total = sum(hit_prob_interval(mix, a, b) for a, b in zip(edges[:-1], edges[1:]))
        expected = occlusion_cdf(mix, 5.0) - occlusion_cdf(mix, 1.0)
        assert total == pytest.approx(expected, abs=1e-12)

    def test_telescoping_ten_thousand_bins(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            mix = decode(random_raw(rng), (1.0, 5.0))
            edges = np.linspace(1.0, 5.0, 10_001)
            probs = hit_prob_interval(mix, edges[:-1], edges[1:])
            expected = occlusion_cdf(mix, 5.0) - occlusion_cdf(mix, 1.0)
            assert abs(probs.sum() - expected) <= 1e-12


class TestInputRayAlpha:
    def test_half(self):
        alpha = input_ray_alpha(SINGLE, 1.0, 1.0 + 0.5 * np.log(3))
        assert alpha == pytest.approx(0.5, abs=1e-12)

    def test_unocculted_prefix(self):
        alpha = input_ray_alpha(SINGLE, -40.0, 1.0 + 0.5 * np.log(3))
        assert alpha == pytest.approx(0.75, abs=1e-9)

    def test_composition_identity(self):
        rng = np.random.default_rng(5)
        mix = decode(random_raw(rng), (1.0, 5.0))
        edges = np.linspace(1.4, 4.6, 33)
        alphas = np.array(
            [input_ray_alpha(mix, a, b) for a, b in zip(edges[:-1], edges[1:])]
        )
        lhs = 1.0 - np.prod(1.0 - alphas)
        t0 = occlusion_cdf(mix, edges[0])
        t1 = occlusion_cdf(mix, edges[-1])
        assert lhs == pytest.approx((t1 - t0) / (1 - t0), abs=1e-12)

    def test_saturation_clamps_to_one(self):
        mix = MixtureOfLogistics([1.0], [1e-4], [1.0])
        assert input_ray_alpha(mix, 500.0, 600.0) == 1.0


class TestGradCdf:
    def test_mean_gradient_at_center(self):
        # constrained layer: dt/dmu at z = mu is -w * S'(0) / sigma = -w / (4 sigma)
        mu, sig, w = np.array([2.0]), np.array([0.4]), np.array([1.0])
        _, dmu, _, dw = mixture_cdf_param_grads(mu, sig, w, np.array(2.0))
        assert dmu[0] == pytest.approx(-0.25 / 0.4, abs=1e-12)
        assert dw[0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(6)
        eps = 1e-5
        checked = 0
        for _ in range(500):
            n = int(rng.integers(1, 4))
            raw = random_raw(rng, n)
            z = rng.uniform(0.0, 6.0)
            grad = grad_cdf(raw, z, (1.0, 5.0))
            flat = raw.as_array().reshape(-1)
            for i in range(flat.size):
                p = flat.copy()
                p[i] += eps
                tp = occlusion_cdf(decode(RawRayParams.from_array(p.reshape(3, n)), (1, 5)), z)
                p[i] -= 2 * eps
                tm = occlusion_cdf(decode(RawRayParams.from_array(p.reshape(3, n)), (1, 5)), z)
                fd = (tp - tm) / (2 * eps)
                if abs(grad[i]) > 1e-6:
                    assert abs(grad[i] - fd) / abs(fd) < 1e-4
                    checked += 1
        assert checked > 1000

    def test_weight_logit_gradients_sum_to_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            raw = random_raw(rng, n)
            grad = grad_cdf(raw, rng.uniform(0, 6), (1.0, 5.0))
            assert abs(grad[2 * n :].sum()) < 1e-12


class TestDensityOracle:
    def test_vacuum(self):
        profile = DensityProfile([0, 1, 2, 3], [0.0, 0.0, 0.0])
        for z in (0.5, 1.5, 3.0):
            assert density_visibility_oracle(profile, z) == 1.0

    def test_single_segment_half_transparent(self):
        profile = DensityProfile([0.0, 1.0], [np.log(2.0)])
        assert density_visibility_oracle(profile, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(8)
        knots = np.cumsum(rng.uniform(0.1, 1.0, size=9))
        profile = DensityProfile(knots, rng.uniform(0, 2, size=8))
        zs = np.linspace(knots[0], knots[-1], 50)
        vals = density_visibility_oracle(profile, zs)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_negative_density_treated_as_zero(self):
        profile = DensityProfile([0.0, 1.0], [-3.0])
        assert density_visibility_oracle(profile, 1.0) == 1.0


class TestEvaluationCounters:
    def test_one_cdf_evaluation_per_visibility_query(self):
        counters.reset()
        visibility(SINGLE, 2.0)
        assert counters.snapshot().cdf_evals == 1

    def test_density_oracle_costs_one_evaluation_per_segment(self):
        knots = np.linspace(0.0, 1.0, 33)
        profile = DensityProfile(knots, np.full(32, 0.3))
        counters.reset()
        density_visibility_oracle(profile, 1.0)
        assert counters.snapshot().density_evals == 32
        counters.reset()
        visibility(SINGLE, 2.0)
        assert counters.snapshot().cdf_evals == 1
        assert counters.snapshot().density_evals == 0


class TestFitLogisticsToDensity:
    def test_opaque_spike_recovers_location(self):
        knots = np.linspace(1.0, 5.0, 41)
        dens = np.zeros(40)
        spike_index = 17
        dens[spike_index] = 200.0
        profile = DensityProfile(knots, dens)
        grid = np.linspace(1.0, 5.0, 161)
        mix = fit_logistics_to_density(profile, 1, grid)
        spike_lo, spike_hi = knots[spike_index], knots[spike_index + 1]
        cell = knots[1] - knots[0]
        assert spike_lo - cell <= mix.means[0] <= spike_hi + cell

    def test_zero_density_fits_to_zero(self):
        profile = DensityProfile(np.linspace(1.0, 5.0, 11), np.zeros(10))
        grid = np.linspace(1.0, 5.0, 101)
        mix = fit_logistics_to_density(profile, 2, grid)
        assert np.max(occlusion_cdf(mix, grid)) < 0.05

    def test_two_opaque_surfaces(self):
        knots = np.linspace(1.0, 5.0, 41)
        dens = np.zeros(40)
        dens[10] = 50.0
        dens[30] = 50.0
        profile = DensityProfile(knots, dens)
        grid = np.linspace(1.0, 5.0, 201)
        mix = fit_logistics_to_density(profile, 2, grid)
        target = 1.0 - density_visibility_oracle(profile, grid)
        assert np.max(np.abs(occlusion_cdf(mix, grid) - target)) < 0.05


class TestReferenceBroadcast:
    """The (..., n) reference entry points pair each depth with the leading
    axes of the parameters, never with the component axis: for one mixture
    and M == n depths, a component-first broadcast done before ``z[..., None]``
    would silently pair depth i with component i."""

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (2, 2), (2, 5), (3, 3), (3, 2)])
    def test_single_mixture_many_depths(self, n, m):
        rng = np.random.default_rng(60 + 10 * n + m)
        mu, sig = rng.uniform(1.0, 5.0, n), rng.uniform(0.1, 1.0, n)
        w = rng.dirichlet(np.ones(n))
        z = rng.uniform(0.0, 6.0, m)
        s = sigmoid((z[..., None] - mu) / sig)
        want = np.sum(w * s, -1)
        sp = s * (1.0 - s)
        want_grads = (-w * sp / sig, -w * sp * ((z[..., None] - mu) / sig) / sig, s)
        mix = MixtureOfLogistics(mu, sig, w)
        t, *grads = mixture_cdf_param_grads(mu, sig, w, z)
        for got in (occlusion_cdf(mix, z), mixture_cdf(mu, sig, w, z), t):
            assert got.shape == (m,) and np.array_equal(got, want)
        for got, expected in zip(grads, want_grads):
            assert got.shape == (m, n) and got.flags.c_contiguous
            assert np.array_equal(got, expected)
        for i in range(m):      # depth by depth, as scalar calls
            assert occlusion_cdf(mix, z[i]) == want[i]
            assert mixture_cdf(mu, sig, w, z[i]) == want[i]
            t_i, *grads_i = mixture_cdf_param_grads(mu, sig, w, z[i])
            assert t_i == want[i]
            for got, single in zip(grads, grads_i):
                assert np.array_equal(got[i], single)


class TestMixtureCdfGrads:
    """The one CDF gradient: of ``sum_e dt_e * t(z_e)`` w.r.t. (mu, sigma, w),
    component-first, the ends taken one at a time."""

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (2, 2), (2, 5), (3, 3), (3, 2)])
    def test_one_end_of_weight_one_is_exact(self, n, m):
        """The exact gradients of ``test_single_mixture_many_depths``."""
        rng = np.random.default_rng(60 + 10 * n + m)
        mu, sig = rng.uniform(1.0, 5.0, n), rng.uniform(0.1, 1.0, n)
        w = rng.dirichlet(np.ones(n))
        z = rng.uniform(0.0, 6.0, m)
        s = sigmoid((z[..., None] - mu) / sig)
        sp = s * (1.0 - s)
        want_grads = (-w * sp / sig, -w * sp * ((z[..., None] - mu) / sig) / sig, s)
        mu, sig, w = (np.repeat(a[:, None], m, axis=1) for a in (mu, sig, w))     # (n, m)
        _, x, s = mixture_cdf_terms(mu, sig, w, z)
        for got, expected in zip(mixture_cdf_grads(sig, w, [(1.0, x, s)]), want_grads):
            assert got.shape == (n, m)
            assert np.array_equal(got, expected.T)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_two_ends_match_central_differences(self, n):
        """40 rays, each with its own mixture and bin; half the rays weigh
        their ends ``dt_a = -dt_b``, as a hitting probability does."""
        rng = np.random.default_rng(80 + n)
        m = 40
        params = [rng.uniform(1.0, 5.0, (n, m)), rng.uniform(0.1, 1.0, (n, m)),
                  rng.dirichlet(np.ones(n), m).T]
        z_a = rng.uniform(0.5, 5.5, m)
        z_b = z_a + rng.uniform(0.0, 0.5, m)
        dt_a, dt_b = rng.normal(size=(2, m))
        dt_a[::2] = -dt_b[::2]

        def total(mu, sig, w):
            return (dt_a * mixture_cdf_terms(mu, sig, w, z_a)[0]
                    + dt_b * mixture_cdf_terms(mu, sig, w, z_b)[0])

        mu, sig, w = params
        ends = [(dt, *mixture_cdf_terms(mu, sig, w, z)[1:])
                for dt, z in ((dt_a, z_a), (dt_b, z_b))]
        grads = mixture_cdf_grads(sig, w, ends)
        eps = 1e-6
        for row, grad in enumerate(grads):
            assert grad.shape == (n, m)
            for comp in range(n):       # every ray's entry moves at once; rays are independent
                moved = [p.copy() for p in params]
                moved[row][comp] += eps
                up = total(*moved)
                moved[row][comp] -= 2 * eps
                fd = (up - total(*moved)) / (2 * eps)
                np.testing.assert_allclose(grad[comp], fd, rtol=1e-6, atol=1e-9)

    def test_opposite_weights_at_one_depth_cancel_exactly(self):
        rng = np.random.default_rng(83)
        mu, sig = rng.uniform(1.0, 5.0, (2, 9)), rng.uniform(0.1, 1.0, (2, 9))
        w = np.full((2, 9), 0.5)
        _, x, s = mixture_cdf_terms(mu, sig, w, rng.uniform(0.5, 5.5, 9))
        dt = rng.normal(size=9)
        for grad in mixture_cdf_grads(sig, w, [(-dt, x, s), (dt, x, s)]):
            assert np.all(grad == 0)


class TestRowsByCell:
    def test_matches_add_at_reference(self):
        """300 entries on 35 cells repeat cells; 2 of the cells are never named."""
        rng = np.random.default_rng(11)
        cell = rng.choice(np.delete(np.arange(35), [4, 20]), 300)
        values = rng.normal(size=(300, 3, 2))
        want = np.zeros((35, 3, 2))
        np.add.at(want, cell, values)
        want_cells = np.unique(cell)
        assert len(want_cells) == 33 and len(cell) > len(want_cells)
        component_major = tuple(values[:, r].T for r in range(3))   # (n, N) per row
        for layout in (component_major, values.transpose(1, 2, 0)):
            cells, rows = rows_by_cell(35, cell, layout)
            assert np.array_equal(cells, want_cells)
            assert np.array_equal(rows, want[want_cells].transpose(1, 2, 0))

    def test_no_entries_give_no_rows(self):
        cells, rows = rows_by_cell(12, np.zeros(0, dtype=np.int64), np.zeros((3, 1, 0)))
        assert cells.shape == (0,) and rows.shape == (3, 1, 0)


class TestDistributionMapFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        params = rng.normal(size=(5, 7, 3, 2)).astype(np.float32).astype(np.float64)
        dmap = DistributionMap(view=3, params=params)
        path = tmp_path / "m.nray"
        dmap.save(path)
        first = path.read_bytes()
        loaded = DistributionMap.load(path)
        assert loaded.view == 3
        assert loaded.height == 5 and loaded.width == 7 and loaded.n_components == 2
        loaded.save(path)
        assert path.read_bytes() == first

    def test_header_layout(self, tmp_path):
        dmap = DistributionMap(view=1, params=np.zeros((2, 2, 3, 1)))
        path = tmp_path / "m.nray"
        dmap.save(path)
        blob = path.read_bytes()
        assert blob[:4] == b"NRAY"
        assert int.from_bytes(blob[4:8], "little") == 1   # version
        assert int.from_bytes(blob[8:12], "little") == 1  # view
        assert int.from_bytes(blob[12:16], "little") == 2
        assert int.from_bytes(blob[16:20], "little") == 2
        assert int.from_bytes(blob[20:24], "little") == 1
        assert len(blob) == 24 + 2 * 2 * 3 * 1 * 4

    def test_rejects_bad_files(self, tmp_path):
        path = tmp_path / "bad.nray"
        path.write_bytes(b"XRAY" + b"\0" * 40)
        with pytest.raises(InputError):
            DistributionMap.load(path)
        path.write_bytes(b"NRAY" + b"\0" * 10)
        with pytest.raises(InputError):
            DistributionMap.load(path)

    @pytest.mark.parametrize("shape", [(0, 2, 3, 2), (2, 0, 3, 2), (2, 2, 3, 0)])
    def test_rejects_empty_map(self, shape):
        with pytest.raises(InputError, match="H, W, n >= 1"):
            DistributionMap(view=0, params=np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_payload(self, tmp_path, bad):
        params = np.zeros((2, 2, 3, 1))
        params[1, 0, 2, 0] = bad
        path = tmp_path / "m.nray"
        DistributionMap(view=0, params=params).save(path)
        with pytest.raises(InputError, match="non-finite"):
            DistributionMap.load(path)

    def test_raw_at_round_trip(self):
        rng = np.random.default_rng(10)
        dmap = DistributionMap(view=0, params=rng.normal(size=(3, 4, 3, 2)))
        raw = dmap.raw_at(1, 2)
        assert np.array_equal(raw.as_array(), dmap.params[1, 2])
        decode(raw, (1.0, 2.0))  # decodes validly
