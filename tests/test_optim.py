import sys
import threading

import numpy as np
import pytest

from rayvis import optim, render
from rayvis.camera import look_at_camera
from rayvis.counters import counters
from rayvis.errors import ConfigurationError, DimensionMismatchError, InputError, NumericalError
from rayvis.optim import (
    OptimState,
    SceneData,
    TrainConfig,
    adam_step,
    consistency_loss,
    depth_loss,
    init_from_depth,
    map_grads,
    optimize_scene,
    own_hit_probs,
    own_hit_probs_backward,
    render_loss,
    train_step,
    view_grad,
)
from rayvis.raydist import DistributionMap, decode, decode_arrays, decode_backward
from rayvis.render import render_rays, render_rays_backward, select_working_views
from rayvis.scene import DepthMap


def toy_depth_map(rng, h=6, w=6, near=1.0, far=5.0):
    values = rng.uniform(near + 0.2, far - 0.2, size=(h, w))
    return DepthMap(values, near, far, far - near)


class TestRenderLoss:
    def test_known_value(self):
        value, grad = render_loss(np.zeros((1, 3)), np.ones((1, 3)))
        assert value == 3.0
        np.testing.assert_allclose(grad, -2.0)

    def test_zero_at_match(self):
        rng = np.random.default_rng(0)
        c = rng.uniform(size=(5, 3))
        value, grad = render_loss(c, c.copy())
        assert value == 0.0
        np.testing.assert_allclose(grad, 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        rendered = rng.uniform(size=(8, 3))
        gt = rng.uniform(size=(8, 3))
        _, grad = render_loss(rendered, gt)
        eps = 1e-6
        for idx in [(0, 0), (3, 1), (7, 2)]:
            plus = rendered.copy(); plus[idx] += eps
            minus = rendered.copy(); minus[idx] -= eps
            fd = (render_loss(plus, gt)[0] - render_loss(minus, gt)[0]) / (2 * eps)
            assert abs(grad[idx] - fd) / max(abs(fd), 1e-12) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            render_loss(np.zeros((2, 3)), np.zeros((3, 3)))


class TestConsistencyLoss:
    def test_binary_ce_known_value(self):
        value, _ = consistency_loss(np.array([1.0]), np.array([0.5]))
        assert value == pytest.approx(np.log(2.0), abs=1e-9)

    def test_ce_of_identical_halves_is_entropy(self):
        value, _ = consistency_loss(np.array([0.5]), np.array([0.5]))
        assert value == pytest.approx(np.log(2.0), abs=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        eps = 1e-6
        h_tilde = rng.uniform(0.01, 0.2, size=12)
        h = rng.uniform(0.01, 0.2, size=12)
        _, g_t = consistency_loss(h_tilde, h)
        for i in (0, 5, 11):
            p = h_tilde.copy(); p[i] += eps
            m = h_tilde.copy(); m[i] -= eps
            fd = (consistency_loss(p, h)[0] - consistency_loss(m, h)[0]) / (2 * eps)
            assert abs(g_t[i] - fd) / max(abs(fd), 1e-9) < 1e-4

    def test_clamp_keeps_loss_finite(self):
        value, g_t = consistency_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.isfinite(value) and np.all(np.isfinite(g_t))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            consistency_loss(np.zeros(3), np.zeros(4))


class TestDepthLoss:
    def test_known_value(self):
        rng = np.random.default_rng(3)
        depth = toy_depth_map(rng)
        # build a map whose decoded mu1 is exactly depth + 0.5
        shifted = DepthMap(np.clip(depth.values + 0.5, depth.near, depth.far),
                           depth.near, depth.far, depth.scene_scale)
        dmap = init_from_depth(shifted, 0.01, 2)
        pixels = np.array([[0, 0], [3, 4]])
        value, _ = depth_loss(dmap, depth, pixels, depth.near, depth.far)
        expected = sum(
            (shifted.values[tuple(p)] - depth.values[tuple(p)]) ** 2 for p in pixels
        )
        assert value == pytest.approx(expected, rel=1e-9)

    def test_zero_at_exact_depth(self):
        rng = np.random.default_rng(4)
        depth = toy_depth_map(rng)
        dmap = init_from_depth(depth, 0.01, 2)
        pixels = np.array([[1, 1], [2, 5], [0, 3]])
        value, part = depth_loss(dmap, depth, pixels, depth.near, depth.far)
        grad = map_grads(dmap.params, depth.near, depth.far, [part])
        assert value < 1e-12
        assert np.max(np.abs(grad)) < 1e-5

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        depth = toy_depth_map(rng)
        dmap = DistributionMap(0, rng.normal(size=(6, 6, 3, 2)))
        pixels = np.array([[2, 2], [4, 1]])
        self.check_finite_differences(dmap, depth, pixels, depth.near, depth.far)

    @staticmethod
    def check_finite_differences(dmap, depth, pixels, near, far):
        _, part = depth_loss(dmap, depth, pixels, near, far)
        grad = map_grads(dmap.params, near, far, [part])
        eps = 1e-5
        checked = 0
        for idx in np.argwhere(np.abs(grad) > 1e-6):
            idx = tuple(idx)
            old = dmap.params[idx]
            dmap.params[idx] = old + eps
            plus, _ = depth_loss(dmap, depth, pixels, near, far)
            dmap.params[idx] = old - eps
            minus, _ = depth_loss(dmap, depth, pixels, near, far)
            dmap.params[idx] = old
            fd = (plus - minus) / (2 * eps)
            assert abs(grad[idx] - fd) / max(abs(fd), 1e-9) < 1e-4
            checked += 1
        assert checked >= 2

    def test_decodes_with_the_given_range_not_the_header_range(self):
        """A depth map read from an NRDF file carries its range rounded to f32;
        the loss decodes the map with the step's range all the same."""
        rng = np.random.default_rng(6)
        near, far = 1.2, 5.4
        values = rng.uniform(near + 0.2, far - 0.2, size=(6, 6))
        depth = DepthMap(values, float(np.float32(near)), float(np.float32(far)), far - near)
        assert (depth.near, depth.far) != (near, far)
        dmap = DistributionMap(0, rng.normal(size=(6, 6, 3, 2)))
        pixels = np.array([[2, 2], [4, 1], [0, 5]])
        value, _ = depth_loss(dmap, depth, pixels, near, far)
        mu = decode_arrays(dmap.params[pixels[:, 0], pixels[:, 1]], near, far)[0][:, 0]
        assert value == float(np.sum((mu - values[pixels[:, 0], pixels[:, 1]]) ** 2))
        assert value != depth_loss(dmap, depth, pixels, depth.near, depth.far)[0]
        self.check_finite_differences(dmap, depth, pixels, near, far)


class TestInitFromDepth:
    def test_decoded_means_reproduce_depth(self):
        rng = np.random.default_rng(6)
        depth = toy_depth_map(rng)
        dmap = init_from_depth(depth, 0.01, 2)
        mu, sig, w = decode_arrays(dmap.params, depth.near, depth.far)
        span = depth.far - depth.near
        assert np.max(np.abs(mu[..., 0] - depth.values)) < 1e-6 * span
        assert np.max(np.abs(mu[..., 1] - depth.values)) < 1e-6 * span
        np.testing.assert_allclose(w, 0.5, atol=1e-12)
        np.testing.assert_allclose(sig, 0.01 * span, rtol=1e-9)

    def test_visibility_profile_around_surface(self):
        rng = np.random.default_rng(7)
        depth = toy_depth_map(rng)
        sigma = 0.01
        dmap = init_from_depth(depth, sigma, 2)
        span = depth.far - depth.near
        dist = decode(dmap.raw_at(2, 3), (depth.near, depth.far))
        z = depth.values[2, 3]
        from rayvis.raydist import visibility

        assert visibility(dist, z - 5 * sigma * span) >= 0.99
        assert visibility(dist, z + 5 * sigma * span) <= 0.01

    def test_far_sentinel_pixels(self):
        depth = DepthMap(np.full((4, 4), 5.0), 1.0, 5.0, 4.0)
        dmap = init_from_depth(depth, 0.01, 2)
        mu, _, _ = decode_arrays(dmap.params, 1.0, 5.0)
        assert np.max(np.abs(mu - 5.0)) < 1e-6 * 4.0
        # near-zero occlusion in front of the sentinel
        dist = decode(dmap.raw_at(0, 0), (1.0, 5.0))
        from rayvis.raydist import occlusion_cdf

        assert occlusion_cdf(dist, 5.0 - 0.3) < 0.01

    def test_sigma_floor_enforced(self):
        depth = DepthMap(np.full((2, 2), 3.0), 1.0, 5.0, 4.0)
        with pytest.raises(InputError):
            init_from_depth(depth, 1e-5, 2)

    @pytest.mark.parametrize("sigma_init", [np.nan, np.inf])
    def test_sigma_not_finite(self, sigma_init):
        depth = DepthMap(np.full((2, 2), 3.0), 1.0, 5.0, 4.0)
        with pytest.raises(InputError, match="sigma_init"):
            init_from_depth(depth, sigma_init, 2)

    @pytest.mark.parametrize("n_components", [0, -1])
    def test_components_below_one(self, n_components):
        depth = DepthMap(np.full((2, 2), 3.0), 1.0, 5.0, 4.0)
        with pytest.raises(InputError, match="n_components"):
            init_from_depth(depth, 0.01, n_components)


    def test_components_above_the_bound(self):
        """17 components are refused before the (H, W, 3, n) map is allocated."""
        depth = DepthMap(np.full((2, 2), 3.0), 1.0, 5.0, 4.0)
        with pytest.raises(InputError,
                           match=r"n_components must be a whole number, in \[1, 16\], not 17"):
            init_from_depth(depth, 0.01, 17)
        assert init_from_depth(depth, 0.01, 16).n_components == 16
        with pytest.raises(InputError, match="n <= 16"):
            DistributionMap(0, np.zeros((2, 2, 3, 17)))


class TestAdamStep:
    def test_first_step_magnitude(self):
        state = OptimState()
        params = {0: np.array([1.0])}
        adam_step(state, params, {0: np.array([1.0])}, 1e-3)
        assert params[0][0] == pytest.approx(1.0 - 1e-3, abs=1e-9)

    def test_zero_gradient_is_identity(self):
        state = OptimState()
        params = {0: np.array([1.0, -2.0])}
        for _ in range(10):
            adam_step(state, params, {0: np.zeros(2)}, 1e-2)
        np.testing.assert_allclose(params[0], [1.0, -2.0], atol=0)

    def test_matches_independent_implementation(self):
        """Oracle: a from-scratch Adam loop written directly in the test."""
        rng = np.random.default_rng(8)
        shape = (4, 3)
        start = rng.normal(size=shape)
        grads = [rng.normal(size=shape) for _ in range(100)]

        assert optim.ADAM_BETAS == (0.9, 0.999) and optim.ADAM_EPS == 1e-8
        state = OptimState()
        params = {0: start.copy()}
        for g in grads:
            adam_step(state, params, {0: g}, 3e-3)

        theta = start.copy()
        m = np.zeros(shape)
        v = np.zeros(shape)
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            theta -= 3e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(params[0], theta, atol=1e-10)

    def test_learning_rate_halving_schedule(self):
        """Two steps either side of each of the first two halvings: a unit
        gradient on unit moments moves a parameter by the step's learning rate."""
        period = optim.LR_HALVE_EVERY
        config = TrainConfig(learning_rate=1.0)
        deltas = []
        for start in (period - 2, 2 * period - 2):
            state = OptimState(m={0: np.array([1.0])}, v={0: np.array([1.0])}, step=start)
            params = {0: np.array([0.0])}
            for _ in range(4):
                prev = params[0][0]
                adam_step(state, params, {0: np.array([1.0])}, config.current_lr(state.step))
                deltas.append(prev - params[0][0])
        # the steps before each halving at lr 1 and 0.5, the ones after at 0.5 and 0.25
        np.testing.assert_allclose(deltas, [1, 1, 0.5, 0.5, 0.5, 0.5, 0.25, 0.25], rtol=1e-6)
        assert config.current_lr(period - 1) == 1.0 and config.current_lr(period) == 0.5

    def test_shape_mismatch(self):
        state = OptimState()
        with pytest.raises(DimensionMismatchError):
            adam_step(state, {0: np.zeros(3)}, {0: np.zeros(4)}, 1e-3)

    def test_non_finite_update_writes_nothing(self):
        state = OptimState()
        params = {0: np.array([1.0, 2.0]), 1: np.array([3.0])}
        adam_step(state, params, {0: np.array([0.5, -0.5]), 1: np.array([1.0])}, 1e-3)
        before = ({k: p.copy() for k, p in params.items()},
                  {k: m.copy() for k, m in state.m.items()},
                  {k: v.copy() for k, v in state.v.items()})
        # map 0 would update finitely; map 1's infinite gradient must stop both
        with pytest.raises(NumericalError, match="map 1"), np.errstate(invalid="ignore"):
            adam_step(state, params, {0: np.array([0.1, 0.2]), 1: np.array([np.inf])}, 1e-3)
        assert state.step == 1
        for now, then in zip((params, state.m, state.v), before):
            assert now.keys() == then.keys()
            assert all(np.array_equal(now[k], then[k]) for k in now)


def tiny_training_data(rng, n_views=4, size=10, near=1.0, far=5.0):
    """A small ring of views around a synthetic blob for fast train steps."""
    from rayvis.scene import Material, Sphere, SyntheticScene, render_ground_truth

    cams = []
    for k in range(n_views):
        ang = 2 * np.pi * k / n_views
        cams.append(
            look_at_camera(size, size, size * 0.9, size * 0.9, size / 2, size / 2,
                           (3 * np.cos(ang), 0.6, 3 * np.sin(ang)), (0, 0, 0))
        )
    scene = SyntheticScene(
        [Sphere(center=(0, 0, 0), radius=0.8,
                material=Material(albedo=(0.7, 0.4, 0.3)))],
        (0.4, 0.4, 0.4), cams, near, far,
    )
    images, depths, maps = {}, {}, {}
    for i, cam in enumerate(cams):
        img, dep = render_ground_truth(scene, cam)
        images[i] = img
        depths[i] = dep
        maps[i] = init_from_depth(dep, 0.01, 2, view=i)
    return SceneData(cameras=dict(enumerate(cams)), images=images, maps=maps,
                     depths=depths, near=near, far=far), scene


class TestTrainStep:
    def make(self, seed=0, size=10, **overrides):
        rng = np.random.default_rng(42)
        data, _ = tiny_training_data(rng, size=size)
        defaults = dict(batch_size=24, k_samples=16, n_working=3, sh_degree=1,
                        steps=10, seed=seed, background=(0.4, 0.4, 0.4))
        defaults.update(overrides)
        config = TrainConfig(**defaults)
        return data, config, OptimState()

    def test_deterministic_given_seed(self):
        reports = []
        finals = []
        for _ in range(2):
            data, config, state = self.make(seed=7)
            rng = np.random.default_rng(config.seed)
            reports.append([train_step(data, config, state, rng) for _ in range(5)])
            finals.append({i: m.params.copy() for i, m in data.maps.items()})
        for a, b in zip(*reports):
            assert a == b
        for i in finals[0]:
            assert np.array_equal(finals[0][i], finals[1][i])

    def test_loss_report_bookkeeping(self):
        data, config, state = self.make(lambda_render=0.7, lambda_consist=0.2,
                                        lambda_depth=0.05)
        rng = np.random.default_rng(0)
        rep = train_step(data, config, state, rng)
        assert rep.total == pytest.approx(
            0.7 * rep.render_loss + 0.2 * rep.consistency_loss + 0.05 * rep.depth_loss,
            abs=1e-12,
        )
        assert rep.render_loss >= 0 and rep.consistency_loss >= 0 and rep.depth_loss >= 0

    def test_zero_depth_weight_ignores_depth_data(self):
        """With the depth weight at zero, the supplied depth maps cannot
        influence the optimization at all."""
        runs = []
        for spoil in (False, True):
            data, config, state = self.make(lambda_depth=0.0)
            if spoil:
                for dep in data.depths.values():
                    dep.values[...] = data.near  # wildly wrong depths
            rng = np.random.default_rng(3)
            for _ in range(3):
                train_step(data, config, state, rng)
            runs.append({i: m.params.copy() for i, m in data.maps.items()})
        for i in runs[0]:
            assert np.array_equal(runs[0][i], runs[1][i])

    def test_first_step_moves_by_the_config_learning_rate(self):
        """A fresh state trains at the config's rate: Adam's first step moves
        every parameter with a gradient well above ADAM_EPS by that rate."""
        data, config, state = self.make(learning_rate=2e-3)
        before = {i: m.params.copy() for i, m in data.maps.items()}
        train_step(data, config, state, np.random.default_rng(config.seed))
        moves = np.concatenate([np.abs(data.maps[i].params - p).ravel()
                                for i, p in before.items()])
        assert state.step == 1
        assert moves.max() == pytest.approx(2e-3, rel=1e-6)

    def test_zero_render_weight_is_a_zero_render_gradient(self, monkeypatch):
        """With the render weight at zero, no render gradient reaches the maps:
        the maps and Adam moments equal those of steps whose render loss
        gradient is zero."""
        runs = []
        for zero_gradient in (False, True):
            if zero_gradient:
                monkeypatch.setattr(optim, "render_loss", lambda rendered, gt, f=render_loss:
                                    (f(rendered, gt)[0], np.zeros_like(rendered)))
            data, config, state = self.make(lambda_render=0.0)
            before = {i: m.params.copy() for i, m in data.maps.items()}
            rng = np.random.default_rng(5)
            for _ in range(3):
                train_step(data, config, state, rng)
            assert any(not np.array_equal(before[i], m.params) for i, m in data.maps.items())
            runs.append(({i: m.params.copy() for i, m in data.maps.items()}, state.m, state.v))
        for got, want in zip(*runs):
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[i], want[i]) for i in got)

    def test_zero_consist_weight_ignores_clamp_setting(self, monkeypatch):
        """With the consistency weight at zero, constants that only affect the
        consistency term, here its clamp, cannot change the resulting maps."""
        runs = []
        for clamp in (optim.EPS_PROB, 0.1):
            monkeypatch.setattr(optim, "EPS_PROB", clamp)
            data, config, state = self.make(lambda_consist=0.0)
            rng = np.random.default_rng(4)
            for _ in range(3):
                train_step(data, config, state, rng)
            runs.append({i: m.params.copy() for i, m in data.maps.items()})
        for i in runs[0]:
            assert np.array_equal(runs[0][i], runs[1][i])

    def test_needs_two_views(self):
        data, config, state = self.make()
        data.maps = {0: data.maps[0]}
        with pytest.raises(ConfigurationError):
            train_step(data, config, state, np.random.default_rng(0))

    @pytest.mark.parametrize("overrides", [
        dict(sampling_mode="uniform"),
        dict(sampling_mode="coarse_to_fine", k_fine=6),
    ], ids=["uniform", "coarse_to_fine"])
    def test_thread_count_invariant(self, overrides, monkeypatch):
        """Batch 300 is three 128-ray chunks, the last one short, on 1, 2 and
        3 streams, then one task per map. Losses, maps, moments and counters
        must not depend on the count. A short switch interval interleaves the
        streams often, so a chunk or map lost, run twice or summed out of
        order would show."""
        run_streams, streams = optim._run_streams, []

        def recording_run_streams(n_tasks, task, n_streams):
            streams.append((n_tasks, n_streams))
            run_streams(n_tasks, task, n_streams)

        monkeypatch.setattr(optim, "_run_streams", recording_run_streams)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in (1, 2, 3):
                data, config, state = self.make(seed=7, size=20, batch_size=300,
                                                threads=threads, **overrides)
                rng = np.random.default_rng(config.seed)
                before = counters.snapshot()
                reports = [train_step(data, config, state, rng) for _ in range(3)]
                after = counters.snapshot()
                runs.append((reports, {i: m.params for i, m in data.maps.items()},
                             state.m, state.v,
                             [getattr(after, f) - getattr(before, f) for f in vars(after)]))
        finally:
            sys.setswitchinterval(interval)
        n_maps = len(data.maps)
        assert streams == [call for threads in (1, 2, 3) for _ in range(3)
                           for call in ((3, threads), (n_maps, threads))]
        (reports, *arrays, counts), rest = runs[0], runs[1:]
        assert counts[0] > 0
        for other_reports, *other_arrays, other_counts in rest:
            assert other_reports == reports and other_counts == counts
            for one, other in zip(arrays, other_arrays):
                assert one.keys() == other.keys()
                assert all(np.array_equal(one[i], other[i]) for i in one)

    @pytest.mark.parametrize("overrides", [
        dict(k_samples=96),
        dict(k_samples=80, sampling_mode="coarse_to_fine", k_fine=16),
    ], ids=["uniform-96", "coarse_to_fine-80+16"])
    def test_chunks_follow_the_render_chunk_rule(self, overrides, monkeypatch):
        """A step cuts its batch as ``render_image`` cuts an image: at most 128
        rays and 8192 (ray, sample) pairs per chunk. At 96 samples per ray a
        300-ray batch is chunks of 85, 85, 85 and 45 rays, and the step is
        bit-identical on 1 and 2 threads."""
        real, sizes = optim.render_rays, []

        def recording_render_rays(working, origins, *args, **kwargs):
            sizes.append(len(origins))
            return real(working, origins, *args, **kwargs)

        monkeypatch.setattr(optim, "render_rays", recording_render_rays)
        runs = []
        for threads in (1, 2):
            data, config, state = self.make(seed=7, size=20, batch_size=300,
                                            threads=threads, **overrides)
            rng = np.random.default_rng(config.seed)
            reports = [train_step(data, config, state, rng) for _ in range(2)]
            runs.append((reports, {i: m.params for i, m in data.maps.items()},
                         state.m, state.v))
        assert sorted(sizes) == sorted([85, 85, 85, 45] * 4)
        (reports, *arrays), (other_reports, *other_arrays) = runs
        assert reports == other_reports
        for one, other in zip(arrays, other_arrays):
            assert one.keys() == other.keys()
            assert all(np.array_equal(one[i], other[i]) for i in one)

    def test_large_k_step_keeps_to_the_pair_budget(self):
        """At ``k_samples=1024`` a 128-ray step on the 32 x 32 two-sphere ring
        renders 8-ray chunks of 8192 (ray, sample) pairs, so its traced peak
        on one thread stays under 40 MB: 22 MB measured with Python 3.11 and
        NumPy 2.4, against 291 MB when every training chunk held 128 rays."""
        import tracemalloc

        from rayvis.scene import render_ground_truth
        from rayvis.scenes import two_spheres

        ring = two_spheres(width=32, height=32)
        images, depths, maps = {}, {}, {}
        for i, cam in enumerate(ring.cameras):
            images[i], depths[i] = render_ground_truth(ring, cam)
            maps[i] = init_from_depth(depths[i], 0.005, 2, view=i)
        data = SceneData(dict(enumerate(ring.cameras)), images, maps, depths,
                         ring.near, ring.far)
        config = TrainConfig(batch_size=128, k_samples=1024, threads=1,
                             background=tuple(ring.background))
        tracemalloc.start()
        try:
            train_step(data, config, OptimState(), np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    @pytest.mark.parametrize("sampling_mode, batch_size, threads, size", [
        pytest.param("uniform", 24, 1, 10, id="uniform"),
        pytest.param("coarse_to_fine", 24, 1, 10, id="coarse_to_fine"),
        pytest.param("uniform", 300, 2, 20, id="uniform-batch300-threads2"),
        pytest.param("coarse_to_fine", 300, 2, 20, id="coarse_to_fine-batch300-threads2")])
    def test_nan_images_raise_before_any_write(self, sampling_mode, batch_size, threads, size):
        data, config, state = self.make(sampling_mode=sampling_mode, k_fine=6, size=size,
                                        batch_size=batch_size, threads=threads)
        rng = np.random.default_rng(config.seed)
        train_step(data, config, state, rng)
        maps = {i: m.params.copy() for i, m in data.maps.items()}
        moments = {i: (state.m[i].copy(), state.v[i].copy()) for i in state.m}
        for image in data.images.values():
            image[...] = np.nan
        running = threading.active_count()
        with pytest.raises(NumericalError, match="non-finite loss"):
            train_step(data, config, state, rng)
        assert threading.active_count() == running
        assert state.step == 1
        assert all(np.array_equal(data.maps[i].params, maps[i]) for i in maps)
        assert state.m.keys() == moments.keys()
        for i, (m, v) in moments.items():
            assert np.array_equal(state.m[i], m) and np.array_equal(state.v[i], v)

    def test_coarse_to_fine_mode_trains_deterministically(self):
        finals = []
        for _ in range(2):
            data, config, state = self.make(
                seed=11, sampling_mode="coarse_to_fine", k_fine=6
            )
            rng = np.random.default_rng(config.seed)
            reports = [train_step(data, config, state, rng) for _ in range(4)]
            assert all(np.isfinite(r.total) for r in reports)
            finals.append({i: m.params.copy() for i, m in data.maps.items()})
        for i in finals[0]:
            assert np.array_equal(finals[0][i], finals[1][i])


class TestViewGrads:
    """A step adds its chunks' backward rows into one stack and decodes it
    once; the reference decodes each chunk on its own and adds the maps, so
    the two differ only in the order of the sums."""

    @staticmethod
    def per_chunk_decoded(ws, parts):
        stack = np.stack([v.dmap.params for v in ws.views])
        shape = stack.shape
        flat = stack.reshape((-1,) + shape[3:])
        total = {}
        for cells, rows in parts:
            g_raw = np.zeros(flat.shape)
            g_raw[cells] = decode_backward(flat[cells], ws.near, ws.far,
                                           rows[:, 0], rows[:, 1], rows[:, 2])
            g_raw = g_raw.reshape(shape)
            for j, v in enumerate(ws.views):
                g = g_raw[j][tuple(map(slice, v.dmap.params.shape))]
                total[v.index] = total[v.index] + g if v.index in total else g
        return total

    @pytest.mark.parametrize("mode", ["uniform", "coarse_to_fine"])
    def test_one_decode_matches_per_chunk_decodes(self, mode):
        """300 rays are three chunks of the step, the last one short."""
        data, config, _ = TestTrainStep().make(seed=5, size=20, batch_size=300,
                                               sampling_mode=mode, k_fine=6)
        rng = np.random.default_rng(config.seed)
        q, pixels = optim._draw_batch(rng, data, config)
        camera = data.cameras[q]
        views = [v for v in data.render_views() if v.index != q]
        ws = select_working_views(views, camera, config.n_working, data.near, data.far,
                                  query_index=q)
        rcfg = config.render_config()
        dirs, _ = camera.rays_for_pixels(pixels[:, ::-1] + 0.5)
        origins = np.broadcast_to(camera.center, dirs.shape)
        parts = []
        for c in range(3):
            s = slice(c * 128, (c + 1) * 128)
            _, fwd, _ = render_rays(ws, origins[s], dirs[s], rcfg, keep_state=True)
            n = len(fwd.z)
            cells, rows = render_rays_backward(ws, fwd, rcfg, rng.normal(size=(n, 3)),
                                               rng.normal(size=fwd.h_hat.shape))
            assert np.all(np.diff(cells) > 0)
            assert rows.shape == (len(cells), 3, ws.decoded.shape[1])
            parts.append((cells, rows))
        assert sum(len(cells) for cells, _ in parts) > len(np.unique(
            np.concatenate([cells for cells, _ in parts])))    # the chunks share cells
        got = {v.index: view_grad(ws, j, parts) for j, v in enumerate(ws.views)}
        want = self.per_chunk_decoded(ws, parts)
        assert got.keys() == want.keys() == {v.index for v in ws.views}
        for i, g in got.items():
            assert g.shape == data.maps[i].params.shape
            np.testing.assert_allclose(g, want[i], rtol=1e-12, atol=0)
        assert any(np.any(g != 0) for g in got.values())

    @staticmethod
    def capture_step(monkeypatch, data, config):
        """Run one step; return its query view, the own-hit backward calls in
        chunk order, and the gradient (None for none) and parameters that
        each map's Adam update was given."""
        calls, grads, params = [], {}, {}
        backward, update = optim.own_hit_probs_backward, optim._adam_update

        def recording_backward(dmap, pixels, back, g_h_tilde):
            calls.append((pixels, back, g_h_tilde))
            return backward(dmap, pixels, back, g_h_tilde)

        def recording_update(state, key, p, g, lr, t):
            grads[key], params[key] = g, p.copy()
            return update(state, key, p, g, lr, t)

        monkeypatch.setattr(optim, "own_hit_probs_backward", recording_backward)
        monkeypatch.setattr(optim, "_adam_update", recording_update)
        q = optim._draw_batch(np.random.default_rng(config.seed), data, config)[0]
        train_step(data, config, OptimState(), np.random.default_rng(config.seed))
        assert grads.keys() == params.keys() == data.maps.keys()
        return q, calls, grads, params

    @staticmethod
    def dense_decoded(params, near, far, pixels, gmu, gsig, gw):
        """Decode per-ray (mu, sigma, w) gradients and scatter them into a
        zeroed map, the own-hit and depth rule of per-chunk decoding."""
        raw = params[pixels[:, 0], pixels[:, 1]]
        dense = np.zeros(params.shape)
        np.add.at(dense, (pixels[:, 0], pixels[:, 1]),
                  decode_backward(raw, near, far, gmu, gsig, gw))
        return dense

    @pytest.mark.parametrize("mode", ["uniform", "coarse_to_fine"])
    def test_query_view_gradient_matches_per_chunk_decodes(self, mode, monkeypatch):
        """The query map's one decode of its own-hit and depth rows equals
        decoding each chunk's own-hit rays and the depth rays on their own."""
        data, config, _ = TestTrainStep().make(seed=5, size=20, batch_size=300,
                                               sampling_mode=mode, k_fine=6, threads=1)
        q, calls, grads, params = self.capture_step(monkeypatch, data, config)
        assert len(calls) == 3
        p, near, far = params[q], data.near, data.far
        want = None
        for pixels, back, g in calls:
            own = self.dense_decoded(p, near, far, pixels,    # back is (n, K, B)
                                     *(np.sum(g.T * d, axis=1).T for d in back))
            want = own if want is None else want + own
        pixels = optim._draw_batch(np.random.default_rng(config.seed), data, config)[1]
        mu = decode_arrays(p[pixels[:, 0], pixels[:, 1]], near, far)[0]
        gmu = np.zeros_like(mu)
        gmu[:, 0] = 2.0 * (mu[:, 0] - data.depths[q].values[pixels[:, 0], pixels[:, 1]])
        zero = np.zeros_like(mu)
        want += config.lambda_depth * self.dense_decoded(p, near, far, pixels, gmu, zero, zero)
        assert np.any(want != 0)
        np.testing.assert_allclose(grads[q], want, rtol=1e-12, atol=0)

    def test_query_view_without_own_hit_or_depth_gets_no_gradient(self, monkeypatch):
        data, config, _ = TestTrainStep().make(seed=5, size=20, batch_size=300,
                                               lambda_consist=0.0, threads=1)
        data.depths = None
        q, calls, grads, _ = self.capture_step(monkeypatch, data, config)
        assert calls == [] and grads[q] is None
        assert any(g is not None for g in grads.values())


class TestStepTail:
    """After its chunks, a step runs one task per map on the stream runner:
    the map's gradient, its finiteness and its Adam update. One commit then
    writes every map, or nothing."""

    @staticmethod
    def snapshot(data, state):
        return ({i: m.params.copy() for i, m in data.maps.items()},
                {i: m.copy() for i, m in state.m.items()},
                {i: v.copy() for i, v in state.v.items()}, state.step)

    @staticmethod
    def assert_same(got, want):
        *got_arrays, got_step = got
        *want_arrays, want_step = want
        assert got_step == want_step
        for one, other in zip(got_arrays, want_arrays):
            assert one.keys() == other.keys()
            assert all(np.array_equal(one[i], other[i], equal_nan=True) for i in one)

    @staticmethod
    def two_steps(threads, monkeypatch=None):
        """Two steps of a 300-ray batch, so the second has moments to decay.
        With ``monkeypatch``, the second step's working set and backward
        outputs are recorded, in call order. Returns the data, the state, the
        second step's query view, the state before that step and the records."""
        data, config, state = TestTrainStep().make(seed=5, size=20, batch_size=300,
                                                   threads=threads)
        rng = np.random.default_rng(config.seed)
        train_step(data, config, state, rng)
        peek = np.random.default_rng()
        peek.bit_generator.state = rng.bit_generator.state
        q = optim._draw_batch(peek, data, config)[0]
        before = TestStepTail.snapshot(data, state)
        recorded = {name: [] for name in ("select_working_views", "render_rays_backward",
                                          "own_hit_probs_backward", "depth_loss")}
        for name, calls in recorded.items() if monkeypatch else ():
            def record(*args, fn=getattr(optim, name), calls=calls, **kwargs):
                calls.append(fn(*args, **kwargs))
                return calls[-1]
            monkeypatch.setattr(optim, name, record)
        train_step(data, config, state, rng)
        return data, config, state, q, before, recorded

    def test_tail_equals_view_grads_and_adam_step(self, monkeypatch):
        """The recorded parts of one step, summed by view_grad and map_grads
        and applied by adam_step, give that step's maps and moments bit for
        bit, on 1 and on 3 streams."""
        data3, _, state3, _, _, _ = self.two_steps(3)
        data, config, state, q, before, recorded = self.two_steps(1, monkeypatch)
        (working,) = recorded["select_working_views"]
        (_, (cells, rows)), = recorded["depth_loss"]
        assert len(recorded["render_rays_backward"]) == len(recorded["own_hit_probs_backward"]) == 3
        params, m, v, step = before
        after = self.snapshot(data, state)
        for i, p in params.items():     # view_grad decodes through the maps as the step saw them
            data.maps[i].params[...] = p
        grads = {v.index: view_grad(working, j, recorded["render_rays_backward"])
                 for j, v in enumerate(working.views)}
        grads[q] = map_grads(params[q], data.near, data.far, recorded["own_hit_probs_backward"]
                             + [(cells, config.lambda_depth * rows)])
        reference = OptimState(m=dict(m), v=dict(v), step=step)
        params = {i: p.copy() for i, p in params.items()}
        adam_step(reference, params, grads, config.current_lr(step))
        want = (params, reference.m, reference.v, reference.step)
        self.assert_same(after, want)
        self.assert_same(self.snapshot(data3, state3), want)

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("fault", ["working_view", "query_view", "update"])
    def test_non_finite_map_task_writes_nothing(self, fault, threads, monkeypatch):
        """A NaN that enters one map's task, through a working view's rows, the
        query view's own-hit rows or two maps' Adam moments, raises the step's
        message once every task is done, naming the first such map in view
        order for an update. No map, moment or step count is written, and no
        helper thread outlives the step."""
        data, config, state = TestTrainStep().make(seed=7, size=20, batch_size=300,
                                                   threads=threads)
        rng = np.random.default_rng(config.seed)
        train_step(data, config, state, rng)
        refs = sorted(data.maps)
        message = "non-finite loss or gradient"
        if fault == "update":
            for key in refs[1::2]:
                state.m[key][0, 0, 0, 0] = np.nan
            message = f"non-finite Adam update for map {refs[1]}$"
        else:
            name = "render_rays_backward" if fault == "working_view" else "own_hit_probs_backward"

            def poisoned(*args, fn=getattr(optim, name)):
                cells, rows = fn(*args)
                rows[0, 0] = np.nan         # the mean row of the part's first cell
                return cells, rows

            monkeypatch.setattr(optim, name, poisoned)
        before = self.snapshot(data, state)
        running = threading.active_count()
        with pytest.raises(NumericalError, match=message):
            train_step(data, config, state, rng)
        assert threading.active_count() == running
        self.assert_same(self.snapshot(data, state), before)


class TestTrainConfig:
    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_batch_below_one(self, batch_size):
        with pytest.raises(ConfigurationError, match="batch_size"):
            TrainConfig(batch_size=batch_size)

    @pytest.mark.parametrize("learning_rate", [-1.0, 0.0, np.nan, np.inf])
    def test_learning_rate_not_finite_and_positive(self, learning_rate):
        with pytest.raises(ConfigurationError, match="learning_rate"):
            TrainConfig(learning_rate=learning_rate)

    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["lambda_render", "lambda_consist", "lambda_depth"])
    def test_loss_weight_not_finite_and_nonnegative(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["steps", "seed", "eval_interval"])
    def test_count_below_zero(self, name):
        with pytest.raises(ConfigurationError, match=name):
            TrainConfig(**{name: -1})

    @pytest.mark.parametrize("threads", [0, -2, 2.5, np.nan, np.inf])
    def test_threads_not_a_whole_number_of_at_least_one(self, threads):
        with pytest.raises(ConfigurationError, match="threads"):
            TrainConfig(threads=threads)

    @pytest.mark.parametrize("name, field, value", [
        ("k_samples", "k_coarse", 16.5), ("k_fine", "k_fine", 4.5),
        ("n_working", "n_working", 2.5), ("sh_degree", "sh_degree", 1.5)])
    def test_render_counts_not_whole(self, name, field, value):
        with pytest.raises(ConfigurationError, match=f"^{name} must be a whole number"):
            TrainConfig(**{name: value})
        assert type(getattr(TrainConfig(**{name: 3.0}).render_config(), field)) is int

    def test_samples_per_ray_beyond_the_pair_budget(self):
        """The render config bounds the samples per ray; no size allocates."""
        with pytest.raises(ConfigurationError, match="^k_samples must"):
            TrainConfig(k_samples=10**12)
        with pytest.raises(ConfigurationError, match="^k_samples must"):
            TrainConfig(k_samples=8193)
        with pytest.raises(ConfigurationError, match=r"^k_samples \+ k_fine must"):
            TrainConfig(k_samples=8000, k_fine=193, sampling_mode="coarse_to_fine")
        assert TrainConfig(k_samples=8192).render_config().k_coarse == 8192

    def test_threads_default_to_usable_cpus_and_reach_rendering(self):
        config = TrainConfig()
        assert config.threads == render.usable_cpus()
        assert TrainConfig(threads=3).render_config().threads == 3
        assert type(TrainConfig(threads=2.0).threads) is int


class TestOwnHitProbs:
    def test_matches_direct_cdf_differences(self):
        rng = np.random.default_rng(9)
        data, _ = tiny_training_data(rng)
        dmap = data.maps[0]
        camera = data.cameras[0]
        pixels = np.array([[2, 3], [7, 7], [0, 9]])
        z = np.linspace(data.near, data.far, 9)[:8][None, :].repeat(3, axis=0)
        widths = np.full((3, 8), (data.far - data.near) / 8)
        zfac = camera.rays_for_pixels(pixels[:, ::-1] + 0.5)[1]
        h_tilde, _ = own_hit_probs(dmap, zfac, pixels, z, widths, data.near, data.far)
        from rayvis.raydist import occlusion_cdf

        for row, (iy, ix) in enumerate(pixels):
            dist = decode(dmap.raw_at(iy, ix), (data.near, data.far))
            px_center = np.array([ix + 0.5, iy + 0.5])
            _, zfac = camera.rays_for_pixels(px_center)
            for i in range(8):
                za = z[row, i] * zfac
                zb = (z[row, i] + widths[row, i]) * zfac
                expected = occlusion_cdf(dist, zb) - occlusion_cdf(dist, za)
                assert h_tilde[row, i] == pytest.approx(expected, abs=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        data, _ = tiny_training_data(rng)
        dmap = data.maps[0]
        camera = data.cameras[0]
        pixels = np.array([[4, 4], [5, 2]])
        z = np.linspace(data.near, data.far, 7)[:6][None, :].repeat(2, axis=0)
        widths = np.full((2, 6), (data.far - data.near) / 6)
        zfac = camera.rays_for_pixels(pixels[:, ::-1] + 0.5)[1]
        h_tilde, back = own_hit_probs(dmap, zfac, pixels, z, widths,
                                      data.near, data.far)
        g_out = rng.normal(size=h_tilde.shape)
        grad = map_grads(dmap.params, data.near, data.far,
                         [own_hit_probs_backward(dmap, pixels, back, g_out)])

        def objective():
            h, _ = own_hit_probs(dmap, zfac, pixels, z, widths, data.near, data.far)
            return float(np.sum(h * g_out))

        eps = 1e-5
        checked = 0
        for idx in np.argwhere(np.abs(grad) > 1e-5)[:20]:
            idx = tuple(idx)
            old = dmap.params[idx]
            dmap.params[idx] = old + eps
            plus = objective()
            dmap.params[idx] = old - eps
            minus = objective()
            dmap.params[idx] = old
            fd = (plus - minus) / (2 * eps)
            assert abs(grad[idx] - fd) / max(abs(fd), 1e-8) < 1e-4
            checked += 1
        assert checked >= 5

    def test_backward_sums_rays_at_a_repeated_pixel(self):
        rng = np.random.default_rng(12)
        data, _ = tiny_training_data(rng)
        dmap = data.maps[0]
        pixels = np.array([[4, 4], [5, 2], [4, 4]])
        z = np.linspace(data.near, data.far, 7)[:6][None, :].repeat(3, axis=0)
        widths = np.full((3, 6), (data.far - data.near) / 6)
        zfac = rng.uniform(0.9, 1.0, size=3)
        _, back = own_hit_probs(dmap, zfac, pixels, z, widths, data.near, data.far)
        g_out = rng.normal(size=(3, 6))
        cells, rows = own_hit_probs_backward(dmap, pixels, back, g_out)
        assert np.array_equal(cells, [4 * 10 + 4, 5 * 10 + 2])
        # back is component-major, (n, K, B): ray i is the last axis's entry i
        single = [own_hit_probs_backward(dmap, pixels[i:i + 1], [d[..., i:i + 1] for d in back],
                                         g_out[i:i + 1])[1][0] for i in range(3)]
        assert np.array_equal(rows[0], single[0] + single[2])
        assert np.array_equal(rows[1], single[1])


class TestMemorization:
    def test_consistency_only_training_matches_frozen_target(self):
        """With rendered hitting probabilities frozen, descending the
        consistency loss alone pulls a ray's own distribution onto them.

        The toy mirrors real training: the ray starts with a surface
        estimate a couple of bins away from the frozen target so their
        supports overlap, and the consistency gradient slides and sharpens
        the distribution onto the target bin.
        """
        near, far = 1.0, 5.0
        k = 32
        z = np.linspace(near, far, k + 1)[:k][None, :]
        widths = np.full((1, k), (far - near) / k)
        # frozen target: a near-one-hot surface at bin 12
        h_target = np.full((1, k), 1e-4)
        h_target[0, 12] = 0.97
        camera = look_at_camera(2, 2, 2, 2, 1, 1, (0, 0, 0), (0, 0, 1))
        zfac = camera.rays_for_pixels(np.array([0.5, 0.5]))[1]
        wrong_depth = (z[0, 15] + 0.06) * zfac
        dmap = init_from_depth(
            DepthMap(np.full((2, 2), wrong_depth), near, far, far - near), 0.05, 2
        )
        pixels = np.array([[0, 0]])
        own_zfac = camera.rays_for_pixels(pixels[:, ::-1] + 0.5)[1]
        state = OptimState()
        history = []
        for step in range(200):
            h_tilde, back = own_hit_probs(dmap, own_zfac, pixels, z, widths, near, far)
            value, g_tilde = consistency_loss(h_tilde, h_target)
            grad = map_grads(dmap.params, near, far,
                             [own_hit_probs_backward(dmap, pixels, back, g_tilde)])
            adam_step(state, {0: dmap.params}, {0: grad}, 2e-2)
            history.append(np.abs(h_tilde - h_target).mean())
        h_tilde, _ = own_hit_probs(dmap, own_zfac, pixels, z, widths, near, far)
        tv = 0.5 * np.abs(h_tilde - h_target).sum()
        assert tv < 0.05
        # mean absolute gap decreases monotonically over 10-step windows
        # (up to sub-1e-6 jitter once converged)
        windows = np.array(history).reshape(20, 10).mean(axis=1)
        assert np.all(np.diff(windows) <= 1e-6)


class TestOptimizeScene:
    def test_zero_steps_keeps_maps_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        data, _ = tiny_training_data(rng)
        before = {i: m.params.copy() for i, m in data.maps.items()}
        config = TrainConfig(steps=0, batch_size=16, k_samples=8, n_working=3,
                             sh_degree=1, eval_interval=0)
        optimize_scene(data, config, out_dir=tmp_path)
        for i in before:
            assert np.array_equal(before[i], data.maps[i].params)
        assert (tmp_path / "view_0000.nray").exists()

    def test_negative_checkpoint_interval_refused_before_any_write(self, tmp_path):
        data, _ = tiny_training_data(np.random.default_rng(11))
        config = TrainConfig(steps=2, batch_size=16, k_samples=8, n_working=3,
                             sh_degree=1, eval_interval=0)
        with pytest.raises(ConfigurationError, match="checkpoint_interval"):
            optimize_scene(data, config, out_dir=tmp_path / "out", checkpoint_interval=-1)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sampling_mode, batch_size, threads, size", [
        pytest.param("uniform", 16, 1, 10, id="uniform"),
        pytest.param("coarse_to_fine", 16, 1, 10, id="coarse_to_fine"),
        pytest.param("uniform", 300, 2, 20, id="uniform-batch300-threads2"),
        pytest.param("coarse_to_fine", 300, 2, 20, id="coarse_to_fine-batch300-threads2")])
    def test_resume_matches_uninterrupted(self, tmp_path, sampling_mode, batch_size, threads,
                                          size):
        config_args = dict(steps=6, batch_size=batch_size, k_samples=8, n_working=3,
                           sh_degree=1, seed=5, eval_interval=0,
                           background=(0.4, 0.4, 0.4), sampling_mode=sampling_mode,
                           k_fine=4, threads=threads)
        rng = np.random.default_rng(12)
        data_a, _ = tiny_training_data(rng, size=size)
        state_a, _ = optimize_scene(data_a, TrainConfig(**config_args))

        rng = np.random.default_rng(12)
        data_b, _ = tiny_training_data(rng, size=size)
        half = dict(config_args)
        half["steps"] = 3
        from rayvis.optim import load_checkpoint

        state_b, _ = optimize_scene(data_b, TrainConfig(**half),
                                    out_dir=tmp_path / "ckpt")
        rng = np.random.default_rng(12)
        data_c, _ = tiny_training_data(rng, size=size)
        state_c = OptimState()
        metrics = load_checkpoint(tmp_path / "ckpt", data_c, state_c, TrainConfig(**config_args))
        assert state_c.step == 3 and metrics == []
        state_c, _ = optimize_scene(data_c, TrainConfig(**config_args), state=state_c)
        assert state_c.step == state_a.step == 6
        for i in data_a.maps:
            assert np.array_equal(data_a.maps[i].params, data_c.maps[i].params)
            assert np.array_equal(state_a.m[i], state_c.m[i])
            assert np.array_equal(state_a.v[i], state_c.v[i])

    @pytest.mark.parametrize("fault", [
        lambda a: a.update(params_0=np.full((1, 1, 3, 2), np.nan)),
        lambda a: a.update(m_1=a["m_1"][:, :-1]),
        lambda a: a.update(v_2=np.where(a["v_2"] > 0, np.nan, a["v_2"])),
        lambda a: a.update(params_2=np.where(a["params_2"] > 0, np.inf, a["params_2"])),
        lambda a: a.pop("params_3"),
        lambda a: a.pop("v_1"),
    ], ids=["broadcastable_params", "moment_shape", "nan_moment", "inf_params",
            "missing_last_map", "missing_moment"])
    def test_bad_checkpoint_refused_before_any_write(self, tmp_path, fault):
        from rayvis.optim import load_checkpoint

        config = TrainConfig(steps=2, batch_size=16, k_samples=8, n_working=3,
                             sh_degree=1, seed=5, eval_interval=0)
        data, _ = tiny_training_data(np.random.default_rng(12))
        optimize_scene(data, config, out_dir=tmp_path)
        with np.load(tmp_path / "state.npz") as blob:
            arrays = dict(blob)
        fault(arrays)
        np.savez(tmp_path / "state.npz", **arrays)

        fresh, _ = tiny_training_data(np.random.default_rng(12))
        before = {i: m.params.copy() for i, m in fresh.maps.items()}
        state = OptimState()
        with pytest.raises(InputError):
            load_checkpoint(tmp_path, fresh, state, config)
        for i in before:
            assert np.array_equal(before[i], fresh.maps[i].params)
        assert state.m == {} and state.step == 0

    def test_resume_past_the_last_step_runs_nothing(self, tmp_path):
        """A checkpoint's step beyond ``steps`` replays no batch draws."""
        data, _ = tiny_training_data(np.random.default_rng(11))
        config = TrainConfig(steps=2, batch_size=16, k_samples=8, n_working=3,
                             sh_degree=1, eval_interval=0)
        state, history = optimize_scene(data, config, state=OptimState(step=10**15))
        assert history == [] and state.step == 10**15

    def test_interrupted_run_keeps_its_metrics_rows(self, tmp_path, monkeypatch):
        """Every checkpoint writes metrics.csv and keeps its rows in state.npz,
        so a run stopped after one resumes to the uninterrupted run's bytes."""
        from rayvis.optim import load_checkpoint

        config = TrainConfig(steps=4, batch_size=16, k_samples=8, n_working=3,
                             sh_degree=1, seed=5, eval_interval=1)
        data, _ = tiny_training_data(np.random.default_rng(12))
        optimize_scene(data, config, out_dir=tmp_path / "full")
        step = optim.train_step

        def stop_after_three(data, config, state, rng):
            if state.step == 3:
                raise KeyboardInterrupt
            return step(data, config, state, rng)

        monkeypatch.setattr(optim, "train_step", stop_after_three)
        data, _ = tiny_training_data(np.random.default_rng(12))
        with pytest.raises(KeyboardInterrupt):
            optimize_scene(data, config, out_dir=tmp_path / "cut", checkpoint_interval=2)
        monkeypatch.undo()
        assert len((tmp_path / "cut" / "metrics.csv").read_text().splitlines()) == 3
        data, state = tiny_training_data(np.random.default_rng(12))[0], OptimState()
        metrics = load_checkpoint(tmp_path / "cut", data, state, config)
        assert state.step == 2 and [row[0] for row in metrics] == [1, 2]
        optimize_scene(data, config, out_dir=tmp_path / "cut", state=state, metrics=metrics)
        for path in sorted((tmp_path / "full").iterdir()):
            assert (tmp_path / "cut" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_losses_trend_down_with_gt_init(self):
        rng = np.random.default_rng(13)
        data, _ = tiny_training_data(rng)
        config = TrainConfig(steps=40, batch_size=24, k_samples=16, n_working=3,
                             sh_degree=1, lambda_depth=0.0, eval_interval=0,
                             background=(0.4, 0.4, 0.4), seed=2)
        state, history = optimize_scene(data, config)
        totals = np.array([rep.total for rep, _ in history])
        assert totals[-10:].mean() <= totals[:10].mean() + 1e-9
