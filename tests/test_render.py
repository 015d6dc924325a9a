import re
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rayvis import render
from rayvis.camera import PinholeCamera, generate_ray, look_at_camera
from rayvis.counters import counters
from rayvis.errors import ConfigurationError, DimensionMismatchError, InputError
from rayvis.optim import init_from_depth, view_grad
from rayvis.raydist import DistributionMap, decode_stack, fold_last, interval_alpha
from rayvis.render import (
    RenderConfig,
    RenderView,
    psnr,
    query_visibility,
    render_image,
    render_rays,
    render_rays_backward,
    select_working_views,
    usable_cpus,
)
from rayvis.scene import intersect, oracle_visibility, render_ground_truth


def working_set_for(ring_scene, gt_views, query_index, n_working=8):
    views = [v for i, v in sorted(gt_views.items()) if i != query_index]
    return select_working_views(
        views,
        ring_scene.cameras[query_index],
        n_working,
        ring_scene.near,
        ring_scene.far,
        query_index=query_index,
    )


def one_sample(working, point, direction, width, config=None, with_colors=True):
    """The chunk state of one ray that starts at ``point``: one sample at
    depth 0 with bin width ``width``."""
    origins = np.asarray(point, dtype=np.float64).reshape(1, 3)
    dirs = np.asarray(direction, dtype=np.float64).reshape(1, 3)
    return render._chunk_forward(working, origins, dirs, np.zeros((1, 1)),
                                 np.full((1, 1), float(width)), config or RenderConfig(),
                                 with_colors=with_colors)


def alpha_at(working, point, width) -> float:
    """Visibility-weighted mean of the working views' interval opacities at ``point``."""
    return float(one_sample(working, point, (0.0, 0.0, 0.0), width,
                            with_colors=False).alpha_hat[0, 0])


def unstarted_threads(monkeypatch):
    """Give the stream runner a ``threading.Thread`` stand-in that starts
    nothing; returns the list of the stand-ins it constructs."""
    made = []

    class Unstarted:
        def __init__(self, target):
            made.append(self)

        def start(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(render, "threading",
                        SimpleNamespace(Thread=Unstarted, Lock=threading.Lock))
    return made


class TestSelectWorkingViews:
    def test_self_exclusion(self, ring_scene, gt_views):
        views = list(gt_views.values())
        ws = select_working_views(
            views, ring_scene.cameras[3], 8, ring_scene.near, ring_scene.far
        )
        assert all(state.index != 3 for state in ws.views)

    def test_nearest_two_on_a_line(self, ring_scene, gt_views):
        # ring neighbors of view 0 are views 1 and 15
        ws = working_set_for(ring_scene, gt_views, 0, n_working=2)
        assert sorted(s.index for s in ws.views) == [1, 15]

    def test_distance_ties_break_by_index(self, gt_views):
        # two candidate views share a camera center: lower index wins
        v1 = gt_views[1]
        dup = RenderView(9, v1.camera, v1.dmap, v1.image)
        far_cam = look_at_camera(64, 64, 60, 60, 32, 32, (0, 10, 0), (0, 0, 0.1))
        query = look_at_camera(64, 64, 60, 60, 32, 32, (3.0, 0.8, 0.001), (0, 0, 0))
        ws = select_working_views([dup, v1], query, 1, 1.2, 5.4)
        assert ws.views[0].index == 1

    def test_too_many_requested(self, ring_scene, gt_views):
        with pytest.raises(ConfigurationError):
            working_set_for(ring_scene, gt_views, 0, n_working=15 + 1)


class TestQueryVisibility:
    def probe_points(self, ring_scene, rng, n):
        """Surface hits of random reference rays with outward offsets."""
        fronts, behinds = [], []
        while len(fronts) < n:
            view = int(rng.integers(len(ring_scene.cameras)))
            cam = ring_scene.cameras[view]
            px = (rng.uniform(0, cam.width), rng.uniform(0, cam.height))
            ray = generate_ray(cam, px)
            hit = intersect(ring_scene, ray)
            if hit is None:
                continue
            depth, normal, _ = hit
            point = ray.point_at(depth)
            offset = 0.025 * ring_scene.scene_scale
            fronts.append(point + offset * normal)
            behinds.append(point - offset * normal)
        return fronts, behinds

    def test_agreement_with_geometric_oracle(self, ring_scene, gt_views):
        rng = np.random.default_rng(13)
        ws = working_set_for(ring_scene, gt_views, 0)
        fronts, behinds = self.probe_points(ring_scene, rng, 300)
        agree = total = 0
        for point in fronts + behinds:
            vis = query_visibility(ws, point)
            for j, state in enumerate(ws.views):
                cam = state.camera
                pc = cam.to_camera(point)
                if pc[2] <= 0:
                    continue
                u = cam.fx * pc[0] / pc[2] + cam.cx
                v = cam.fy * pc[1] / pc[2] + cam.cy
                if not (0 <= u < cam.width and 0 <= v < cam.height):
                    continue
                total += 1
                predicted = 1 if vis[j] >= 0.5 else 0
                agree += predicted == oracle_visibility(ring_scene, state.index, point)
        assert total > 1000
        assert agree / total >= 0.99

    def test_out_of_frustum_is_zero(self, ring_scene, gt_views):
        ws = working_set_for(ring_scene, gt_views, 0, n_working=1)
        cam = ws.views[0].camera
        # a point far off the optical axis but in front of the camera
        point = cam.center + cam.rotation.T @ np.array([50.0, 0.0, 2.0])
        assert query_visibility(ws, point)[0] == 0.0

    def test_axial_occlusion(self, ring_scene, gt_views):
        # march along the central ray of view 0 past the first surface
        cam = ring_scene.cameras[0]
        ray = generate_ray(cam, (cam.width / 2, cam.height / 2))
        depth, _, _ = intersect(ring_scene, ray)
        views = [gt_views[0]]
        ws = select_working_views(
            views, ring_scene.cameras[8], 1, ring_scene.near, ring_scene.far
        )
        sigma = 0.005 * (ring_scene.far - ring_scene.near)
        front = ray.point_at(depth - 5 * sigma)
        behind = ray.point_at(depth + 1.0)
        assert query_visibility(ws, front)[0] > 0.95
        assert query_visibility(ws, behind)[0] < 0.05

    def test_one_cdf_evaluation_per_imaging_view(self, ring_scene, gt_views):
        ws = working_set_for(ring_scene, gt_views, 0)
        rng = np.random.default_rng(29)
        seen = set()
        for point in rng.uniform(-4.0, 4.0, size=(200, 3)):
            imaged = np.array([_images_point(state.camera, point) for state in ws.views])
            counters.reset()
            vis = query_visibility(ws, point)
            assert counters.snapshot().cdf_evals == imaged.sum()
            assert np.all(vis[~imaged] == 0.0)
            seen.add(int(imaged.sum()))
        assert 0 in seen and ws.n_views in seen and len(seen) >= 4


def _images_point(cam, point) -> bool:
    """Does ``cam`` image the world point: in front of it and inside its frame."""
    pc = cam.to_camera(point)
    if pc[2] <= 0:
        return False
    u = cam.fx * pc[0] / pc[2] + cam.cx
    v = cam.fy * pc[1] / pc[2] + cam.cy
    return bool(0 <= u < cam.width and 0 <= v < cam.height)


class TestRayLookup:
    """The per-ray lookup of a real chunk, the 128 rays of the query view 1
    from pixel row 28 on the ring's 8 working views, against each view's own
    ``PinholeCamera.project_points`` of the chunk's sample points."""

    def chunk(self, ring_scene, gt_views, mode):
        ws = working_set_for(ring_scene, gt_views, 1)
        cam = ring_scene.cameras[1]
        px = np.stack(np.divmod(np.arange(28 * 64, 28 * 64 + 128), 64)[::-1], axis=1) + 0.5
        dirs, _ = cam.rays_for_pixels(px)
        origins = np.broadcast_to(cam.center, dirs.shape)
        config = RenderConfig(k_coarse=32, k_fine=8, mode=mode,
                              background=tuple(ring_scene.background))
        _, state, kept = render_rays(ws, origins, dirs, config, keep_state=True)
        return ws, origins[kept], dirs[kept], state

    @pytest.mark.parametrize("mode", ["uniform", "coarse_to_fine"])
    def test_matches_camera_projection(self, ring_scene, gt_views, mode):
        ws, origins, dirs, state = self.chunk(ring_scene, gt_views, mode)
        _, _, _, depth, (u, v), valid, cell = render._lookup(ws, origins, dirs, state.z,
                                                             state.widths)
        assert np.array_equal(valid, state.valid) and np.array_equal(cell, state.cell)
        points = origins[:, None, :] + state.z[..., None] * dirs[:, None, :]
        edges = 0
        for j, view in enumerate(ws.views):
            cam = view.camera
            uv, z = cam.project_points(points)
            want = (z > 0) & (uv[..., 0] >= 0) & (uv[..., 0] < cam.width) \
                & (uv[..., 1] >= 0) & (uv[..., 1] < cam.height)
            floor = np.floor(uv)
            want_cell = ws.first[j] + floor[..., 1] * cam.width + floor[..., 0]
            # a sample within 1e-9 px of a pixel edge may fall on either side
            edge = np.any(np.minimum(uv - floor, floor + 1 - uv) < 1e-9, axis=-1)
            edges += int(edge.sum())
            assert np.array_equal(valid[..., j][~edge], want[~edge])
            hit = valid[..., j] & want & ~edge
            assert np.array_equal(cell[..., j][hit], want_cell[hit])
            # image coordinates relative to the larger of themselves and the image size
            for got, ref, size in ((depth[0, ..., j], z, 0),
                                   (depth[1, ..., j], z + state.widths, 0),
                                   (u[..., j], uv[..., 0], cam.width),
                                   (v[..., j], uv[..., 1], cam.height)):
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * size)
        assert edges < 0.01 * valid.size and valid.mean() > 0.5

    def test_view_reductions_match_numpy(self, ring_scene, gt_views):
        """The forward's view sums, added one view slice after another, equal
        ``np.sum`` over the views (pairwise for 8 views) within the rounding
        bound of the two orders, and its active flags, from the largest entry
        of each sample, equal ``np.any`` exactly."""
        ws, _, _, state = self.chunk(ring_scene, gt_views, "uniform")
        # each order rounds J nonnegative terms within (J - 1), resp.
        # log2(J), half-ulps of their total
        bound = (ws.n_views - 1 + np.log2(ws.n_views)) * np.finfo(float).eps / 2
        t_a, t_b = state.cdf_a[0], state.cdf_b[0]
        vis = np.where(state.valid, 1.0 - t_a, 0.0)
        assert np.all(np.abs(state.denom - vis.sum(axis=-1)) <= bound * state.denom)
        alpha = np.where(state.valid, np.clip(interval_alpha(t_a, t_b)[0], 0.0, 1.0), 0.0) * vis
        total = fold_last(np.add, alpha)[..., 0]
        assert np.all(np.abs(total - alpha.sum(axis=-1)) <= bound * total)
        good = state.denom >= render.EPS_VISIBILITY
        np.testing.assert_array_equal(
            state.alpha_hat, np.where(good, total / np.where(good, state.denom, 1.0), 0.0))
        h_w = np.where(state.valid, t_b - t_a, 0.0)
        assert np.array_equal(state.active, np.any(h_w >= render.EPS_VISIBILITY, axis=-1))
        assert 0 < state.active.sum() < state.active.size


@pytest.fixture(scope="module")
def mixed_views(ring_scene, ring_ground_truth):
    """The ring with every odd view re-shot at 40x48 pixels, and with 1 to 3
    mixture components per view: a working set of mixed sizes and counts."""
    images, depths = ring_ground_truth
    views = []
    for i, cam in enumerate(ring_scene.cameras):
        image, depth = images[i], depths[i]
        if i % 2:
            cam = look_at_camera(40, 48, 38.0, 38.0, 20.0, 24.0, cam.center, (0, 0, 0))
            image, depth = render_ground_truth(ring_scene, cam)
        views.append(RenderView(i, cam, init_from_depth(depth, 0.005, i % 3 + 1, view=i), image))
    return views


class TestMixedWorkingSet:
    def working_set(self, ring_scene, views):
        return select_working_views(views, ring_scene.cameras[0], min(8, len(views)),
                                    ring_scene.near, ring_scene.far, query_index=0)

    def test_mixed_sizes_and_components(self, ring_scene, mixed_views):
        ws = self.working_set(ring_scene, mixed_views)
        shapes = {s.dmap.params.shape for s in ws.views}
        assert {(s[0], s[1]) for s in shapes} == {(64, 64), (48, 40)}
        assert {s[3] for s in shapes} == {1, 2, 3}

    def probe_points(self, ws):
        """Random points, plus points just inside and just outside the smaller
        views' right and bottom edges, where a lookup clipped to another
        view's size goes wrong."""
        points = list(np.random.default_rng(31).uniform(-1.5, 1.5, size=(60, 3)))
        for state in ws.views:
            cam = state.camera
            if cam.width == 64:
                continue
            for depth in (2.0, 3.0):
                for edge in (-0.3, -1e-3, 1e-3):
                    for frac in (0.1, 0.5, 0.9):
                        points.append(cam.unproject((cam.width + edge, frac * cam.height), depth))
                        points.append(cam.unproject((frac * cam.width, cam.height + edge), depth))
        return np.array(points)

    def test_lookup_matches_single_view_sets(self, ring_scene, mixed_views):
        from rayvis.render import _lookup

        ws = self.working_set(ring_scene, mixed_views)
        points = self.probe_points(ws)
        rays = (points, np.zeros_like(points)) + 2 * (np.zeros((len(points), 1)),)
        mu, sig, w, depth, _, valid, _ = _lookup(ws, *rays)
        for j, state in enumerate(ws.views):
            n = state.dmap.n_components
            assert np.all(w[n:, :, 0, j] == 0.0)   # padded components weigh exactly 0
            *want, want_depth, _, want_valid, _ = _lookup(
                self.working_set(ring_scene, [state]), *rays)
            assert np.array_equal(valid[:, 0, j], want_valid[:, 0, 0])
            assert np.array_equal(depth[0, :, 0, j], want_depth[0, :, 0, 0])
            inside = valid[:, 0, j]
            for got, single in zip((mu, sig, w), want):
                assert np.array_equal(got[:n, inside, 0, j], single[:, inside, 0, 0])

    def test_visibility_matches_single_view_sets(self, ring_scene, mixed_views):
        ws = self.working_set(ring_scene, mixed_views)
        points = self.probe_points(ws)
        singles = [self.working_set(ring_scene, [s]) for s in ws.views]
        inside = 0
        for point in points:
            want = np.array([query_visibility(single, point)[0] for single in singles])
            assert np.array_equal(query_visibility(ws, point), want)
            inside += int(np.count_nonzero(want))
        assert inside > 100

    def test_views_stored_end_to_end(self, ring_scene, mixed_views):
        """View j owns cells first[j]:first[j + 1], row-major at its own width:
        they hold its own decoded map and image, and the components it lacks
        have scale 1 and weight 0. ``view_grad`` of a backward part touches
        only view j's own hit pixels and drops the rows of those components."""
        ws = self.working_set(ring_scene, mixed_views)
        first, n = ws.first, ws.decoded.shape[1]
        assert first[0] == 0 and first[-1] == ws.images.shape[1] == ws.decoded.shape[2]
        for j, view in enumerate(ws.views):
            own, k = slice(first[j], first[j + 1]), view.dmap.n_components
            decoded = decode_stack(view.dmap.params, ws.near, ws.far)      # (3, k, h, w)
            assert np.array_equal(ws.decoded[:, :k, own], decoded.reshape(3, k, -1))
            assert np.array_equal(ws.images[:, own], view.image.reshape(-1, 3).T)
            assert np.all(ws.decoded[1, k:, own] == 1.0) and np.all(ws.decoded[2, k:, own] == 0.0)

        cam = ring_scene.cameras[0]
        dirs, _ = cam.rays_for_pixels(np.random.default_rng(43).uniform(0, 64, size=(96, 2)))
        config = RenderConfig(k_coarse=16, sh_degree=1, background=tuple(ring_scene.background))
        _, state, _ = render_rays(ws, np.broadcast_to(cam.center, dirs.shape), dirs, config,
                                  keep_state=True)
        cells, rows = render_rays_backward(ws, state, config,
                                           np.random.default_rng(44).normal(size=(96, 3)))
        comps = np.array([v.dmap.n_components for v in ws.views])
        lacking = np.arange(n) >= comps[np.searchsorted(first, cells, side="right") - 1, None]
        rows[np.broadcast_to(lacking.T, rows.shape)] = np.nan
        for j, view in enumerate(ws.views):
            g = view_grad(ws, j, [(cells, rows)])
            assert g.shape == view.dmap.params.shape and np.all(np.isfinite(g))
            hit = cells[(cells >= first[j]) & (cells < first[j + 1])] - first[j]
            touched = np.flatnonzero(np.any(g != 0, axis=(2, 3)))
            assert len(touched) > 0 and set(touched) <= set(hit)

    @pytest.mark.parametrize("mode", ["uniform", "coarse_to_fine"])
    def test_render_quality(self, ring_scene, ring_ground_truth, mixed_views, mode):
        ws = self.working_set(ring_scene, mixed_views)
        config = RenderConfig(k_coarse=32, k_fine=8, mode=mode,
                              background=tuple(ring_scene.background))
        image = render_image(ws, config)
        assert np.all(np.isfinite(image)) and image.min() >= 0.0 and image.max() <= 1.0
        assert psnr(image, ring_ground_truth[0][0]) >= 24.0


class TestSampleAlpha:
    def synthetic_working_set(self, alphas, visibilities):
        """Views whose distributions reproduce given alpha/visibility pairs
        for a probe at depth 2 with bin width 0.5 (single sharp component).
        """
        views = []
        for j, (alpha, vis) in enumerate(zip(alphas, visibilities)):
            cam = look_at_camera(4, 4, 4, 4, 2, 2, (0, 0, -2), (0, 0, 1))
            t0 = 1.0 - vis
            t1 = t0 + alpha * vis
            # two-component mixture: jumps of size t0 before depth 2 and
            # t1 - t0 inside (2, 2.5)
            from rayvis.raydist import inv_softplus, logit

            near, far = 1.0, 9.0
            span = far - near
            sharp = inv_softplus(3e-4 * span)
            w0 = max(t0, 1e-9)
            w1 = max(t1 - t0, 1e-9)
            rest = max(1.0 - t1, 1e-9)
            # component 0 jumps at depth 1.5 (before the probe), component 1
            # inside the probe bin at 2.25; the leftover mass sits past far
            # via a third component
            params = np.zeros((4, 4, 3, 3))
            params[..., 0, 0] = logit((1.5 - near) / span)
            params[..., 0, 1] = logit((2.25 - near) / span)
            params[..., 0, 2] = 12.0
            params[..., 1, :] = sharp
            params[..., 2, 0] = np.log(w0)
            params[..., 2, 1] = np.log(w1)
            params[..., 2, 2] = np.log(rest)
            views.append(
                RenderView(j, cam, DistributionMap(j, params), np.zeros((4, 4, 3)))
            )
        query = look_at_camera(4, 4, 4, 4, 2, 2, (0.3, 0, -2), (0, 0, 1))
        return select_working_views(views, query, len(views), 1.0, 9.0)

    def test_weighted_mean(self):
        ws = self.synthetic_working_set([0.4, 0.8], [0.75, 0.25])
        value = alpha_at(ws, (0, 0, 0), 0.5)
        assert value == pytest.approx(0.5, abs=1e-6)

    def test_all_invisible_convention(self):
        ws = self.synthetic_working_set([0.5, 0.5], [1e-9, 1e-9])
        assert alpha_at(ws, (0, 0, 0), 0.5) == 0.0

    def test_single_visible_view(self):
        ws = self.synthetic_working_set([0.6], [1.0 - 1e-7])
        assert alpha_at(ws, (0, 0, 0), 0.5) == pytest.approx(0.6, abs=1e-5)


class TestRenderConfig:
    @pytest.mark.parametrize("degree", [-1, 4])
    def test_sh_degree_out_of_range(self, degree):
        with pytest.raises(ConfigurationError, match="sh_degree"):
            RenderConfig(sh_degree=degree)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one(self, threads):
        with pytest.raises(ConfigurationError, match="threads"):
            RenderConfig(threads=threads)

    @pytest.mark.parametrize("threads", [1.5, np.nan, np.inf])
    def test_threads_not_whole(self, threads):
        with pytest.raises(ConfigurationError, match="threads must be a whole number"):
            RenderConfig(threads=threads)
        assert type(RenderConfig(threads=2.0).threads) is int

    @pytest.mark.parametrize("name, value", [
        ("k_coarse", 32.5), ("k_coarse", np.nan), ("k_fine", 7.5), ("k_fine", np.inf),
        ("n_working", 7.5), ("sh_degree", 1.5), ("sh_degree", np.nan)])
    def test_counts_not_whole(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be a whole number"):
            RenderConfig(**{name: value})

    @pytest.mark.parametrize("overrides, words", [
        (dict(k_coarse=8193), "k_coarse must be a whole number, in [2, 8192]"),
        (dict(k_coarse=10**12), "k_coarse"),
        (dict(k_fine=8193), "k_fine must be a whole number, in [0, 8192]"),
        (dict(mode="coarse_to_fine", k_coarse=8000, k_fine=193), "k_coarse + k_fine"),
    ], ids=["k_coarse", "k_coarse_huge", "k_fine", "coarse_plus_fine"])
    def test_samples_per_ray_beyond_the_pair_budget(self, overrides, words):
        """A ray takes at most 8192 samples, so that a one-ray chunk keeps to
        the chunk's pair budget; the config refuses more before anything is
        allocated."""
        with pytest.raises(ConfigurationError, match=re.escape(words)):
            RenderConfig(**overrides)
        config = RenderConfig(mode="coarse_to_fine", k_coarse=8000, k_fine=192)
        assert render._chunk_rays(config) == 1
        assert RenderConfig(k_coarse=8192, k_fine=8192).k_fine == 8192   # unused in uniform mode

    def test_whole_float_counts_stored_as_ints(self):
        names = ("k_coarse", "k_fine", "n_working", "sh_degree")
        config = RenderConfig(k_coarse=32.0, k_fine=8.0, n_working=7.0, sh_degree=2.0)
        assert [getattr(config, name) for name in names] == [32, 8, 7, 2]
        assert all(type(getattr(config, name)) is int for name in names)

    def test_threads_default_to_usable_cpus(self):
        assert usable_cpus() >= 1
        assert RenderConfig().threads == usable_cpus()


class TestBackwardFiniteDifferences:
    """The SH color gradient at degrees 2 and 3 with eight working views:
    the dual system has 9 unknowns there, against 9 and 16 coefficients.
    The mixed set pads 4x5 views holding 1 to 3 components to 6x6x2 stacks."""

    @pytest.mark.parametrize("degree, mixed", [(2, False), (3, False), (2, True)],
                             ids=["2", "3", "mixed"])
    def test_render_loss_gradient(self, degree, mixed):
        rng = np.random.default_rng(40 + degree + 5 * mixed)
        views = []
        for j, ang in enumerate(np.linspace(0, 2 * np.pi, 9)[:8] + rng.uniform(0, 0.3, 8)):
            eye = 3.0 * np.array([np.cos(ang), 0.25, np.sin(ang)])
            h, w, n = (4, 5, j % 3 + 1) if mixed and j % 2 == 0 else (6, 6, 2)
            cam = look_at_camera(w, h, 7.0, 7.0, w / 2, h / 2, eye, (0, 0, 0))
            views.append(RenderView(j, cam, DistributionMap(j, rng.normal(0, 1.0, (h, w, 3, n))),
                                    rng.uniform(0, 1, (h, w, 3))))
        qcam = look_at_camera(6, 6, 7.0, 7.0, 3.0, 3.0, (0.4, 0.9, 3.1), (0, 0, 0))
        config = RenderConfig(k_coarse=8, n_working=8, sh_degree=degree,
                              background=(0.2, 0.3, 0.4))
        dirs, _ = qcam.rays_for_pixels(rng.uniform(1.5, 4.5, size=(4, 2)))
        origins = np.broadcast_to(qcam.center, dirs.shape)
        weights = rng.normal(size=(4, 3))

        def objective():
            ws = select_working_views(views, qcam, 8, 1.0, 5.0)
            return float(np.sum(render_rays(ws, origins, dirs, config)[0] * weights))

        ws = select_working_views(views, qcam, 8, 1.0, 5.0)
        _, state, _ = render_rays(ws, origins, dirs, config, keep_state=True)
        assert state.sh.factors[0].shape[:2] == (9, 9)    # ldl of J + 1 = 9
        parts = [render_rays_backward(ws, state, config, weights)]
        grads = {v.index: view_grad(ws, j, parts) for j, v in enumerate(ws.views)}
        checked = 0
        for view in views:
            params, g = view.dmap.params, grads[view.index]
            assert g.shape == params.shape
            for idx in map(tuple, np.argwhere(np.abs(g) > 1e-5)[::3]):
                old = params[idx]
                slopes = []
                for step in (1e-6, 1e-5):
                    params[idx] = old + step
                    plus = objective()
                    params[idx] = old - step
                    minus = objective()
                    params[idx] = old
                    slopes.append((plus - minus) / (2 * step))
                # two step sizes must agree before the estimate is trusted
                if abs(slopes[0] - slopes[1]) > 1e-5 * abs(slopes[0]):
                    continue
                assert g[idx] == pytest.approx(slopes[0], rel=1e-4)
                checked += 1
        assert checked >= 20


class TestBackwardRefusals:
    def test_a_state_without_keep_state(self, ring_scene, gt_views):
        """The backward needs the intermediates that only ``keep_state=True`` records."""
        ws = working_set_for(ring_scene, gt_views, 0)
        cam = ring_scene.cameras[0]
        dirs, _ = cam.rays_for_pixels(np.array([[32.0, 32.0], [20.5, 40.5]]))
        origins = np.broadcast_to(cam.center, dirs.shape)
        config = RenderConfig(k_coarse=8, n_working=3, background=tuple(ring_scene.background))
        dc_o = np.ones((2, 3))
        _, value_only, _ = render_rays(ws, origins, dirs, config)
        with pytest.raises(InputError, match="keep_state"):
            render_rays_backward(ws, value_only, config, dc_o)


class TestBilinearGather:
    def test_parameter_grid_centers_and_midpoints(self):
        grid = np.random.default_rng(23).normal(size=(4, 5, 3, 2))
        iy, ix = np.meshgrid(np.arange(4), np.arange(5), indexing="ij")

        def lookup(u, v):
            stack = np.moveaxis(grid.reshape(20, 3, 2), 0, -1)
            return np.moveaxis(render._bilinear(stack, 0, 4, 5, u, v), (0, 1), (-2, -1))

        assert np.array_equal(lookup(ix + 0.5, iy + 0.5), grid)
        mid_x = lookup(ix[:, :-1] + 1.0, iy[:, :-1] + 0.5)
        np.testing.assert_allclose(mid_x, 0.5 * (grid[:, :-1] + grid[:, 1:]), atol=1e-12)
        mid_y = lookup(ix[:-1] + 0.5, iy[:-1] + 1.0)
        np.testing.assert_allclose(mid_y, 0.5 * (grid[:-1] + grid[1:]), atol=1e-12)


def hitting_probs(alphas) -> np.ndarray:
    """First-hit probabilities of ordered alphas, as the renderer composites them."""
    alphas = np.asarray(alphas, dtype=np.float64)
    return render._transmittance(alphas) * alphas


class TestHittingProbs:
    def test_opaque_first_sample(self):
        np.testing.assert_allclose(hitting_probs([1.0]), [1.0])

    def test_half_then_opaque(self):
        np.testing.assert_allclose(hitting_probs([0.5, 1.0]), [0.5, 0.5])

    def test_geometric_identity(self):
        h = hitting_probs([0.5, 0.5, 0.5])
        np.testing.assert_allclose(h, [0.5, 0.25, 0.125])
        assert h.sum() == pytest.approx(1 - 0.5**3, abs=1e-12)

    def test_mass_identity_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            alphas = rng.uniform(0, 1, size=rng.integers(1, 40))
            h = hitting_probs(alphas)
            assert np.all(h >= 0) and np.all(h <= 1)
            assert h.sum() + np.prod(1 - alphas) == pytest.approx(1.0, abs=1e-9)


class TestSampleColor:
    def test_surface_color_matches_shading_oracle(self, ring_scene, gt_views):
        rng = np.random.default_rng(19)
        ws = working_set_for(ring_scene, gt_views, 0)
        cam = ring_scene.cameras[0]
        config = RenderConfig(background=tuple(ring_scene.background))
        checked = 0
        while checked < 25:
            px = (rng.uniform(8, 56), rng.uniform(8, 56))
            ray = generate_ray(cam, px)
            hit = intersect(ring_scene, ray)
            if hit is None:
                continue
            depth, _, shaded = hit
            point = ray.point_at(depth)
            color = one_sample(ws, point, ray.direction, 0.03, config).sample_colors[0, 0]
            # the fitted color is view-blended; diffuse albedo dominates
            if np.max(np.abs(color - shaded)) < 0.1:
                checked += 1
            else:
                # tolerate rare checker-boundary points
                assert np.max(np.abs(color - shaded)) < 0.5
                checked += 1
        assert checked == 25

    def test_all_weights_zero_returns_background(self, ring_scene, gt_views):
        ws = working_set_for(ring_scene, gt_views, 0)
        config = RenderConfig(background=(0.1, 0.2, 0.3))
        # a free-space point well in front of the spheres
        point = np.array([0.0, 0.0, 0.0]) + np.array([0.0, 2.2, 0.0])
        color = one_sample(ws, point, (0.0, 0.0, 1.0), 0.03, config).sample_colors[0, 0]
        np.testing.assert_allclose(color, (0.1, 0.2, 0.3), atol=1e-12)

    def test_occluded_view_excluded(self):
        """One view sees red at full weight; an occluded view holding blue
        has weight ~0 and must not leak into the output color."""
        from rayvis.raydist import inv_softplus, logit

        near, far = 1.0, 9.0
        span = far - near
        sharp = inv_softplus(3e-4 * span)
        views = []
        for j, (surface_depth, albedo) in enumerate([(2.25, (1, 0, 0)), (1.4, (0, 0, 1))]):
            cam = look_at_camera(4, 4, 4, 4, 2, 2, (0, 0, -2), (0, 0, 1))
            params = np.zeros((4, 4, 3, 2))
            params[..., 0, 0] = logit((surface_depth - near) / span)
            params[..., 0, 1] = 12.0
            params[..., 1, :] = sharp
            params[..., 2, 0] = np.log(1 - 1e-9)
            params[..., 2, 1] = np.log(1e-9)
            image = np.broadcast_to(np.asarray(albedo, float), (4, 4, 3)).copy()
            views.append(RenderView(j, cam, DistributionMap(j, params), image))
        query = look_at_camera(4, 4, 4, 4, 2, 2, (0.3, 0, -2), (0, 0, 1))
        ws = select_working_views(views, query, 2, near, far)
        config = RenderConfig(background=(0, 0, 0))
        # probe at depth 2 from both views: the red view's surface sits in
        # the probe bin (weight ~1); the blue view is occluded at 1.4
        color = one_sample(ws, (0, 0, 0), (0.0, 0.0, 1.0), 0.5, config).sample_colors[0, 0]
        np.testing.assert_allclose(color, (1, 0, 0), atol=1e-3)


class TestRenderPixel:
    def test_convex_combination(self, ring_scene, gt_views):
        """Each ray's color composites its sample colors by the hitting
        probabilities and the background by the rest of the mass, so it
        lies in the per-channel hull of its sample colors and the background."""
        ws = working_set_for(ring_scene, gt_views, 0)
        cam = ring_scene.cameras[0]
        config = RenderConfig(k_coarse=32, background=(0.1, 0.9, 0.5))
        dirs, _ = cam.rays_for_pixels(np.random.default_rng(41).uniform(0, 64, size=(40, 2)))
        colors, state, _ = render_rays(ws, np.broadcast_to(cam.center, dirs.shape), dirs, config)
        h, samples = state.h_hat, state.sample_colors
        mass = h.sum(axis=1)
        assert np.all(h >= 0) and np.all(mass <= 1 + 1e-12)
        assert np.any(mass > 0.5) and np.any(mass < 0.5)      # surfaces and background both count
        background = np.array(config.background)
        want = np.einsum("bk,bkc->bc", h, samples) + background * (1 - mass)[:, None]
        np.testing.assert_allclose(colors, want, rtol=0, atol=1e-12)
        hull = np.concatenate([samples, np.broadcast_to(background, (len(h), 1, 3))], axis=1)
        assert np.all(colors >= hull.min(axis=1) - 1e-12)
        assert np.all(colors <= hull.max(axis=1) + 1e-12)

    def test_miss_ray_returns_background(self, ring_scene, gt_views):
        ws = working_set_for(ring_scene, gt_views, 0)
        cam = ring_scene.cameras[0]
        config = RenderConfig(
            k_coarse=64, mode="uniform", background=tuple(ring_scene.background)
        )
        ray = generate_ray(cam, (1.0, 1.0))  # corner pixel, misses geometry
        colors, state, _ = render_rays(ws, ray.origin[None], ray.direction[None], config)
        # miss rays composite the working views' far-plane sentinel mass,
        # whose colors are the background, so the pixel stays background
        np.testing.assert_allclose(colors[0], ring_scene.background, atol=0.02)
        assert state.h_hat[0].sum() <= 1 + 1e-9

    def test_sample_set_contract_uniform(self, ring_scene, gt_views):
        ws = working_set_for(ring_scene, gt_views, 0)
        cam = ring_scene.cameras[0]
        config = RenderConfig(k_coarse=32, mode="uniform",
                              background=tuple(ring_scene.background))
        ray = generate_ray(cam, (32.0, 32.0))
        _, state, _ = render_rays(ws, ray.origin[None], ray.direction[None], config)
        assert state.z[0].shape == (32,)
        assert np.all(np.diff(state.z[0]) > 0)
        step = (ring_scene.far - ring_scene.near) / 32
        np.testing.assert_allclose(state.widths[0], step, atol=1e-12)
        assert np.all(state.alpha_hat[0] >= 0) and np.all(state.alpha_hat[0] <= 1)
        assert state.h_hat[0].sum() <= 1 + 1e-9

    def test_fine_samples_concentrate(self, ring_scene, gt_views):
        ws = working_set_for(ring_scene, gt_views, 0)
        cam = ring_scene.cameras[0]
        config = RenderConfig(k_coarse=32, k_fine=8, mode="coarse_to_fine",
                              background=tuple(ring_scene.background))
        ray = generate_ray(cam, (32.0, 32.0))
        hit = intersect(ring_scene, ray)
        _, state, kept = render_rays(ws, ray.origin[None], ray.direction[None], config)
        # fine depths cluster around the true surface
        assert kept[0] and state.z.shape == (1, 8)
        assert np.all(np.abs(state.z[0] - hit[0]) < 0.5)

    def test_unkept_coarse_to_fine_ray_renders_background(self, ring_scene, gt_views):
        """A ray pointing away from the scene has no coarse hitting mass, so it
        gets no fine pass and no state, and renders as the background."""
        ws = working_set_for(ring_scene, gt_views, 0)
        ray = generate_ray(ring_scene.cameras[0], (32.0, 32.0))
        config = RenderConfig(k_coarse=32, k_fine=8, mode="coarse_to_fine",
                              background=tuple(ring_scene.background))
        colors, state, kept = render_rays(ws, ray.origin[None], -ray.direction[None], config)
        assert not kept[0] and state is None
        assert np.array_equal(colors[0], ring_scene.background)

    def test_concentrated_mass_keeps_fine_samples_in_bin(self):
        """With all coarse mass in one bin, fine samples stay inside it."""
        from rayvis.render import _fine_depths

        z = np.linspace(1.0, 5.0, 33)[:32][None, :]
        w = np.full((1, 32), 4.0 / 32)
        h = np.zeros((1, 32))
        h[0, 12] = 0.995
        h[0, 13] = 0.005
        z_f, w_f, keep = _fine_depths(z, w, h, 8, 5.0)
        assert keep[0]
        lo, hi = z[0, 12], z[0, 12] + w[0, 12] + w[0, 13]
        assert np.all(z_f >= lo - 1e-9) and np.all(z_f <= hi + 1e-9)


# (mode, k_coarse, k_fine, rays per chunk, rays per task of ``render_image``)
_CHUNK_RULE = [
    ("uniform", 128, 0, 64, 64),                # 8192 pairs
    ("uniform", 256, 0, 32, 32),
    ("uniform", 64, 0, 128, 128),               # 8192 pairs and 128 rays
    ("uniform", 96, 0, 85, 85),                 # the last chunk holds 16 rays
    ("coarse_to_fine", 32, 8, 128, 384),        # 3072 fine pairs; the last task 256
    ("coarse_to_fine", 48, 16, 128, 192),       # the last task 64
    ("coarse_to_fine", 64, 64, 64, 64),         # 3072 // 64 is below the chunk
    ("coarse_to_fine", 128, 0, 64, 64),         # no fine pass: tasks are chunks
]


class TestRenderImage:
    def test_empty_scene_renders_background(self, ring_scene):
        """End to end on a scene with no geometry: depth maps are all far
        sentinel, images are all background, render must be background."""
        from rayvis.scene import DepthMap, SyntheticScene

        bg = (0.3, 0.5, 0.7)
        empty = SyntheticScene([], bg, ring_scene.cameras, ring_scene.near,
                               ring_scene.far)
        sentinel = DepthMap(np.full((64, 64), empty.far), empty.near, empty.far, 1.0)
        image_bg = np.broadcast_to(np.asarray(bg), (64, 64, 3)).copy()
        views = [
            RenderView(i, empty.cameras[i], init_from_depth(sentinel, 0.005, 2, view=i),
                       image_bg)
            for i in range(1, 10)
        ]
        ws = select_working_views(views, empty.cameras[0], 8, empty.near, empty.far)
        config = RenderConfig(k_coarse=32, background=bg)
        image = render_image(ws, config)
        np.testing.assert_allclose(
            image, np.broadcast_to(bg, image.shape), atol=1e-6
        )

    def test_held_out_view_quality(self, ring_scene, gt_views, ring_ground_truth):
        images, _ = ring_ground_truth
        ws = working_set_for(ring_scene, gt_views, 0)
        config = RenderConfig(k_coarse=64, mode="uniform",
                              background=tuple(ring_scene.background))
        image = render_image(ws, config)
        assert psnr(image, images[0]) >= 25.0

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_every_sh_degree_renders_a_held_out_view(self, ring_scene, ring_ground_truth,
                                                      degree):
        """Maps of width 0.01 and the default per-degree penalties: each
        degree's fit gives a finite image in [0, 1] of held-out quality."""
        images, depths = ring_ground_truth
        views = [RenderView(i, cam, init_from_depth(depths[i], 0.01, 2, view=i), images[i])
                 for i, cam in enumerate(ring_scene.cameras)]
        ws = select_working_views(views, ring_scene.cameras[3], 8, ring_scene.near,
                                  ring_scene.far, query_index=3)
        config = RenderConfig(k_coarse=24, sh_degree=degree,
                              background=tuple(ring_scene.background))
        image = render_image(ws, config)
        assert np.all(np.isfinite(image)) and image.min() >= 0.0 and image.max() <= 1.0
        assert psnr(image, images[3]) >= 25.0

    def test_parallel_matches_serial(self, ring_scene, gt_views):
        """32 chunks of 128 rays on 1 and on 4 streams."""
        ws = working_set_for(ring_scene, gt_views, 0)
        serial = render_image(
            ws, RenderConfig(k_coarse=32, background=tuple(ring_scene.background), threads=1)
        )
        parallel = render_image(
            ws, RenderConfig(k_coarse=32, background=tuple(ring_scene.background), threads=4)
        )
        assert np.array_equal(serial, parallel)

    @pytest.mark.parametrize("mode", ["uniform", "coarse_to_fine"])
    def test_thread_count_invariant(self, ring_scene, gt_views, mode):
        """1, 2 and 3 streams share the same 32 chunks of 128 rays; the image
        and the counts must not depend on the count. A short switch interval
        interleaves the streams often, so a chunk lost or rendered twice from
        the shared queue, or a lost counter update, would show."""
        ws = working_set_for(ring_scene, gt_views, 0)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in (1, 2, 3):
                config = RenderConfig(k_coarse=32, k_fine=8, mode=mode,
                                      background=tuple(ring_scene.background), threads=threads)
                counters.reset()
                image = render_image(ws, config)
                snap = counters.snapshot()
                results.append((image, (snap.cdf_evals, snap.sh_fits, snap.color_samples)))
        finally:
            sys.setswitchinterval(interval)
        (first, counts), rest = results[0], results[1:]
        assert counts[0] > 0 and counts[1] > 0
        for image, other in rest:
            assert np.array_equal(image, first) and other == counts

    @pytest.mark.parametrize("stream", ["caller", "helper"])
    def test_stream_error_is_raised(self, ring_scene, gt_views, monkeypatch, stream):
        """A chunk that fails on the calling thread or on a helper stops the
        queue, and ``render_image`` raises that error instead of hanging."""
        ws = working_set_for(ring_scene, gt_views, 0, n_working=2)
        config = RenderConfig(k_coarse=4, background=tuple(ring_scene.background), threads=2)
        real = render.render_rays
        caller, failed, calls, result = [], threading.Event(), [], {}

        def chunk(*args, **kwargs):
            on_caller = threading.get_ident() == caller[0]
            calls.append(on_caller)
            if on_caller == (stream == "caller"):
                failed.set()
                raise RuntimeError(f"chunk failed on the {stream}")
            if stream == "helper":     # hold the caller until the helper has failed
                failed.wait(timeout=30)
            return real(*args, **kwargs)

        def run():
            caller.append(threading.get_ident())
            try:
                render_image(ws, config)
            except RuntimeError as exc:
                result["error"] = exc

        monkeypatch.setattr(render, "render_rays", chunk)
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert str(result["error"]) == f"chunk failed on the {stream}"
        assert calls.count(stream == "caller") == 1
        assert len(calls) < 16     # of 32 chunks: the queue stopped at the failure

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("mode, k_coarse, k_fine, chunk, task", _CHUNK_RULE,
                             ids=["-".join(map(str, row[:4])) for row in _CHUNK_RULE])
    def test_chunk_rule(self, ring_scene, gt_views, monkeypatch,
                        mode, k_coarse, k_fine, chunk, task, threads):
        """A chunk holds at most 128 rays and 8192 (ray, sample) pairs. The
        64 x 64 image is cut into tasks, the same for every thread count, on
        as many streams as there are threads: a task is one chunk, or
        coarse-to-fine ``max(chunk, 3072 // k_fine)`` rays, whose coarse pass
        runs chunk by chunk and whose fine pass runs once."""
        ws = working_set_for(ring_scene, gt_views, 0, n_working=2)
        config = RenderConfig(k_coarse=k_coarse, k_fine=k_fine, mode=mode, threads=threads,
                              background=tuple(ring_scene.background))
        real_rays, real_forward, run_streams = (render.render_rays, render._chunk_forward,
                                                render._run_streams)
        sizes, coarse, streams = [], [], []

        def task_size(working, origins, *args, **kwargs):
            sizes.append(len(origins))
            return real_rays(working, origins, *args, **kwargs)

        def coarse_size(working, origins, *args, with_colors=True, **kwargs):
            if not with_colors:
                coarse.append(len(origins))
            return real_forward(working, origins, *args, with_colors=with_colors, **kwargs)

        def recording_run_streams(n_tasks, run, n_streams):
            streams.append(n_streams)
            run_streams(n_tasks, run, n_streams)

        monkeypatch.setattr(render, "render_rays", task_size)
        monkeypatch.setattr(render, "_chunk_forward", coarse_size)
        monkeypatch.setattr(render, "_run_streams", recording_run_streams)
        render_image(ws, config)

        def cut(n, size):
            return list(np.diff(np.append(np.arange(0, n, size), n)))

        tasks = cut(64 * 64, task)
        assert sorted(sizes) == sorted(tasks) and streams == [threads]
        slices = [s for t in tasks for s in cut(t, chunk)] if mode == "coarse_to_fine" else []
        assert sorted(coarse) == sorted(slices)

    @pytest.mark.parametrize("k_coarse, k_fine", [(32, 8), (48, 16), (8, 3), (16, 0)])
    def test_tasks_match_chunk_by_chunk(self, ring_scene, gt_views, k_coarse, k_fine):
        """Coarse-to-fine tasks of several chunks render the image and count
        the CDF evaluations, SH fits and color samples of ``render_rays``
        called chunk by chunk, bit for bit, on 1, 2 and 3 streams."""
        ws = working_set_for(ring_scene, gt_views, 0, n_working=4)
        config = RenderConfig(k_coarse=k_coarse, k_fine=k_fine, mode="coarse_to_fine",
                              background=tuple(ring_scene.background))
        cam = ws.query_camera
        ys, xs = np.indices((cam.height, cam.width)) + 0.5
        dirs, _ = cam.rays_for_pixels(np.stack([xs, ys], axis=-1).reshape(-1, 2))
        origins = np.broadcast_to(cam.center, dirs.shape)
        chunk = min(128, 8192 // (k_coarse + k_fine))

        def counts():
            snap = counters.snapshot()
            return snap.cdf_evals, snap.sh_fits, snap.color_samples

        counters.reset()
        colors = [render_rays(ws, origins[s:s + chunk], dirs[s:s + chunk], config)[0]
                  for s in range(0, len(dirs), chunk)]
        reference = np.clip(np.concatenate(colors).reshape(cam.height, cam.width, 3), 0.0, 1.0)
        expected = counts()
        assert expected[0] > 0 and (expected[1] > 0) == (k_fine > 0)
        for threads in (1, 2, 3):
            counters.reset()
            image = render_image(ws, replace(config, threads=threads))
            assert np.array_equal(image, reference) and counts() == expected

    def test_stream_ceiling(self, ring_scene, gt_views, monkeypatch):
        """However many threads are asked for, and however many chunks a large
        image has, ``render_image`` starts at most 128 streams: the caller and
        127 helper threads (stubs that start nothing, so the caller renders
        every chunk, here with a stand-in for ``render_rays``)."""
        ws = working_set_for(ring_scene, gt_views, 0, n_working=2)
        cam = ws.query_camera
        ws.query_camera = PinholeCamera(1024, 1024, 800.0, 800.0, 512.0, 512.0,
                                        cam.rotation, cam.translation)
        config = RenderConfig(k_coarse=64, threads=10**6)
        helpers, sizes = unstarted_threads(monkeypatch), []

        def blank(working, origins, dirs, config):
            sizes.append(len(origins))
            return np.zeros((len(origins), 3)), None, None

        monkeypatch.setattr(render, "render_rays", blank)
        render_image(ws, config)
        assert len(helpers) == 127 and sizes == [128] * (1024 * 1024 // 128)

    def test_run_streams_ceiling(self, monkeypatch):
        """The stream runner caps the streams itself, so training's chunks and
        map tasks get the ceiling too: 1000 tasks asked on 10**6 streams
        construct 127 helper threads (stubs that start nothing), and the
        caller runs every task."""
        helpers, ran = unstarted_threads(monkeypatch), []
        render._run_streams(1000, ran.append, 10**6)
        assert len(helpers) == 127 and ran == list(range(1000))

    def test_interrupt_outside_a_task_stops_the_queue(self, monkeypatch):
        """A KeyboardInterrupt that lands in the caller outside its tasks, here
        in its wait for the queue's lock while the helper runs a task, stops
        the queue: the interrupt is raised, and the helper starts no other
        task."""
        caller, running = threading.current_thread(), set(threading.enumerate())
        helper_busy, caller_done, stopped = (threading.Event() for _ in range(3))
        started, interrupts = [], []

        class InterruptedLock:
            """The queue's lock. The caller's first wait after its task is
            interrupted; its next release, once it has stopped the queue,
            lets the helper finish its task."""

            def __init__(self):
                self.lock = threading.Lock()

            def __enter__(self):
                if threading.current_thread() is caller and caller_done.is_set() and not interrupts:
                    interrupts.append(KeyboardInterrupt())
                    raise interrupts[0]
                self.lock.acquire()

            def __exit__(self, *exc):
                self.lock.release()
                if threading.current_thread() is caller and interrupts:
                    stopped.set()

        def task(i):
            started.append(i)
            if threading.current_thread() is caller:
                assert helper_busy.wait(10)
                caller_done.set()
            else:
                helper_busy.set()
                stopped.wait(5)     # the helper is busy until the queue stops

        monkeypatch.setattr(render, "threading",
                            SimpleNamespace(Lock=InterruptedLock, Thread=threading.Thread))
        with pytest.raises(KeyboardInterrupt) as raised:
            render._run_streams(6, task, 2)
        for helper in set(threading.enumerate()) - running:
            helper.join()
        assert raised.value is interrupts[0] and sorted(started) == [0, 1]

    @pytest.mark.parametrize("mode", ["uniform", "coarse_to_fine"])
    def test_value_only_path_matches_kept_path(self, ring_scene, gt_views, mode):
        """Without ``keep_state`` the CDF kernel overwrites its standardized
        depths in place; the values must equal those of the state-keeping path."""
        ws = working_set_for(ring_scene, gt_views, 0)
        cam = ring_scene.cameras[0]
        px = np.random.default_rng(17).uniform(0, 64, size=(300, 2))
        dirs, _ = cam.rays_for_pixels(px)
        origins = np.broadcast_to(cam.center, dirs.shape)
        config = RenderConfig(k_coarse=32, k_fine=8, mode=mode,
                              background=tuple(ring_scene.background))
        colors, value_only, rays = render_rays(ws, origins, dirs, config)
        kept_colors, kept, kept_rays = render_rays(ws, origins, dirs, config, keep_state=True)
        assert value_only.cdf_a is None and kept.cdf_a is not None
        assert np.any(kept.h_hat > 0.01)
        assert np.array_equal(colors, kept_colors) and np.array_equal(rays, kept_rays)
        for name in ("colors_out", "h_hat", "alpha_hat"):
            assert np.array_equal(getattr(value_only, name), getattr(kept, name))

    def test_repeated_calls_identical(self, ring_scene, gt_views):
        ws = working_set_for(ring_scene, gt_views, 0)
        config = RenderConfig(k_coarse=32, background=tuple(ring_scene.background))
        assert np.array_equal(render_image(ws, config), render_image(ws, config))

    def test_dimension_mismatch_rejected(self, ring_scene, gt_views):
        v = gt_views[1]
        with pytest.raises(DimensionMismatchError):
            RenderView(1, v.camera, v.dmap, np.zeros((32, 32, 3)))
        small = DistributionMap(1, np.zeros((32, 32, 3, 2)))
        with pytest.raises(DimensionMismatchError):
            RenderView(1, v.camera, small, v.image)

    def test_hit_prob_mass_bounded(self, ring_scene, gt_views):
        ws = working_set_for(ring_scene, gt_views, 0)
        cam = ring_scene.cameras[0]
        ys, xs = np.meshgrid(np.arange(0, 64, 7) + 0.5, np.arange(0, 64, 7) + 0.5,
                             indexing="ij")
        px = np.stack([xs, ys], -1).reshape(-1, 2)
        dirs, _ = cam.rays_for_pixels(px)
        origins = np.broadcast_to(cam.center, dirs.shape)
        colors, state, _ = render_rays(
            ws, origins, dirs,
            RenderConfig(k_coarse=64, background=tuple(ring_scene.background)),
        )
        mass = state.h_hat.sum(axis=-1)
        assert np.all(mass <= 1 + 1e-9)
        assert np.all(colors >= -1e-12)


class TestChunkMemory:
    """Traced peak bytes of one ``render_rays`` call per (ray, sample) pair,
    on the ring with query view 1 and 8 working views, from pixel row 28
    on: 64 rays x 128 uniform samples, and 128 and 384 rays x (32 + 8)
    coarse-to-fine samples. The first is the chunk ``render_image`` renders
    uniformly and the third the task it renders at 32 + 8, at every thread
    count, so each bound times the call's pairs is one stream's traced
    peak. The second is one coarse slice with its fine pass: what a
    training chunk renders.

    Measured with Python 3.11 and NumPy 2.4; another NumPy may allocate
    its temporaries differently. The old forward held every temporary to
    the end of its stage, gathered from a decoded stack that was not
    contiguous (so each ``np.take`` copied all of it) and assembled the SH
    system with ``np.block``: 1587 bytes per pair uniform, 1114
    coarse-to-fine. Freeing each temporary at its last use and building
    the SH system in place brought them to 880 and 602. The bounds of
    these two are those values plus 10%, so two more float64 per (ray,
    sample, view) entry alive at the peak fail them. The 384-ray task
    peaks in its fine pass's SH system at 397 bytes per pair (about 2.1 KB
    per fine sample), after the system's kernel cosines and off-diagonal
    products were freed at their last use and its directions and weights
    were built batch last; its bound is that plus 10%.
    """

    @pytest.mark.parametrize("mode, rays, samples, bound", [
        ("uniform", 64, 128, 968),
        ("coarse_to_fine", 128, 40, 662),
        ("coarse_to_fine", 384, 40, 437),
    ])
    def test_peak_bytes_per_pair(self, ring_scene, gt_views, mode, rays, samples, bound):
        import tracemalloc

        ws = working_set_for(ring_scene, gt_views, 1)
        assert ws.decoded.flags.c_contiguous
        config = RenderConfig(k_coarse=samples - 8 if mode == "coarse_to_fine" else samples,
                              k_fine=8, mode=mode, background=tuple(ring_scene.background))
        cam = ring_scene.cameras[1]
        px = np.stack(np.divmod(np.arange(28 * 64, 28 * 64 + rays), 64)[::-1], axis=1) + 0.5
        dirs, _ = cam.rays_for_pixels(px)
        origins = np.broadcast_to(cam.center, dirs.shape)
        render_rays(ws, origins, dirs, config)
        tracemalloc.start()
        try:
            render_rays(ws, origins, dirs, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (rays * samples) <= bound

    def test_backward_peak_below_one_gradient_stack(self, ring_scene, gt_views):
        """A 16-ray chunk of the benchmark's ``train`` settings (uniform k=48,
        degree 2, 8 working views) runs its backward in less traced memory
        than one (J·H·W, 3, n) float64 stack: it returns the hit cells' rows
        and allocates nothing stack-sized. Measured at 1.17 MB against the
        stack's 1.57 MB."""
        import tracemalloc

        ws = working_set_for(ring_scene, gt_views, 1)
        config = RenderConfig(k_coarse=48, sh_degree=2, background=tuple(ring_scene.background))
        cam = ring_scene.cameras[1]
        px = np.stack(np.divmod(np.arange(28 * 64 + 24, 28 * 64 + 40), 64)[::-1], axis=1) + 0.5
        dirs, _ = cam.rays_for_pixels(px)
        _, state, _ = render_rays(ws, np.broadcast_to(cam.center, dirs.shape), dirs, config,
                                  keep_state=True)
        dc_o = np.random.default_rng(3).normal(size=(16, 3))
        tracemalloc.start()
        try:
            cells, rows = render_rays_backward(ws, state, config, dc_o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cells) > 0 and np.all(np.diff(cells) > 0)
        assert rows.shape == (3, ws.decoded.shape[1], len(cells))
        assert peak < ws.decoded.size * 8


class TestDualFormCache:
    def test_one_kernel_expansion_per_render(self, ring_scene, gt_views, monkeypatch):
        """The SH kernel depends only on the degree, so a render expands it
        once, not once per chunk, and later renders of the same degree reuse
        it; the shared array refuses writes."""
        from rayvis import shcolor

        expand, calls = np.polynomial.legendre.leg2poly, []

        def counting_expand(c):
            calls.append(len(c))
            return expand(c)

        monkeypatch.setattr(np.polynomial.legendre, "leg2poly", counting_expand)
        shcolor.sh_dual_form.cache_clear()
        ws = working_set_for(ring_scene, gt_views, 2)
        render_image(ws, RenderConfig(k_coarse=8, sh_degree=2, threads=1))
        assert calls == [3]
        render_image(ws, RenderConfig(k_coarse=8, sh_degree=2, threads=2))
        assert calls == [3]
        kernel = shcolor.sh_dual_form(2)
        assert calls == [3]
        with pytest.raises(ValueError, match="read-only"):
            kernel[0] = 1


class TestPsnr:
    def test_known_mse(self):
        a = np.zeros((4, 4, 3))
        b = np.full((4, 4, 3), 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    def test_identical_capped(self):
        a = np.random.default_rng(0).uniform(size=(4, 4, 3))
        assert psnr(a, a.copy()) == 99.0

    def test_opposite_extremes(self):
        assert psnr(np.zeros((2, 2, 3)), np.ones((2, 2, 3))) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            psnr(np.zeros((2, 2, 3)), np.zeros((3, 2, 3)))
