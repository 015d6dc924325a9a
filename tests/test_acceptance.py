"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output of failures) and asserts the criterion at its stated
tolerance. Run with::

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np

from rayvis.camera import generate_ray
from rayvis.counters import counters
from rayvis.optim import (
    OptimState,
    SceneData,
    TrainConfig,
    adam_step,
    consistency_loss,
    depth_loss,
    evaluate_holdout,
    init_from_depth,
    own_hit_probs,
    own_hit_probs_backward,
    render_loss,
    train_step,
    view_grads,
)
from rayvis.raydist import (
    DensityProfile,
    DistributionMap,
    RawRayParams,
    decode,
    decode_arrays,
    density_visibility_oracle,
    grad_cdf,
    hit_prob_interval,
    input_ray_alpha,
    occlusion_cdf,
    visibility,
)
from rayvis.render import (
    RenderConfig,
    RenderView,
    psnr,
    render_image,
    render_rays,
    render_rays_backward,
    select_working_views,
)
from rayvis.scene import intersect, perturb_depth
from rayvis.shcolor import (
    SHBasis,
    SHCoefficients,
    SHRegularizer,
    WeightedColorSample,
    sh_color,
    sh_eval,
    sh_fit,
)

NEAR, FAR = 1.2, 5.4


def report(line):
    print(f"\nACCEPTANCE {line}")


def working_set(gt_views, ring_scene, query_index, n_working=8):
    views = [v for i, v in sorted(gt_views.items()) if i != query_index]
    return select_working_views(
        views, ring_scene.cameras[query_index], n_working,
        ring_scene.near, ring_scene.far, query_index=query_index,
    )


class TestCriterion1Validity:
    def test_distribution_validity_suite(self):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        grid = np.linspace(NEAR, FAR, 256)
        open_checked = 0
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            raw = RawRayParams(*rng.normal(0, 2.0, size=(3, n)))
            mix = decode(raw, (NEAR, FAR))
            assert abs(mix.weights.sum() - 1.0) <= 1e-9
            t = occlusion_cdf(mix, grid)
            assert np.all(np.diff(t) >= 0)
            v = 1.0 - t
            assert np.all(v >= 0) and np.all(v <= 1)
            # the open interval holds analytically; in float64 the sigmoid
            # saturates to exactly 0/1 beyond |x| ~ 36, so assert strict
            # bounds wherever every component stays representable
            x = np.abs(grid[:, None] - mix.means) / mix.scales
            rep = np.all(x < 36.0, axis=1)
            if np.any(rep):
                assert np.all(v[rep] > 0) and np.all(v[rep] < 1)
                open_checked += int(rep.sum())
            h = hit_prob_interval(mix, grid[:-1], grid[1:])
            assert abs(h.sum() - (t[-1] - t[0])) <= 1e-12
        elapsed = time.perf_counter() - start
        assert open_checked > 10_000
        assert elapsed < 5.0
        report(f"1 distribution validity: 1000 random rays OK in {elapsed:.2f}s PASS")


class TestCriterion2Gradients:
    REL_TOL = 1e-4
    GATE = 1e-6
    STEP = 1e-5

    def _guarded_check(self, objective, setter, old, analytic, base=None):
        """Compare against central differences where they are a valid oracle.

        Central differences at a fixed step only estimate the derivative to
        the required 1e-4 where the function is locally linear enough; when
        the one-sided slopes disagree (a gating boundary or strong
        curvature from near-floor scales inside the step) the comparison is
        skipped. Returns 1 when a comparison was made, else 0.
        """
        setter(old + self.STEP)
        plus = objective()
        setter(old - self.STEP)
        minus = objective()
        setter(old + 10 * self.STEP)
        plus_big = objective()
        setter(old - 10 * self.STEP)
        minus_big = objective()
        setter(old)
        f0 = objective() if base is None else base
        left = (f0 - minus) / self.STEP
        right = (plus - f0) / self.STEP
        if abs(left - right) > 1e-2 * max(abs(left), abs(right), self.GATE):
            return 0
        fd = (plus - minus) / (2 * self.STEP)
        fd_big = (plus_big - minus_big) / (20 * self.STEP)
        # Richardson consistency: only trust the estimate where two step
        # sizes agree to better than the tolerance being asserted
        if abs(fd - fd_big) > 0.5 * self.REL_TOL * max(abs(fd), abs(fd_big)):
            return 0
        if abs(analytic) > self.GATE and abs(fd) > self.GATE:
            assert abs(analytic - fd) / abs(fd) < self.REL_TOL, (analytic, fd)
            return 1
        return 0

    def test_gradient_oracle(self, ring_scene, ring_ground_truth):
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        configs = 0
        checked = 0

        # occlusion CDF w.r.t. every raw parameter
        for _ in range(150):
            n = int(rng.integers(1, 4))
            flat = rng.normal(0, 1.5, size=3 * n)
            z = rng.uniform(NEAR, FAR)
            grad = grad_cdf(RawRayParams.from_array(flat.reshape(3, n)), z, (NEAR, FAR))

            def t_objective():
                mix = decode(RawRayParams.from_array(flat.reshape(3, n)), (NEAR, FAR))
                return float(occlusion_cdf(mix, z))

            for i in range(flat.size):
                def setter(v, i=i):
                    flat[i] = v

                checked += self._guarded_check(t_objective, setter, flat[i], grad[i])
            configs += 1

        # interval alpha via its chain over the CDF gradients; configs on
        # the saturation clamp are skipped (the alpha is constant there)
        alpha_configs = 0
        while alpha_configs < 100:
            n = int(rng.integers(1, 3))
            flat = rng.normal(0, 1.5, size=3 * n)
            raw = RawRayParams.from_array(flat.reshape(3, n))
            z0, z1 = np.sort(rng.uniform(NEAR, FAR, size=2))
            mix = decode(raw, (NEAR, FAR))
            t0, t1 = occlusion_cdf(mix, z0), occlusion_cdf(mix, z1)
            if t0 > 0.999:
                continue
            alpha_configs += 1
            grad = (
                grad_cdf(raw, z0, (NEAR, FAR)) * (t1 - 1.0) / (1.0 - t0) ** 2
                + grad_cdf(raw, z1, (NEAR, FAR)) / (1.0 - t0)
            )

            def alpha_objective():
                mix = decode(RawRayParams.from_array(flat.reshape(3, n)), (NEAR, FAR))
                return float(input_ray_alpha(mix, z0, z1))

            for i in range(flat.size):
                def setter(v, i=i):
                    flat[i] = v

                checked += self._guarded_check(alpha_objective, setter, flat[i], grad[i])
            configs += 1

        # blended alphas, hitting probabilities and output colors through
        # the full pipeline on tiny random view sets
        from rayvis.camera import look_at_camera

        for case in range(60):
            crng = np.random.default_rng(1000 + case)
            views = []
            for j, ang in enumerate(crng.uniform(0, 2 * np.pi, size=3)):
                eye = 3.0 * np.array([np.cos(ang), 0.25, np.sin(ang)])
                cam = look_at_camera(6, 6, 7.0, 7.0, 3.0, 3.0, eye, (0, 0, 0))
                views.append(
                    RenderView(j, cam, DistributionMap(j, crng.normal(0, 1.0, size=(6, 6, 3, 2))),
                               crng.uniform(0, 1, size=(6, 6, 3)))
                )
            qcam = look_at_camera(6, 6, 7.0, 7.0, 3.0, 3.0,
                                  3.2 * np.array([np.cos(0.5 + case), 0.3, np.sin(0.5 + case)]),
                                  (0, 0, 0))
            ws = select_working_views(views, qcam, 3, 1.0, 5.0)
            config = RenderConfig(k_coarse=6, mode="uniform", n_working=3,
                                  background=(0.2, 0.3, 0.4), sh_degree=1)
            px = crng.uniform(1.5, 4.5, size=(2, 2))
            dirs, _ = qcam.rays_for_pixels(px)
            origins = np.broadcast_to(qcam.center, dirs.shape)
            state = render_rays(ws, origins, dirs, config, keep_state=True)
            gt = crng.uniform(0, 1, size=(2, 3))
            if case % 2 == 0:
                # render-loss objective exercises c_o and the color chain
                value, g = render_loss(state.colors_out, gt)
                dc_o, dh = g, None

                def objective():
                    st = render_rays(
                        select_working_views(views, qcam, 3, 1.0, 5.0),
                        origins, dirs, config,
                    )
                    return render_loss(st.colors_out, gt)[0]
            else:
                # a random linear functional of the hitting probabilities
                # exercises the alpha blending chain in isolation
                u = crng.normal(size=state.h_hat.shape)
                dc_o = np.zeros_like(state.colors_out)
                dh = u

                def objective():
                    st = render_rays(
                        select_working_views(views, qcam, 3, 1.0, 5.0),
                        origins, dirs, config,
                    )
                    return float(np.sum(st.h_hat * u))

            grads = view_grads(ws, [render_rays_backward(ws, state, config, dc_o, dh)])
            base = objective()
            for view in views:
                g = grads[view.index]
                picks = np.argwhere(np.abs(g) > self.GATE)
                if len(picks) == 0:
                    continue
                for idx in picks[:: max(1, len(picks) // 6)]:
                    idx = tuple(idx)

                    def setter(v, params=view.dmap.params, idx=idx):
                        params[idx] = v

                    checked += self._guarded_check(
                        objective, setter, view.dmap.params[idx], g[idx], base=base
                    )
            configs += 1

        # consistency loss through a ray's own distribution
        from rayvis.camera import look_at_camera as lac

        cam = lac(4, 4, 4.0, 4.0, 2.0, 2.0, (0, 0, -3), (0, 0, 1))
        for case in range(100):
            crng = np.random.default_rng(2000 + case)
            dmap = DistributionMap(0, crng.normal(0, 1.0, size=(4, 4, 3, 2)))
            pixels = np.array([[crng.integers(4), crng.integers(4)]])
            k = 6
            z = np.linspace(1.0, 5.0, k + 1)[:k][None, :]
            widths = np.full((1, k), 4.0 / k)
            target = crng.uniform(0.0, 0.3, size=(1, k))
            zfac = cam.rays_for_pixels(pixels[:, ::-1] + 0.5)[1]
            h_tilde, back = own_hit_probs(dmap, zfac, pixels, z, widths, 1.0, 5.0)
            _, g_tilde, _ = consistency_loss(h_tilde, target)
            grad = own_hit_probs_backward(dmap, pixels, back, g_tilde, 1.0, 5.0)

            def consist_objective():
                h, _ = own_hit_probs(dmap, zfac, pixels, z, widths, 1.0, 5.0)
                return consistency_loss(h, target)[0]

            for idx in np.argwhere(np.abs(grad) > self.GATE)[:4]:
                idx = tuple(idx)

                def setter(v, params=dmap.params, idx=idx):
                    params[idx] = v

                checked += self._guarded_check(
                    consist_objective, setter, dmap.params[idx], grad[idx]
                )
            configs += 1

        # depth loss through the decode
        from rayvis.scene import DepthMap

        for case in range(100):
            crng = np.random.default_rng(3000 + case)
            dmap = DistributionMap(0, crng.normal(0, 1.0, size=(4, 4, 3, 2)))
            depth = DepthMap(crng.uniform(1.5, 4.5, size=(4, 4)), 1.0, 5.0, 4.0)
            pixels = np.array([[crng.integers(4), crng.integers(4)]])
            _, grad = depth_loss(dmap, depth, pixels)

            def depth_objective():
                return depth_loss(dmap, depth, pixels)[0]

            for idx in np.argwhere(np.abs(grad) > self.GATE)[:3]:
                idx = tuple(idx)

                def setter(v, params=dmap.params, idx=idx):
                    params[idx] = v

                checked += self._guarded_check(
                    depth_objective, setter, dmap.params[idx], grad[idx]
                )
            configs += 1

        elapsed = time.perf_counter() - start
        assert configs >= 500
        assert checked >= 2000
        assert elapsed < 60.0
        report(
            f"2 gradient oracle: {checked} gradients on {configs} configs "
            f"within {self.REL_TOL} in {elapsed:.1f}s PASS"
        )


class TestCriterion3ShFit:
    def test_sh_fit_oracle(self):
        rng = np.random.default_rng(303)
        basis = SHBasis(3)
        reg = SHRegularizer()

        def brute_force(samples):
            nb = basis.basis_size
            a = np.zeros((nb, nb))
            rhs = np.zeros((nb, 3))
            for s in samples:
                row = sh_eval(basis, s.direction)
                a += s.weight * np.outer(row, row)
                rhs += s.weight * np.outer(row, s.color)
            a += np.diag(reg.diagonal(basis))
            return np.linalg.solve(a, rhs)

        dirs = rng.normal(size=(40, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        samples = [
            WeightedColorSample(d, rng.uniform(0, 1, 3), float(w))
            for d, w in zip(dirs, rng.uniform(0, 1, 40))
        ]
        theta = sh_fit(samples, basis, reg).values
        assert np.max(np.abs(theta - brute_force(samples))) < 1e-8

        # exactly representable degree-2 target, unregularized
        true = rng.uniform(-0.4, 0.8, size=(9, 3))
        from rayvis.shcolor import sh_basis_values

        dirs2 = rng.normal(size=(20, 3))
        dirs2 /= np.linalg.norm(dirs2, axis=1, keepdims=True)
        samples2 = [WeightedColorSample(d, sh_basis_values(2, d) @ true, 1.0) for d in dirs2]
        fitted = sh_fit(samples2, SHBasis(2), SHRegularizer((0.0, 0.0, 0.0)))
        for d in dirs2:
            assert np.max(np.abs(sh_color(fitted, d) - sh_basis_values(2, d) @ true)) < 1e-6

        # zero-weight outliers leave the output unchanged
        outliers = [
            WeightedColorSample(d, (500.0, -200.0, 80.0), 0.0)
            for d in dirs2[:5]
        ]
        theta_b = sh_fit(samples + outliers, basis, reg).values
        probe = dirs2[7]
        va = sh_color(SHCoefficients(theta), probe)
        vb = sh_color(SHCoefficients(theta_b), probe)
        assert np.max(np.abs(theta - theta_b)) < 1e-12
        assert np.max(np.abs(va - vb)) < 1e-12
        report("3 SH fit oracle: dense solve 1e-8, degree-2 exact 1e-6, "
               "occlusion exclusion 1e-12 PASS")


class TestCriterion4Occlusion:
    def test_visibility_agreement(self, ring_scene, gt_views):
        rng = np.random.default_rng(404)
        scene = ring_scene
        n_probes = 10_000
        offset = 0.025 * scene.scene_scale

        # probes: surface hits of random reference rays, pushed off the
        # surface along the normal (outside -> visible, inside -> occluded)
        points, normals = [], []
        while len(points) < n_probes // 2:
            view = int(rng.integers(len(scene.cameras)))
            cam = scene.cameras[view]
            px = (rng.uniform(0, cam.width), rng.uniform(0, cam.height))
            ray = generate_ray(cam, px)
            hit = intersect(scene, ray)
            if hit is None:
                continue
            depth, normal, _ = hit
            points.append(ray.point_at(depth))
            normals.append(normal)
        points = np.asarray(points)
        normals = np.asarray(normals)
        probes = np.concatenate([points + offset * normals, points - offset * normals])

        ws = working_set(gt_views, scene, 0, n_working=8)
        agree = total = 0
        eps = 1e-4 * scene.scene_scale
        for view in ws.views:
            cam = view.camera
            pc = probes @ cam.rotation.T + cam.translation
            z = pc[:, 2]
            with np.errstate(divide="ignore", invalid="ignore"):
                u = cam.fx * pc[:, 0] / z + cam.cx
                v = cam.fy * pc[:, 1] / z + cam.cy
            in_view = (z > 0) & (u >= 0) & (u < cam.width) & (v >= 0) & (v < cam.height)
            # predicted visibility from the view's distribution map
            ix = np.clip(np.floor(u).astype(int), 0, cam.width - 1)
            iy = np.clip(np.floor(v).astype(int), 0, cam.height - 1)
            mu, sig, w = decode_arrays(view.dmap.params[iy, ix], ws.near, ws.far)
            from scipy.special import expit

            t = np.sum(w * expit((z[:, None] - mu) / sig), axis=-1)
            predicted = (1.0 - t) >= 0.5
            # geometric oracle, batched: nearest hit along the segment
            center = cam.center
            offs = probes - center
            dist = np.linalg.norm(offs, axis=1)
            dirs = offs / dist[:, None]
            t_hit, _, _, hit_mask = scene.intersect_rays(
                np.broadcast_to(center, probes.shape), dirs
            )
            oracle = ~hit_mask | (t_hit >= dist - eps)
            agree += int(np.sum((predicted == oracle) & in_view))
            total += int(in_view.sum())
        rate = agree / total
        assert total >= n_probes
        assert rate >= 0.99

        # axial probes: decisive visibility on both sides of the surface
        cam = scene.cameras[0]
        ray = generate_ray(cam, (cam.width / 2, cam.height / 2))
        depth, _, _ = intersect(scene, ray)
        sigma = 0.005 * (scene.far - scene.near)
        from rayvis.render import query_visibility

        axial_ws = select_working_views(
            [gt_views[0]], scene.cameras[8], 1, scene.near, scene.far
        )
        front = query_visibility(axial_ws, ray.point_at(depth - 5 * sigma))[0]
        behind = query_visibility(axial_ws, ray.point_at(depth + 1.0))[0]
        assert front > 0.95
        assert behind < 0.05
        report(
            f"4 occlusion correctness: {rate * 100:.2f}% agreement on "
            f"{total} probe-view pairs ({len(probes)} probes), axial "
            f"front={front:.3f} behind={behind:.3f} PASS"
        )


class TestCriterion5Render:
    def test_held_out_psnr(self, ring_scene, gt_views, ring_ground_truth):
        images, _ = ring_ground_truth
        start = time.perf_counter()
        ws = working_set(gt_views, ring_scene, 0, n_working=8)
        config = RenderConfig(
            k_coarse=128, mode="uniform", n_working=8,
            background=tuple(ring_scene.background), sh_degree=3,
        )
        image = render_image(ws, config)
        value = psnr(image, images[0])
        elapsed = time.perf_counter() - start
        assert value >= 25.0
        assert elapsed < 120.0
        report(
            f"5 end-to-end render: held-out view 0 PSNR {value:.2f} dB "
            f"(>= 25) in {elapsed:.1f}s PASS"
        )


class TestCriterion6Optimization:
    def test_training_improves_noisy_geometry(self, ring_scene, ring_ground_truth):
        images, depths = ring_ground_truth
        start = time.perf_counter()
        eval_views = [0, 8]
        refs = [i for i in range(16) if i not in eval_views]
        noisy = {i: perturb_depth(depths[i], 0.02, 100 + i) for i in refs}
        maps = {i: init_from_depth(noisy[i], 0.01, 2, view=i) for i in refs}
        data = SceneData(
            cameras={i: ring_scene.cameras[i] for i in range(16)},
            images={i: images[i] for i in refs},
            maps=maps,
            depths=noisy,
            near=ring_scene.near,
            far=ring_scene.far,
        )
        holdout = {i: (ring_scene.cameras[i], images[i]) for i in eval_views}
        # acceptance training configuration: default batch and loss
        # weights, desk-scale sample count and learning rate
        config = TrainConfig(
            steps=2000, seed=0, background=tuple(ring_scene.background),
            lambda_render=1.0, lambda_consist=0.25, lambda_depth=0.1,
            learning_rate=2e-3, sh_degree=2, k_samples=48,
        )
        state = OptimState(learning_rate=config.learning_rate)
        rng = np.random.default_rng(config.seed)
        init_psnr = evaluate_holdout(data, holdout, config, k_eval=64)
        consist = []
        for _ in range(config.steps):
            rep = train_step(data, config, state, rng)
            consist.append(rep.consistency_loss)
        final_psnr = evaluate_holdout(data, holdout, config, k_eval=64)
        elapsed = time.perf_counter() - start

        consist = np.asarray(consist)
        early = consist[:100].mean()
        late = consist[-100:].mean()
        assert final_psnr >= init_psnr + 1.0
        assert late < early
        assert elapsed < 600.0
        report(
            f"6 optimization: held-out PSNR {init_psnr:.2f} -> {final_psnr:.2f} dB "
            f"(>= +1), consistency loss {early:.3f} -> {late:.3f}, "
            f"{elapsed:.0f}s PASS"
        )

    def test_memorization_total_variation(self):
        """Sub-test: consistency-only descent matches a frozen target."""
        from rayvis.camera import look_at_camera
        from rayvis.scene import DepthMap

        near, far = 1.0, 5.0
        k = 32
        z = np.linspace(near, far, k + 1)[:k][None, :]
        widths = np.full((1, k), (far - near) / k)
        h_target = np.full((1, k), 1e-4)
        h_target[0, 12] = 0.97
        cam = look_at_camera(2, 2, 2, 2, 1, 1, (0, 0, 0), (0, 0, 1))
        zfac = cam.rays_for_pixels(np.array([0.5, 0.5]))[1]
        wrong = (z[0, 15] + 0.06) * zfac
        dmap = init_from_depth(DepthMap(np.full((2, 2), wrong), near, far, far - near),
                               0.05, 2)
        pixels = np.array([[0, 0]])
        own_zfac = cam.rays_for_pixels(pixels[:, ::-1] + 0.5)[1]
        state = OptimState(learning_rate=2e-2)
        for _ in range(200):
            h_tilde, back = own_hit_probs(dmap, own_zfac, pixels, z, widths, near, far)
            _, g_tilde, _ = consistency_loss(h_tilde, h_target)
            grad = own_hit_probs_backward(dmap, pixels, back, g_tilde, near, far)
            adam_step(state, {0: dmap.params}, {0: grad})
        h_tilde, _ = own_hit_probs(dmap, own_zfac, pixels, z, widths, near, far)
        tv = 0.5 * float(np.abs(h_tilde - h_target).sum())
        assert tv < 0.05
        report(f"6 memorization sub-test: TV(h_own, h_frozen) = {tv:.4f} (< 0.05) PASS")


class TestCriterion7Speedup:
    def test_coarse_to_fine_counters(self, ring_scene, ring_ground_truth):
        images, depths = ring_ground_truth
        # benchmark maps use a wider init so surface windows span more
        # uniform-mode bins; both modes share the same maps
        maps = {i: init_from_depth(depths[i], 0.01, 2, view=i) for i in range(16)}
        views = [
            RenderView(i, ring_scene.cameras[i], maps[i], images[i])
            for i in range(16) if i != 0
        ]
        ws = select_working_views(
            views, ring_scene.cameras[0], 8, ring_scene.near, ring_scene.far,
            query_index=0,
        )
        bg = tuple(ring_scene.background)

        counters.reset()
        t0 = time.perf_counter()
        uniform = render_image(ws, RenderConfig(k_coarse=128, mode="uniform",
                                                n_working=8, background=bg))
        uniform_time = time.perf_counter() - t0
        uniform_fits = counters.snapshot().sh_fits

        counters.reset()
        t0 = time.perf_counter()
        fast = render_image(ws, RenderConfig(k_coarse=32, k_fine=8,
                                             mode="coarse_to_fine",
                                             n_working=8, background=bg))
        fast_time = time.perf_counter() - t0
        fast_fits = counters.snapshot().sh_fits

        gt = images[0]
        psnr_uniform = psnr(uniform, gt)
        psnr_fast = psnr(fast, gt)
        ratio = uniform_fits / max(fast_fits, 1)
        assert ratio >= 4.0
        assert abs(psnr_uniform - psnr_fast) <= 1.0
        # wall clock is reported, never asserted
        report(
            f"7 speedup trend: SH fits {uniform_fits} -> {fast_fits} "
            f"(ratio {ratio:.1f}x >= 4), PSNR {psnr_uniform:.2f} vs {psnr_fast:.2f} "
            f"(|gap| <= 1 dB), wall clock {uniform_time:.2f}s -> {fast_time:.2f}s "
            f"({uniform_time / fast_time:.1f}x, reported only) PASS"
        )


class TestCriterion8Complexity:
    def test_visibility_query_cost(self):
        k_r = 32
        knots = np.linspace(NEAR, FAR, k_r + 1)
        profile = DensityProfile(knots, np.full(k_r, 0.4))
        counters.reset()
        density_visibility_oracle(profile, FAR)
        density_evals = counters.snapshot().density_evals
        counters.reset()
        mix = decode(RawRayParams(np.zeros(2), np.zeros(2), np.zeros(2)), (NEAR, FAR))
        visibility(mix, 0.5 * (NEAR + FAR))
        cdf_evals = counters.snapshot().cdf_evals
        assert density_evals == k_r
        assert cdf_evals == 1
        report(
            f"8 complexity counters: density oracle {density_evals} evals/query "
            f"(k_r={k_r}) vs {cdf_evals} CDF eval PASS"
        )


class TestCriterion9Formats:
    def test_round_trips_and_reproducibility(self, tmp_path):
        from rayvis.cli import main
        from rayvis.imgio import encode_ppm
        from rayvis.scenefile import dump_scene
        from rayvis.scenes import two_spheres

        # NRAY bit-exact round trip
        rng = np.random.default_rng(909)
        dmap = DistributionMap(
            view=5,
            params=rng.normal(size=(6, 4, 3, 2)).astype(np.float32).astype(np.float64),
        )
        path = tmp_path / "m.nray"
        dmap.save(path)
        blob = path.read_bytes()
        DistributionMap.load(path).save(path)
        assert path.read_bytes() == blob

        # PPM byte contract
        assert encode_ppm(np.ones((1, 1, 3))) == b"P6\n1 1\n255\n\xff\xff\xff"

        # seed-fixed commands reproduce bytes
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(dump_scene(two_spheres(n_cameras=4, width=16, height=16)))
        outputs = []
        for name in ("run_a", "run_b"):
            d = tmp_path / name
            assert main(["synth", str(scene_path), str(d / "data")]) == 0
            assert main(["init", str(d / "data"), str(d / "maps"),
                         "--noise", "0.01", "--seed", "3"]) == 0
            assert main(["render", "--data", str(d / "data"), "--maps", str(d / "maps"),
                         "--view", "0", "--out", str(d / "render.ppm"),
                         "--k-coarse", "24", "--nw", "3"]) == 0
            blobs = {}
            for f in sorted(d.rglob("*")):
                if f.is_file() and f.name != "manifest.json":
                    blobs[str(f.relative_to(d))] = f.read_bytes()
            outputs.append(blobs)
        assert outputs[0] == outputs[1]
        report("9 format round trips: NRAY bit-exact, PPM byte contract, "
               "seed-fixed commands reproducible PASS")
