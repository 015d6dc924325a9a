import numpy as np
import pytest

from rayvis.camera import Ray, generate_ray, look_at_camera
from rayvis.errors import BehindCameraError, InputError
from rayvis.scene import (
    Box,
    Material,
    PlanePatch,
    Sphere,
    SyntheticScene,
    intersect,
    oracle_visibility,
    perturb_depth,
    render_ground_truth,
)

GRAY = Material(albedo=(0.5, 0.5, 0.5))


def axial_cameras():
    return [
        look_at_camera(32, 32, 40, 40, 16, 16, (0, 0, -4), (0, 0, 1)),
        look_at_camera(32, 32, 40, 40, 16, 16, (0.5, 0, -4), (0, 0, 1)),
    ]


def simple_scene(primitives, near=1.0, far=20.0, background=(0, 0, 0)):
    return SyntheticScene(primitives, background, axial_cameras(), near, far)


class TestIntersect:
    def test_axial_sphere_hit(self):
        scene = simple_scene([Sphere(center=(0, 0, 3), radius=1.0, material=GRAY)])
        hit = intersect(scene, Ray(np.zeros(3), np.array([0.0, 0.0, 1.0])))
        assert hit is not None
        depth, normal, _ = hit
        assert depth == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(normal, [0, 0, -1], atol=1e-12)

    def test_miss(self):
        scene = simple_scene([Sphere(center=(0, 5, 3), radius=1.0, material=GRAY)])
        assert intersect(scene, Ray(np.zeros(3), np.array([0.0, 0.0, 1.0]))) is None

    def test_nearest_hit_ordering(self):
        scene = simple_scene(
            [
                Sphere(center=(0, 0, 5), radius=1.0, material=GRAY),
                Sphere(center=(0, 0, 3), radius=1.0, material=GRAY),
            ]
        )
        depth, _, _ = intersect(scene, Ray(np.zeros(3), np.array([0.0, 0.0, 1.0])))
        assert depth == pytest.approx(2.0, abs=1e-12)

    def test_box_and_plane(self):
        scene = simple_scene(
            [
                Box(minimum=(-1, -1, 2), maximum=(1, 1, 4), material=GRAY),
                PlanePatch(point=(0, 0, 6), normal=(0, 0, -1), half_extent=3.0, material=GRAY),
            ]
        )
        depth, normal, _ = intersect(scene, Ray(np.zeros(3), np.array([0.0, 0.0, 1.0])))
        assert depth == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(normal, [0, 0, -1], atol=1e-12)
        # ray that misses the box hits the plane patch behind it
        ray = Ray(np.array([2.5, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        depth, _, _ = intersect(scene, ray)
        assert depth == pytest.approx(6.0, abs=1e-12)

    def test_matches_exhaustive_minimum_on_random_scenes(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            prims = []
            for _ in range(4):
                prims.append(
                    Sphere(
                        center=rng.uniform(-1, 1, 3) + [0, 0, 5],
                        radius=rng.uniform(0.2, 0.8),
                        material=GRAY,
                    )
                )
            scene = SyntheticScene(prims, (0, 0, 0), axial_cameras(), 0.5, 20.0)
            for _ in range(20):
                d = rng.normal(size=3)
                d[2] = abs(d[2]) + 0.5
                d /= np.linalg.norm(d)
                ray = Ray(np.zeros(3), d)
                hit = intersect(scene, ray)
                # exhaustive per-primitive minimum
                best = np.inf
                for p in prims:
                    t, _ = p.intersect_rays(ray.origin[None], ray.direction[None])
                    best = min(best, t[0])
                if hit is None:
                    assert best == np.inf
                else:
                    assert hit[0] == pytest.approx(best, abs=1e-12)


class TestRenderGroundTruth:
    def test_empty_scene(self):
        scene = SyntheticScene([], (0.2, 0.3, 0.4), axial_cameras(), 1.0, 10.0)
        image, depth = render_ground_truth(scene, scene.cameras[0])
        assert np.all(image == np.array([0.2, 0.3, 0.4]))
        assert np.all(depth.values == 10.0)

    def test_center_pixel_axial_depth(self):
        # principal point on the center of pixel (16, 16) so the axial ray is exact
        cameras = [
            look_at_camera(33, 33, 40, 40, 16.5, 16.5, (0, 0, -4), (0, 0, 1)),
            look_at_camera(33, 33, 40, 40, 16.5, 16.5, (0.5, 0, -4), (0, 0, 1)),
        ]
        scene = SyntheticScene(
            [Sphere(center=(0, 0, 3), radius=1.0, material=GRAY)],
            (0, 0, 0), cameras, 1.0, 20.0,
        )
        _, depth = render_ground_truth(scene, scene.cameras[0])
        # camera at z=-4 looking at +z: axial distance to the near surface
        assert depth.values[16, 16] == pytest.approx(6.0, abs=1e-9)

    def test_matches_independent_per_pixel_ray_cast(self, ring_scene):
        """Oracle: a second, straightforward scalar ray-cast loop."""
        camera = ring_scene.cameras[3]
        image, depth = render_ground_truth(ring_scene, camera)
        rng = np.random.default_rng(9)
        pixels = [(int(rng.integers(64)), int(rng.integers(64))) for _ in range(300)]
        for iy, ix in pixels:
            ray = generate_ray(camera, (ix + 0.5, iy + 0.5))
            best_t, best_prim = np.inf, None
            for prim in ring_scene.primitives:
                center, radius = prim.center, prim.radius
                oc = ray.origin - center
                b = float(np.dot(ray.direction, oc))
                c = float(np.dot(oc, oc)) - radius * radius
                disc = b * b - c
                if disc < 0:
                    continue
                for t in (-b - np.sqrt(disc), -b + np.sqrt(disc)):
                    if 1e-6 < t < best_t:
                        best_t, best_prim = t, prim
            if best_prim is None:
                np.testing.assert_allclose(image[iy, ix], ring_scene.background, atol=1e-12)
                assert depth.values[iy, ix] == ring_scene.far
            else:
                point = ray.point_at(best_t)
                normal = (point - best_prim.center) / best_prim.radius
                expected = best_prim.material.shade(
                    point[None], normal[None], -ray.direction[None]
                )[0]
                np.testing.assert_allclose(image[iy, ix], expected, atol=1e-12)
                z = camera.to_camera(point)[2]
                assert depth.values[iy, ix] == pytest.approx(z, abs=1e-9)

    def test_deterministic(self, ring_scene):
        cam = ring_scene.cameras[0]
        a_img, a_dep = render_ground_truth(ring_scene, cam)
        b_img, b_dep = render_ground_truth(ring_scene, cam)
        assert np.array_equal(a_img, b_img)
        assert np.array_equal(a_dep.values, b_dep.values)


class TestOracleVisibility:
    def setup_method(self):
        self.scene = simple_scene([Sphere(center=(0, 0, 3), radius=1.0, material=GRAY)])
        self.camera = self.scene.cameras[0]  # at (0, 0, -4) looking toward +z

    def test_unobstructed_point(self):
        assert oracle_visibility(self.scene, 0, (0, 0, 1.5)) == 1

    def test_point_behind_sphere(self):
        assert oracle_visibility(self.scene, 0, (0, 0, 5.0)) == 0

    def test_point_exactly_on_surface(self):
        assert oracle_visibility(self.scene, 0, (0, 0, 2.0)) == 1

    def test_behind_camera_errors(self):
        with pytest.raises(BehindCameraError):
            oracle_visibility(self.scene, 0, (0, 0, -5.0))

    def test_first_hits_always_visible(self, ring_scene):
        # spot checks through the public scalar oracle
        rng = np.random.default_rng(21)
        for _ in range(100):
            view = int(rng.integers(len(ring_scene.cameras)))
            cam = ring_scene.cameras[view]
            px = (rng.uniform(0, cam.width), rng.uniform(0, cam.height))
            ray = generate_ray(cam, px)
            hit = intersect(ring_scene, ray)
            if hit is not None:
                assert oracle_visibility(ring_scene, view, ray.point_at(hit[0])) == 1

    def test_first_hits_visible_for_every_pixel_of_every_view(self, ring_scene):
        """Batched version of the same invariant covering all pixel rays."""
        eps = 1e-4 * ring_scene.scene_scale
        for cam in ring_scene.cameras:
            ys, xs = np.meshgrid(np.arange(cam.height) + 0.5,
                                 np.arange(cam.width) + 0.5, indexing="ij")
            px = np.stack([xs, ys], -1).reshape(-1, 2)
            dirs, _ = cam.rays_for_pixels(px)
            origins = np.broadcast_to(cam.center, dirs.shape)
            t, _, _, hit = ring_scene.intersect_rays(origins, dirs)
            points = origins + t[:, None] * dirs
            # segment from the camera center to each first-hit point
            offs = points[hit] - cam.center
            dist = np.linalg.norm(offs, axis=1)
            seg_dirs = offs / dist[:, None]
            t2, _, _, hit2 = ring_scene.intersect_rays(
                np.broadcast_to(cam.center, seg_dirs.shape), seg_dirs
            )
            visible = ~hit2 | (t2 >= dist - eps)
            assert np.all(visible)


class TestPerturbDepth:
    def test_zero_sigma_is_identity(self, ring_ground_truth):
        _, depths = ring_ground_truth
        out = perturb_depth(depths[0], 0.0, 7)
        assert np.array_equal(out.values, depths[0].values)

    def test_same_seed_same_output(self, ring_ground_truth):
        _, depths = ring_ground_truth
        a = perturb_depth(depths[0], 0.02, 7)
        b = perturb_depth(depths[0], 0.02, 7)
        assert np.array_equal(a.values, b.values)

    def test_noise_standard_deviation(self, ring_scene, ring_ground_truth):
        _, depths = ring_ground_truth
        # use a mid-range synthetic map so clamping at [near, far] is inactive
        mid = 0.5 * (ring_scene.near + ring_scene.far)
        base = type(depths[0])(
            np.full((64, 64), mid), depths[0].near, depths[0].far, depths[0].scene_scale
        )
        noisy = perturb_depth(base, 0.02, 3)
        measured = np.std(noisy.values - base.values)
        target = 0.02 * base.scene_scale
        assert abs(measured - target) / target < 0.10

    def test_clamped_to_depth_bounds(self, ring_ground_truth):
        _, depths = ring_ground_truth
        noisy = perturb_depth(depths[0], 0.5, 11)
        assert noisy.values.min() >= depths[0].near
        assert noisy.values.max() <= depths[0].far

    def test_negative_sigma_rejected(self, ring_ground_truth):
        _, depths = ring_ground_truth
        with pytest.raises(InputError):
            perturb_depth(depths[0], -0.1, 0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, ring_ground_truth, sigma):
        _, depths = ring_ground_truth
        with pytest.raises(InputError, match="noise sigma"):
            perturb_depth(depths[0], sigma, 0)

    @pytest.mark.parametrize("sigma", [0.0, 0.02])
    def test_negative_seed_rejected(self, ring_ground_truth, sigma):
        _, depths = ring_ground_truth
        with pytest.raises(InputError, match="seed"):
            perturb_depth(depths[0], sigma, -1)


class TestSceneValidation:
    def test_needs_two_cameras(self):
        with pytest.raises(InputError):
            SyntheticScene([], (0, 0, 0), axial_cameras()[:1], 1.0, 10.0)

    def test_surface_outside_depth_bounds_rejected(self):
        # camera at z=-4 sees this sphere across depths [6, 8]
        sphere = Sphere(center=(0, 0, 3), radius=1.0, material=GRAY)
        with pytest.raises(InputError):
            simple_scene([sphere], near=7.0, far=20.0)
        with pytest.raises(InputError):
            simple_scene([sphere], near=1.0, far=7.5)

    def test_material_validation(self):
        with pytest.raises(InputError):
            Material(albedo=(1.2, 0, 0))
        with pytest.raises(InputError):
            Material(albedo=(0.5, 0.5, 0.5), specular_strength=1.5)
        with pytest.raises(InputError):
            Sphere(center=(0, 0, 0), radius=-1.0, material=GRAY)
        with pytest.raises(InputError):
            Box(minimum=(0, 0, 0), maximum=(0, 1, 1), material=GRAY)

    @pytest.mark.parametrize("field", [
        {"albedo": (np.nan, 0.5, 0.5)},
        {"checker_color": (0.1, 0.2, np.nan)},
        {"checker_color": (0.1, 0.2, 0.3), "checker_cell": np.nan},
        {"shininess": np.nan},
        {"shininess": np.inf},
        {"light_direction": (np.nan, 1.0, 0.0)},
        {"light_direction": (np.inf, 1.0, 0.0)},
    ])
    def test_material_non_finite_rejected(self, field):
        with pytest.raises(InputError):
            Material(**{"albedo": (0.5, 0.5, 0.5), **field})
