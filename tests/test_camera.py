import numpy as np
import pytest

from rayvis.camera import PinholeCamera, Ray, generate_ray, look_at_camera, project
from rayvis.errors import BehindCameraError, InputError, PixelBoundsError


def random_camera(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    rot = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return PinholeCamera(
        width=int(rng.integers(16, 129)),
        height=int(rng.integers(16, 129)),
        fx=float(rng.uniform(30, 200)),
        fy=float(rng.uniform(30, 200)),
        cx=float(rng.uniform(10, 60)),
        cy=float(rng.uniform(10, 60)),
        rotation=rot,
        translation=rng.normal(size=3),
    )


class TestGenerateRay:
    def test_principal_axis(self):
        cam = PinholeCamera(64, 64, 100, 100, 32, 32)
        ray = generate_ray(cam, (31.5 + 0.5, 31.5 + 0.5))
        np.testing.assert_allclose(ray.direction, [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(ray.origin, [0, 0, 0], atol=1e-12)

    def test_one_focal_length_off_axis(self):
        cam = PinholeCamera(256, 256, 100, 100, 64, 64)
        ray = generate_ray(cam, (64 + 100, 64))
        expected = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        np.testing.assert_allclose(ray.direction, expected, atol=1e-12)

    def test_projection_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cam = random_camera(rng)
            px = (rng.uniform(0, cam.width), rng.uniform(0, cam.height))
            ray = generate_ray(cam, px)
            for depth in (1.0, 5.0):
                uv, _ = project(cam, ray.point_at(depth))
                np.testing.assert_allclose(uv, px, rtol=0, atol=1e-9)

    def test_out_of_bounds(self):
        cam = PinholeCamera(64, 64, 100, 100, 32, 32)
        with pytest.raises(PixelBoundsError):
            generate_ray(cam, (64.0, 10.0))
        with pytest.raises(PixelBoundsError):
            generate_ray(cam, (10.0, -0.1))


class TestProject:
    def test_principal_axis_point(self):
        cam = PinholeCamera(64, 64, 100, 100, 32, 32)
        uv, depth = project(cam, (0, 0, 2))
        assert uv == (32.0, 32.0)
        assert depth == 2.0

    def test_unit_pixel_offset(self):
        cam = PinholeCamera(64, 64, 100, 100, 32, 32)
        uv, depth = project(cam, (0.02, 0, 2))
        np.testing.assert_allclose(uv, (33.0, 32.0), atol=1e-12)
        assert depth == 2.0

    def test_behind_camera(self):
        cam = PinholeCamera(64, 64, 100, 100, 32, 32)
        with pytest.raises(BehindCameraError):
            project(cam, (0, 0, -1))


class TestCameraInvariants:
    def test_rotation_orthonormality_enforced(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-6
        with pytest.raises(InputError):
            PinholeCamera(8, 8, 10, 10, 4, 4, rotation=bad)

    @pytest.mark.parametrize("field", [
        {"width": np.nan}, {"fx": np.nan}, {"fy": np.inf}, {"cx": np.inf}, {"cy": np.nan},
        {"rotation": np.full((3, 3), np.nan)}, {"translation": (0.0, np.nan, 0.0)},
    ])
    def test_non_finite_intrinsics_and_pose_rejected(self, field):
        with pytest.raises(InputError):
            PinholeCamera(**{"width": 24, "height": 24, "fx": 10.0, "fy": 10.0,
                             "cx": 12.0, "cy": 12.0, **field})

    def test_project_unproject_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            cam = random_camera(rng)
            point = cam.center + cam.rotation.T @ np.array(
                [rng.normal(), rng.normal(), rng.uniform(0.5, 10)]
            )
            uv, depth = project(cam, point)
            recovered = cam.unproject(uv, depth)
            np.testing.assert_allclose(
                recovered, point, rtol=1e-9, atol=1e-9 * np.linalg.norm(point)
            )

    def test_ray_direction_must_be_unit(self):
        with pytest.raises(InputError):
            Ray(np.zeros(3), np.array([1.0, 1.0, 0.0]))

    def test_ray_direction_must_be_finite(self):
        with pytest.raises(InputError):
            Ray(np.zeros(3), np.array([np.nan, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_ray_origin_must_be_finite(self, bad):
        with pytest.raises(InputError, match="origin"):
            Ray(np.array([bad, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))

    def test_look_at_points_at_target(self):
        cam = look_at_camera(64, 64, 60, 60, 32, 32, (3, 1, -2), (0.5, 0, 0))
        uv, depth = project(cam, (0.5, 0, 0))
        np.testing.assert_allclose(uv, (32, 32), atol=1e-9)
        assert depth > 0
