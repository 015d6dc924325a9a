"""Pinhole cameras and rays.

Conventions used throughout the package:

* world-to-camera transform: ``x_cam = R @ x_world + t``; the camera looks
  down its +z axis.
* continuous image coordinates: pixel ``(i, j)`` covers the unit square
  ``[i, i+1) x [j, j+1)`` and has its center at ``(i + 0.5, j + 0.5)``.
  Projection returns continuous coordinates; ray generation takes them.
* "depth" of a point on a view is its camera-frame z coordinate, not the
  euclidean distance to the camera center.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rayvis.errors import BehindCameraError, InputError, PixelBoundsError, bounded

_ROT_TOL = 1e-9
MAX_SIZE = 8192     # most pixels along a camera's width or height


@dataclass(frozen=True)
class Ray:
    """A ray ``p(s) = origin + s * direction`` with unit direction."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=np.float64)
        if not np.all(np.isfinite(origin)):
            raise InputError("ray origin must be finite")
        object.__setattr__(self, "origin", origin)
        d = np.asarray(self.direction, dtype=np.float64)
        if not abs(np.linalg.norm(d) - 1.0) <= 1e-12:
            raise InputError("ray direction must be unit length")
        object.__setattr__(self, "direction", d)

    def point_at(self, s: float) -> np.ndarray:
        return self.origin + s * self.direction


@dataclass(frozen=True)
class PinholeCamera:
    """Calibrated pinhole camera with a rigid world-to-camera pose."""

    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for key in ("width", "height"):
            object.__setattr__(self, key, bounded(key, getattr(self, key), 1, MAX_SIZE,
                                                  whole=True, error=InputError))
        for key, low in (("fx", 0), ("fy", 0), ("cx", -np.inf), ("cy", -np.inf)):
            object.__setattr__(self, key, bounded(key, getattr(self, key), low, above=True,
                                                  error=InputError))
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise InputError("pose must be finite")
        if not np.linalg.norm(r.T @ r - np.eye(3)) < _ROT_TOL:
            raise InputError("rotation is not orthonormal")
        if np.linalg.det(r) < 0:
            raise InputError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation

    def to_camera(self, points: np.ndarray) -> np.ndarray:
        """Map world points (..., 3) into the camera frame."""
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation

    def project_points(self, points: np.ndarray):
        """Project world points (..., 3) without bounds or depth checks.

        Returns ``(uv, depth)`` where uv has shape (..., 2) in continuous
        image coordinates and depth is the camera-frame z.  Callers decide
        how to treat non-positive depths and out-of-image projections.
        """
        pc = self.to_camera(points)
        z = pc[..., 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = self.fx * pc[..., 0] / z + self.cx
            v = self.fy * pc[..., 1] / z + self.cy
        return np.stack([u, v], axis=-1), z

    def unproject(self, px, depth: float) -> np.ndarray:
        """World point at camera-frame depth ``depth`` behind image point ``px``."""
        u, v = float(px[0]), float(px[1])
        pc = np.array(
            [(u - self.cx) / self.fx * depth, (v - self.cy) / self.fy * depth, depth]
        )
        return self.rotation.T @ (pc - self.translation)

    def rays_for_pixels(self, px: np.ndarray):
        """Unit world-space ray directions through continuous image points (..., 2).

        Also returns the camera-frame z component of each unit direction,
        which converts euclidean ray parameters into view depths.
        """
        px = np.asarray(px, dtype=np.float64)
        d = np.stack(
            [
                (px[..., 0] - self.cx) / self.fx,
                (px[..., 1] - self.cy) / self.fy,
                np.ones(px.shape[:-1]),
            ],
            axis=-1,
        )
        norm = np.linalg.norm(d, axis=-1, keepdims=True)
        return (d / norm) @ self.rotation, 1.0 / norm[..., 0]


def generate_ray(camera: PinholeCamera, px) -> Ray:
    """Ray from the camera center through the continuous image point ``px``.

    For the ray through the center of pixel ``(i, j)`` pass ``(i+0.5, j+0.5)``.
    """
    x, y = float(px[0]), float(px[1])
    if not (0.0 <= x < camera.width and 0.0 <= y < camera.height):
        raise PixelBoundsError(f"pixel ({x}, {y}) outside {camera.width}x{camera.height} image")
    directions, _ = camera.rays_for_pixels(np.array([x, y]))
    return Ray(camera.center, directions)


def project(camera: PinholeCamera, point):
    """Project a world point; returns ``((u, v), depth)``.

    ``depth`` is the camera-frame z of the point and must be positive.
    """
    uv, z = camera.project_points(np.asarray(point, dtype=np.float64))
    if z <= 0:
        raise BehindCameraError(f"point has depth {z} <= 0 in the camera frame")
    return (float(uv[0]), float(uv[1])), float(z)


def look_at_camera(
    width: int,
    height: int,
    fx: float,
    fy: float,
    cx: float,
    cy: float,
    eye,
    target,
    up=(0.0, 1.0, 0.0),
) -> PinholeCamera:
    """Camera at ``eye`` with +z toward ``target``; +y roughly along ``-up``.

    Image y grows downward, so the world up vector maps to -y in camera
    coordinates.
    """
    eye = np.asarray(eye, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - eye
    n = np.linalg.norm(forward)
    if n == 0:
        raise InputError("eye and target coincide")
    forward = forward / n
    upv = np.asarray(up, dtype=np.float64)
    right = np.cross(forward, upv)
    rn = np.linalg.norm(right)
    if rn < 1e-12:
        raise InputError("up vector is parallel to the viewing direction")
    right = right / rn
    down = np.cross(forward, right)
    rot = np.stack([right, down, forward])
    # Re-orthonormalize so the constructor tolerance holds exactly.
    u_mat, _, vt = np.linalg.svd(rot)
    rot = u_mat @ vt
    return PinholeCamera(
        width=width,
        height=height,
        fx=fx,
        fy=fy,
        cx=cx,
        cy=cy,
        rotation=rot,
        translation=-rot @ eye,
    )
