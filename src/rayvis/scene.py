"""Synthetic scenes with analytic ray intersection.

Scenes act as the ground-truth oracle for the rest of the package: they
produce exact images, camera-frame depth maps, and point-to-view
visibility answers. Shading is view-independent albedo (constant color or
a 3D checker) plus an optional Phong specular lobe under one fixed
directional light, so surface colors vary with viewpoint in a way that is
still analytic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from rayvis.camera import PinholeCamera, Ray
from rayvis.errors import BehindCameraError, InputError, bounded, near_far, rgb

_MIN_HIT_DEPTH = 1e-6


@dataclass(frozen=True)
class Material:
    """Albedo source plus optional specular term.

    ``albedo`` is a constant RGB color. If ``checker_color`` is set, the
    albedo alternates between ``albedo`` and ``checker_color`` on a 3D
    checkerboard with cell size ``checker_cell`` (world units).
    """

    albedo: np.ndarray
    checker_color: Optional[np.ndarray] = None
    checker_cell: float = 1.0
    specular_strength: float = 0.0
    shininess: float = 32.0
    light_direction: np.ndarray = field(
        default_factory=lambda: np.array([0.408248, 0.816497, -0.408248])
    )

    def __post_init__(self):
        object.__setattr__(self, "albedo", np.array(rgb("albedo", self.albedo, error=InputError)))
        if self.checker_color is not None:
            object.__setattr__(self, "checker_color", np.array(
                rgb("checker color", self.checker_color, error=InputError)))
            object.__setattr__(self, "checker_cell", bounded(
                "checker_cell", self.checker_cell, 0, above=True, error=InputError))
        object.__setattr__(self, "specular_strength", bounded(
            "specular_strength", self.specular_strength, 0, 1, error=InputError))
        object.__setattr__(self, "shininess", bounded(
            "shininess", self.shininess, 0, above=True, error=InputError))
        light = np.asarray(self.light_direction, dtype=np.float64)
        n = np.linalg.norm(light)
        if not 0 < n < np.inf:
            raise InputError("light direction must be finite and nonzero")
        object.__setattr__(self, "light_direction", light / n)

    def albedo_at(self, points: np.ndarray) -> np.ndarray:
        """Albedo for world points (..., 3)."""
        points = np.asarray(points, dtype=np.float64)
        base = np.broadcast_to(self.albedo, points.shape[:-1] + (3,)).copy()
        if self.checker_color is not None:
            cells = np.floor(points / self.checker_cell).astype(np.int64)
            odd = (cells.sum(axis=-1) % 2) == 1
            base[odd] = self.checker_color
        return base

    def shade(self, points: np.ndarray, normals: np.ndarray, view_dirs: np.ndarray) -> np.ndarray:
        """Shaded color for hits; ``view_dirs`` point from surface to viewer."""
        color = self.albedo_at(points)
        if self.specular_strength > 0:
            light = self.light_direction
            ndotl = normals @ light
            # reflect the light direction about the normal
            refl = 2.0 * ndotl[..., None] * normals - light
            spec = np.clip(np.sum(refl * view_dirs, axis=-1), 0.0, None) ** self.shininess
            spec = np.where(ndotl > 0, spec, 0.0)
            color = color + self.specular_strength * spec[..., None]
        return np.clip(color, 0.0, 1.0)


class Primitive:
    """Base class for analytic shapes; subclasses implement ray intersection."""

    material: Material

    def intersect_rays(self, origins: np.ndarray, directions: np.ndarray):
        """Batched intersection. Returns ``(t, normals)``.

        ``t`` is inf where the ray misses; normals are unit outward normals
        at the hit points (arbitrary where there is no hit).
        """
        raise NotImplementedError

    def bounding_sphere(self):
        """(center, radius) sphere containing the whole surface."""
        raise NotImplementedError


@dataclass
class Sphere(Primitive):
    center: np.ndarray
    radius: float
    material: Material

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.radius = bounded("radius", self.radius, 0, above=True, error=InputError)

    def intersect_rays(self, origins, directions):
        oc = origins - self.center
        b = np.sum(directions * oc, axis=-1)
        c = np.sum(oc * oc, axis=-1) - self.radius**2
        disc = b * b - c
        hit = disc >= 0
        sq = np.sqrt(np.where(hit, disc, 0.0))
        t0 = -b - sq
        t1 = -b + sq
        t = np.where(t0 > _MIN_HIT_DEPTH, t0, t1)
        t = np.where(hit & (t > _MIN_HIT_DEPTH), t, np.inf)
        t_safe = np.where(np.isfinite(t), t, 0.0)
        pts = origins + t_safe[..., None] * directions
        normals = (pts - self.center) / self.radius
        return t, normals

    def bounding_sphere(self):
        return self.center, self.radius


@dataclass
class Box(Primitive):
    """Axis-aligned box given by its min and max corners."""

    minimum: np.ndarray
    maximum: np.ndarray
    material: Material

    def __post_init__(self):
        self.minimum = np.asarray(self.minimum, dtype=np.float64)
        self.maximum = np.asarray(self.maximum, dtype=np.float64)
        if not np.all(self.minimum < self.maximum):
            raise InputError("box min must be strictly below max componentwise")

    def intersect_rays(self, origins, directions):
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / directions
        t_lo = (self.minimum - origins) * inv
        t_hi = (self.maximum - origins) * inv
        t_near = np.nanmax(np.minimum(t_lo, t_hi), axis=-1)
        t_far = np.nanmin(np.maximum(t_lo, t_hi), axis=-1)
        t = np.where(t_near > _MIN_HIT_DEPTH, t_near, t_far)
        hit = (t_far >= t_near) & (t > _MIN_HIT_DEPTH)
        t = np.where(hit, t, np.inf)
        t_safe = np.where(np.isfinite(t), t, 0.0)
        pts = origins + t_safe[..., None] * directions
        # face normal: axis on which the hit point touches a box face
        center = 0.5 * (self.minimum + self.maximum)
        half = 0.5 * (self.maximum - self.minimum)
        local = (pts - center) / half
        axis = np.argmax(np.abs(local), axis=-1)
        normals = np.zeros_like(pts)
        idx = np.indices(axis.shape)
        normals[(*idx, axis)] = np.sign(local[(*idx, axis)])
        return t, normals

    def bounding_sphere(self):
        center = 0.5 * (self.minimum + self.maximum)
        return center, float(np.linalg.norm(self.maximum - center))


@dataclass
class PlanePatch(Primitive):
    """Finite square patch: center point, unit normal, half extent."""

    point: np.ndarray
    normal: np.ndarray
    half_extent: float
    material: Material

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=np.float64)
        n = np.asarray(self.normal, dtype=np.float64)
        nn = np.linalg.norm(n)
        if nn == 0:
            raise InputError("plane normal must be nonzero")
        self.normal = n / nn
        self.half_extent = bounded("half_extent", self.half_extent, 0, above=True,
                                   error=InputError)
        # deterministic tangent basis
        helper = np.array([1.0, 0.0, 0.0])
        if abs(self.normal[0]) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        u = np.cross(self.normal, helper)
        self._u = u / np.linalg.norm(u)
        self._v = np.cross(self.normal, self._u)

    def intersect_rays(self, origins, directions):
        denom = directions @ self.normal
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ((self.point - origins) @ self.normal) / denom
        t_safe = np.where(np.isfinite(t), t, 0.0)
        pts = origins + t_safe[..., None] * directions
        rel = pts - self.point
        inside = (np.abs(rel @ self._u) <= self.half_extent) & (
            np.abs(rel @ self._v) <= self.half_extent
        )
        hit = (np.abs(denom) > 1e-12) & (t > _MIN_HIT_DEPTH) & inside
        t = np.where(hit, t, np.inf)
        normals = np.broadcast_to(self.normal, pts.shape).copy()
        # orient against the incoming ray so both faces shade correctly
        flip = (directions @ self.normal) > 0
        normals[flip] = -self.normal
        return t, normals

    def bounding_sphere(self):
        return self.point, self.half_extent * np.sqrt(2.0)


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel camera-frame depth with the owning scene's depth metadata."""

    values: np.ndarray
    near: float
    far: float
    scene_scale: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))


class SyntheticScene:
    """Ordered primitives, a background color, and the reference cameras."""

    def __init__(
        self,
        primitives: Sequence[Primitive],
        background,
        cameras: Sequence[PinholeCamera],
        near: float,
        far: float,
    ):
        if len(cameras) < 2:
            raise InputError("a scene needs at least two reference cameras")
        self.near, self.far = near_far(near, far)
        self.background = np.array(rgb("background", background, error=InputError))
        self.primitives = list(primitives)
        self.cameras = list(cameras)
        self._validate_bounds()

    def _validate_bounds(self):
        """Conservatively require every surface within [near, far] of every camera."""
        for prim in self.primitives:
            center, radius = prim.bounding_sphere()
            for cam in self.cameras:
                z = cam.to_camera(center)[2]
                if z - radius < self.near or z + radius > self.far:
                    raise InputError(
                        "primitive surface may leave the [near, far] depth range "
                        f"of a camera (bounding depth {z - radius:.4g}..{z + radius:.4g})"
                    )

    @property
    def scene_scale(self) -> float:
        """Diagonal of the axis-aligned bounding box of all primitives."""
        los, his = [], []
        for prim in self.primitives:
            center, radius = prim.bounding_sphere()
            los.append(center - radius)
            his.append(center + radius)
        if not los:
            return self.far - self.near
        lo = np.min(los, axis=0)
        hi = np.max(his, axis=0)
        return float(np.linalg.norm(hi - lo))

    def intersect_rays(self, origins: np.ndarray, directions: np.ndarray):
        """Nearest hit over all primitives for batched rays.

        Returns ``(t, normals, colors, hit_mask)``; ``t`` is inf and colors
        are the background where no primitive is hit.
        """
        origins = np.asarray(origins, dtype=np.float64)
        directions = np.asarray(directions, dtype=np.float64)
        shape = origins.shape[:-1]
        best_t = np.full(shape, np.inf)
        best_idx = np.full(shape, -1, dtype=np.int64)
        best_normals = np.zeros(shape + (3,))
        for k, prim in enumerate(self.primitives):
            t, normals = prim.intersect_rays(origins, directions)
            closer = t < best_t
            best_t = np.where(closer, t, best_t)
            best_idx = np.where(closer, k, best_idx)
            best_normals = np.where(closer[..., None], normals, best_normals)
        hit = best_idx >= 0
        colors = np.broadcast_to(self.background, shape + (3,)).copy()
        t_safe = np.where(hit, best_t, 0.0)
        pts = origins + t_safe[..., None] * directions
        for k, prim in enumerate(self.primitives):
            sel = best_idx == k
            if np.any(sel):
                colors[sel] = prim.material.shade(
                    pts[sel], best_normals[sel], -directions[sel]
                )
        return best_t, best_normals, colors, hit


def intersect(scene: SyntheticScene, ray: Ray):
    """Nearest intersection of a single ray, or None on a miss.

    Returns ``(depth, normal, color)`` where depth is the euclidean ray
    parameter (the ray direction is unit length).
    """
    t, normals, colors, hit = scene.intersect_rays(
        ray.origin[None, :], ray.direction[None, :]
    )
    if not hit[0]:
        return None
    return float(t[0]), normals[0], colors[0]


def render_ground_truth(scene: SyntheticScene, camera: PinholeCamera):
    """Exact per-pixel image and camera-frame depth map for one camera.

    Depth uses the far plane as the no-hit sentinel, so the map is dense.
    """
    ys, xs = np.meshgrid(
        np.arange(camera.height, dtype=np.float64) + 0.5,
        np.arange(camera.width, dtype=np.float64) + 0.5,
        indexing="ij",
    )
    px = np.stack([xs, ys], axis=-1)
    directions, zfactor = camera.rays_for_pixels(px)
    origins = np.broadcast_to(camera.center, directions.shape)
    t, _, colors, hit = scene.intersect_rays(origins, directions)
    depth = np.where(hit, t * zfactor, scene.far)
    return colors, DepthMap(depth, scene.near, scene.far, scene.scene_scale)


def oracle_visibility(scene: SyntheticScene, view: int | PinholeCamera, point) -> int:
    """1 iff the segment from the view's camera center to ``point`` is clear.

    A hit within ``1e-4 * scene_scale`` of the point itself does not count
    as an occluder, so points lying exactly on a surface are visible.
    """
    camera = scene.cameras[view] if isinstance(view, (int, np.integer)) else view
    point = np.asarray(point, dtype=np.float64)
    if camera.to_camera(point)[2] <= 0:
        raise BehindCameraError("visibility query point is behind the camera")
    center = camera.center
    offset = point - center
    dist = np.linalg.norm(offset)
    if dist == 0:
        return 1
    direction = offset / dist
    t, _, _, hit = scene.intersect_rays(center[None, :], direction[None, :])
    eps = 1e-4 * scene.scene_scale
    if not hit[0] or t[0] >= dist - eps:
        return 1
    return 0


def perturb_depth(depth: DepthMap, noise_sigma: float, seed) -> DepthMap:
    """Add seeded Gaussian noise (std ``noise_sigma * scene_scale``) and clamp.

    ``seed`` is a nonnegative int or a sequence of them, such as
    ``(seed, view)``, which gives every view its own noise stream.
    ``noise_sigma = 0`` returns the values unchanged.
    """
    noise_sigma = bounded("noise sigma", noise_sigma, 0, error=InputError)
    seed = [bounded("noise seed", s, 0, whole=True, error=InputError)
            for s in (seed if np.ndim(seed) else [seed])]
    if noise_sigma == 0:
        return DepthMap(depth.values.copy(), depth.near, depth.far, depth.scene_scale)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, noise_sigma * depth.scene_scale, size=depth.values.shape)
    values = np.clip(depth.values + noise, depth.near, depth.far)
    return DepthMap(values, depth.near, depth.far, depth.scene_scale)
