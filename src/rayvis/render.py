"""Occlusion-aware volume rendering of query views.

For every sample point on a query ray, each working view contributes an
interval opacity and a visibility from its per-pixel occlusion CDF. The
visibility-weighted opacities composite into hitting probabilities, and a
hitting-probability-weighted spherical-harmonics fit of the working views'
colors gives the sample color. Two sampling modes exist: uniform depths,
and coarse-to-fine where a cheap coarse pass (CDF evaluations only, no
color fits) places the few fine samples by deterministic stratified
inverse-CDF sampling of the coarse hitting mass.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from rayvis.camera import PinholeCamera, Ray
from rayvis.counters import counters
from rayvis.errors import ConfigurationError, DimensionMismatchError, InputError
from rayvis.raydist import (
    DistributionMap,
    decode_arrays,
    decode_backward,
    interval_alpha,
    mixture_cdf,
    mixture_cdf_grads,
    mixture_cdf_terms,
    scatter_to_map,
)
from rayvis.shcolor import (
    DEFAULT_DEGREE_PENALTIES,
    MAX_DEGREE,
    DualFit,
    sh_basis_values,
    sh_dual_form,
    sh_fit_batched,
    sh_fit_weight_grads,
)

EPS_VISIBILITY = 1e-6
# rays whose coarse hitting mass stays below this render as pure background;
# the mass bound is also the color error bound of skipping them
_FINE_MASS_FLOOR = 1e-3
# fine-pass interval lengths are capped at this fraction of the coarse bin
# width: transferring long intervals onto input rays manufactures opacity
# from unrelated geometry far behind the sample
_FINE_WIDTH_CAP = 0.5


@dataclass(frozen=True)
class RenderConfig:
    """Sampling and shading options for rendering one query view."""

    k_coarse: int = 64
    k_fine: int = 64
    mode: str = "uniform"
    n_working: int = 8
    background: tuple = (0.0, 0.0, 0.0)
    sh_degree: int = 3
    sh_penalties: tuple = DEFAULT_DEGREE_PENALTIES
    bilinear_params: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.k_coarse < 2:
            raise ConfigurationError("k_coarse must be at least 2")
        if self.k_fine < 0:
            raise ConfigurationError("k_fine must be nonnegative")
        if self.mode not in ("uniform", "coarse_to_fine"):
            raise ConfigurationError(f"unknown sampling mode '{self.mode}'")
        if self.n_working < 1:
            raise ConfigurationError("need at least one working view")
        if not 0 <= self.sh_degree <= MAX_DEGREE:
            raise ConfigurationError(f"sh_degree must be in [0, {MAX_DEGREE}]")
        penalties = tuple(float(p) for p in self.sh_penalties)
        if not all(0.0 <= p < np.inf for p in penalties):
            raise ConfigurationError("sh_penalties must be finite and nonnegative")
        object.__setattr__(self, "sh_penalties", penalties)


@dataclass
class RenderView:
    """One reference view: camera, its distribution map, and its image."""

    index: int
    camera: PinholeCamera
    dmap: DistributionMap
    image: np.ndarray

    def __post_init__(self):
        self.image = np.asarray(self.image, dtype=np.float64)
        cam = self.camera
        if self.dmap.height != cam.height or self.dmap.width != cam.width:
            raise DimensionMismatchError(
                f"view {self.index}: map is {self.dmap.height}x{self.dmap.width}, "
                f"camera is {cam.height}x{cam.width}"
            )
        if self.image.shape != (cam.height, cam.width, 3):
            raise DimensionMismatchError(
                f"view {self.index}: image shape {self.image.shape} does not match camera"
            )


@dataclass
class _ViewState:
    """Per-view data prepared for a render: decoded parameter grids."""

    view: RenderView
    mu: np.ndarray
    sig: np.ndarray
    w: np.ndarray

    @property
    def camera(self) -> PinholeCamera:
        return self.view.camera


@dataclass
class WorkingSet:
    """Query camera plus its nearest reference views and depth bounds."""

    query_camera: PinholeCamera
    views: list
    near: float
    far: float

    @property
    def n_views(self) -> int:
        return len(self.views)


@dataclass
class SampleSet:
    """Per-ray sample bookkeeping: depths, bin widths, alpha/hit/color slots."""

    depths: np.ndarray
    widths: np.ndarray
    alphas: np.ndarray
    hit_probs: np.ndarray
    colors: np.ndarray


def select_working_views(
    views: Sequence[RenderView],
    query_camera: PinholeCamera,
    n_working: int,
    near: float,
    far: float,
    query_index: Optional[int] = None,
) -> WorkingSet:
    """Pick the ``n_working`` reference views nearest the query camera.

    Sorted by camera-center distance with ties broken by view index. When
    the query is itself a reference view (matched by ``query_index`` or by
    identical camera), it is excluded from its own working set.
    """
    candidates = []
    qc = query_camera.center
    for view in views:
        if query_index is not None and view.index == query_index:
            continue
        if _same_camera(view.camera, query_camera):
            continue
        dist = float(np.linalg.norm(view.camera.center - qc))
        candidates.append((dist, view.index, view))
    if n_working > len(candidates):
        raise ConfigurationError(
            f"requested {n_working} working views but only {len(candidates)} available"
        )
    candidates.sort(key=lambda item: (item[0], item[1]))
    states = [
        _ViewState(view, *decode_arrays(view.dmap.params, near, far))
        for _, _, view in candidates[:n_working]
    ]
    return WorkingSet(query_camera, states, float(near), float(far))


def _same_camera(a: PinholeCamera, b: PinholeCamera) -> bool:
    return (
        a.width == b.width
        and a.height == b.height
        and (a.fx, a.fy, a.cx, a.cy) == (b.fx, b.fy, b.cx, b.cy)
        and np.array_equal(a.rotation, b.rotation)
        and np.array_equal(a.translation, b.translation)
    )


def bilinear_sample(grid: np.ndarray, u, v) -> np.ndarray:
    """Bilinear lookup at continuous image coordinates (pixel centers at +0.5).

    ``grid`` is (H, W, ...): an image or a raw parameter map; the weights
    broadcast over its trailing axes.
    """
    h, w = grid.shape[:2]
    x = np.asarray(u, dtype=np.float64) - 0.5
    y = np.asarray(v, dtype=np.float64) - 0.5
    x0 = np.clip(np.floor(x).astype(np.int64), 0, w - 1)
    y0 = np.clip(np.floor(y).astype(np.int64), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    trailing = (...,) + (None,) * (grid.ndim - 2)
    fx = np.clip(x - x0, 0.0, 1.0)[trailing]
    fy = np.clip(y - y0, 0.0, 1.0)[trailing]
    top = grid[y0, x0] * (1 - fx) + grid[y0, x1] * fx
    bot = grid[y1, x0] * (1 - fx) + grid[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def _view_lookup(state: _ViewState, points: np.ndarray, near: float, far: float,
                 bilinear_params: bool):
    """Project points (..., 3) onto one view and gather its distributions.

    Returns (mu, sig, w, depth, uv, valid, pix) where valid marks points in
    front of the camera that project inside the image.
    """
    cam = state.camera
    pc = points @ cam.rotation.T + cam.translation
    z = pc[..., 2]
    safe_z = np.where(z > 0, z, 1.0)
    u = cam.fx * pc[..., 0] / safe_z + cam.cx
    v = cam.fy * pc[..., 1] / safe_z + cam.cy
    valid = (z > 0) & (u >= 0) & (u < cam.width) & (v >= 0) & (v < cam.height)
    ix = np.clip(np.floor(u).astype(np.int64), 0, cam.width - 1)
    iy = np.clip(np.floor(v).astype(np.int64), 0, cam.height - 1)
    if bilinear_params:
        raw = bilinear_sample(state.view.dmap.params, u, v)
        mu, sig, w = decode_arrays(raw, near, far)
    else:
        mu = state.mu[iy, ix]
        sig = state.sig[iy, ix]
        w = state.w[iy, ix]
    return mu, sig, w, z, (u, v), valid, (iy, ix)


def _transmittance(alphas):
    """Exclusive cumulative product of ``1 - alpha`` along the sample axis."""
    trans = np.cumprod(1.0 - alphas, axis=-1)
    return np.concatenate([np.ones_like(trans[..., :1]), trans[..., :-1]], axis=-1)


@dataclass
class ChunkState:
    """All intermediates of one forward chunk, kept for the backward pass."""

    origins: np.ndarray
    dirs: np.ndarray
    z: np.ndarray
    widths: np.ndarray
    colors_out: Optional[np.ndarray]
    alpha_hat: np.ndarray
    h_hat: np.ndarray
    sample_colors: Optional[np.ndarray]
    active: Optional[np.ndarray]
    denom: Optional[np.ndarray]
    per_view: list = field(default_factory=list)
    sh: Optional[DualFit] = None
    vis: Optional[np.ndarray] = None
    alpha_tilde: Optional[np.ndarray] = None
    h_w: Optional[np.ndarray] = None
    fine_keep: Optional[np.ndarray] = None
    fine: Optional["ChunkState"] = None


def _chunk_forward(working: WorkingSet, origins, dirs, z, widths, config: RenderConfig,
                   with_colors: bool = True, keep_state: bool = False):
    """Render a chunk of rays at the given per-ray depths.

    ``z`` and ``widths`` have shape (B, K). With ``with_colors=False`` only
    the alpha/hitting-probability stage runs (the coarse pass).
    """
    background = np.asarray(config.background, dtype=np.float64)
    npts = z.size
    points = origins[:, None, :] + z[..., None] * dirs[:, None, :]
    v_stack, alpha_stack, hw_stack, uv_list = [], [], [], []
    per_view = []
    for state in working.views:
        mu, sig, w, depth, uv, valid, pix = _view_lookup(
            state, points, working.near, working.far, config.bilinear_params
        )
        uv_list.append(uv)
        t_a, x_a, s_a = mixture_cdf_terms(mu, sig, w, depth)
        t_b, x_b, s_b = mixture_cdf_terms(mu, sig, w, depth + widths)
        counters.add("cdf_evals", 2 * npts)
        vis = np.where(valid, 1.0 - t_a, 0.0)
        alpha_raw, saturated = interval_alpha(t_a, t_b)
        alpha = np.clip(alpha_raw, 0.0, 1.0)
        alpha = np.where(valid, alpha, 0.0)
        h_w = np.where(valid, t_b - t_a, 0.0)
        v_stack.append(vis)
        alpha_stack.append(alpha)
        hw_stack.append(h_w)
        if keep_state:
            per_view.append(
                dict(depth=depth, uv=uv, valid=valid, pix=pix, t_a=t_a, t_b=t_b,
                     x_a=x_a, s_a=s_a, x_b=x_b, s_b=s_b,
                     saturated=saturated, clamped=(alpha_raw < 0) | (alpha_raw > 1))
            )
    vis = np.stack(v_stack, axis=-1)       # (B, K, J)
    alpha_tilde = np.stack(alpha_stack, axis=-1)
    h_w = np.stack(hw_stack, axis=-1)
    denom = vis.sum(axis=-1)
    good = denom >= EPS_VISIBILITY
    safe = np.where(good, denom, 1.0)
    alpha_hat = np.where(good, np.sum(alpha_tilde * vis, axis=-1) / safe, 0.0)
    h_hat = _transmittance(alpha_hat) * alpha_hat
    out = ChunkState(origins, dirs, z, widths, None, alpha_hat, h_hat, None, None, denom)
    if keep_state:
        out.per_view, out.vis, out.alpha_tilde, out.h_w = per_view, vis, alpha_tilde, h_w
    if not with_colors:
        return out

    counters.add("color_samples", npts)
    active = np.any(h_w >= EPS_VISIBILITY, axis=-1)
    sample_colors = np.broadcast_to(background, z.shape + (3,)).copy()
    if np.any(active):
        counters.add("sh_fits", int(active.sum()))
        apoints = points[active]
        in_dirs, in_colors = [], []
        for j, state in enumerate(working.views):
            offs = apoints - state.camera.center
            norm = np.linalg.norm(offs, axis=-1, keepdims=True)
            in_dirs.append(offs / np.maximum(norm, 1e-30))
            uv_u = uv_list[j][0][active]
            uv_v = uv_list[j][1][active]
            in_colors.append(bilinear_sample(state.view.image, uv_u, uv_v))
        in_dirs = np.stack(in_dirs, axis=1)                                  # (M,J,3)
        q_dirs = dirs[np.nonzero(active)[0]]                                 # (M,3)
        kernel, border_degree, border = sh_dual_form(config.sh_degree, config.sh_penalties)
        colors_q, fit = sh_fit_batched(
            in_dirs, h_w[active], np.stack(in_colors, axis=1), q_dirs, kernel,
            sh_basis_values(border_degree, in_dirs)[..., border],
            sh_basis_values(border_degree, q_dirs)[..., border],
        )
        sample_colors[active] = colors_q
        if keep_state:
            out.sh = fit

    h_sum = h_hat.sum(axis=-1)
    out.colors_out = (np.matmul(h_hat[:, None, :], sample_colors)[:, 0, :]
                      + background * (1.0 - h_sum)[:, None])
    out.sample_colors = sample_colors
    out.active = active
    return out


def _uniform_depths(near: float, far: float, k: int, n_rays: int):
    step = (far - near) / k
    z = near + step * np.arange(k)
    z = np.broadcast_to(z, (n_rays, k)).copy()
    widths = np.full((n_rays, k), step)
    return z, widths


def _fine_depths(z_coarse, widths_coarse, h_hat, k_fine: int, far: float):
    """Deterministic stratified inverse-CDF placement of fine samples.

    Rays whose coarse hitting mass is below the floor get no fine samples.
    Returns (z_fine, widths_fine, keep_mask).
    """
    mass = h_hat.sum(axis=-1)
    keep = mass >= _FINE_MASS_FLOOR
    if k_fine == 0 or not np.any(keep):
        if k_fine == 0:
            keep = np.zeros(z_coarse.shape[0], dtype=bool)
        shape = (z_coarse.shape[0], 0)
        return np.zeros(shape), np.zeros(shape), keep
    pdf = h_hat[keep] / mass[keep, None]
    cdf = np.cumsum(pdf, axis=-1)
    u = (np.arange(k_fine) + 0.5) / k_fine
    # first coarse bin whose cumulative mass reaches u
    idx = np.sum(cdf[:, None, :] < u[None, :, None], axis=-1)
    idx = np.minimum(idx, pdf.shape[1] - 1)
    rows = np.arange(pdf.shape[0])[:, None]
    cdf_prev = np.concatenate([np.zeros((pdf.shape[0], 1)), cdf[:, :-1]], axis=1)
    bin_pdf = np.maximum(pdf[rows, idx], 1e-300)
    frac = np.clip((u[None, :] - cdf_prev[rows, idx]) / bin_pdf, 0.0, 1.0)
    z_fine = z_coarse[keep][rows, idx] + frac * widths_coarse[keep][rows, idx]
    # enforce strictly increasing depths
    z_fine = np.maximum.accumulate(z_fine, axis=-1)
    bump = np.arange(k_fine) * 1e-12
    z_fine = z_fine + bump
    widths_fine = np.concatenate(
        [np.diff(z_fine, axis=-1), np.maximum(far - z_fine[:, -1:], 0.0)], axis=1
    )
    cap = _FINE_WIDTH_CAP * float(widths_coarse.reshape(-1)[0])
    widths_fine = np.minimum(widths_fine, cap)
    return z_fine, widths_fine, keep


def render_rays(working: WorkingSet, origins, dirs, config: RenderConfig,
                keep_state: bool = False):
    """Render a batch of rays; returns the final ChunkState (uniform or fine).

    In coarse-to-fine mode the returned state covers every ray, ``fine_keep``
    marks the rays that got fine samples, and with ``keep_state=True``
    ``fine`` holds the fine pass's own state over those rays (None when no
    ray was kept). Sample placement is constant w.r.t. the parameters.
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    n = origins.shape[0]
    z, widths = _uniform_depths(working.near, working.far, config.k_coarse, n)
    if config.mode == "uniform":
        return _chunk_forward(working, origins, dirs, z, widths, config,
                              keep_state=keep_state)
    # coarse pass: alphas only, no color fits
    coarse = _chunk_forward(working, origins, dirs, z, widths, config, with_colors=False)
    z_f, w_f, keep = _fine_depths(z, widths, coarse.h_hat, config.k_fine, working.far)
    # rays without fine samples keep zero depths and alphas and the background
    k = config.k_fine
    background = np.asarray(config.background, dtype=np.float64)
    state = ChunkState(
        origins, dirs, z=np.zeros((n, k)), widths=np.zeros((n, k)),
        colors_out=np.broadcast_to(background, (n, 3)).copy(),
        alpha_hat=np.zeros((n, k)), h_hat=np.zeros((n, k)),
        sample_colors=np.broadcast_to(background, (n, k, 3)).copy(),
        active=None, denom=None, fine_keep=keep,
    )
    if np.any(keep):
        fine = _chunk_forward(working, origins[keep], dirs[keep], z_f, w_f, config,
                              keep_state=keep_state)
        for name in ("z", "widths", "colors_out", "alpha_hat", "h_hat", "sample_colors"):
            getattr(state, name)[keep] = getattr(fine, name)
        if keep_state:
            state.fine = fine
    return state


def render_rays_backward(working: WorkingSet, state: ChunkState, config: RenderConfig,
                         dc_o: np.ndarray, dh_extra: Optional[np.ndarray] = None):
    """Pull output-color (and optional hitting-probability) gradients back
    to the raw distribution parameters of every working view.

    ``state`` must come from a :func:`render_rays` call with
    ``keep_state=True``: the returned state in uniform mode, its ``fine``
    state in coarse-to-fine mode. Returns ``{view_index: (H, W, 3, n) gradient}``.
    Only the nearest-pixel lookup path is differentiable.
    """
    if config.bilinear_params:
        raise ConfigurationError("gradients require nearest-pixel parameter lookups")
    if not state.per_view:
        raise InputError("state was not recorded with keep_state=True")
    background = np.asarray(config.background, dtype=np.float64)
    h_hat = state.h_hat
    alpha_hat = state.alpha_hat

    d_hhat = np.matmul(state.sample_colors - background, dc_o[:, :, None])[:, :, 0]
    if dh_extra is not None:
        d_hhat = d_hhat + dh_extra

    # gradient of the sample colors (only active samples have one)
    dh_w = np.zeros_like(state.h_w)
    if state.sh is not None:
        ray_active = np.nonzero(state.active)[0]
        dc_active = h_hat[state.active][:, None] * dc_o[ray_active]
        dh_w[state.active] = sh_fit_weight_grads(state.sh, dc_active)

    # through the compositing products into the blended alphas
    u = d_hhat * h_hat
    suffix = np.cumsum(u[:, ::-1], axis=1)[:, ::-1] - u
    d_alpha_hat = (d_hhat * _transmittance(alpha_hat)
                   - suffix / np.maximum(1.0 - alpha_hat, 1e-300))

    denom = state.denom
    good = denom >= EPS_VISIBILITY
    safe = np.where(good, denom, 1.0)
    grads = {}
    for j, vstate in enumerate(working.views):
        pv = state.per_view[j]
        valid = pv["valid"]
        t_a, t_b = pv["t_a"], pv["t_b"]
        alpha_j = state.alpha_tilde[..., j]
        vis_j = state.vis[..., j]
        d_alpha_j = np.where(good, d_alpha_hat * vis_j / safe, 0.0)
        d_vis_j = np.where(good, d_alpha_hat * (alpha_j - alpha_hat) / safe, 0.0)
        gate = valid & ~pv["saturated"] & ~pv["clamped"]
        inv = np.where(pv["saturated"], 1.0, 1.0 - t_a)
        d_alpha_eff = np.where(gate, d_alpha_j, 0.0)
        dh_w_j = np.where(valid, dh_w[..., j], 0.0)
        dt_b = d_alpha_eff / inv + dh_w_j
        dt_a = (
            d_alpha_eff * (t_b - 1.0) / (inv * inv)
            - np.where(valid, d_vis_j, 0.0)
            - dh_w_j
        )
        dt_a = np.where(valid, dt_a, 0.0)
        dt_b = np.where(valid, dt_b, 0.0)

        iy, ix = pv["pix"]
        sig = vstate.sig[iy, ix]
        w = vstate.w[iy, ix]
        # mixture CDF gradients from the forward's stored x and component sigmoids
        d_a = np.stack(mixture_cdf_grads(sig, w, pv["x_a"], pv["s_a"]), axis=-2)
        d_b = np.stack(mixture_cdf_grads(sig, w, pv["x_b"], pv["s_b"]), axis=-2)
        g = dt_a[..., None, None] * d_a + dt_b[..., None, None] * d_b
        # sum the (mu, sigma, w) gradients per pixel, then chain through the
        # decode once: it acts per pixel, so its chain rule is linear in them
        params = vstate.view.dmap.params
        g_map = scatter_to_map(params.shape, iy[valid], ix[valid], g[valid])
        grads[vstate.view.index] = decode_backward(
            params, working.near, working.far,
            g_map[..., 0, :], g_map[..., 1, :], g_map[..., 2, :],
        )
    return grads


def render_image(working: WorkingSet, config: RenderConfig) -> np.ndarray:
    """Render the query view; deterministic and parallelizable per pixel."""
    cam = working.query_camera
    ys, xs = np.meshgrid(
        np.arange(cam.height, dtype=np.float64) + 0.5,
        np.arange(cam.width, dtype=np.float64) + 0.5,
        indexing="ij",
    )
    px = np.stack([xs, ys], axis=-1).reshape(-1, 2)
    dirs, _ = cam.rays_for_pixels(px)
    origins = np.broadcast_to(cam.center, dirs.shape)
    out = np.empty((px.shape[0], 3))
    chunk = 512
    ranges = [(s, min(s + chunk, px.shape[0])) for s in range(0, px.shape[0], chunk)]

    def run(span):
        s, e = span
        state = render_rays(working, origins[s:e], dirs[s:e], config)
        out[s:e] = state.colors_out

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            list(pool.map(run, ranges))
    else:
        for span in ranges:
            run(span)
    return np.clip(out.reshape(cam.height, cam.width, 3), 0.0, 1.0)


def render_pixel(working: WorkingSet, ray: Ray, config: RenderConfig):
    """Render a single query ray; returns (color, SampleSet)."""
    state = render_rays(working, ray.origin[None, :], ray.direction[None, :], config)
    samples = SampleSet(
        depths=state.z[0],
        widths=state.widths[0],
        alphas=state.alpha_hat[0],
        hit_probs=state.h_hat[0],
        colors=state.sample_colors[0],
    )
    return np.clip(state.colors_out[0], 0.0, 1.0), samples


def hitting_probs(alphas) -> np.ndarray:
    """First-hit probabilities from ordered alphas: transmittance times alpha."""
    alphas = np.asarray(alphas, dtype=np.float64)
    if np.any(alphas < 0) or np.any(alphas > 1):
        raise InputError("alphas must lie in [0, 1]")
    return _transmittance(alphas) * alphas


def query_visibility(working: WorkingSet, point) -> np.ndarray:
    """Per-working-view visibility of a world point.

    Views that do not image the point (behind the camera or outside the
    frame) report zero visibility.
    """
    point = np.asarray(point, dtype=np.float64)
    out = np.zeros(working.n_views)
    for j, state in enumerate(working.views):
        mu, sig, w, depth, _, valid, _ = _view_lookup(
            state, point[None, :], working.near, working.far, False
        )
        if valid[0]:
            out[j] = 1.0 - mixture_cdf(mu[0], sig[0], w[0], depth[0])
    return out


def _point_sample(working: WorkingSet, point, direction, bin_width: float,
                  config: RenderConfig, with_colors: bool) -> ChunkState:
    """One sample on a ray that starts at ``point``: depth 0, width ``bin_width``."""
    origins = np.asarray(point, dtype=np.float64).reshape(1, 3)
    dirs = np.asarray(direction, dtype=np.float64).reshape(1, 3)
    return _chunk_forward(working, origins, dirs, np.zeros((1, 1)),
                          np.full((1, 1), float(bin_width)), config, with_colors=with_colors)


def sample_alpha(working: WorkingSet, point, bin_width: float) -> float:
    """Visibility-weighted mean of the working views' interval opacities."""
    if bin_width <= 0:
        raise InputError("bin width must be positive")
    state = _point_sample(working, point, np.zeros(3), bin_width, RenderConfig(), False)
    return float(state.alpha_hat[0, 0])


def sample_color(working: WorkingSet, point, direction, bin_width: float,
                 config: RenderConfig) -> np.ndarray:
    """Hitting-probability-weighted SH color of one sample point.

    Falls back to the background color when every working view's weight is
    below the visibility floor.
    """
    return _point_sample(working, point, direction, bin_width, config, True).sample_colors[0, 0]


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB for images in [0, 1]; capped at 99."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"image shapes differ: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0:
        return 99.0
    return min(10.0 * np.log10(1.0 / mse), 99.0)
