"""Occlusion-aware volume rendering of query views.

For every sample point on a query ray, each working view contributes an
interval opacity and a visibility from its per-pixel occlusion CDF. The
visibility-weighted opacities composite into hitting probabilities, and a
hitting-probability-weighted spherical-harmonics fit of the working views'
colors gives the sample color. Two sampling modes exist: uniform depths,
and coarse-to-fine where a cheap coarse pass (CDF evaluations only, no
color fits) places the few fine samples by deterministic stratified
inverse-CDF sampling of the coarse hitting mass.

A working set stores its J views' pixels end to end: view j owns the flat
cells ``first[j]:first[j + 1]``, row-major at its own width, by which
decoded mixtures, images and gradients are gathered and scattered. Points
project onto every view at once, so per-sample quantities are (..., J)
arrays. The decoded mixtures are component-major: the (3, n, cells) stack
gathers to (mu, sigma, w), each (n, ..., J), so the CDF kernel and its
gradients work on contiguous per-component arrays. A component that a
view lacks has scale 1 and weight exactly 0.

``render_image`` cuts the image into chunks of at most 128 rays and 8192
(ray, sample) pairs, whatever the thread count, and renders them on up to
``RenderConfig.threads`` streams, by default every CPU the process may
use: the caller and its helper threads pull tasks from one shared queue.
A task is one chunk, except in coarse-to-fine mode, where it holds
``max(chunk, 3072 // k_fine)`` rays (384 at 32 + 8): the coarse pass runs
chunk by chunk and keeps only the hitting probabilities, then fine
placement, the fine pass and its SH fits run once over the task, so the
fine path makes a third as many small NumPy calls per ray. Each such call
hands the GIL over, and with several streams every handoff is contended.
A chunk's forward frees each per-entry temporary at its last use and builds
the SH system in place; with 8 working views its traced peak is about
0.9-1 KB per (ray, sample) pair, and a 32 + 8 task's about 6 MB, so each
stream holds at most about 8 MB traced (each thread's malloc arena may keep
some of what it freed). NumPy releases the GIL in the large kernels, so the
streams overlap. Rays never interact, so the image and the counters are
identical for every thread count. ``optim.train_step`` cuts its batch by
the same chunk rule and runs its chunks, then one task per map, on the
same stream runner, ``_run_streams``, which starts at most 128 streams.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from rayvis.camera import PinholeCamera
from rayvis.counters import counters
from rayvis.errors import (ConfigurationError, DimensionMismatchError, InputError, bounded,
                           near_far, rgb)
from rayvis.raydist import (
    DistributionMap,
    decode_arrays,  # noqa: F401  (perfbench/tracing.py traces it under this name)
    decode_stack,
    interval_alpha,
    mixture_cdf,
    mixture_cdf_grads,
    mixture_cdf_terms,
    rows_by_cell,
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
# most rays in one chunk (``_chunk_rays``) of ``render_image`` and of
# ``optim.train_step``; a step's sums depend on it, never on the thread count
_CHUNK_RAYS = 128
# most (ray, sample) pairs in one chunk, which sets each stream's peak
# memory: uniform k=128 gets 64-ray chunks of ~8 MB, under glibc's trim
# threshold, so one stream stops re-faulting them; the coarse passes of
# coarse-to-fine 32 + 8 and the training chunks at k=48 keep 128 rays
_CHUNK_PAIRS = 8192
# most samples per ray, k_coarse plus k_fine in coarse-to-fine mode: a
# one-ray chunk, rendered or trained, then still keeps to the pair budget
MAX_SAMPLES = _CHUNK_PAIRS
# fine samples per task of a coarse-to-fine ``render_image`` (384 rays at
# 32 + 8): the fine pass and its SH fits run once over a task, a third as
# many small NumPy calls, each a GIL handoff, per ray as once per 128-ray chunk
_FINE_PAIRS = 3072
_MAX_STREAMS = 128      # most streams of ``_run_streams``, whatever it is asked for


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RenderConfig:
    """Sampling and shading options for rendering one query view."""

    k_coarse: int = 64
    k_fine: int = 64
    mode: str = "uniform"
    n_working: int = 8
    background: tuple = (0.0, 0.0, 0.0)
    sh_degree: int = 3
    threads: int = field(default_factory=usable_cpus)

    def __post_init__(self):
        for name, low, high in (("k_coarse", 2, MAX_SAMPLES), ("k_fine", 0, MAX_SAMPLES),
                                ("n_working", 1, np.inf), ("threads", 1, np.inf),
                                ("sh_degree", 0, MAX_DEGREE)):
            object.__setattr__(self, name, bounded(name, getattr(self, name), low, high,
                                                   whole=True))
        if self.mode not in ("uniform", "coarse_to_fine"):
            raise ConfigurationError(f"mode must be uniform or coarse_to_fine, not '{self.mode}'")
        if self.mode == "coarse_to_fine":   # samples per ray
            bounded("k_coarse + k_fine", self.k_coarse + self.k_fine, 2, MAX_SAMPLES, whole=True)
        object.__setattr__(self, "background", rgb("background", self.background))


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
class WorkingSet:
    """Query camera, its nearest reference views and depth bounds, and the J views' stacks."""

    query_camera: PinholeCamera
    views: list             # the J chosen RenderViews
    near: float
    far: float
    rot: np.ndarray         # (3, 3J): the transposed rotations side by side
    trans: np.ndarray       # (J, 3)
    centers: np.ndarray     # (J, 3)
    intrinsics: np.ndarray  # (4, J): fx, fy, cx, cy
    sizes: np.ndarray       # (2, J): each view's own height and width
    first: np.ndarray       # (J + 1,): view j owns cells first[j]:first[j + 1]
    decoded: np.ndarray     # contiguous (3, n, cells): mu, sig, w by component and cell
    images: np.ndarray      # (cells, 3)

    @property
    def n_views(self) -> int:
        return len(self.views)


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
    near, far = near_far(near, far)
    qc = query_camera.center
    candidates = sorted(
        ((float(np.linalg.norm(v.camera.center - qc)), v.index, v) for v in views
         if v.index != query_index and not _same_camera(v.camera, query_camera)),
        key=lambda item: item[:2],
    )
    n_working = bounded("n_working", n_working, 1, len(candidates), whole=True)
    chosen = [view for _, _, view in candidates[:n_working]]
    cams = [view.camera for view in chosen]
    first = np.cumsum([0] + [c.height * c.width for c in cams])
    decoded = np.zeros((3, max(v.dmap.n_components for v in chosen), first[-1]))
    decoded[1] = 1.0                    # a component a view lacks: scale 1, weight 0
    for j, view in enumerate(chosen):
        n = view.dmap.n_components
        decoded[:, :n, first[j]:first[j + 1]] = decode_stack(
            view.dmap.params.reshape(-1, 3, n), near, far)
    return WorkingSet(
        query_camera, chosen, near, far,
        rot=np.concatenate([c.rotation.T for c in cams], axis=1),
        trans=np.array([c.translation for c in cams]),
        centers=np.array([c.center for c in cams]),
        intrinsics=np.array([[c.fx, c.fy, c.cx, c.cy] for c in cams]).T,
        sizes=np.array([[c.height, c.width] for c in cams]).T, first=first, decoded=decoded,
        images=np.concatenate([view.image.reshape(-1, 3) for view in chosen]),
    )


def _same_camera(a: PinholeCamera, b: PinholeCamera) -> bool:
    return (
        (a.width, a.height, a.fx, a.fy, a.cx, a.cy) == (b.width, b.height, b.fx, b.fy, b.cx, b.cy)
        and np.array_equal(a.rotation, b.rotation)
        and np.array_equal(a.translation, b.translation)
    )


def _take(array: np.ndarray, entries) -> np.ndarray:
    """Gather (ray, sample, view) entries of a (B, K, J, ...) array by one flat ``np.take``."""
    return np.take(array.reshape((-1,) + array.shape[3:]), entries, axis=0)


def _bilinear(stack: np.ndarray, first, h, w, u, v) -> np.ndarray:
    """Bilinear lookup at continuous image coordinates (pixel centers at +0.5)
    in the row-major ``h`` x ``w`` grid from cell ``first`` of a (cells, ...)
    stack, clipped to it; the weights broadcast over the trailing axes. Each
    row of corners is blended in place, so at most three gathers are alive at once."""
    x = np.asarray(u, dtype=np.float64) - 0.5
    y = np.asarray(v, dtype=np.float64) - 0.5
    x0 = np.clip(np.floor(x).astype(np.int64), 0, w - 1)
    y0 = np.clip(np.floor(y).astype(np.int64), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    trailing = (...,) + (None,) * (stack.ndim - 1)
    fx = np.clip(x - x0, 0.0, 1.0)[trailing]
    fy = np.clip(y - y0, 0.0, 1.0)[trailing]
    del x, y
    rows = []
    for r, weight in ((y0, 1 - fy), (y1, fy)):
        r = r * w + first
        left = np.take(stack, r + x0, axis=0)
        left *= 1 - fx
        right = np.take(stack, r + x1, axis=0)
        right *= fx
        left += right
        left *= weight
        rows.append(left)
    rows[0] += rows[1]
    return rows[0]


def _lookup(working: WorkingSet, points: np.ndarray):
    """Project points (..., 3) onto every working view and gather the decoded
    mixtures of the pixels they fall in (nearest-pixel lookups).

    Returns (mu, sig, w), each (n, ..., J), then the view depth, the image
    coordinates (u, v), ``valid`` (in front of the view, inside its own
    image) and the flat cell, each a contiguous (..., J) array. The
    projection is freed before the gather, so only what is returned stays.
    """
    pc = (points @ working.rot).reshape(points.shape[:-1] + working.trans.shape)
    pc += working.trans
    z = pc[..., 2].copy()
    safe_z = np.where(z > 0, z, 1.0)
    fx, fy, cx, cy = working.intrinsics
    u = pc[..., 0] * fx
    u /= safe_z
    u += cx
    v = pc[..., 1] * fy
    v /= safe_z
    v += cy
    del pc, safe_z
    h, w = working.sizes
    valid = (z > 0) & (u >= 0) & (u < w) & (v >= 0) & (v < h)
    cell = np.clip(np.floor(v).astype(np.int64), 0, h - 1)
    cell *= w
    cell += np.clip(np.floor(u).astype(np.int64), 0, w - 1)
    cell += working.first[:-1]
    mu, sig, wt = np.take(working.decoded, cell, axis=2)
    return mu, sig, wt, z, (u, v), valid, cell


def _transmittance(alphas):
    """Exclusive cumulative product of ``1 - alpha`` along the sample axis."""
    trans = np.cumprod(1.0 - alphas, axis=-1)
    return np.concatenate([np.ones_like(trans[..., :1]), trans[..., :-1]], axis=-1)


@dataclass
class ChunkState:
    """All intermediates of one forward chunk, kept for the backward pass:
    ``valid`` and ``cell`` of the (B, K, J) lookup, and ``cdf_a``/``cdf_b``,
    the mixture CDF's (t, x, s) at each bin's start and end, with ``t``
    (B, K, J) and ``x``, ``s`` (n, B, K, J)."""

    z: np.ndarray
    widths: np.ndarray
    colors_out: Optional[np.ndarray]
    alpha_hat: np.ndarray
    h_hat: np.ndarray
    sample_colors: Optional[np.ndarray]
    active: Optional[np.ndarray]
    denom: Optional[np.ndarray]
    sh: Optional[DualFit] = None
    valid: Optional[np.ndarray] = None
    cell: Optional[np.ndarray] = None
    cdf_a: Optional[tuple] = None
    cdf_b: Optional[tuple] = None


def _chunk_forward(working: WorkingSet, origins, dirs, z, widths, config: RenderConfig,
                   with_colors: bool = True, keep_state: bool = False):
    """Render a chunk of rays at the given per-ray depths.

    ``z`` and ``widths`` have shape (B, K). With ``with_colors=False`` only
    the alpha/hitting-probability stage runs (the coarse pass).
    """
    background = np.asarray(config.background, dtype=np.float64)
    npts = z.size
    points = origins[:, None, :] + z[..., None] * dirs[:, None, :]
    mu, sig, w, depth, (u, v), valid, cell = _lookup(working, points)
    if not with_colors:
        del u, v
    if not keep_state:
        del cell
    cdf_a = mixture_cdf_terms(mu, sig, w, depth, keep_state)
    depth += widths[..., None]          # the bins' far ends
    cdf_b = mixture_cdf_terms(mu, sig, w, depth, keep_state)
    del mu, sig, w, depth
    counters.add("cdf_evals", 2 * npts * working.n_views)
    t_a, t_b = cdf_a[0], cdf_b[0]
    vis = np.where(valid, 1.0 - t_a, 0.0)       # (B, K, J)
    alpha_raw, _ = interval_alpha(t_a, t_b)
    alpha_tilde = np.where(valid, np.clip(alpha_raw, 0.0, 1.0), 0.0)
    del alpha_raw
    denom = vis.sum(axis=-1)
    good = denom >= EPS_VISIBILITY
    safe = np.where(good, denom, 1.0)
    alpha_hat = np.where(good, np.sum(alpha_tilde * vis, axis=-1) / safe, 0.0)
    h_hat = _transmittance(alpha_hat) * alpha_hat
    out = ChunkState(z, widths, None, alpha_hat, h_hat, None, None, denom)
    if keep_state:
        out.valid, out.cell, out.cdf_a, out.cdf_b = valid, cell, cdf_a, cdf_b
    if not with_colors:
        return out
    h_w = np.where(valid, t_b - t_a, 0.0)
    del cdf_a, cdf_b, t_a, t_b, vis, alpha_tilde, good, safe, valid

    counters.add("color_samples", npts)
    active = np.any(h_w >= EPS_VISIBILITY, axis=-1)
    sample_colors = np.broadcast_to(background, z.shape + (3,)).copy()
    if np.any(active):
        counters.add("sh_fits", int(active.sum()))
        # the fit's weights and input directions are built batch last, as the
        # solver works on them: (J, M) and (3, J, M), passed as transposed views
        picked = active.reshape(-1)
        weights = np.compress(picked, h_w.reshape(-1, working.n_views).T, axis=1)
        del h_w
        in_colors = _bilinear(working.images, working.first[:-1], *working.sizes,
                              u[active], v[active])                          # (M,J,3)
        del u, v
        in_dirs = np.compress(picked, points.reshape(-1, 3).T, axis=1)[:, None, :]
        in_dirs = np.subtract(in_dirs, working.centers.T[:, :, None], order="C")  # (3,J,M)
        in_dirs /= np.maximum(np.linalg.norm(in_dirs, axis=0, keepdims=True), 1e-30)
        q_dirs = dirs[np.nonzero(active)[0]]                                 # (M,3)
        kernel, border_degree, border = sh_dual_form(config.sh_degree, DEFAULT_DEGREE_PENALTIES)
        colors_q, fit = sh_fit_batched(
            in_dirs.T, weights.T, in_colors, q_dirs, kernel,
            sh_basis_values(border_degree, in_dirs.T)[..., border],
            sh_basis_values(border_degree, q_dirs)[..., border],
        )
        sample_colors[active] = colors_q
        if keep_state:
            out.sh = fit
        del fit

    h_sum = h_hat.sum(axis=-1)
    out.colors_out = (np.matmul(h_hat[:, None, :], sample_colors)[:, 0, :]
                      + background * (1.0 - h_sum)[:, None])
    out.sample_colors = sample_colors
    out.active = active
    return out


def _fine_depths(z_coarse, widths_coarse, h_hat, k_fine: int, far: float):
    """Deterministic stratified inverse-CDF placement of fine samples.

    Rays whose coarse hitting mass is below the floor get no fine samples.
    Returns (z_fine, widths_fine, keep_mask).
    """
    mass = h_hat.sum(axis=-1)
    keep = (mass >= _FINE_MASS_FLOOR) & (k_fine > 0)
    if not np.any(keep):
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
    z_fine = np.maximum.accumulate(z_fine, axis=-1) + np.arange(k_fine) * 1e-12
    widths_fine = np.concatenate(
        [np.diff(z_fine, axis=-1), np.maximum(far - z_fine[:, -1:], 0.0)], axis=1
    )
    cap = _FINE_WIDTH_CAP * float(widths_coarse.reshape(-1)[0])
    widths_fine = np.minimum(widths_fine, cap)
    return z_fine, widths_fine, keep


def _chunk_rays(config: RenderConfig) -> int:
    """Rays of one chunk: at most 128 rays and 8192 (ray, sample) pairs, at least 1."""
    samples = config.k_coarse + (config.k_fine if config.mode == "coarse_to_fine" else 0)
    return max(1, min(_CHUNK_RAYS, _CHUNK_PAIRS // samples))


def render_rays(working: WorkingSet, origins, dirs, config: RenderConfig,
                keep_state: bool = False):
    """Render a batch of rays; returns ``(colors, state, kept)``: every ray's
    composited color, and the ChunkState of the rays that ran the color pass
    and their mask. Those are all rays in uniform mode; in coarse-to-fine
    mode the coarse pass runs chunk by chunk, the rays with fine samples run
    the fine pass, and the rest render as the background (``state`` is None
    if none was kept). Gradients flow only through ``state``, which is what
    :func:`render_rays_backward` takes; sample placement is constant.
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    n, k = origins.shape[0], config.k_coarse
    step = (working.far - working.near) / k
    z = np.broadcast_to(working.near + step * np.arange(k), (n, k)).copy()
    widths = np.full((n, k), step)
    if config.mode == "uniform":
        state = _chunk_forward(working, origins, dirs, z, widths, config,
                               keep_state=keep_state)
        return state.colors_out, state, np.ones(n, dtype=bool)
    # coarse pass, chunk by chunk: alphas only, no color fits; keep the hitting probabilities
    h_hat = np.empty((n, k))
    chunk = _chunk_rays(config)
    for start in range(0, n, chunk):
        s = slice(start, start + chunk)
        h_hat[s] = _chunk_forward(working, origins[s], dirs[s], z[s], widths[s], config,
                                  with_colors=False).h_hat
    z_f, w_f, keep = _fine_depths(z, widths, h_hat, config.k_fine, working.far)
    colors = np.broadcast_to(np.asarray(config.background, dtype=np.float64), (n, 3)).copy()
    if not np.any(keep):
        return colors, None, keep
    fine = _chunk_forward(working, origins[keep], dirs[keep], z_f, w_f, config,
                          keep_state=keep_state)
    colors[keep] = fine.colors_out
    return colors, fine, keep


def render_rays_backward(working: WorkingSet, state: ChunkState, config: RenderConfig,
                         dc_o: np.ndarray, dh_extra: Optional[np.ndarray] = None):
    """Pull output-color (and optional hitting-probability) gradients back
    to the decoded (mu, sigma, w) parameters of the working set's stack.

    ``state`` is one of :func:`render_rays`, recorded with
    ``keep_state=True``, and ``dc_o`` and ``dh_extra`` cover its rays.
    Returns ``(cells, rows)``: the strictly increasing flat cells of the
    working set that some sample hit, and each one's summed (mu, sigma, w)
    gradient, ``(len(cells), 3, n)``; the rows of components that a view
    lacks are meaningless, and ``optim.view_grad`` drops them. Nothing
    stack-sized is allocated and nothing is decoded: ``view_grad`` adds a
    step's rows of one view and chains them to the raw parameters once.
    """
    if state.valid is None:
        raise InputError("state was not recorded with keep_state=True")
    background = np.asarray(config.background, dtype=np.float64)
    h_hat, alpha_hat = state.h_hat, state.alpha_hat
    d_hhat = np.matmul(state.sample_colors - background, dc_o[:, :, None])[:, :, 0]
    if dh_extra is not None:
        d_hhat = d_hhat + dh_extra

    # gradient of the sample colors (only active samples have one)
    dh_w = np.zeros(state.valid.shape)
    if state.sh is not None:
        ray_active = np.nonzero(state.active)[0]
        dc_active = h_hat[state.active][:, None] * dc_o[ray_active]
        dh_w[state.active] = sh_fit_weight_grads(state.sh, dc_active)

    # through the compositing products into the blended alphas
    u = d_hhat * h_hat
    suffix = np.cumsum(u[:, ::-1], axis=1)[:, ::-1] - u
    d_alpha_hat = (d_hhat * _transmittance(alpha_hat)
                   - suffix / np.maximum(1.0 - alpha_hat, 1e-300))

    # only the (ray, sample, view) entries that project into a view carry
    # gradient: compact to them (each with its (ray, sample) entry ``rs``)
    # and redo their visibilities and opacities from the stored CDF values
    sel = np.flatnonzero(state.valid)
    rs = sel // working.n_views
    t_a, t_b = _take(state.cdf_a[0], sel), _take(state.cdf_b[0], sel)
    vis = 1.0 - t_a
    alpha_raw, saturated = interval_alpha(t_a, t_b)
    del t_a
    denom = np.take(state.denom, rs)
    good = denom >= EPS_VISIBILITY
    safe = np.where(good, denom, 1.0)
    del denom
    d_ah = np.take(d_alpha_hat, rs)
    d_alpha = np.where(good, d_ah * vis / safe, 0.0)
    d_vis = np.where(good, d_ah * (np.clip(alpha_raw, 0.0, 1.0) - np.take(alpha_hat, rs))
                     / safe, 0.0)
    del rs, good, safe, d_ah
    inv = np.where(saturated, 1.0, vis)
    del vis
    d_alpha = np.where(saturated | (alpha_raw < 0) | (alpha_raw > 1), 0.0, d_alpha)
    del saturated, alpha_raw
    dh_w = np.take(dh_w, sel)
    dt_b = d_alpha / inv + dh_w
    dt_a = d_alpha * (t_b - 1.0) / (inv * inv) - d_vis - dh_w
    del t_b, d_alpha, d_vis, inv, dh_w

    cell = _take(state.cell, sel)
    sig, w = np.take(working.decoded[1:], cell, axis=2)
    def scaled_grads(dt, cdf):
        """Mixture CDF gradients at one bin end from the forward's stored x and
        component sigmoids, gathered as (n, M) columns, scaled by ``dt`` in place."""
        grads = mixture_cdf_grads(sig, w, *(np.take(a.reshape(len(a), -1), sel, axis=1)
                                            for a in cdf[1:]))
        for g in grads:
            g *= dt
        return grads

    g = scaled_grads(dt_a, state.cdf_a)
    for total, far_end in zip(g, scaled_grads(dt_b, state.cdf_b)):
        total += far_end
    del sel, sig, w, dt_a, dt_b
    # sum the (mu, sigma, w) gradients per hit cell of the working set, in entry order
    return rows_by_cell(working.first[-1], cell, g)


def _run_streams(n_tasks: int, task, streams: int) -> None:
    """Call ``task(i)`` for every ``i`` in ``range(n_tasks)`` on ``streams`` streams.

    The caller and up to ``min(streams, n_tasks, 128) - 1`` helper threads
    pull the next index from one shared queue, so which stream runs a task
    is left to timing: tasks must write disjoint outputs. The first error raised in any stream
    stops the queue and is re-raised once all streams have stopped.
    """
    indices = iter(range(n_tasks))
    lock = threading.Lock()
    errors = []

    def drain():
        while True:
            with lock:
                i = None if errors else next(indices, None)
            if i is None:
                return
            try:
                task(i)
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return

    helpers = [threading.Thread(target=drain)
               for _ in range(min(streams, n_tasks, _MAX_STREAMS) - 1)]
    for helper in helpers:
        helper.start()
    drain()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]


def render_image(working: WorkingSet, config: RenderConfig) -> np.ndarray:
    """Render the query view; deterministic and parallelizable per pixel.

    A chunk is ``min(128, 8192 // S)`` rays (at least 1), S the samples per
    ray: ``k_coarse``, plus ``k_fine`` in coarse-to-fine mode. A task is one
    chunk, or in coarse-to-fine mode ``max(chunk, 3072 // k_fine)`` rays,
    whose coarse pass ``render_rays`` runs chunk by chunk. Neither depends
    on the thread count, so memory in flight grows with the streams.
    ``T = min(config.threads, tasks, 128)`` streams share one queue of the
    tasks (``_run_streams``): the caller and ``T - 1`` helper threads
    each pull the next task, render it and write its rows. Every ray is
    rendered on its own, so the image and the counters are bit-identical
    for every thread count.
    """
    cam = working.query_camera
    ys, xs = np.indices((cam.height, cam.width)) + 0.5
    px = np.stack([xs, ys], axis=-1).reshape(-1, 2)
    dirs, _ = cam.rays_for_pixels(px)
    origins = np.broadcast_to(cam.center, dirs.shape)
    out = np.empty((px.shape[0], 3))
    task = _chunk_rays(config)
    if config.mode == "coarse_to_fine" and config.k_fine:
        task = max(task, _FINE_PAIRS // config.k_fine)
    tasks = -(-px.shape[0] // task)

    def render_task(i):
        s = slice(i * task, (i + 1) * task)
        out[s] = render_rays(working, origins[s], dirs[s], config)[0]

    _run_streams(tasks, render_task, config.threads)
    return np.clip(out.reshape(cam.height, cam.width, 3), 0.0, 1.0)


def query_visibility(working: WorkingSet, point) -> np.ndarray:
    """Per-working-view visibility of a world point.

    Costs one CDF evaluation per view that images the point; views that do
    not (behind the camera or outside the frame) report zero visibility.
    """
    point = np.asarray(point, dtype=np.float64)[None, :]
    mu, sig, w, depth, _, valid, _ = _lookup(working, point)
    out = np.zeros(working.n_views)
    out[valid[0]] = 1.0 - mixture_cdf(*(a[:, valid].T for a in (mu, sig, w)), depth[valid])
    return out


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
