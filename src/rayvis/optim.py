"""Scene-specific optimization of distribution maps.

Every training step picks one reference view as a pseudo query view,
renders a ray batch from it using the remaining views, and descends three
losses with analytic gradients:

* render: squared error of the composited colors against the view's image;
* consistency: cross entropy between the hitting probabilities decoded
  from the pseudo query ray's own distribution and those computed by the
  renderer, which is how rendered geometry gets memorized into the maps;
* depth: squared error of the first component mean against a depth map.

The maps are the only trainable parameters; Adam updates them densely.

A step's ray batch runs as fixed 128-ray chunks, in pixel order, on up to
``TrainConfig.threads`` streams (by default every usable CPU). Each chunk
renders its rays, takes its share of the render and consistency losses and
runs its own backward. Every backward returns ``(cells, rows)``: the flat
cells of a parameter stack it touched and their summed (mu, sigma, w)
gradient rows. The caller adds the chunks' losses in chunk order, and
``map_grads`` adds each stack's rows in the same order and decodes them to
the raw parameters once per step: once for the working set's stack and
once for the pseudo query view's own map (own-hit rows, then depth rows).
The chunking never depends on the thread count, so a step is bit-identical
for every count.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from rayvis.camera import PinholeCamera
from rayvis.errors import ConfigurationError, DimensionMismatchError, InputError, NumericalError
from rayvis.imgio import atomic_write_bytes, atomic_writer, view_name
from rayvis.raydist import (
    DistributionMap,
    SIGMA_MIN_FRACTION,
    decode_arrays,
    decode_backward,
    inv_softplus,
    logit,
    mixture_cdf_param_grads,
    rows_by_cell,
)
from rayvis.render import (
    _CHUNK_RAYS,
    RenderConfig,
    RenderView,
    WorkingSet,
    _run_streams,
    render_image,
    render_rays,
    render_rays_backward,
    psnr,
    select_working_views,
    usable_cpus,
)
from rayvis.scene import DepthMap

_DECODE_CLIP = 1e-7  # keeps the mean logit finite for depths at the far sentinel


@dataclass
class LossReport:
    """Loss values of one training step; total is the exact weighted sum."""

    step: int
    render_loss: float
    consistency_loss: float
    depth_loss: float
    total: float


@dataclass
class TrainConfig:
    lambda_render: float = 1.0
    lambda_consist: float = 0.25
    lambda_depth: float = 0.1
    batch_size: int = 512
    steps: int = 2000
    seed: int = 0
    eps_prob: float = 1e-5
    n_working: int = 8
    k_samples: int = 64
    learning_rate: float = 1e-4
    halve_every: int = 100_000
    betas: tuple = (0.9, 0.999)
    adam_eps: float = 1e-8
    sh_degree: int = 3
    background: tuple = (0.0, 0.0, 0.0)
    sampling_mode: str = "uniform"       # or "coarse_to_fine"
    k_fine: int = 16
    consist_variant: str = "binary"      # or "categorical"
    consist_flow: str = "stop_h"         # or "symmetric"
    eval_interval: int = 500
    threads: int = field(default_factory=usable_cpus)

    def __post_init__(self):
        for name in ("lambda_render", "lambda_consist", "lambda_depth"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigurationError(f"{name} must be finite and nonnegative")
        for name in ("steps", "seed", "eval_interval"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be nonnegative")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if not (0.0 < self.learning_rate < np.inf):
            raise ConfigurationError("learning_rate must be finite and positive")
        if not (0.0 < self.eps_prob < 0.5):
            raise ConfigurationError("eps_prob must lie in (0, 0.5)")
        if self.consist_variant not in ("binary", "categorical"):
            raise ConfigurationError(f"unknown CE variant '{self.consist_variant}'")
        if self.consist_flow not in ("stop_h", "symmetric"):
            raise ConfigurationError(f"unknown gradient flow '{self.consist_flow}'")
        # refuses the render settings, the sampling mode among them, before any
        # step runs; stores threads as an int
        self.threads = self.render_config().threads

    def render_config(self) -> RenderConfig:
        return RenderConfig(
            k_coarse=self.k_samples,
            k_fine=self.k_fine,
            mode=self.sampling_mode,
            n_working=self.n_working,
            background=self.background,
            sh_degree=self.sh_degree,
            threads=self.threads,
        )

    def optim_state(self) -> "OptimState":
        """A fresh optimizer state with this run's learning-rate schedule and Adam settings."""
        return OptimState(
            learning_rate=self.learning_rate,
            halve_every=self.halve_every,
            betas=self.betas,
            eps=self.adam_eps,
        )


@dataclass
class OptimState:
    """Adam moments per map plus the step count and learning-rate schedule."""

    m: Dict[int, np.ndarray] = field(default_factory=dict)
    v: Dict[int, np.ndarray] = field(default_factory=dict)
    step: int = 0
    learning_rate: float = 1e-4
    halve_every: int = 100_000
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8

    def current_lr(self) -> float:
        halvings = self.step // max(self.halve_every, 1)
        return self.learning_rate * 0.5**halvings


def render_loss(rendered: np.ndarray, ground_truth: np.ndarray):
    """Sum of squared color differences over the batch, plus its gradient."""
    rendered = np.asarray(rendered, dtype=np.float64)
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    if rendered.shape != ground_truth.shape:
        raise DimensionMismatchError("rendered and ground-truth batches differ in shape")
    diff = rendered - ground_truth
    return float(np.sum(diff**2)), 2.0 * diff


def consistency_loss(h_tilde, h, eps_prob: float = 1e-5, variant: str = "binary"):
    """Cross entropy between a ray's own hitting probabilities and rendered ones.

    ``h_tilde`` acts as the target distribution taken from the ray's own
    CDF; ``h`` comes from rendering and is clamped to
    ``[eps_prob, 1 - eps_prob]``. Returns the loss (averaged over samples,
    summed over leading axes) plus gradients w.r.t. both arguments.
    """
    h_tilde = np.asarray(h_tilde, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if h_tilde.shape != h.shape:
        raise DimensionMismatchError("hitting probability arrays differ in shape")
    k = h.shape[-1]
    hc = np.clip(h, eps_prob, 1.0 - eps_prob)
    pass_through = (h > eps_prob) & (h < 1.0 - eps_prob)
    if variant == "binary":
        ce = -h_tilde * np.log(hc) - (1.0 - h_tilde) * np.log1p(-hc)
        value = float(ce.sum() / k)
        g_tilde = (np.log1p(-hc) - np.log(hc)) / k
        g_h = np.where(pass_through, (-h_tilde / hc + (1.0 - h_tilde) / (1.0 - hc)) / k, 0.0)
        return value, g_tilde, g_h
    if variant == "categorical":
        s_t = np.maximum(h_tilde.sum(axis=-1, keepdims=True), 1e-30)
        s_h = np.maximum(hc.sum(axis=-1, keepdims=True), 1e-30)
        p = h_tilde / s_t
        q = hc / s_h
        logq = np.log(np.maximum(q, 1e-300))
        ce = -np.sum(p * logq, axis=-1)
        value = float(ce.sum())
        g_tilde = (-logq - ce[..., None]) / s_t
        g_h = np.where(pass_through, (1.0 - p / np.maximum(q, 1e-300)) / s_h, 0.0)
        return value, g_tilde, g_h
    raise ConfigurationError(f"unknown CE variant '{variant}'")


def depth_loss(dmap: DistributionMap, depth: DepthMap, pixels: np.ndarray,
               near: float, far: float):
    """Squared error of the first component mean against the depth map.

    ``pixels`` is an (N, 2) array of (row, column) indices. The map decodes
    with the step's ``(near, far)``, not the depth map's own range, since its
    gradient is chained through the decode with that range. Returns the
    loss and ``(cells, rows)``: the (mu, sigma, w) gradient rows of the
    map's flat pixels, as :func:`map_grads` takes them.
    """
    values = depth.values
    if values.shape != (dmap.height, dmap.width):
        raise DimensionMismatchError("depth map does not match the distribution map")
    pixels = np.asarray(pixels, dtype=np.int64)
    iy, ix = pixels[:, 0], pixels[:, 1]
    mu, _, _ = decode_arrays(dmap.params[iy, ix], near, far)
    diff = mu[:, 0] - values[iy, ix]
    grad = np.zeros((len(pixels), 3, dmap.n_components))
    grad[:, 0, 0] = 2.0 * diff
    return float(np.sum(diff**2)), rows_by_cell(values.size, iy * dmap.width + ix, grad)


def init_from_depth(
    depth: DepthMap,
    sigma_init: float,
    n_components: int,
    view: int = 0,
) -> DistributionMap:
    """Distribution map whose decoded means reproduce the given depths.

    All components share the depth value, scales decode to
    ``sigma_init * (far - near)``, and weights are uniform. Depths at the
    far sentinel decode to means within a tiny fraction of ``far``, leaving
    near-zero occlusion in front of it.
    """
    if not SIGMA_MIN_FRACTION < sigma_init < np.inf:
        raise InputError(f"sigma_init must be finite and exceed the scale floor "
                         f"{SIGMA_MIN_FRACTION}, not {sigma_init}")
    if n_components < 1:
        raise InputError(f"n_components must be at least 1, not {n_components}")
    near, far = depth.near, depth.far
    span = far - near
    u = np.clip((depth.values - near) / span, _DECODE_CLIP, 1.0 - _DECODE_CLIP)
    raw_mean = logit(u)
    raw_scale = inv_softplus(sigma_init * span - SIGMA_MIN_FRACTION * span)
    h, w = depth.values.shape
    params = np.zeros((h, w, 3, n_components))
    params[..., 0, :] = raw_mean[..., None]
    params[..., 1, :] = raw_scale
    return DistributionMap(view=view, params=params)


def adam_step(
    state: OptimState,
    params: Dict[int, np.ndarray],
    grads: Dict[int, np.ndarray],
) -> None:
    """One Adam update with bias correction, applied in place to ``params``.

    Every map's new moments and parameters are computed first and written
    only if all are finite; otherwise ``NumericalError`` is raised and the
    maps, the moments and the step count are left as they were.
    """
    lr = state.current_lr()
    t = state.step + 1
    b1, b2 = state.betas
    updates = {}
    for key, p in params.items():
        g = grads.get(key)
        if g is None:
            g = np.zeros_like(p)
        if g.shape != p.shape:
            raise DimensionMismatchError(f"gradient shape mismatch for map {key}")
        m = state.m[key].copy() if key in state.m else np.zeros_like(p)
        v = state.v[key].copy() if key in state.v else np.zeros_like(p)
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        step = lr * m_hat / (np.sqrt(v_hat) + state.eps)
        updates[key] = (m, v, step)
        if not all(np.all(np.isfinite(a)) for a in (m, v, p - step)):
            raise NumericalError(f"step {t}: non-finite Adam update for map {key}")
    for key, (m, v, step) in updates.items():
        state.m[key], state.v[key] = m, v
        params[key] -= step
    state.step = t


@dataclass
class SceneData:
    """Everything a training run needs, keyed by reference view index."""

    cameras: Dict[int, PinholeCamera]
    images: Dict[int, np.ndarray]
    maps: Dict[int, DistributionMap]
    depths: Optional[Dict[int, DepthMap]]
    near: float
    far: float

    def reference_indices(self):
        return sorted(self.maps.keys())

    def render_views(self):
        return [
            RenderView(i, self.cameras[i], self.maps[i], self.images[i])
            for i in self.reference_indices()
        ]


def own_hit_probs(dmap: DistributionMap, zfac: np.ndarray, pixels: np.ndarray,
                  z: np.ndarray, widths: np.ndarray, near: float, far: float):
    """Hitting probabilities of the view's own rays over the sample bins.

    ``z``/``widths`` are euclidean ray parameters of the pseudo query rays;
    they convert to view depths through ``zfac``, the z factor of each
    pixel's ray from ``PinholeCamera.rays_for_pixels``. Returns the
    probabilities plus the (mu, sigma, w) derivatives the backward needs.
    """
    z_view = z * zfac[:, None]
    z_view_end = (z + widths) * zfac[:, None]
    mixture = [a[:, None, :] for a in                       # (B, 1, n) each
               decode_arrays(dmap.params[pixels[:, 0], pixels[:, 1]], near, far)]
    t_a, dmu_a, dsig_a, dw_a = mixture_cdf_param_grads(*mixture, z_view)
    t_b, dmu_b, dsig_b, dw_b = mixture_cdf_param_grads(*mixture, z_view_end)
    return t_b - t_a, (dmu_b - dmu_a, dsig_b - dsig_a, dw_b - dw_a)


def own_hit_probs_backward(dmap: DistributionMap, pixels: np.ndarray, back, g_h_tilde):
    """Pull hitting-probability gradients back to the rays' (mu, sigma, w).

    Returns ``(cells, rows)``: the map's flat pixels and each one's summed
    (mu, sigma, w) gradient over the rays at it, as :func:`map_grads` takes
    them. Nothing is decoded.
    """
    gmu, gsig, gw = (np.sum(g_h_tilde[..., None] * d, axis=1) for d in back)
    return rows_by_cell(dmap.height * dmap.width, pixels[:, 0] * dmap.width + pixels[:, 1],
                        (gmu.T, gsig.T, gw.T))


def _draw_batch(rng: np.random.Generator, data: SceneData, config: TrainConfig):
    """The random draws of one training step: the pseudo query view and its
    (row, column) pixel batch. Resume replays this to stay bit-exact."""
    refs = data.reference_indices()
    q = int(refs[rng.integers(len(refs))])
    camera = data.cameras[q]
    n_px = camera.height * camera.width
    flat = rng.choice(n_px, size=min(config.batch_size, n_px), replace=False)
    return q, np.stack([flat // camera.width, flat % camera.width], axis=1)


def map_grads(params: np.ndarray, near: float, far: float, parts) -> np.ndarray:
    """Raw-parameter gradient of a (..., 3, n) parameter stack from backward rows.

    ``parts`` holds ``(cells, rows)`` pairs, cells flat over the leading
    axes, as :func:`render_rays_backward`, :func:`own_hit_probs_backward`
    and :func:`depth_loss` return them. Their rows are added, in order, into
    one zeroed stack of (mu, sigma, w) gradients, chained through the decode
    with ``(near, far)`` once. The decode acts per cell and is linear in the
    gradients, so this equals decoding each part on its own up to the order
    of the sums; a cell no part names gets exactly 0.
    """
    flat = params.reshape((-1,) + params.shape[-2:])
    stack = np.zeros(flat.shape)
    for cells, rows in parts:
        stack[cells] += rows
    return decode_backward(flat, near, far, stack[:, 0], stack[:, 1],
                           stack[:, 2]).reshape(params.shape)


def view_grads(working: WorkingSet, parts) -> Dict[int, np.ndarray]:
    """Raw-parameter gradients of every working view: :func:`map_grads` of
    the working set's (J, H, W, 3, n) stack, cut to each map's shape.
    Returns ``{view_index: (H, W, 3, n) gradient}``."""
    g_raw = map_grads(working.params, working.near, working.far, parts)
    return {v.index: g_raw[j][tuple(map(slice, v.dmap.params.shape))]
            for j, v in enumerate(working.views)}


def train_step(
    data: SceneData,
    config: TrainConfig,
    state: OptimState,
    rng: np.random.Generator,
) -> LossReport:
    """One optimization step on a pseudo query view; deterministic per seed.

    The batch is split, in pixel order, into chunks of 128 rays (the last one
    may be shorter). Each chunk is one task on the stream runner of
    ``render_image``, on up to ``config.threads`` streams: it renders its
    rays, takes its share of the render and consistency losses and runs its
    backward, and its forward state is freed once its gradients are out. A
    chunk returns the (mu, sigma, w) gradient rows of the working-set cells
    it hit and of the query view's own pixels. The caller adds the loss
    values in chunk order, and :func:`map_grads` adds the rows in chunk
    order and decodes them once per stack: the working set's, and the query
    map's, whose own-hit rows are followed by the ``lambda_depth``-weighted
    rows of the depth loss. So the step is bit-identical for every thread
    count. The depth loss, the finiteness check and the Adam step run once
    per batch, so an error leaves the maps, the moments and the step count
    as they were.
    """
    refs = data.reference_indices()
    if len(refs) < 2:
        raise ConfigurationError("training needs at least two reference views")
    q, pixels = _draw_batch(rng, data, config)
    camera = data.cameras[q]

    views = [v for v in data.render_views() if v.index != q]
    working = select_working_views(
        views, camera, min(config.n_working, len(views)), data.near, data.far, query_index=q
    )
    rcfg = config.render_config()

    px_centers = pixels[:, ::-1].astype(np.float64) + 0.5
    dirs, zfac = camera.rays_for_pixels(px_centers)
    origins = np.broadcast_to(camera.center, dirs.shape)
    gt = data.images[q][pixels[:, 0], pixels[:, 1]]
    chunks = [None] * -(-len(pixels) // _CHUNK_RAYS)

    def run_chunk(c):
        s = slice(c * _CHUNK_RAYS, (c + 1) * _CHUNK_RAYS)
        out = render_rays(working, origins[s], dirs[s], rcfg, keep_state=True)
        if out.fine_keep is None:
            fwd, kept = out, np.ones(len(out.colors_out), dtype=bool)
        else:
            # gradients flow only through the fine evaluations
            fwd, kept = out.fine, out.fine_keep
        l_render, g_render = render_loss(out.colors_out, gt[s])
        l_consist, rows, own = 0.0, None, None
        if fwd is not None:
            px = pixels[s][kept]
            h_tilde, back = own_hit_probs(
                data.maps[q], zfac[s][kept], px, fwd.z, fwd.widths, data.near, data.far
            )
            l_consist, g_tilde, g_h = consistency_loss(
                h_tilde, fwd.h_hat, config.eps_prob, config.consist_variant
            )
            dc_o = config.lambda_render * g_render[kept]
            dh_extra = (
                config.lambda_consist * g_h if config.consist_flow == "symmetric" else None
            )
            if config.lambda_render > 0 or dh_extra is not None:
                if config.lambda_render == 0:
                    dc_o = np.zeros_like(dc_o)
                rows = render_rays_backward(working, fwd, rcfg, dc_o, dh_extra)
            if config.lambda_consist > 0:
                own = own_hit_probs_backward(
                    data.maps[q], px, back, config.lambda_consist * g_tilde
                )
        chunks[c] = (l_render, l_consist, rows, own)

    _run_streams(len(chunks), run_chunk, rcfg.threads)

    renders, consists, view_parts, own_parts = zip(*chunks)
    l_render, l_consist, l_depth = sum(renders), sum(consists), 0.0
    grads = view_grads(working, [part for part in view_parts if part is not None])
    # the query view is not in its working set: its own-hit rows, then the
    # weighted depth rows, make up its own stack
    own = [part for part in own_parts if part is not None]
    if config.lambda_depth > 0 and data.depths is not None:
        l_depth, (cells, rows) = depth_loss(data.maps[q], data.depths[q], pixels,
                                            data.near, data.far)
        own.append((cells, config.lambda_depth * rows))
    if own:
        grads[q] = map_grads(data.maps[q].params, data.near, data.far, own)

    losses = (l_render, l_consist, l_depth)
    if not (np.all(np.isfinite(losses)) and all(np.all(np.isfinite(g)) for g in grads.values())):
        raise NumericalError(f"step {state.step + 1}: non-finite loss or gradient "
                             f"(losses {l_render}, {l_consist}, {l_depth})")
    params = {i: data.maps[i].params for i in refs}
    adam_step(state, params, grads)

    total = (
        config.lambda_render * l_render
        + config.lambda_consist * l_consist
        + config.lambda_depth * l_depth
    )
    return LossReport(state.step, l_render, l_consist, l_depth, total)


def evaluate_holdout(
    data: SceneData,
    holdout: Dict[int, tuple],
    config: TrainConfig,
    k_eval: Optional[int] = None,
) -> float:
    """Mean PSNR over held-out (camera, image) pairs rendered from the maps."""
    if not holdout:
        return float("nan")
    rcfg = config.render_config()
    if k_eval is not None:
        rcfg = replace(rcfg, k_coarse=k_eval, mode="uniform")
    values = []
    for idx, (camera, image) in sorted(holdout.items()):
        views = data.render_views()
        working = select_working_views(
            views, camera, min(rcfg.n_working, len(views)), data.near, data.far,
            query_index=idx,
        )
        values.append(psnr(render_image(working, rcfg), image))
    return float(np.mean(values))


def optimize_scene(
    data: SceneData,
    config: TrainConfig,
    holdout: Optional[Dict[int, tuple]] = None,
    out_dir=None,
    state: Optional[OptimState] = None,
    start_step: int = 0,
    checkpoint_interval: Optional[int] = None,
):
    """Run the training loop; returns (state, history of (step, report, psnr)).

    ``holdout`` maps view indices to (camera, image) pairs evaluated every
    ``eval_interval`` steps. When ``out_dir`` is given, maps are
    checkpointed there in the NRAY format along with a resumable state
    file and a metrics CSV.
    """
    if checkpoint_interval is not None and checkpoint_interval < 0:
        raise ConfigurationError("checkpoint_interval must be nonnegative")
    if state is None:
        state = config.optim_state()
    history = []
    rng = np.random.default_rng(config.seed)
    # replay the RNG stream consumed by completed steps so resume is exact
    for _ in range(start_step):
        _draw_batch(rng, data, config)
    metrics_rows = []
    for step in range(start_step, config.steps):
        report = train_step(data, config, state, rng)
        entry = None
        if config.eval_interval and (step + 1) % config.eval_interval == 0:
            entry = evaluate_holdout(data, holdout or {}, config)
        history.append((report, entry))
        if entry is not None:
            metrics_rows.append(
                f"{report.step},{report.render_loss:.9g},{report.consistency_loss:.9g},"
                f"{report.depth_loss:.9g},{entry:.6f}"
            )
        if out_dir is not None and checkpoint_interval and (step + 1) % checkpoint_interval == 0:
            save_checkpoint(out_dir, data, state)
    if out_dir is not None:
        save_checkpoint(out_dir, data, state)
        header = "step,render_loss,consist_loss,depth_loss,psnr"
        atomic_write_bytes(Path(out_dir) / "metrics.csv",
                           ("\n".join([header] + metrics_rows) + "\n").encode("utf-8"))
    return state, history


def save_checkpoint(out_dir, data: SceneData, state: OptimState):
    """Write NRAY maps plus an exact-resume state file, each atomically."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for idx in data.reference_indices():
        data.maps[idx].save(out / view_name(idx, "nray"))
    arrays = {"step": np.array(state.step)}
    for idx in data.reference_indices():
        arrays[f"params_{idx}"] = data.maps[idx].params
        if idx in state.m:
            arrays[f"m_{idx}"] = state.m[idx]
            arrays[f"v_{idx}"] = state.v[idx]
    with atomic_writer(out / "state.npz") as f:
        np.savez(f, **arrays)


def load_checkpoint(out_dir, data: SceneData, state: OptimState) -> int:
    """Restore exact f64 parameters and moments; returns the completed step.

    Every array is checked for its map's shape and for finiteness before
    any map is written.
    """
    path = Path(out_dir) / "state.npz"
    if not path.exists():
        raise InputError(f"no resumable state at {path}")
    try:
        with np.load(path) as blob:
            arrays = {key: blob[key] for key in blob.files}
        step = int(arrays["step"])
    except (OSError, EOFError, TypeError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise InputError(f"{path}: unreadable checkpoint: {exc!r}") from None
    restored = {}
    for idx in data.reference_indices():
        if f"params_{idx}" not in arrays:
            raise InputError(f"{path}: checkpoint is missing map {idx}")
        keys = [f"params_{idx}"] + [k for k in (f"m_{idx}", f"v_{idx}") if k in arrays]
        if len(keys) == 2:
            raise InputError(f"{path}: checkpoint has only one Adam moment for map {idx}")
        shape = data.maps[idx].params.shape
        restored[idx] = [arrays[key] for key in keys]
        for key, arr in zip(keys, restored[idx]):
            if arr.shape != shape:
                raise InputError(f"{path}: {key} has shape {arr.shape}, map {idx} is {shape}")
            if not np.all(np.isfinite(arr)):
                raise InputError(f"{path}: {key} holds non-finite values")
    for idx, (params, *moments) in restored.items():
        data.maps[idx].params[...] = params
        if moments:
            state.m[idx], state.v[idx] = moments
    state.step = step
    return step
