"""Scene-specific optimization of distribution maps.

Every training step picks one reference view as a pseudo query view,
renders a ray batch from it using the remaining views, and descends three
losses with analytic gradients:

* render: squared error of the composited colors against the view's image;
* consistency: binary cross entropy of the hitting probabilities decoded
  from the pseudo query ray's own distribution against those computed by
  the renderer, held constant, which is how rendered geometry gets
  memorized into the maps;
* depth: squared error of the first component mean against a depth map.

The maps are the only trainable parameters; Adam updates them densely
with the constants ``ADAM_BETAS`` and ``ADAM_EPS``, at ``TrainConfig.learning_rate``
halved every ``LR_HALVE_EVERY`` steps. ``OptimState`` holds only what a run
accumulates: each map's moments and the number of completed steps.

A step's ray batch is cut, in pixel order, into the chunks of
``render_image`` (at most 128 rays and 8192 (ray, sample) pairs), run on
up to ``TrainConfig.threads`` streams. Each chunk renders its rays, takes
its share of the render and consistency losses and runs its own backward.
Every backward returns ``(cells, rows)``: the flat cells of a parameter
stack it touched and their summed (mu, sigma, w) gradient rows. The caller
adds the chunks' losses in chunk order. Then one task per reference map
runs on the same streams: ``map_grads`` adds that map's rows in chunk
order and decodes them to the raw parameters once (a working view cuts its
slice of each chunk's rows; the pseudo query view takes its own-hit rows,
then its depth rows), and ``_adam_update`` computes the map's Adam moments
and new parameters into new arrays. Nothing is written until every task
has finished and every map's gradient and update are finite. Neither the
chunks nor the tasks depend on the thread count, so a step is
bit-identical for every count.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from rayvis.camera import PinholeCamera
from rayvis.errors import (ConfigurationError, DimensionMismatchError, InputError, NumericalError,
                           bounded)
from rayvis.imgio import atomic_write_bytes, atomic_writer, view_name
from rayvis.raydist import (
    MAX_COMPONENTS,
    DistributionMap,
    SIGMA_MIN_FRACTION,
    decode_arrays,
    decode_backward,
    decode_stack,
    inv_softplus,
    logit,
    mixture_cdf_grads,
    mixture_cdf_param_grads,  # noqa: F401  (perfbench/tracing.py traces it under this name)
    mixture_cdf_terms,
    rows_by_cell,
)
from rayvis.render import (
    RenderConfig,
    RenderView,
    WorkingSet,
    _chunk_rays,
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


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
LR_HALVE_EVERY = 100_000    # steps
EPS_PROB = 1e-5             # the consistency loss's clamp of rendered probabilities

# TrainConfig field -> the RenderConfig field it fills
_RENDER_FIELDS = {"k_samples": "k_coarse", "k_fine": "k_fine", "sampling_mode": "mode",
                  "n_working": "n_working", "background": "background",
                  "sh_degree": "sh_degree", "threads": "threads"}


@dataclass
class TrainConfig:
    lambda_render: float = 1.0
    lambda_consist: float = 0.25
    lambda_depth: float = 0.1
    batch_size: int = 512
    steps: int = 2000
    seed: int = 0
    n_working: int = 8
    k_samples: int = 64
    learning_rate: float = 1e-4
    sh_degree: int = 3
    background: tuple = (0.0, 0.0, 0.0)
    sampling_mode: str = "uniform"       # or "coarse_to_fine"
    k_fine: int = 16
    eval_interval: int = 500
    threads: int = field(default_factory=usable_cpus)

    def __post_init__(self):
        for name in ("lambda_render", "lambda_consist", "lambda_depth"):
            setattr(self, name, bounded(name, getattr(self, name), 0))
        self.learning_rate = bounded("learning_rate", self.learning_rate, 0, above=True)
        self.batch_size = bounded("batch_size", self.batch_size, 1, whole=True)
        for name in ("steps", "seed", "eval_interval"):
            setattr(self, name, bounded(name, getattr(self, name), 0, whole=True))
        # the render config checks the render settings before any step runs and
        # stores threads as an int; its message names this config's fields
        try:
            self.threads = self.render_config().threads
        except ConfigurationError as exc:
            names, sep, rest = str(exc).partition(" must ")
            mine = {theirs: mine for mine, theirs in _RENDER_FIELDS.items()}
            names = " + ".join(mine.get(name, name) for name in names.split(" + "))
            raise ConfigurationError(names + sep + rest) from None

    def render_config(self) -> RenderConfig:
        return RenderConfig(**{theirs: getattr(self, mine)
                               for mine, theirs in _RENDER_FIELDS.items()})

    def current_lr(self, step: int) -> float:
        """The learning rate of the step after ``step`` completed steps."""
        return self.learning_rate * 0.5 ** (step // LR_HALVE_EVERY)


@dataclass
class OptimState:
    """Adam moments per map and the number of completed steps."""

    m: Dict[int, np.ndarray] = field(default_factory=dict)
    v: Dict[int, np.ndarray] = field(default_factory=dict)
    step: int = 0


def render_loss(rendered: np.ndarray, ground_truth: np.ndarray):
    """Sum of squared color differences over the batch, plus its gradient."""
    rendered = np.asarray(rendered, dtype=np.float64)
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    if rendered.shape != ground_truth.shape:
        raise DimensionMismatchError("rendered and ground-truth batches differ in shape")
    diff = rendered - ground_truth
    return float(np.sum(diff**2)), 2.0 * diff


def consistency_loss(h_tilde, h):
    """Binary cross entropy of a ray's own hitting probabilities against
    rendered ones, with the rendered side held constant.

    ``h_tilde`` comes from the ray's own CDF; ``h`` comes from rendering, is
    clamped to ``[EPS_PROB, 1 - EPS_PROB]`` and gets no gradient. Returns the
    loss (averaged over samples, summed over leading axes) and its gradient
    w.r.t. ``h_tilde``.
    """
    h_tilde = np.asarray(h_tilde, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if h_tilde.shape != h.shape:
        raise DimensionMismatchError("hitting probability arrays differ in shape")
    k = h.shape[-1]
    hc = np.clip(h, EPS_PROB, 1.0 - EPS_PROB)
    ce = -h_tilde * np.log(hc) - (1.0 - h_tilde) * np.log1p(-hc)
    return float(ce.sum() / k), (np.log1p(-hc) - np.log(hc)) / k


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
    grad = np.zeros((3, dmap.n_components, len(pixels)))     # component-major
    grad[0, 0] = 2.0 * diff
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
    sigma_init = bounded("sigma_init", sigma_init, SIGMA_MIN_FRACTION, above=True,
                         error=InputError)
    n_components = bounded("n_components", n_components, 1, MAX_COMPONENTS, whole=True,
                           error=InputError)
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


def _adam_update(state: OptimState, key, p: np.ndarray, g: Optional[np.ndarray],
                 lr: float, t: int):
    """Map ``key``'s Adam update at step ``t``, as new arrays: its moments,
    its new parameters and whether all three are finite. ``g`` None is a zero
    gradient. Nothing is written, so maps may update concurrently. The
    operations and their order are Adam's textbook ones,
    ``m = b1·m + ((1-b1)·g)``, ``v = b2·v + ((1-b2)·g)·g`` and
    ``p - lr·m̂ / (sqrt(v̂) + eps)``, through two reused temporaries, with
    ``ADAM_BETAS`` and ``ADAM_EPS``."""
    b1, b2 = ADAM_BETAS
    if g is None:
        g = np.zeros_like(p)
    m = np.multiply(state.m[key], b1) if key in state.m else np.zeros_like(p)
    v = np.multiply(state.v[key], b2) if key in state.v else np.zeros_like(p)
    tmp = np.multiply(g, 1 - b1)
    m += tmp
    np.multiply(g, 1 - b2, out=tmp)
    tmp *= g
    v += tmp
    np.divide(m, 1 - b1**t, out=tmp)
    tmp *= lr
    den = np.divide(v, 1 - b2**t)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    tmp /= den
    new = np.subtract(p, tmp, out=den)
    finite = all(np.all(np.isfinite(a)) for a in (m, v, new))
    return m, v, new, finite


def _commit(state: OptimState, params: Dict[int, np.ndarray], updates, t: int) -> None:
    """Write every map's update from :func:`_adam_update`, the parameters in
    place, and step ``t``; or, if any update is not finite, raise
    ``NumericalError`` naming the first such map and write nothing."""
    for key, (_, _, _, finite) in updates.items():
        if not finite:
            raise NumericalError(f"step {t}: non-finite Adam update for map {key}")
    for key, (m, v, new, _) in updates.items():
        state.m[key], state.v[key] = m, v
        params[key][...] = new
    state.step = t


def adam_step(state: OptimState, params: Dict[int, np.ndarray], grads: Dict[int, np.ndarray],
              lr: float) -> None:
    """One bias-corrected Adam update at rate ``lr``, in place on ``params``.

    A map without an entry in ``grads`` gets a zero gradient. This is the
    per-map update and the commit of ``train_step``, run map by map: every
    map's new moments and parameters are computed first and written only if
    all are finite; otherwise ``NumericalError`` is raised and the maps, the
    moments and the step count are left as they were.
    """
    t = state.step + 1
    updates = {}
    for key, p in params.items():
        g = grads.get(key)
        if g is not None and g.shape != p.shape:
            raise DimensionMismatchError(f"gradient shape mismatch for map {key}")
        updates[key] = _adam_update(state, key, p, g, lr, t)
    _commit(state, params, updates, t)


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

    ``z``/``widths`` are (B, K) euclidean ray parameters of the pseudo query
    rays; they convert to view depths through ``zfac``, the z factor of each
    pixel's ray from ``PinholeCamera.rays_for_pixels``. Returns the (B, K)
    probabilities plus the (mu, sigma, w) derivatives the backward needs,
    component-major and sample-major like the mixture kernel's own arrays:
    each (n, K, B), so the backward's sum over the samples runs along a
    middle axis, one sample after another.
    """
    mu, sig, w = decode_stack(dmap.params[pixels[:, 0], pixels[:, 1]], near, far)[:, :, None]
    z_start = np.multiply(z.T, zfac, order="C")                 # (K, B) view depths
    z_end = np.add(z.T, widths.T, order="C")
    z_end *= zfac
    t_a, x, s = mixture_cdf_terms(mu, sig, w, z_start)
    back = mixture_cdf_grads(sig, w, x, s)
    t_b, x, s = mixture_cdf_terms(mu, sig, w, z_end)
    for total, far_end in zip(back, mixture_cdf_grads(sig, w, x, s)):
        np.subtract(far_end, total, out=total)
    return np.ascontiguousarray((t_b - t_a).T), back


def own_hit_probs_backward(dmap: DistributionMap, pixels: np.ndarray, back, g_h_tilde):
    """Pull hitting-probability gradients back to the rays' (mu, sigma, w).

    Returns ``(cells, rows)``: the map's flat pixels and each one's summed
    (mu, sigma, w) gradient over the rays at it, as :func:`map_grads` takes
    them. Nothing is decoded.
    """
    g = np.ascontiguousarray(g_h_tilde.T)
    return rows_by_cell(dmap.height * dmap.width, pixels[:, 0] * dmap.width + pixels[:, 1],
                        [np.sum(g * d, axis=1) for d in back])


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


def view_grad(working: WorkingSet, j: int, parts) -> np.ndarray:
    """Raw-parameter gradient of working view ``j``'s map: :func:`map_grads`
    of each part's slice that falls in the view's cells, renumbered from its
    first cell, with the rows of the components the map has. A part's cells
    strictly increase, so two binary searches find its slice. It decodes
    through the map's parameters as they are when it is called, so
    :func:`train_step` calls it before its commit writes any map."""
    dmap, first = working.views[j].dmap, working.first[j]
    own = []
    for cells, rows in parts:
        lo, hi = np.searchsorted(cells, working.first[j:j + 2])
        own.append((cells[lo:hi] - first, rows[lo:hi, :, :dmap.n_components]))
    return map_grads(dmap.params, working.near, working.far, own)


def train_step(
    data: SceneData,
    config: TrainConfig,
    state: OptimState,
    rng: np.random.Generator,
) -> LossReport:
    """One optimization step on a pseudo query view; deterministic per seed.

    The batch is split, in pixel order, into the chunks of ``render_image``
    (``render._chunk_rays``). Each chunk is one task on its stream runner,
    on up to ``config.threads`` streams: it renders its rays, takes its
    share of the render and consistency losses and runs its backward (in
    coarse-to-fine mode, through the rays with fine samples), and its
    forward state is freed once its gradients are out. A chunk returns the
    (mu, sigma, w) gradient rows of the working-set cells it hit and of the
    query view's own pixels. The caller adds the loss values in chunk order
    and takes the depth loss once per batch.

    Then every reference map is one task on the same runner. A working view
    sums its slice of each chunk's rows in chunk order and decodes them once
    (:func:`view_grad`); the query map sums its own-hit rows, then the
    ``lambda_depth``-weighted depth rows (:func:`map_grads`); any other map
    has a zero gradient. The task checks the gradient for finiteness and
    computes the map's Adam moments and new parameters into new arrays. So
    the step is bit-identical for every thread count. Only once every task
    has finished does one commit write the moments, the parameters (in
    place) and the step count; a non-finite loss, gradient or update raises
    ``NumericalError`` instead and leaves them all as they were.
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

    dirs, zfac = camera.rays_for_pixels(pixels[:, ::-1] + 0.5)
    origins = np.broadcast_to(camera.center, dirs.shape)
    gt = data.images[q][pixels[:, 0], pixels[:, 1]]
    size = _chunk_rays(rcfg)
    chunks = [None] * -(-len(pixels) // size)

    def run_chunk(c):
        s = slice(c * size, (c + 1) * size)
        colors, fwd, kept = render_rays(working, origins[s], dirs[s], rcfg, keep_state=True)
        l_render, g_render = render_loss(colors, gt[s])
        l_consist, rows, own = 0.0, None, None
        if fwd is not None:
            px = pixels[s][kept]
            h_tilde, back = own_hit_probs(data.maps[q], zfac[s][kept], px, fwd.z, fwd.widths,
                                          data.near, data.far)
            l_consist, g_tilde = consistency_loss(h_tilde, fwd.h_hat)
            if config.lambda_render > 0:
                rows = render_rays_backward(working, fwd, rcfg,
                                            config.lambda_render * g_render[kept])
            if config.lambda_consist > 0:
                own = own_hit_probs_backward(data.maps[q], px, back,
                                             config.lambda_consist * g_tilde)
        chunks[c] = (l_render, l_consist, rows, own)

    _run_streams(len(chunks), run_chunk, rcfg.threads)

    renders, consists, view_parts, own_parts = zip(*chunks)
    l_render, l_consist, l_depth = sum(renders), sum(consists), 0.0
    view_parts = [part for part in view_parts if part is not None]
    # the query view is not in its working set: its own-hit rows, then the
    # weighted depth rows, make up its own stack
    own = [part for part in own_parts if part is not None]
    if config.lambda_depth > 0 and data.depths is not None:
        l_depth, (cells, rows) = depth_loss(data.maps[q], data.depths[q], pixels,
                                            data.near, data.far)
        own.append((cells, config.lambda_depth * rows))

    t = state.step + 1
    failure = NumericalError(f"step {t}: non-finite loss or gradient "
                             f"(losses {l_render}, {l_consist}, {l_depth})")
    if not np.all(np.isfinite((l_render, l_consist, l_depth))):
        raise failure
    slots = {v.index: j for j, v in enumerate(working.views)}
    params = {i: data.maps[i].params for i in refs}
    lr = config.current_lr(state.step)
    updates = [None] * len(refs)        # stays None for a non-finite gradient

    def run_map(r):
        key = refs[r]
        g = None
        if key in slots:
            g = view_grad(working, slots[key], view_parts)
        elif key == q and own:
            g = map_grads(params[q], data.near, data.far, own)
        if g is None or np.all(np.isfinite(g)):
            updates[r] = _adam_update(state, key, params[key], g, lr, t)

    _run_streams(len(refs), run_map, rcfg.threads)
    if any(update is None for update in updates):
        raise failure
    _commit(state, params, dict(zip(refs, updates)), t)

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
    checkpoint_interval: Optional[int] = None,
    metrics=(),
):
    """Run the training loop; returns (state, history of (report, psnr)).

    The run goes on from ``state.step`` to ``config.steps``. ``holdout`` maps
    view indices to (camera, image) pairs evaluated every ``eval_interval``
    steps, each adding a row to ``metrics``, the rows of the completed
    steps. When ``out_dir`` is given, each checkpoint writes there by
    :func:`save_checkpoint`.
    """
    if checkpoint_interval is not None:
        checkpoint_interval = bounded("checkpoint_interval", checkpoint_interval, 0, whole=True)
    if state is None:
        state = OptimState()
    history = []
    rng = np.random.default_rng(config.seed)
    # replay the RNG stream consumed by completed steps so resume is exact
    for _ in range(min(state.step, config.steps)):
        _draw_batch(rng, data, config)
    metrics = list(metrics)
    for step in range(state.step, config.steps):
        report = train_step(data, config, state, rng)
        entry = None
        if config.eval_interval and (step + 1) % config.eval_interval == 0:
            entry = evaluate_holdout(data, holdout or {}, config)
            metrics.append((report.step, report.render_loss, report.consistency_loss,
                            report.depth_loss, entry))
        history.append((report, entry))
        if out_dir is not None and checkpoint_interval and (step + 1) % checkpoint_interval == 0:
            save_checkpoint(out_dir, data, state, config, metrics)
    if out_dir is not None:
        save_checkpoint(out_dir, data, state, config, metrics)
    return state, history


def _settings(config: TrainConfig) -> dict:
    """The fields a run resumes under, as read back from JSON: all but ``steps``
    and ``threads``, the two that change neither a step nor a metrics row."""
    return json.loads(json.dumps({f.name: getattr(config, f.name) for f in fields(config)
                                  if f.name not in ("steps", "threads")}, default=float))


def save_checkpoint(out_dir, data: SceneData, state: OptimState, config: TrainConfig, metrics=()):
    """Write NRAY maps, an exact-resume state file and ``metrics.csv``, each
    atomically. The state file keeps ``metrics``, (step, render, consistency,
    depth, psnr) rows, as an (n, 5) f64 array, and the run's settings as JSON."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for idx in data.reference_indices():
        data.maps[idx].save(out / view_name(idx, "nray"))
    arrays = {"step": np.array(state.step), "settings": np.array(json.dumps(_settings(config)))}
    if metrics:
        arrays["metrics"] = np.array(metrics, dtype=np.float64)
    for idx in data.reference_indices():
        arrays[f"params_{idx}"] = data.maps[idx].params
        if idx in state.m:
            arrays[f"m_{idx}"] = state.m[idx]
            arrays[f"v_{idx}"] = state.v[idx]
    with atomic_writer(out / "state.npz") as f:
        np.savez(f, **arrays)
    lines = ["step,render_loss,consist_loss,depth_loss,psnr"]
    lines += [f"{int(step)},{render:.9g},{consist:.9g},{depth:.9g},{value:.6f}"
              for step, render, consist, depth, value in metrics]
    atomic_write_bytes(out / "metrics.csv", ("\n".join(lines) + "\n").encode("utf-8"))


def load_checkpoint(out_dir, data: SceneData, state: OptimState, config: TrainConfig):
    """Restore exact f64 parameters, moments and step into ``data`` and
    ``state``; returns the metrics rows, as :func:`optimize_scene` takes them.

    The checkpoint must record ``config``'s settings (:func:`_settings`) and
    a whole step of at least 0. Every array is checked for its map's shape
    and for finiteness, and the rows for their steps (increasing, in
    [1, step]) and finite losses, before any map is written.
    """
    path = Path(out_dir) / "state.npz"
    if not path.exists():
        raise InputError(f"no resumable state at {path}")
    try:
        with np.load(path) as blob:
            arrays = {key: blob[key] for key in blob.files}
        step = arrays["step"][()] if arrays["step"].shape == () else arrays["step"]
        metrics = np.asarray(arrays.get("metrics", np.zeros((0, 5))), dtype=np.float64)
        saved = dict(json.loads(str(arrays["settings"])))
    except (OSError, EOFError, TypeError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise InputError(f"{path}: unreadable checkpoint: {exc!r}") from None
    mine = _settings(config)
    for name in dict.fromkeys([*mine, *saved]):
        if saved.get(name) != mine.get(name):
            raise InputError(f"{path}: checkpoint was written with {name}={saved.get(name)!r}, "
                             f"this run has {name}={mine.get(name)!r}")
    step = bounded(f"{path}: step", step, 0, whole=True, error=InputError)
    steps = metrics[:, 0] if metrics.ndim == 2 and metrics.shape[1] == 5 else np.full(1, np.nan)
    if not (np.all(steps == np.floor(steps)) and np.all(np.diff(steps) > 0)
            and np.all((steps >= 1) & (steps <= step)) and np.all(np.isfinite(metrics[:, 1:4]))):
        raise InputError(f"{path}: metrics must be (step, 3 finite losses, psnr) rows, "
                         f"the steps whole and increasing in [1, {step}]")
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
    return [(int(row[0]), *row[1:]) for row in metrics.tolist()]
