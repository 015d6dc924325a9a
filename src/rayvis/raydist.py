"""Per-ray occlusion distributions.

Each camera ray of an input view carries a CDF ``t(z)`` over depth: the
probability that the ray is occluded before depth ``z``. ``t`` is a
mixture of logistics distributions, so the visibility of a point at depth
``z`` is ``1 - t(z)`` and costs a single evaluation. The raw (unconstrained)
parameters live on per-view pixel grids and are what the optimizer trains.

Raw parameter layout per ray: ``(3, n)`` rows ``[means, scales, weights]``.
Decoded parameters and their gradients are component-major (3, n, ...)
stacks instead, as :func:`decode_stack`, :func:`rows_by_cell` and
:func:`decode_backward` hold them. The deterministic reparameterization
keeps every decode valid:

* means:   ``near + (far - near) * sigmoid(raw)``
* scales:  ``sigma_min + softplus(raw)`` with ``sigma_min = 1e-4 * (far - near)``
* weights: ``softmax(raw)``
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rayvis.counters import counters
from rayvis.errors import InputError, IntervalOrderError, near_far
from rayvis.imgio import read_record, write_record

NRAY = (b"NRAY", "IIIII")  # magic; version, view, height, width, components
NRAY_VERSION = 1
SIGMA_MIN_FRACTION = 1e-4
DEFAULT_N_COMPONENTS = 2
# most mixture components per ray: each adds about 4 MB to a full render
# chunk (8192 ray samples) with 8 working views
MAX_COMPONENTS = 16
# an occlusion CDF at or above this has saturated: nothing behind is visible
_SATURATION = 1.0 - 1e-12


def sigmoid(x, out=None):
    """The logistic ``1 / (1 + exp(-x))``, written through ``out`` (``out=x``
    works in place). Below about -709 ``exp`` overflows to inf and the result
    is exactly 0, without a warning."""
    if out is None:
        out = np.empty(np.shape(x))
    with np.errstate(over="ignore"):
        np.exp(np.negative(x, out=out), out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def softplus(x, out=None):
    """``log(1 + exp(x))`` as ``log1p(exp(-|x|)) + max(x, 0)``, which never
    overflows, written through ``out`` (``out=x`` works in place)."""
    top = np.maximum(x, 0.0)
    if out is None:
        out = np.empty(np.shape(x))
    np.negative(np.abs(x, out=out), out=out)
    np.log1p(np.exp(out, out=out), out=out)
    out += top
    return out


def inv_softplus(y):
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise InputError("softplus inverse needs positive input")
    return np.where(y > 30, y, np.log(np.expm1(np.minimum(y, 30.0))))


def fold_last(ufunc, x):
    """Reduce the last axis by ``ufunc``, one slice after another in order:
    (..., n) -> (..., 1). Each step is one loop over every leading entry, so
    a short last axis (mixture components, working views) is never NumPy's
    innermost loop. For ``np.add`` this is the component sum of
    :func:`mixture_cdf_terms`; it equals ``np.sum`` bit for bit for n <= 7,
    but from n = 8 on NumPy sums pairwise and may round differently."""
    out = x[..., :1].copy()
    for i in range(1, x.shape[-1]):
        ufunc(out, x[..., i:i + 1], out=out)
    return out


def softmax(x, out=None):
    """Softmax over the last axis, the components, written through ``out``
    (``out=x`` works in place)."""
    top = fold_last(np.maximum, x)
    ex = np.subtract(x, top, out=out)
    # the clamp keeps extreme logit gaps from underflowing to an exact
    # zero weight, so decoding stays a total function
    np.maximum(ex, -700.0, out=ex)
    np.exp(ex, out=ex)
    ex /= fold_last(np.add, ex)
    return ex


def logit(p):
    return np.log(p) - np.log1p(-p)


@dataclass(frozen=True)
class RawRayParams:
    """Unconstrained per-ray parameters; always decodes to a valid mixture."""

    means: np.ndarray
    scales: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("means", "scales", "weights"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).reshape(-1)
            object.__setattr__(self, name, arr)
        n = self.means.size
        if n < 1 or self.scales.size != n or self.weights.size != n:
            raise InputError("means, scales and weights must share a length >= 1")

    @property
    def n_components(self) -> int:
        return self.means.size

    def as_array(self) -> np.ndarray:
        """(3, n) array in the canonical [means, scales, weights] layout."""
        return np.stack([self.means, self.scales, self.weights])

    @staticmethod
    def from_array(arr: np.ndarray) -> "RawRayParams":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != 3:
            raise InputError("raw parameter array must have shape (3, n)")
        return RawRayParams(arr[0], arr[1], arr[2])


@dataclass(frozen=True)
class MixtureOfLogistics:
    """Occlusion CDF ``t(z) = sum_i w_i * sigmoid((z - mu_i) / sigma_i)``."""

    means: np.ndarray
    scales: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("means", "scales", "weights"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).reshape(-1)
            object.__setattr__(self, name, arr)
        if self.means.size < 1:
            raise InputError("need at least one mixture component")
        if np.any(self.scales <= 0):
            raise InputError("all scales must be positive")
        if np.any(self.weights <= 0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise InputError("weights must be positive and sum to 1")

    @property
    def n_components(self) -> int:
        return self.means.size

    def cdf(self, z):
        return occlusion_cdf(self, z)


def decode(raw: RawRayParams, depth_range) -> MixtureOfLogistics:
    """Deterministic reparameterization from raw values to a valid mixture."""
    near, far = near_far(*depth_range)
    mu, sig, w = decode_arrays(raw.as_array(), near, far)
    return MixtureOfLogistics(mu, sig, w)


def decode_stack(params: np.ndarray, near: float, far: float) -> np.ndarray:
    """The one decode: raw parameters (..., 3, n) into a new contiguous
    component-major array (3, n, ...) of mu, sigma and w, by component, then
    by the leading axes of ``params``. The raw values are copied in once and
    decoded in place."""
    span = far - near
    out = np.empty((3, params.shape[-1]) + params.shape[:-2])
    np.copyto(out, np.moveaxis(params, (-2, -1), (0, 1)))
    mu, sig, w = out
    sigmoid(mu, out=mu)
    mu *= span
    mu += near
    softplus(sig, out=sig)
    sig += SIGMA_MIN_FRACTION * span
    w = np.moveaxis(w, 0, -1)
    softmax(w, out=w)
    return out


def decode_arrays(params: np.ndarray, near: float, far: float):
    """Vectorized decode of raw parameters (..., 3, n) -> (mu, sigma, w),
    each (..., n): views of :func:`decode_stack`."""
    return tuple(np.moveaxis(decode_stack(params, near, far), 1, -1))


def decode_backward(params: np.ndarray, near: float, far: float, grads: np.ndarray):
    """Pull a (3, n, ...) stack of gradients w.r.t. (mu, sigma, w), laid out as
    :func:`decode_stack` returns the decode, back to the raw layout (..., 3, n)."""
    out = np.empty_like(params)
    raw, back = (np.moveaxis(a, (-2, -1), (0, 1)) for a in (params, out))    # (3, n, ...) views
    sm = sigmoid(raw[0])
    back[0] = grads[0] * (far - near) * sm * (1.0 - sm)
    back[1] = grads[1] * sigmoid(raw[1])
    w = np.moveaxis(softmax(params[..., 2, :]), -1, 0)
    gww = grads[2] * w
    back[2] = w * (grads[2] - sum(gww[1:], gww[0]))     # the components summed in order
    return out


def mixture_cdf_terms(mu, sig, w, z, keep: bool = True):
    """The one mixture CDF kernel: ``t = sum_i w_i * sigmoid(x_i)``.

    Component-first: ``mu``, ``sig`` and ``w`` are (n, ...) and ``z``
    broadcasts against their trailing shape. Returns ``t`` with the
    standardized depths ``x = (z - mu) / sigma`` and the component sigmoids
    ``s``, each (n, ...), which the gradients reuse. With ``keep=False``
    the sigmoids, then their weighted terms, overwrite ``x`` in place and
    only ``t`` is returned, as ``(t, None, None)``. The components are
    summed by explicit adds, which equal ``np.sum`` over a trailing axis bit
    for bit for n <= 7 (NumPy's pairwise sum unrolls from 8 on). Counts
    nothing.
    """
    x = np.asarray(z, dtype=np.float64) - mu
    x /= sig
    s = sigmoid(x, out=None if keep else x)
    t = w[0] * s[0]
    for i in range(1, len(s)):
        # without a backward the weighted sigmoid overwrites its own column
        t += np.multiply(w[i], s[i], out=None if keep else s[i, ...])
    return (t, x, s) if keep else (t, None, None)


def _component_first(mu, sig, w, z):
    """(..., n) parameters and (...) depths as the kernel's component-first
    views; ``z`` pairs with the leading axes of the parameters, never with
    their component axis."""
    z = np.asarray(z, dtype=np.float64)
    shape = np.broadcast_shapes(z.shape + (1,), np.shape(mu), np.shape(sig), np.shape(w))
    return [np.moveaxis(np.broadcast_to(a, shape), -1, 0) for a in (mu, sig, w)] + [z]


def mixture_cdf(mu, sig, w, z):
    """CDF of decoded parameter arrays; ``z[..., None]`` broadcasts against (..., n)."""
    t = mixture_cdf_terms(*_component_first(mu, sig, w, z), keep=False)[0]
    counters.add("cdf_evals", t.size)
    return t


def mixture_cdf_grads(sig, w, ends):
    """The one CDF gradient, of ``sum_e dt_e * t(z_e)`` w.r.t. (mu, sigma, w).
    ``ends`` yields each end's ``(dt, x, s)``, its weights and the kernel's
    ``x`` and ``s`` there, broadcasting against the component-first ``sig``
    and ``w``; it is read one end at a time, so a caller may gather each end
    lazily. One end of weight 1 gives t's own gradients exactly."""
    sums = None
    for dt, x, s in ends:
        ws = s * (1.0 - s) * w * -dt        # sigma times the end's mean gradient
        terms = ws, ws * x, s * dt
        del x, s                            # before the next end is gathered
        sums = terms if sums is None else [np.add(a, b, out=a) for a, b in zip(sums, terms)]
    for total in sums[:2]:
        total /= sig
    return sums


def mixture_cdf_param_grads(mu, sig, w, z):
    """CDF value and its gradients w.r.t. the constrained parameters.

    Takes and returns the (..., n) layout of :func:`mixture_cdf`; the
    gradients are contiguous, so reductions over them keep their order.
    """
    mu, sig, w, z = _component_first(mu, sig, w, z)
    t, x, s = mixture_cdf_terms(mu, sig, w, z)
    return (t,) + tuple(np.ascontiguousarray(np.moveaxis(g, 0, -1))
                        for g in mixture_cdf_grads(sig, w, [(1.0, x, s)]))


def occlusion_cdf(dist: MixtureOfLogistics, z):
    """Probability that the ray is occluded before depth ``z``."""
    t = mixture_cdf(dist.means, dist.scales, dist.weights, z)
    return t if t.ndim else float(t)


def visibility(dist: MixtureOfLogistics, z):
    """Probability that a point at depth ``z`` is visible: ``1 - t(z)``."""
    return 1.0 - occlusion_cdf(dist, z)


def hit_prob_interval(dist: MixtureOfLogistics, z0, z1):
    """Probability that the ray first hits a surface in ``[z0, z1]``."""
    z0 = np.asarray(z0, dtype=np.float64)
    z1 = np.asarray(z1, dtype=np.float64)
    if np.any(z0 > z1):
        raise IntervalOrderError("interval endpoints must satisfy z0 <= z1")
    return occlusion_cdf(dist, z1) - occlusion_cdf(dist, z0)


def input_ray_alpha(dist: MixtureOfLogistics, z0, z1):
    """Opacity of the interval ``(z0, z1)``: ``(t(z1) - t(z0)) / (1 - t(z0))``.

    When ``t(z0)`` has saturated to 1 the result clamps to 1 instead of
    raising, since this occurs transiently during optimization.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    z1 = np.asarray(z1, dtype=np.float64)
    if np.any(z0 > z1):
        raise IntervalOrderError("interval endpoints must satisfy z0 <= z1")
    alpha, _ = interval_alpha(occlusion_cdf(dist, z0), occlusion_cdf(dist, z1))
    alpha = np.clip(alpha, 0.0, 1.0)
    return float(alpha) if alpha.ndim == 0 else alpha


def interval_alpha(t0, t1):
    """Unclipped interval opacity ``(t1 - t0) / (1 - t0)`` from CDF values.

    Returns the opacity and the mask where ``t0`` has saturated; there the
    opacity is 1 instead of a division by zero.
    """
    saturated = t0 >= _SATURATION
    return np.where(saturated, 1.0, (t1 - t0) / np.where(saturated, 1.0, 1.0 - t0)), saturated


def rows_by_cell(n_cells: int, cell, values):
    """Sum per-entry (mu, sigma, w) gradients by the flat cell in ``range(n_cells)``
    each entry names. ``values`` is component-major, as the mixture gradients
    come: one (n, N) block per parameter row, three in all. Returns
    ``(cells, rows)``: the strictly increasing cells named and their summed
    rows, component-major (3, n, len(cells)) like :func:`decode_stack`. One
    ``np.bincount`` per (row, component): the same sums in the same order as
    ``np.add.at``, several times faster."""
    hit = np.zeros(n_cells, dtype=bool)
    hit[cell] = True
    cells = np.flatnonzero(hit)
    rank = np.cumsum(hit)[cell] - 1     # each entry's row among ``cells``
    return cells, np.array([[np.bincount(rank, weights=column, minlength=len(cells))
                             for column in block] for block in values])


def grad_cdf(raw: RawRayParams, z, depth_range) -> np.ndarray:
    """Gradient of ``t(z)`` w.r.t. all raw parameters, flattened (3 * n,).

    Order matches the canonical layout: means, then scales, then weight
    logits.
    """
    near, far = near_far(*depth_range)
    params = raw.as_array()
    mu, sig, w = decode_arrays(params, near, far)
    grads = mixture_cdf_param_grads(mu, sig, w, np.asarray(z, dtype=np.float64))[1:]
    return decode_backward(params, near, far, np.stack(grads)).reshape(-1)


@dataclass
class DistributionMap:
    """H x W grid of raw per-ray parameters for one input view.

    Reads may happen concurrently; parameter updates require exclusive
    access (single writer per optimization step).
    """

    view: int
    params: np.ndarray  # (H, W, 3, n) float64, raw values

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=np.float64)
        if (self.params.ndim != 4 or self.params.shape[2] != 3 or 0 in self.params.shape
                or self.params.shape[3] > MAX_COMPONENTS):
            raise InputError("distribution map parameters must have shape (H, W, 3, n) with "
                             f"H, W, n >= 1 and n <= {MAX_COMPONENTS}, not {self.params.shape}")

    @property
    def height(self) -> int:
        return self.params.shape[0]

    @property
    def width(self) -> int:
        return self.params.shape[1]

    @property
    def n_components(self) -> int:
        return self.params.shape[3]

    def raw_at(self, iy: int, ix: int) -> RawRayParams:
        return RawRayParams.from_array(self.params[iy, ix])

    def save(self, path):
        """Write the NRAY format: u32 version, view, height, width and n, then
        the raw values as f32."""
        write_record(path, *NRAY,
                     (NRAY_VERSION, self.view, self.height, self.width, self.n_components),
                     self.params)

    @staticmethod
    def load(path) -> "DistributionMap":
        (version, view, height, width, n), values = read_record(
            path, *NRAY, lambda version, view, h, w, n: h * w * 3 * n)
        if version != NRAY_VERSION:
            raise InputError(f"{path}: unsupported format version {version}")
        try:
            return DistributionMap(view, values.reshape(height, width, 3, n))
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class DensityProfile:
    """Piecewise-constant volume density between strictly increasing depths.

    This is the slow reference parameterization of visibility: the alpha of
    segment ``i`` of length ``l_i`` is ``1 - exp(-relu(d_i) * l_i)`` and a
    visibility query multiplies the transparencies of every segment before
    the query depth.
    """

    knots: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=np.float64)
        dens = np.asarray(self.densities, dtype=np.float64)
        if knots.ndim != 1 or knots.size < 2:
            raise InputError("need at least two knots")
        if np.any(np.diff(knots) <= 0):
            raise InputError("knots must be strictly increasing")
        if dens.shape != (knots.size - 1,):
            raise InputError("need one density per segment")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "densities", dens)


def density_visibility_oracle(profile: DensityProfile, z) -> float:
    """Visibility at depth ``z`` from accumulated segment densities.

    Each query evaluates the density of every segment starting before
    ``z`` (partial overlap prorated), which is what makes this
    parameterization expensive; the counter records those evaluations.
    """
    z = np.asarray(z, dtype=np.float64)
    scalar = z.ndim == 0
    zq = np.atleast_1d(z)
    lo = profile.knots[:-1]
    hi = profile.knots[1:]
    overlap = np.clip(zq[:, None], lo, hi) - lo
    evaluated = zq[:, None] > lo
    counters.add("density_evals", int(evaluated.sum()))
    d = np.maximum(profile.densities, 0.0)
    v = np.exp(-np.sum(np.where(evaluated, d * overlap, 0.0), axis=1))
    return float(v[0]) if scalar else v
