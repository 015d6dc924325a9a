"""Hitting-probability-weighted spherical-harmonics color fitting.

At a sample point, each input view contributes a (direction, color) pair
weighted by the probability that the view's ray first hits a surface right
there. Fitting real spherical harmonics to those weighted samples gives a
view-dependent color function; occluded views carry zero weight and cannot
disturb the fit.

Basis convention: real spherical harmonics, components ordered by degree l
ascending and order m from -l to l within each degree. Degree 0..3 only.

There is one solver. The render pipeline needs only the color at the query
direction and has few views (J) per fit, so the estimator is solved in its
dual (kernel) form, by :func:`sh_fit_batched` for a batch of fits and by
:func:`sh_fit` as a one-row call of the same system that returns coefficients.
By the addition theorem, ``sum_m Y_lm(a) Y_lm(b) = (2l+1)/(4 pi) P_l(a.b)``,
so the penalized degrees reduce to the kernel
``K(a, b) = sum_{lambda_l > 0} (2l+1)/(4 pi lambda_l) P_l(a.b)``, one cubic
in the direction cosine. Degrees with zero penalty stay explicit as border
columns ``Y_b``. With ``s = sqrt(w)``, the fit is one symmetric system of
size J + n_b::

    S = [[I + diag(s) K diag(s), diag(s) Y_b],
         [(diag(s) Y_b)',        0          ]]

and the color at ``q`` is ``sum_j g_j s_j c_j`` with
``g = S^+ [s * K(q, d); y_b(q)]``. One rule picks each row's solve: LU on
``S`` while the border is at most one nonzero column; otherwise the border
is eliminated through the SVD of ``diag(s) Y_b``, keeping the directions
``matrix_rank`` counts, since LU would square that matrix's condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from rayvis.errors import DegenerateFitError, InputError

MAX_DEGREE = 3
DEFAULT_DEGREE_PENALTIES = (0.0, 0.001, 0.005, 0.01)

_C0 = 0.28209479177387814
_C1 = 0.4886025119029199
_C2 = (1.0925484305920792, -1.0925484305920792, 0.31539156525252005,
       -1.0925484305920792, 0.5462742152960396)
_C3 = (-0.5900435899266435, 2.890611442640554, -0.4570457994644658,
       0.3731763325901154, -0.4570457994644658, 1.445305721320277,
       -0.5900435899266435)


@dataclass(frozen=True)
class SHBasis:
    """Real spherical harmonics up to ``degree`` (0..3)."""

    degree: int = MAX_DEGREE

    def __post_init__(self):
        if not 0 <= self.degree <= MAX_DEGREE:
            raise InputError(f"SH degree must be in [0, {MAX_DEGREE}]")

    @property
    def basis_size(self) -> int:
        return (self.degree + 1) ** 2


@dataclass(frozen=True)
class SHRegularizer:
    """Per-degree diagonal penalties, expanded over the basis components."""

    degree_penalties: Sequence[float] = DEFAULT_DEGREE_PENALTIES

    def __post_init__(self):
        pen = tuple(float(p) for p in self.degree_penalties)
        if not all(0 <= p < np.inf for p in pen):
            raise InputError("regularizer penalties must be finite and nonnegative")
        object.__setattr__(self, "degree_penalties", pen)

    def diagonal(self, basis: SHBasis) -> np.ndarray:
        diag = np.zeros(basis.basis_size)
        for ell in range(basis.degree + 1):
            pen = self.degree_penalties[ell] if ell < len(self.degree_penalties) else 0.0
            diag[ell * ell : (ell + 1) * (ell + 1)] = pen
        return diag


@dataclass(frozen=True)
class SHCoefficients:
    """Fitted coefficients, one column per color channel: shape (basis, 3)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[1] != 3 or not np.all(np.isfinite(vals)):
            raise InputError("coefficients must be a finite (basis, 3) array")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class WeightedColorSample:
    """One view's contribution: unit direction, color, nonnegative weight."""

    direction: np.ndarray
    color: np.ndarray
    weight: float

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=np.float64).reshape(3)
        if not abs(np.linalg.norm(d) - 1.0) <= 1e-9:
            raise InputError("sample direction must be unit length")
        c = np.asarray(self.color, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(c)):
            raise InputError("sample color must be finite")
        if not (np.isfinite(self.weight) and self.weight >= 0):
            raise InputError("sample weight must be nonnegative")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "color", c)


def sh_basis_values(degree: int, dirs: np.ndarray) -> np.ndarray:
    """Basis values for unit directions (..., 3) -> (..., (degree+1)**2)."""
    x, y, z = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    cols = [np.full(x.shape, _C0)]
    if degree >= 1:
        cols += [-_C1 * y, _C1 * z, -_C1 * x]
    if degree >= 2:
        xx, yy, zz = x * x, y * y, z * z
        cols += [
            _C2[0] * x * y,
            _C2[1] * y * z,
            _C2[2] * (2.0 * zz - xx - yy),
            _C2[3] * x * z,
            _C2[4] * (xx - yy),
        ]
    if degree >= 3:
        xx, yy, zz = x * x, y * y, z * z
        cols += [
            _C3[0] * y * (3.0 * xx - yy),
            _C3[1] * x * y * z,
            _C3[2] * y * (4.0 * zz - xx - yy),
            _C3[3] * z * (2.0 * zz - 3.0 * xx - 3.0 * yy),
            _C3[4] * x * (4.0 * zz - xx - yy),
            _C3[5] * z * (xx - yy),
            _C3[6] * x * (xx - 3.0 * yy),
        ]
    return np.stack(cols, axis=-1)


def sh_eval(basis: SHBasis, direction) -> np.ndarray:
    """Evaluate all basis functions at one unit direction."""
    d = np.asarray(direction, dtype=np.float64).reshape(3)
    if not abs(np.linalg.norm(d) - 1.0) <= 1e-6:
        raise InputError("direction must be unit length")
    return sh_basis_values(basis.degree, d)


def sh_fit(
    samples: Sequence[WeightedColorSample],
    basis: SHBasis,
    reg: SHRegularizer = SHRegularizer(),
) -> SHCoefficients:
    """Solve the regularized weighted least squares for the coefficients.

    Minimizes ``sum_j w_j * |B(r_j) theta - c_j|^2 + theta' Lambda theta``
    per channel by one row of the dual system, the channels as right-hand
    sides ``[s * c; 0]``: the border unknowns are the unpenalized
    coefficients, the penalized ones are ``Lambda^-1 Y_p' (s * r)`` for the
    solved residuals ``r``. Coefficients that are not unique come out
    minimum-norm. Raises only when all weights are zero and the regularizer
    vanishes.
    """
    if not samples:
        raise InputError("need at least one sample")
    dirs = np.stack([s.direction for s in samples])
    colors = np.stack([s.color for s in samples])
    weights = np.array([s.weight for s in samples], dtype=np.float64)
    lam = reg.diagonal(basis)
    if np.all(weights == 0) and np.all(lam == 0):
        raise DegenerateFitError("all weights zero and no regularization")
    kernel, _, border = sh_dual_form(basis.degree, reg.degree_penalties)
    y = sh_basis_values(basis.degree, dirs)
    s, _, system = _dual_system(dirs[None], weights[None], kernel, y[None][..., border])
    rhs = np.concatenate([s[0, :, None] * colors, np.zeros((border.size, 3))])
    sol = _solve(system, rhs[None], len(samples))[0]
    theta = np.zeros((basis.basis_size, 3))
    theta[border] = sol[len(samples):]
    pen = lam > 0
    theta[pen] = y[:, pen].T @ (s[0, :, None] * sol[: len(samples)]) / lam[pen, None]
    return SHCoefficients(theta)


def sh_color(coeffs: SHCoefficients, direction) -> np.ndarray:
    """Color at a unit viewing direction; no clamping is applied here."""
    degree = int(round(np.sqrt(coeffs.values.shape[0]))) - 1
    return sh_eval(SHBasis(degree), direction) @ coeffs.values


def sh_dual_form(degree: int, penalties: Sequence[float]):
    """Kernel and border of the dual fit for ``degree`` and per-degree penalties.

    Returns ``(kernel, border_degree, border)``: the power-series
    coefficients (lowest first) of ``K`` in the direction cosine, and the
    indices of the unpenalized basis columns within
    ``sh_basis_values(border_degree, ...)``. Missing penalties are zero.
    """
    pen = [float(penalties[ell]) if ell < len(penalties) else 0.0 for ell in range(degree + 1)]
    legendre = [(2 * ell + 1) / (4.0 * np.pi * p) if p > 0 else 0.0 for ell, p in enumerate(pen)]
    kernel = np.polynomial.legendre.leg2poly(legendre)
    free = [ell for ell, p in enumerate(pen) if p == 0]
    border = np.array([i for ell in free for i in range(ell * ell, (ell + 1) ** 2)], dtype=np.int64)
    return kernel, max(free, default=0), border


@dataclass
class DualFit:
    """Intermediates of :func:`sh_fit_batched`, kept for :func:`sh_fit_weight_grads`."""

    s: np.ndarray        # (M, J) square-root weights
    kern: Optional[np.ndarray]  # (M, J, J) kernel between input directions;
                                # None unless the fit was kept
    k_q: np.ndarray      # (M, J) kernel between input and query directions
    y_b: np.ndarray      # (M, J, n_b) border columns at the input directions
    colors: np.ndarray   # (M, J, 3)
    system: np.ndarray   # (M, J + n_b, J + n_b)
    g: np.ndarray        # (M, J + n_b) forward solution


def _horner(coeffs: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    if out is None:
        out = np.empty_like(x)
    out[...] = coeffs[-1]
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def _dual_system(dirs, weights, kernel, y_b, keep: bool = False):
    """Square-root weights (M, J), kernel (M, J, J) and bordered system of each row.

    The kernel is evaluated straight into the system's top block, where the
    weights then scale it in place; it is copied out first only with
    ``keep`` (the backward needs it) and is None otherwise.
    """
    m, j = weights.shape
    nb = y_b.shape[-1]
    s = np.sqrt(np.maximum(weights, 0.0))  # clamp rounding noise below zero
    system = np.empty((m, j + nb, j + nb))
    top, sb = system[:, :j, :j], system[:, :j, j:]
    _horner(kernel, np.matmul(dirs, np.swapaxes(dirs, -1, -2)), out=top)
    kern = top.copy() if keep else None
    top *= s[:, :, None]
    top *= s[:, None, :]
    top[:, np.arange(j), np.arange(j)] += 1.0
    np.multiply(s[..., None], y_b, out=sb)
    system[:, j:, :j] = np.swapaxes(sb, -1, -2)
    system[:, j:, j:] = 0.0
    return s, kern, system


def _solve(system: np.ndarray, rhs: np.ndarray, j: int) -> np.ndarray:
    """``S^+ rhs`` for right-hand sides ``rhs`` (M, J + n_b, k), by the module's rule."""
    if system.shape[-1] - j > 1:
        return _eliminate(system, rhs, j)
    zero = (system.shape[-1] == j + 1) & ~np.any(system[:, :j, j:], axis=(1, 2))
    if not zero.any():
        return np.linalg.solve(system, rhs)
    out = np.empty_like(rhs)
    out[~zero] = np.linalg.solve(system[~zero], rhs[~zero])
    out[zero] = _eliminate(system[zero], rhs[zero], j)
    return out


def _eliminate(system: np.ndarray, rhs: np.ndarray, j: int) -> np.ndarray:
    """``S^+ rhs`` by eliminating the border ``B = s * Y_b = U1 sv V1'``.

    ``B' x = t`` fixes ``U1' x``; the rest of ``x`` solves the SPD system
    ``P A P + I - P`` with ``P = I - U1 U1'``, and the border unknowns are the
    minimum-norm ``V1 sv^-1 U1' (r - A x)``.
    """
    a, b = system[:, :j, :j], system[:, :j, j:]
    r, t = rhs[:, :j], rhs[:, j:]
    u, sv, vh = np.linalg.svd(b)
    k = sv.shape[-1]
    keep = sv > np.finfo(float).eps * max(b.shape[1:]) * sv[:, :1]
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)[..., None]
    u1 = u[..., :k] * keep[:, None, :]  # dropped directions join the null space of B'
    u1t, v1t = np.swapaxes(u1, -1, -2), vh[:, :k]
    x = u1 @ (inv * (v1t @ t))
    p = np.eye(j) - u1 @ u1t
    x += np.linalg.solve(p @ a @ p + np.eye(j) - p, p @ (r - a @ x))
    y = np.swapaxes(v1t, -1, -2) @ (inv * (u1t @ (r - a @ x)))
    return np.concatenate([x, y], axis=1)


def sh_fit_batched(dirs, weights, colors, query, kernel, y_b, y_bq, keep: bool = True):
    """Batched dual-form fits, each evaluated at its query direction.

    ``dirs``: (M, J, 3) unit input directions, ``weights``: (M, J)
    nonnegative, ``colors``: (M, J, 3), ``query``: (M, 3) unit directions,
    ``kernel``, ``y_b`` (M, J, n_b) and ``y_bq`` (M, n_b) from
    :func:`sh_dual_form` and :func:`sh_basis_values`. Returns
    ``(colors_q, fit)`` with colors_q (M, 3); ``fit`` is kept for the
    backward pass, which needs ``keep``: without it ``fit.kern`` is None,
    and no copy of the kernel matrix is made.
    """
    j = weights.shape[1]
    s, kern, system = _dual_system(dirs, weights, kernel, y_b, keep)
    k_q = _horner(kernel, np.matmul(dirs, query[:, :, None])[..., 0])
    rhs = np.empty(system.shape[:2])
    np.multiply(s, k_q, out=rhs[:, :j])
    rhs[:, j:] = y_bq
    g = _solve(system, rhs[..., None], j)[..., 0]
    colors_q = np.matmul((g[:, :j] * s)[:, None, :], colors)[:, 0, :]
    return colors_q, DualFit(s, kern, k_q, y_b, colors, system, g)


def sh_fit_weight_grads(fit: DualFit, dc: np.ndarray) -> np.ndarray:
    """Gradient of ``colors_q . dc`` w.r.t. the weights, (M, J), for ``dc`` (M, 3).

    ``d color / d w_j = (y_j . psi)(c_j - fitted_j)`` with ``psi`` the
    primal solve of the query basis row. Both factors come without a
    division by ``s``: ``y_j . psi = k_q - K (s g_J) - Y_b g_b``, and the
    residual of the colors projected on ``dc`` follows from one more solve,
    as the fit is linear in the colors.
    """
    j = fit.s.shape[1]

    def unweighted(x):
        return (np.matmul(fit.kern, (fit.s * x[:, :j])[..., None])[..., 0]
                + np.matmul(fit.y_b, x[:, j:, None])[..., 0])

    e = np.matmul(fit.colors, dc[..., None])[..., 0]
    rhs = np.concatenate([fit.s * e, np.zeros((e.shape[0], fit.y_b.shape[-1]))], axis=-1)
    resid = e - unweighted(_solve(fit.system, rhs[..., None], j)[..., 0])
    ypsi = fit.k_q - unweighted(fit.g)
    return ypsi * resid
