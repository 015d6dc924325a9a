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
``g = S^+ [s * K(q, d); y_b(q)]``. The systems of a batch are stored batch
last, (J + n_b, J + n_b, M), so each step of an elimination is one vector
operation over all M rows. ``A = I + diag(s) K diag(s)`` has every
eigenvalue at least 1, as ``K`` is positive semidefinite, so ``S = L D L'``
without pivoting is stable while the border is at most one nonzero column:
its pivots are at least 1 on ``A`` and the Schur complement
``-b' A^-1 b`` on the border. Any other row eliminates the border through
the SVD of ``diag(s) Y_b``, keeping the directions ``matrix_rank`` counts,
since a factorization of ``S`` would square that matrix's condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
        if not (float(self.degree).is_integer() and 0 <= self.degree <= MAX_DEGREE):
            raise InputError(f"SH degree must be a whole number in [0, {MAX_DEGREE}], "
                             f"not {self.degree}")
        object.__setattr__(self, "degree", int(self.degree))

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
        if vals.shape[0] not in [(d + 1) ** 2 for d in range(MAX_DEGREE + 1)]:
            raise InputError(f"coefficients must have 1, 4, 9 or 16 rows, "
                             f"not {vals.shape[0]}")
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
    j = len(samples)
    s, _, system = _dual_system(dirs.T[..., None], weights[:, None], kernel,
                                y[:, border].T[..., None])
    rhs = np.concatenate([s * colors, np.zeros((border.size, 3))])
    sol = _solve(_factor(system, j), rhs[..., None])[..., 0]
    theta = np.zeros((basis.basis_size, 3))
    theta[border] = sol[j:]
    pen = lam > 0
    theta[pen] = y[:, pen].T @ (s * sol[:j]) / lam[pen, None]
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
    Computed once per (degree, penalties), so the arrays are shared and
    read-only.
    """
    return _dual_form(degree, tuple(float(p) for p in penalties))


@lru_cache(maxsize=64)
def _dual_form(degree: int, penalties: tuple):
    pen = [penalties[ell] if ell < len(penalties) else 0.0 for ell in range(degree + 1)]
    legendre = [(2 * ell + 1) / (4.0 * np.pi * p) if p > 0 else 0.0 for ell, p in enumerate(pen)]
    kernel = np.polynomial.legendre.leg2poly(legendre)
    free = [ell for ell, p in enumerate(pen) if p == 0]
    border = np.array([i for ell in free for i in range(ell * ell, (ell + 1) ** 2)], dtype=np.int64)
    kernel.setflags(write=False)
    border.setflags(write=False)
    return kernel, max(free, default=0), border


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def _dual_system(dirs, weights, kernel, y_b):
    """Square-root weights, pair kernel and bordered system of each row, batch last.

    ``dirs`` (3, J, M), ``weights`` (J, M) and ``y_b`` (n_b, J, M) give
    ``(s, k_pairs, system)``: ``s`` (J, M), the kernel ``k_pairs``
    (J(J-1)/2, M) over the view pairs ``np.tril_indices(J, -1)``, whose
    cosines take three products each, and ``S`` (J + n_b, J + n_b, M). Only
    the pairs run Horner's rule; the diagonal is ``K(1) s^2 + 1``.
    """
    j, m = weights.shape
    n = j + y_b.shape[0]
    s = np.sqrt(np.maximum(weights, 0.0))  # clamp rounding noise below zero
    ia, ib = np.tril_indices(j, -1)
    cos = dirs[0, ia] * dirs[0, ib]
    cos += dirs[1, ia] * dirs[1, ib]
    cos += dirs[2, ia] * dirs[2, ib]
    k_pairs = _horner(kernel, cos)
    system = np.empty((n, n, m))
    off = s[ia] * k_pairs
    off *= s[ib]
    system[ia, ib] = off
    system[ib, ia] = off
    diag = s * _horner(kernel, np.ones(1))
    diag *= s
    diag += 1.0
    system[np.arange(j), np.arange(j)] = diag
    system[j:, :j] = s * y_b
    system[:j, j:] = system[j:, :j].transpose(1, 0, 2)
    system[j:, j:] = 0.0
    return s, k_pairs, system


@dataclass
class _Factors:
    """The bordered systems of a batch of fits, factored once for every solve.

    With at most one border column, ``S = L D L'`` in place, batch last: the
    strict lower triangle of ``ldl`` holds ``L``, its diagonal ``D`` and its
    upper triangle still ``S``. An all-zero border column has a zero pivot,
    whose reciprocal is stored as 0; those rows, and every row with more
    than one border column, are ``rest``, solved by :func:`_eliminate` from
    their systems kept batch first.
    """

    j: int
    ldl: Optional[np.ndarray]    # (J + n_b, J + n_b, M); None when n_b > 1
    inv_d: Optional[np.ndarray]  # (J + n_b, M) reciprocal pivots
    rest: np.ndarray             # (R,) rows that _eliminate solves
    rest_system: np.ndarray      # (R, J + n_b, J + n_b)


def _factor(system: np.ndarray, j: int) -> _Factors:
    """Factor the batch-last systems (J + n_b, J + n_b, M) in place."""
    n, _, m = system.shape
    if n - j > 1:
        return _Factors(j, None, None, np.arange(m),
                        np.ascontiguousarray(system.transpose(2, 0, 1)))
    rest = np.flatnonzero(~system[j:, :j].any(axis=(0, 1))) if n > j else np.arange(0)
    rest_system = np.ascontiguousarray(system[:, :, rest].transpose(2, 0, 1))
    inv_d = np.zeros((n, m))
    for k in range(n):
        pivot = system[k, k]
        np.divide(1.0, pivot, out=inv_d[k], where=pivot != 0.0)
        col = system[k + 1:, k]
        lcol = col * inv_d[k]
        for i in range(k + 1, n):  # the trailing lower triangle, row by row
            system[i, k + 1:i + 1] -= lcol[i - k - 1] * col[:i - k]
        col[...] = lcol
    return _Factors(j, system, inv_d, rest, rest_system)


def _solve(factors: _Factors, rhs: np.ndarray) -> np.ndarray:
    """``S^+ rhs`` for batch-last right-hand sides ``rhs`` (J + n_b, k, M)."""
    x = rhs.copy()
    ldl = factors.ldl
    if ldl is not None:
        n = ldl.shape[0]
        for k in range(n - 1):
            x[k + 1:] -= ldl[k + 1:, k, None] * x[k]
        x *= factors.inv_d[:, None]
        for k in range(n - 1, 0, -1):
            x[:k] -= ldl[k, :k, None] * x[k]
    if factors.rest.size:
        rest = rhs[..., factors.rest].transpose(2, 0, 1)
        x[..., factors.rest] = _eliminate(factors.rest_system, rest,
                                          factors.j).transpose(1, 2, 0)
    return x


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


@dataclass
class DualFit:
    """Intermediates of :func:`sh_fit_batched`, kept for :func:`sh_fit_weight_grads`.

    Batch last, like the solver. The kernel is kept on the view pairs and the
    system as its factors, so the backward's second solve is two triangular
    sweeps.
    """

    s: np.ndarray        # (J, M) square-root weights
    k_one: float         # K(1), the kernel's diagonal
    k_pairs: np.ndarray  # (J(J-1)/2, M) kernel on the pairs np.tril_indices(J, -1)
    k_q: np.ndarray      # (J, M) kernel between input and query directions
    y_b: np.ndarray      # (n_b, J, M) border columns at the input directions
    colors: np.ndarray   # (M, J, 3)
    factors: _Factors    # of the bordered system
    g: np.ndarray        # (J + n_b, M) forward solution


def sh_fit_batched(dirs, weights, colors, query, kernel, y_b, y_bq):
    """Batched dual-form fits, each evaluated at its query direction.

    ``dirs``: (M, J, 3) unit input directions, ``weights``: (M, J)
    nonnegative, ``colors``: (M, J, 3), ``query``: (M, 3) unit directions,
    ``kernel``, ``y_b`` (M, J, n_b) and ``y_bq`` (M, n_b) from
    :func:`sh_dual_form` and :func:`sh_basis_values`. Returns
    ``(colors_q, fit)`` with colors_q (M, 3) and ``fit`` the batch-last
    intermediates that the backward pass needs.
    """
    j = weights.shape[1]
    d = np.ascontiguousarray(dirs.transpose(2, 1, 0))
    y_b = np.ascontiguousarray(y_b.transpose(2, 1, 0))
    s, k_pairs, system = _dual_system(d, np.ascontiguousarray(weights.T), kernel, y_b)
    q = query.T
    cos = d[0] * q[0]
    cos += d[1] * q[1]
    cos += d[2] * q[2]
    k_q = _horner(kernel, cos)
    rhs = np.empty((system.shape[0], 1, s.shape[1]))
    np.multiply(s, k_q, out=rhs[:j, 0])
    rhs[j:, 0] = y_bq.T
    factors = _factor(system, j)
    g = _solve(factors, rhs)[:, 0]
    colors_q = np.matmul((g[:j] * s).T[:, None, :], colors)[:, 0]
    fit = DualFit(s, float(_horner(kernel, np.ones(1))[0]), k_pairs, k_q, y_b, colors,
                  factors, g)
    return colors_q, fit


def sh_fit_weight_grads(fit: DualFit, dc: np.ndarray) -> np.ndarray:
    """Gradient of ``colors_q . dc`` w.r.t. the weights, (M, J), for ``dc`` (M, 3).

    ``d color / d w_j = (y_j . psi)(c_j - fitted_j)`` with ``psi`` the
    primal solve of the query basis row. Both factors come without a
    division by ``s``: ``y_j . psi = k_q - K (s g_J) - Y_b g_b``, and the
    residual of the colors projected on ``dc`` follows from one more solve
    with the forward's factors, as the fit is linear in the colors.
    """
    j, m = fit.s.shape
    ia, ib = np.tril_indices(j, -1)
    kern = np.empty((j, j, m))
    kern[ia, ib] = fit.k_pairs
    kern[ib, ia] = fit.k_pairs
    kern[np.arange(j), np.arange(j)] = fit.k_one

    def unweighted(x):
        return (np.sum(kern * (fit.s * x[:j]), axis=1)
                + np.sum(fit.y_b * x[j:, None], axis=0))

    e = np.matmul(fit.colors, dc[..., None])[..., 0].T
    rhs = np.zeros((j + fit.y_b.shape[0], 1, m))
    np.multiply(fit.s, e, out=rhs[:j, 0])
    resid = e - unweighted(_solve(fit.factors, rhs)[:, 0])
    ypsi = fit.k_q - unweighted(fit.g)
    return (ypsi * resid).T
