"""Hitting-probability-weighted spherical-harmonics color fitting.

At a sample point, each input view contributes a (direction, color) pair
weighted by the probability that the view's ray first hits a surface right
there. Fitting real spherical harmonics to those weighted samples gives a
view-dependent color function; occluded views carry zero weight and cannot
disturb the fit.

Basis convention: real spherical harmonics, components ordered by degree l
ascending and order m from -l to l within each degree. Degree 0..3 only.

The fit minimizes ``sum_j w_j |B(r_j) theta - c_j|^2 + theta' Lambda theta``
per channel, ``Lambda`` the per-degree penalties of :class:`SHRegularizer`.
:func:`sh_fit` returns its coefficients, the minimum-norm least-squares
solution of ``[s * Y; sqrt(Lambda)] theta = [s * c; 0]`` with ``s = sqrt(w)``.

The renderer needs only the color at the query direction, has few views (J)
per fit and always fits under ``DEFAULT_DEGREE_PENALTIES``, so
:func:`sh_fit_batched` solves a batch of fits in the dual (kernel) form of
that one regularizer. By the addition theorem,
``sum_m Y_lm(a) Y_lm(b) = (2l+1)/(4 pi) P_l(a.b)``, so the penalized degrees
reduce to the kernel ``K(a, b) = sum_{l > 0} (2l+1)/(4 pi lambda_l) P_l(a.b)``,
one cubic in the direction cosine. Degree 0 is unpenalized and stays
explicit as one border column, the constant ``C0``. The fit is one symmetric
system of size J + 1::

    S = [[I + diag(s) K diag(s), C0 * s],
         [C0 * s',               0     ]]

and the color at ``q`` is ``sum_j g_j s_j c_j`` with
``g = S^+ [s * K(q, d); C0]``. The systems of a batch are stored batch last,
(J + 1, J + 1, M), so each step of an elimination is one vector operation
over all M rows. ``A = I + diag(s) K diag(s)`` has every eigenvalue at least
1, as ``K`` is positive semidefinite, so ``S = L D L'`` without pivoting is
stable: its pivots are at least 1 on ``A``, and the last one is the Schur
complement ``-C0^2 s' A^-1 s``. That pivot is 0 only when every weight is,
and its reciprocal is then stored as 0, which solves such a row to the zero
color, the pseudo-inverse of its block-diagonal ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from rayvis.errors import DegenerateFitError, InputError, bounded

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
        object.__setattr__(self, "degree", bounded("degree", self.degree, 0, MAX_DEGREE,
                                                   whole=True, error=InputError))

    @property
    def basis_size(self) -> int:
        return (self.degree + 1) ** 2


@dataclass(frozen=True)
class SHRegularizer:
    """Per-degree diagonal penalties, expanded over the basis components."""

    degree_penalties: Sequence[float] = DEFAULT_DEGREE_PENALTIES

    def __post_init__(self):
        object.__setattr__(self, "degree_penalties",
                           tuple(bounded("degree_penalties", p, 0, error=InputError)
                                 for p in self.degree_penalties))

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
        object.__setattr__(self, "weight", bounded("weight", self.weight, 0, error=InputError))
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
    """The coefficients of the regularized weighted least squares, by
    ``np.linalg.lstsq``; those that are not unique come out minimum-norm.
    Raises only when all weights are zero and the regularizer vanishes."""
    if not samples:
        raise InputError("need at least one sample")
    dirs = np.stack([s.direction for s in samples])
    colors = np.stack([s.color for s in samples])
    weights = np.array([s.weight for s in samples], dtype=np.float64)
    lam = reg.diagonal(basis)
    if np.all(weights == 0) and np.all(lam == 0):
        raise DegenerateFitError("all weights zero and no regularization")
    s = np.sqrt(weights)[:, None]
    a = np.concatenate([s * sh_basis_values(basis.degree, dirs), np.diag(np.sqrt(lam))])
    b = np.concatenate([s * colors, np.zeros((lam.size, 3))])
    return SHCoefficients(np.linalg.lstsq(a, b, rcond=None)[0])


def sh_color(coeffs: SHCoefficients, direction) -> np.ndarray:
    """Color at a unit viewing direction; no clamping is applied here."""
    degree = int(round(np.sqrt(coeffs.values.shape[0]))) - 1
    return sh_eval(SHBasis(degree), direction) @ coeffs.values


@lru_cache(maxsize=MAX_DEGREE + 1)
def sh_dual_form(degree: int) -> np.ndarray:
    """The kernel of the dual fit for ``degree`` under ``DEFAULT_DEGREE_PENALTIES``:
    the power-series coefficients (lowest first) of ``K`` in the direction
    cosine. Computed once per degree, so the array is shared and read-only."""
    legendre = [(2 * ell + 1) / (4.0 * np.pi * p) if p > 0 else 0.0
                for ell, p in enumerate(DEFAULT_DEGREE_PENALTIES[:degree + 1])]
    kernel = np.polynomial.legendre.leg2poly(legendre)
    kernel.setflags(write=False)
    return kernel


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def _pair_kernel(kernel, dirs):
    """The kernel (J(J-1)/2, M) over the view pairs ``np.tril_indices(J, -1)``
    of batch-last unit directions ``dirs`` (3, J, M); each cosine takes three
    products."""
    ia, ib = np.tril_indices(dirs.shape[1], -1)
    cos = dirs[0, ia] * dirs[0, ib]
    cos += dirs[1, ia] * dirs[1, ib]
    cos += dirs[2, ia] * dirs[2, ib]
    return _horner(kernel, cos)


def _dual_system(k_pairs, weights, kernel):
    """Square-root weights and bordered system of each row, batch last.

    ``k_pairs`` (J(J-1)/2, M) from :func:`_pair_kernel` and ``weights``
    (J, M) give ``(s, system)``: ``s`` (J, M) and ``S`` (J + 1, J + 1, M).
    The diagonal is ``K(1) s^2 + 1``.
    """
    j, m = weights.shape
    s = np.maximum(weights, 0.0)  # clamp rounding noise below zero
    np.sqrt(s, out=s)
    ia, ib = np.tril_indices(j, -1)
    off = s[ia] * k_pairs
    off *= s[ib]
    system = np.empty((j + 1, j + 1, m))    # once the products' temporary is freed: a lower peak
    system[ia, ib] = off
    system[ib, ia] = off
    del off
    diag = s * _horner(kernel, np.ones(1))
    diag *= s
    diag += 1.0
    system[np.arange(j), np.arange(j)] = diag
    system[j, :j] = s * _C0
    system[:j, j] = system[j, :j]
    system[j, j] = 0.0
    return s, system


def _factor(system: np.ndarray):
    """``S = L D L'`` of the batch-last systems (J + 1, J + 1, M), in place,
    factored once for every solve. Returns ``(ldl, inv_d)``: ``ldl`` is the
    system with ``L`` in its strict lower triangle, ``D`` on its diagonal and
    ``S`` still above; ``inv_d`` (J + 1, M) holds the reciprocal pivots, 0
    for a zero pivot."""
    n, _, m = system.shape
    inv_d = np.zeros((n, m))
    for k in range(n):
        pivot = system[k, k]
        np.divide(1.0, pivot, out=inv_d[k], where=pivot != 0.0)
        col = system[k + 1:, k]
        lcol = col * inv_d[k]
        for i in range(k + 1, n):  # the trailing lower triangle, row by row
            system[i, k + 1:i + 1] -= lcol[i - k - 1] * col[:i - k]
        col[...] = lcol
    return system, inv_d


def _solve(factors, rhs: np.ndarray) -> np.ndarray:
    """``S^+ rhs`` for batch-last right-hand sides ``rhs`` (J + 1, k, M), with
    the ``factors`` of :func:`_factor`."""
    x = rhs.copy()
    ldl, inv_d = factors
    n = ldl.shape[0]
    for k in range(n - 1):
        x[k + 1:] -= ldl[k + 1:, k, None] * x[k]
    x *= inv_d[:, None]
    for k in range(n - 1, 0, -1):
        x[:k] -= ldl[k, :k, None] * x[k]
    return x


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
    colors: np.ndarray   # (3, J, M)
    factors: tuple       # (ldl, inv_d) of the bordered system, from _factor
    g: np.ndarray        # (J + 1, M) forward solution


def sh_fit_batched(dirs, weights, colors, query, kernel):
    """Batched dual-form fits, each evaluated at its query direction.

    ``dirs``: (M, J, 3) unit input directions, ``weights``: (M, J)
    nonnegative, ``colors``: (M, J, 3), ``query``: (M, 3) unit directions and
    ``kernel`` from :func:`sh_dual_form`. The directions are dropped once
    their cosines exist, so a caller that keeps no reference to them frees
    them before the system is built. Returns ``(colors_q, fit)`` with
    colors_q (M, 3) and ``fit`` the batch-last intermediates that the
    backward pass needs.
    """
    j = weights.shape[1]
    colors = np.ascontiguousarray(colors.transpose(2, 1, 0))
    d = np.ascontiguousarray(dirs.transpose(2, 1, 0))
    q = query.T
    cos = d[0] * q[0]
    cos += d[1] * q[1]
    cos += d[2] * q[2]
    k_q = _horner(kernel, cos)
    k_pairs = _pair_kernel(kernel, d)
    del dirs, d, cos
    s, system = _dual_system(k_pairs, np.ascontiguousarray(weights.T), kernel)
    rhs = np.empty((j + 1, 1, s.shape[1]))
    np.multiply(s, k_q, out=rhs[:j, 0])
    rhs[j, 0] = _C0
    factors = _factor(system)
    g = _solve(factors, rhs)[:, 0]
    gs = g[:j] * s
    colors_q = colors[:, 0] * gs[0]
    for i in range(1, j):
        colors_q += colors[:, i] * gs[i]
    fit = DualFit(s, float(_horner(kernel, np.ones(1))[0]), k_pairs, k_q, colors, factors, g)
    return colors_q.T, fit


def sh_fit_weight_grads(fit: DualFit, dc: np.ndarray) -> np.ndarray:
    """Gradient of ``colors_q . dc`` w.r.t. the weights, (M, J), for ``dc`` (M, 3).

    ``d color / d w_j = (y_j . psi)(c_j - fitted_j)`` with ``psi`` the
    primal solve of the query basis row. Both factors come without a
    division by ``s``: ``y_j . psi = k_q - K (s g_J) - C0 g_b``, and the
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
        return np.sum(kern * (fit.s * x[:j]), axis=1) + _C0 * x[j]

    e = fit.colors[0] * dc[:, 0]
    e += fit.colors[1] * dc[:, 1]
    e += fit.colors[2] * dc[:, 2]
    rhs = np.zeros((j + 1, 1, m))
    np.multiply(fit.s, e, out=rhs[:j, 0])
    resid = e - unweighted(_solve(fit.factors, rhs)[:, 0])
    ypsi = fit.k_q - unweighted(fit.g)
    return (ypsi * resid).T
