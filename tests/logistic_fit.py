"""Least-squares fit of a logistics mixture to a density profile.

Test-only machinery: the tests use it to check that the mixture CDF can
represent the occlusion of piecewise-constant densities.
"""

import numpy as np
from scipy.optimize import minimize

from rayvis.errors import InputError
from rayvis.raydist import (
    DensityProfile,
    MixtureOfLogistics,
    decode_arrays,
    decode_backward,
    density_visibility_oracle,
    logit,
    mixture_cdf_param_grads,
)


def fit_logistics_to_density(
    profile: DensityProfile,
    n_components: int,
    grid,
    n_restarts: int = 6,
    seed: int = 0,
) -> MixtureOfLogistics:
    """Least-squares fit of the mixture CDF to the density-based occlusion.

    Minimizes the squared residual of ``t(z)`` against
    ``1 - density_visibility_oracle(z)`` on the grid using this module's
    analytic gradients; returns the best of several seeded restarts.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid[0] > profile.knots[0] or grid[-1] < profile.knots[-1]:
        raise InputError("grid must cover the knot range")
    # pad the decode range so a component mean can move past the grid,
    # which is how "no surface in range" is representable
    span = float(profile.knots[-1] - profile.knots[0])
    near = float(profile.knots[0]) - 0.5 * span
    far = float(profile.knots[-1]) + 0.5 * span
    target = 1.0 - density_visibility_oracle(profile, grid)

    def objective(flat):
        params = flat.reshape(3, n_components)
        mu, sig, w = decode_arrays(params, near, far)
        t, dmu, dsig, dw = mixture_cdf_param_grads(mu, sig, w, grid)
        resid = t - target
        gmu = 2.0 * np.sum(resid[:, None] * dmu, axis=0)
        gsig = 2.0 * np.sum(resid[:, None] * dsig, axis=0)
        gw = 2.0 * np.sum(resid[:, None] * dw, axis=0)
        grad = decode_backward(params, near, far, gmu, gsig, gw)
        return float(np.sum(resid**2)), grad.reshape(-1)

    rng = np.random.default_rng(seed)
    anchor = _quantile_init(n_components, grid, target, near, far)
    inits = [anchor, _spread_init(n_components)]
    # half the restarts jitter around the data-driven anchor, half are global
    for k in range(max(0, n_restarts - 2)):
        if k % 2 == 0:
            inits.append(anchor + rng.normal(0.0, 0.5, size=(3, n_components)))
        else:
            inits.append(rng.normal(0.0, 1.5, size=(3, n_components)))
    best = None
    for init in inits:
        res = minimize(objective, np.asarray(init).reshape(-1), jac=True, method="L-BFGS-B")
        if best is None or res.fun < best.fun:
            best = res
    params = best.x.reshape(3, n_components)
    mu, sig, w = decode_arrays(params, near, far)
    return MixtureOfLogistics(mu, sig, w)


def _spread_init(n_components: int) -> np.ndarray:
    centers = (np.arange(n_components) + 0.5) / n_components
    init = np.zeros((3, n_components))
    init[0] = logit(centers)
    init[1] = -2.0
    return init


def _quantile_init(n_components, grid, target, near, far) -> np.ndarray:
    """Place component means at quantiles of the target's increments."""
    init = np.zeros((3, n_components))
    init[1] = -4.0
    jumps = np.clip(np.diff(target), 0.0, None)
    total = jumps.sum()
    if total < 1e-12:
        init[0] = 8.0  # no occlusion mass: push all means past the grid
        return init
    cdf = np.cumsum(jumps) / total
    quantiles = (np.arange(n_components) + 0.5) / n_components
    idx = np.searchsorted(cdf, quantiles)
    centers = grid[np.minimum(idx + 1, grid.size - 1)]
    u = np.clip((centers - near) / (far - near), 1e-6, 1 - 1e-6)
    init[0] = logit(u)
    return init
