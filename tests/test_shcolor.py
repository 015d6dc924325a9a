import numpy as np
import pytest

from rayvis.errors import DegenerateFitError, InputError
from rayvis.shcolor import (
    DEFAULT_DEGREE_PENALTIES,
    _dual_system,
    _pair_kernel,
    _factor,
    _solve,
    SHBasis,
    SHCoefficients,
    SHRegularizer,
    WeightedColorSample,
    sh_basis_values,
    sh_color,
    sh_eval,
    sh_dual_form,
    sh_fit,
    sh_fit_batched,
    sh_fit_weight_grads,
)

Y00 = 0.2820947918


def random_directions(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_samples(rng, n, degree_weights=True):
    dirs = random_directions(rng, n)
    colors = rng.uniform(0, 1, size=(n, 3))
    weights = rng.uniform(0, 1, size=n) if degree_weights else np.ones(n)
    return [
        WeightedColorSample(d, c, float(w)) for d, c, w in zip(dirs, colors, weights)
    ]


def brute_force_fit(samples, basis, reg):
    """Oracle: assemble the normal equations with explicit loops."""
    nb = basis.basis_size
    a = np.zeros((nb, nb))
    rhs = np.zeros((nb, 3))
    for s in samples:
        row = sh_eval(basis, s.direction)
        for i in range(nb):
            for j in range(nb):
                a[i, j] += s.weight * row[i] * row[j]
            for c in range(3):
                rhs[i, c] += s.weight * row[i] * s.color[c]
    lam = reg.diagonal(basis)
    for i in range(nb):
        a[i, i] += lam[i]
    return np.linalg.lstsq(a, rhs, rcond=None)[0]


class TestShEval:
    def test_constant_component(self):
        rng = np.random.default_rng(0)
        basis = SHBasis(3)
        for d in random_directions(rng, 20):
            vals = sh_eval(basis, d)
            assert vals.shape == (16,)
            assert vals[0] == pytest.approx(Y00, abs=1e-9)

    def test_axial_direction_zeroes_transverse_degree_one(self):
        vals = sh_eval(SHBasis(1), (0, 0, 1))
        assert vals[1] == 0.0 and vals[3] == 0.0
        assert vals[2] != 0.0

    def test_monte_carlo_gram_matrix(self):
        """Oracle: orthonormality under the uniform sphere measure."""
        rng = np.random.default_rng(1)
        dirs = random_directions(rng, 100_000)
        y = sh_basis_values(3, dirs)
        gram = 4.0 * np.pi * (y.T @ y) / dirs.shape[0]
        assert np.max(np.abs(gram - np.eye(16))) < 0.02

    def test_non_unit_direction_rejected(self):
        with pytest.raises(InputError):
            sh_eval(SHBasis(2), (0, 0, 1.001))

    def test_nan_direction_rejected(self):
        with pytest.raises(InputError):
            sh_eval(SHBasis(2), (np.nan, 0, 1))
        with pytest.raises(InputError):
            WeightedColorSample((np.nan, 0, 1), (0.5, 0.5, 0.5), 1.0)

    def test_degree_bounds(self):
        with pytest.raises(InputError):
            SHBasis(4)
        assert SHBasis(0).basis_size == 1
        assert SHBasis(3).basis_size == 16

    @pytest.mark.parametrize("degree", [1.5, np.nan, np.inf])
    def test_degree_not_whole_rejected(self, degree):
        with pytest.raises(InputError, match="whole number"):
            SHBasis(degree)
        assert type(SHBasis(2.0).basis_size) is int

    @pytest.mark.parametrize("rows", [0, 2, 5, 25])
    def test_coefficient_rows_not_a_basis_size_rejected(self, rows):
        with pytest.raises(InputError, match="1, 4, 9 or 16 rows"):
            SHCoefficients(np.zeros((rows, 3)))
        with pytest.raises(InputError):
            sh_color(SHCoefficients(np.zeros((rows, 3))), (0, 0, 1))


class TestShFit:
    def test_single_sample_degree_zero(self):
        sample = WeightedColorSample((0, 0, 1), (1, 1, 1), 1.0)
        coeffs = sh_fit([sample], SHBasis(0), SHRegularizer((0.0,)))
        np.testing.assert_allclose(coeffs.values, 1.0 / Y00, rtol=1e-7)

    def test_zero_colors_give_zero_coefficients(self):
        rng = np.random.default_rng(2)
        samples = [
            WeightedColorSample(d, (0, 0, 0), 1.0) for d in random_directions(rng, 10)
        ]
        coeffs = sh_fit(samples, SHBasis(3), SHRegularizer())
        np.testing.assert_allclose(coeffs.values, 0.0, atol=1e-14)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        basis = SHBasis(3)
        reg = SHRegularizer()
        samples = random_samples(rng, 40)
        theta = sh_fit(samples, basis, reg).values
        oracle = brute_force_fit(samples, basis, reg)
        assert np.max(np.abs(theta - oracle)) < 1e-8

    def test_degenerate_system_raises(self):
        sample = WeightedColorSample((0, 0, 1), (1, 0, 0), 0.0)
        with pytest.raises(DegenerateFitError):
            sh_fit([sample], SHBasis(1), SHRegularizer((0.0, 0.0)))

    def test_rank_deficient_falls_back_to_pseudo_inverse(self):
        # one sample cannot pin 16 coefficients; with lambda_0 = 0 the
        # system is singular but the pseudo-inverse still reproduces it
        sample = WeightedColorSample((0, 0, 1), (0.5, 0.25, 0.75), 1.0)
        coeffs = sh_fit([sample], SHBasis(3), SHRegularizer((0.0, 0.0, 0.0, 0.0)))
        np.testing.assert_allclose(
            sh_color(coeffs, (0, 0, 1)), (0.5, 0.25, 0.75), atol=1e-9
        )


class TestShColor:
    def test_reproduces_single_fitted_sample(self):
        rng = np.random.default_rng(4)
        sample = WeightedColorSample((0, 0, 1), (1, 1, 1), 1.0)
        coeffs = sh_fit([sample], SHBasis(0), SHRegularizer((0.0,)))
        for d in random_directions(rng, 10):
            np.testing.assert_allclose(sh_color(coeffs, d), 1.0, atol=1e-9)

    def test_zero_coefficients(self):
        coeffs = SHCoefficients(np.zeros((9, 3)))
        np.testing.assert_allclose(sh_color(coeffs, (1, 0, 0)), 0.0, atol=1e-15)

    def test_degree_two_targets_reproduced_exactly(self):
        """Round trip: colors generated by a degree-2 SH function."""
        rng = np.random.default_rng(5)
        true = rng.uniform(-0.3, 0.7, size=(9, 3))
        dirs = random_directions(rng, 25)
        samples = [
            WeightedColorSample(d, sh_basis_values(2, d) @ true, 1.0) for d in dirs
        ]
        coeffs = sh_fit(samples, SHBasis(2), SHRegularizer((0.0, 0.0, 0.0)))
        for d in dirs:
            np.testing.assert_allclose(
                sh_color(coeffs, d), sh_basis_values(2, d) @ true, atol=1e-6
            )


class TestFitProperties:
    def test_solution_minimizes_regularized_objective(self):
        rng = np.random.default_rng(6)
        basis = SHBasis(3)
        reg = SHRegularizer()
        samples = random_samples(rng, 30)
        theta = sh_fit(samples, basis, reg).values
        lam = reg.diagonal(basis)

        def objective(t):
            total = float(np.sum(lam[:, None] * t * t))
            for s in samples:
                row = sh_eval(basis, s.direction)
                total += s.weight * float(np.sum((row @ t - s.color) ** 2))
            return total

        base = objective(theta)
        for _ in range(100):
            d = rng.normal(size=theta.shape)
            d *= 1e-3 / np.linalg.norm(d)
            assert objective(theta + d) >= base - 1e-12

    def test_zero_weight_samples_have_no_influence(self):
        rng = np.random.default_rng(7)
        basis = SHBasis(3)
        reg = SHRegularizer()
        samples = random_samples(rng, 20)
        outliers = [
            WeightedColorSample(d, (1000.0, -500.0, 300.0), 0.0)
            for d in random_directions(rng, 5)
        ]
        theta_a = sh_fit(samples, basis, reg).values
        theta_b = sh_fit(samples + outliers, basis, reg).values
        assert np.max(np.abs(theta_a - theta_b)) < 1e-12
        d = random_directions(rng, 1)[0]
        va = sh_color(SHCoefficients(theta_a), d)
        vb = sh_color(SHCoefficients(theta_b), d)
        assert np.max(np.abs(va - vb)) < 1e-12

    def test_weight_scaling_invariance_without_regularization(self):
        rng = np.random.default_rng(8)
        basis = SHBasis(2)
        reg = SHRegularizer((0.0, 0.0, 0.0))
        dirs = random_directions(rng, 15)
        colors = rng.uniform(0, 1, size=(15, 3))
        weights = rng.uniform(0.1, 1, size=15)
        one = sh_fit(
            [WeightedColorSample(d, c, w) for d, c, w in zip(dirs, colors, weights)],
            basis, reg,
        ).values
        scaled = sh_fit(
            [
                WeightedColorSample(d, c, 7.5 * w)
                for d, c, w in zip(dirs, colors, weights)
            ],
            basis, reg,
        ).values
        assert np.max(np.abs(one - scaled)) < 1e-9

    def test_weight_scaling_matters_with_regularization(self):
        rng = np.random.default_rng(9)
        basis = SHBasis(2)
        reg = SHRegularizer((0.1, 0.1, 0.1))
        dirs = random_directions(rng, 15)
        colors = rng.uniform(0, 1, size=(15, 3))
        one = sh_fit(
            [WeightedColorSample(d, c, 1.0) for d, c in zip(dirs, colors)], basis, reg
        ).values
        scaled = sh_fit(
            [WeightedColorSample(d, c, 10.0) for d, c in zip(dirs, colors)], basis, reg
        ).values
        assert np.max(np.abs(one - scaled)) > 1e-6


class TestRegularizer:
    def test_default_per_degree_penalties(self):
        reg = SHRegularizer()
        assert reg.degree_penalties == (0.0, 0.001, 0.005, 0.01)
        diag = reg.diagonal(SHBasis(3))
        expected = [0.0] + [0.001] * 3 + [0.005] * 5 + [0.01] * 7
        np.testing.assert_allclose(diag, expected)

    def test_negative_penalty_rejected(self):
        with pytest.raises(InputError):
            SHRegularizer((-0.1, 0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_penalty_rejected(self, bad):
        with pytest.raises(InputError, match="finite"):
            SHRegularizer((0.0, bad))


def lstsq_fit(dirs, weights, colors, degree, penalties):
    """Oracle: the minimum-norm solution of the augmented least squares
    ``[sqrt(w) Y; sqrt(Lambda)] theta = [sqrt(w) c; 0]``, with the condition
    number of that matrix over the singular values it keeps."""
    lam = SHRegularizer(penalties).diagonal(SHBasis(degree))
    s = np.sqrt(weights)[:, None]
    a = np.concatenate([s * sh_basis_values(degree, dirs), np.diag(np.sqrt(lam))])
    b = np.concatenate([s * colors, np.zeros((lam.size, 3))])
    theta, _, rank, sv = np.linalg.lstsq(a, b, rcond=None)
    return theta, sv[0] / sv[rank - 1]


def dual_colors(dirs, weights, colors, query, degree):
    return sh_fit_batched(dirs, weights, colors, query, sh_dual_form(degree))


class TestDualFit:
    """Both SH entry points against an independent least-squares oracle; the
    batched fit under the renderer's default penalties only."""

    BORDER_PENALTIES = (0.002, 0.001, 0.0, 0.01)  # unpenalized degree 2 only

    @pytest.mark.parametrize("penalties", [DEFAULT_DEGREE_PENALTIES, BORDER_PENALTIES])
    @pytest.mark.parametrize("n_views", [1, 3, 8, 20])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_query_color_matches_primal(self, degree, n_views, penalties):
        rng = np.random.default_rng(10 * degree + n_views)
        rows = 12
        dirs = random_directions(rng, rows * n_views).reshape(rows, n_views, 3)
        query = random_directions(rng, rows)
        colors = rng.uniform(0, 1, size=(rows, n_views, 3))
        weights = rng.uniform(0, 1, size=(rows, n_views))
        weights[1::3, 0] = 0.0
        weights[3] = 0.0
        # a 1e-12 weight alone pins the unpenalized columns it reaches
        weights[2::3, -1] = 1e-12
        weights[4] = 1e-12
        batched = penalties == DEFAULT_DEGREE_PENALTIES
        if batched:
            got, _ = dual_colors(dirs, weights, colors, query, degree)
        basis, reg = SHBasis(degree), SHRegularizer(penalties)
        for m in range(rows):
            if not weights[m].any() and not any(penalties[: degree + 1]):
                # sh_fit refuses this fit; the batched one returns the zero fit
                np.testing.assert_array_equal(got[m], 0.0)
                continue
            theta, _ = lstsq_fit(dirs[m], weights[m], colors[m], degree, penalties)
            want = sh_basis_values(degree, query[m]) @ theta
            scale = 1e-9 * np.max(np.abs(colors[m]))
            if batched:
                assert np.max(np.abs(got[m] - want)) <= scale, m
            samples = [WeightedColorSample(d, c, float(w))
                       for d, c, w in zip(dirs[m], colors[m], weights[m])]
            fitted = sh_color(sh_fit(samples, basis, reg), query[m])
            assert np.max(np.abs(fitted - want)) <= scale, m

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_weight_grads_on_default_penalty_rows(self, degree):
        """The default penalties leave one border column, the constant, so the
        backward's second solve runs on the kept LDL' factors."""
        rng = np.random.default_rng(70 + degree)
        rows, j = 6, 8
        dirs = random_directions(rng, rows * j).reshape(rows, j, 3)
        query = random_directions(rng, rows)
        colors = rng.uniform(0, 1, size=(rows, j, 3))
        weights = rng.uniform(0.05, 1.0, size=(rows, j))
        dc = rng.normal(size=(rows, 3))

        def objective(w):
            return np.sum(dual_colors(dirs, w, colors, query, degree)[0] * dc, axis=-1)

        _, fit = dual_colors(dirs, weights, colors, query, degree)
        assert fit.factors[0].shape == (j + 1, j + 1, rows)
        grads = sh_fit_weight_grads(fit, dc)
        h = 1e-6
        for view in range(j):
            step = np.zeros_like(weights)
            step[:, view] = h
            slope = (objective(weights + step) - objective(weights - step)) / (2 * h)
            np.testing.assert_allclose(grads[:, view], slope, rtol=1e-4, atol=1e-8)

    @pytest.mark.parametrize("degree", [2, 3])
    def test_weight_grads_on_rank_deficient_rows(self, degree):
        """Four views, two sharing a direction and one opposite them: the
        pair kernel block ``s K s`` has rank below J, the even degrees see
        the opposite view as the same direction, and only the identity of
        the dual system keeps it regular. Weights near the penalties keep
        the gradients well above the rounding floor of the central
        difference."""
        rng = np.random.default_rng(50 + degree)
        rows = 6
        d, e = random_directions(rng, 2 * rows).reshape(2, rows, 3)
        dirs = np.stack([d, d, -d, e], axis=1)
        query = random_directions(rng, rows)
        colors = rng.uniform(0, 1, size=(rows, 4, 3))
        weights = rng.uniform(0.01, 0.1, size=(rows, 4))
        dc = rng.normal(size=(rows, 3))

        def objective(w):
            return np.sum(dual_colors(dirs, w, colors, query, degree)[0] * dc, axis=-1)

        _, fit = dual_colors(dirs, weights, colors, query, degree)
        grads = sh_fit_weight_grads(fit, dc)
        h = 1e-6
        for view in range(4):
            step = np.zeros_like(weights)
            step[:, view] = h
            slope = (objective(weights + step) - objective(weights - step)) / (2 * h)
            np.testing.assert_allclose(grads[:, view], slope, rtol=1e-4, atol=1e-8)


def batch_last(dirs, weights):
    """The (M, J, 3) and (M, J) inputs in the solver's layout."""
    return tuple(np.ascontiguousarray(a.T) for a in (dirs, weights))


def block_system(dirs, weights, kernel):
    """Reference assembly of the bordered dual system, batch first: the cosines
    and the kernel by Horner's rule on every (a, b), ``K(1)`` on the
    diagonal, the lower triangle mirrored, then ``np.block`` over the
    separately built blocks, the border from the degree-0 basis column."""
    m, j = weights.shape
    s = np.sqrt(np.maximum(weights, 0.0))
    x, y, z = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    cos = (x[:, :, None] * x[:, None, :] + y[:, :, None] * y[:, None, :]
           + z[:, :, None] * z[:, None, :])
    cos[:, np.arange(j), np.arange(j)] = 1.0
    kern = np.full_like(cos, kernel[-1])
    for c in kernel[-2::-1]:
        kern = kern * cos + c
    top = s[:, :, None] * kern * s[:, None, :]
    top = np.where(np.tri(j, dtype=bool), top, np.swapaxes(top, -1, -2))
    top[:, np.arange(j), np.arange(j)] += 1.0
    sb = s[..., None] * sh_basis_values(0, dirs)
    return s, kern, np.block([[top, sb], [np.swapaxes(sb, -1, -2), np.zeros((m, 1, 1))]])


class TestDualSystem:
    """The batch-last assembly of ``_dual_system`` against ``np.block``."""

    # one view has no pairs; 8 is the renderer's default working set
    @pytest.mark.parametrize("j", [1, 8, 20])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_equals_block_assembly_bit_for_bit(self, degree, j):
        rng = np.random.default_rng(7 * degree + j - 1)
        rows = 9
        dirs = random_directions(rng, rows * j).reshape(rows, j, 3)
        weights = rng.uniform(0, 1, size=(rows, j))
        weights[1, :3] = 0.0
        weights[2, min(4, j - 1)] = -1e-18      # rounding noise below zero is clamped
        weights[3] = 0.0
        kernel = sh_dual_form(degree)
        want_s, want_kern, want = block_system(dirs, weights, kernel)
        d, w = batch_last(dirs, weights)
        k_pairs = _pair_kernel(kernel, d)
        s, system = _dual_system(k_pairs, w, kernel)
        assert system.shape == (j + 1, j + 1, rows)
        assert system.tobytes() == np.ascontiguousarray(want.transpose(1, 2, 0)).tobytes()
        assert s.tobytes() == np.ascontiguousarray(want_s.T).tobytes()
        ia, ib = np.tril_indices(j, -1)
        assert k_pairs.shape == (j * (j - 1) // 2, rows)
        assert k_pairs.tobytes() == np.ascontiguousarray(want_kern[:, ia, ib].T).tobytes()
        k_one = want_kern[0, 0, 0]  # K(1)
        np.testing.assert_array_equal(want[:, np.arange(j), np.arange(j)],
                                      want_s * k_one * want_s + 1.0)


def bordered_rows(rng, rows, j, degree):
    """Batch-last systems of random rows, rows 1 and 2 with every weight zero
    or 1e-12, row 3 with one zero weight."""
    kernel = sh_dual_form(degree)
    dirs = random_directions(rng, rows * j).reshape(rows, j, 3)
    weights = rng.uniform(0, 1, size=(rows, j))
    weights[1] = 0.0
    weights[2] = 1e-12
    weights[3, 0] = 0.0
    d, w = batch_last(dirs, weights)
    return _dual_system(_pair_kernel(kernel, d), w, kernel)[1], weights


class TestSolver:
    """The kept LDL' factors of ``_factor`` and their sweeps in ``_solve``."""

    # degree 0's kernel is the zero polynomial: the top block is the identity
    @pytest.mark.parametrize("degree", [0, 3])
    @pytest.mark.parametrize("j", [1, 3, 8, 20])
    def test_matches_dense_solve(self, j, degree):
        rng = np.random.default_rng(100 * j + min(degree, 1))
        rows = 6
        system, weights = bordered_rows(rng, rows, j, degree)
        dense = system.transpose(2, 0, 1).copy()
        rhs = rng.normal(size=(j + 1, 2, rows))
        got = _solve(_factor(system), rhs)
        # an all-zero border column is a zero pivot: the pseudo-inverse
        zero = ~weights.any(axis=1)
        for m in range(rows):
            if zero[m]:
                want = np.linalg.lstsq(dense[m], rhs[..., m], rcond=None)[0]
            else:
                want = np.linalg.solve(dense[m], rhs[..., m])
            assert np.max(np.abs(got[..., m] - want)) <= 1e-12 * np.max(np.abs(want)), m

    @pytest.mark.parametrize("degree", [0, 3])
    def test_kept_factors_resolve_like_a_fresh_solve(self, degree):
        rng = np.random.default_rng(40 + min(degree, 1))
        rows, j = 7, 8
        dirs = random_directions(rng, rows * j).reshape(rows, j, 3)
        weights = rng.uniform(0, 1, size=(rows, j))
        weights[1] = 0.0
        colors = rng.uniform(0, 1, size=(rows, j, 3))
        query = random_directions(rng, rows)
        kernel = sh_dual_form(degree)
        _, fit = dual_colors(dirs, weights, colors, query, degree)
        rhs = rng.normal(size=(j + 1, 1, rows))
        d, w = batch_last(dirs, weights)
        fresh = _solve(_factor(_dual_system(_pair_kernel(kernel, d), w, kernel)[1]), rhs)
        assert _solve(fit.factors, rhs).tobytes() == fresh.tobytes()
