import numpy as np
import pytest

from rayvis.errors import DegenerateFitError, InputError
from rayvis.shcolor import (
    DEFAULT_DEGREE_PENALTIES,
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

    def test_degree_bounds(self):
        with pytest.raises(InputError):
            SHBasis(4)
        assert SHBasis(0).basis_size == 1
        assert SHBasis(3).basis_size == 16


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


class TestDualFit:
    """The batched dual-form fit against the primal ``sh_fit`` reference."""

    BORDER_PENALTIES = (0.002, 0.001, 0.0, 0.01)  # unpenalized degree 2 only

    @staticmethod
    def dual_colors(dirs, weights, colors, query, degree, penalties):
        kernel, border_degree, border = sh_dual_form(degree, penalties)
        y_b = sh_basis_values(border_degree, dirs)[..., border]
        y_bq = sh_basis_values(border_degree, query)[..., border]
        return sh_fit_batched(dirs, weights, colors, query, kernel, y_b, y_bq)

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
        # with fewer views than unpenalized columns, a 1e-12 weight alone
        # pins some of them: ill-conditioned in either form, so left out
        if n_views >= sh_dual_form(degree, penalties)[2].size:
            weights[2::3, -1] = 1e-12
            weights[4] = 1e-12
        got, _ = self.dual_colors(dirs, weights, colors, query, degree, penalties)
        basis, reg = SHBasis(degree), SHRegularizer(penalties)
        for m in range(rows):
            if not weights[m].any() and not any(penalties[: degree + 1]):
                # the reference refuses this fit; the dual returns the zero fit
                np.testing.assert_array_equal(got[m], 0.0)
                continue
            samples = [WeightedColorSample(d, c, float(w))
                       for d, c, w in zip(dirs[m], colors[m], weights[m])]
            want = sh_color(sh_fit(samples, basis, reg), query[m])
            assert np.max(np.abs(got[m] - want)) <= 1e-9 * np.max(np.abs(colors[m])), m
