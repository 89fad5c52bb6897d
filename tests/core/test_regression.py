"""Tests for the OLS regression (Eq. 5–8)."""

import numpy as np
import pytest

from repro.core.interpolation import densify
from repro.core.polynomial import SurfacePolynomial
from repro.core.polynomial import design_matrix, horner
from repro.core.regression import (CrossValidation, FitPlan, fit_polynomial,
                                   select_half_order)
from repro.errors import RegressionError


def grid_samples(count=12):
    v, c = np.meshgrid(np.linspace(0, 1, count), np.linspace(0, 1, count),
                       indexing="ij")
    return v.ravel(), c.ravel()


class TestExactRecovery:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_recovers_exact_polynomial(self, n, rng):
        truth = SurfacePolynomial(rng.normal(size=(n + 1, n + 1)))
        v, c = grid_samples()
        y = truth.evaluate(v, c)
        fit = fit_polynomial(v, c, y, n=n)
        np.testing.assert_allclose(
            fit.polynomial.coefficients, truth.coefficients, rtol=1e-7, atol=1e-9
        )
        assert fit.max_abs_error < 1e-9
        assert fit.r_squared == pytest.approx(1.0)

    def test_overfit_order_still_exact(self, rng):
        truth = SurfacePolynomial(rng.normal(size=(2, 2)))
        v, c = grid_samples()
        y = truth.evaluate(v, c)
        fit = fit_polynomial(v, c, y, n=3, method="auto")
        assert fit.max_abs_error < 1e-8

    def test_methods_agree(self, rng):
        v, c = grid_samples()
        y = np.sin(3 * v) * np.exp(c)  # non-polynomial target
        normal = fit_polynomial(v, c, y, n=3, method="normal")
        lstsq = fit_polynomial(v, c, y, n=3, method="lstsq")
        np.testing.assert_allclose(
            normal.polynomial.coefficients, lstsq.polynomial.coefficients,
            rtol=1e-6, atol=1e-9,
        )


class TestDiagnostics:
    def test_error_decreases_with_order(self):
        v, c = grid_samples(16)
        y = 1.0 / (1.2 - v) + 0.1 * c  # rational, like the alpha-power law
        errors = [fit_polynomial(v, c, y, n=n).rms_error for n in (1, 2, 3, 4)]
        assert errors == sorted(errors, reverse=True)

    def test_residual_statistics_consistent(self, rng):
        v, c = grid_samples()
        y = v**2 + 0.5 * c + rng.normal(scale=1e-3, size=v.size)
        fit = fit_polynomial(v, c, y, n=2)
        assert fit.mean_abs_error <= fit.max_abs_error
        assert fit.rms_error <= fit.max_abs_error
        assert 0.99 < fit.r_squared <= 1.0
        assert fit.sample_count == v.size
        assert fit.solve_seconds >= 0.0

    def test_regression_runtime_is_milliseconds(self):
        # The paper reports 1-40 ms per entry; ours must stay in that class.
        v, c = grid_samples(45)  # 2025 samples, like a 4x-subsampled grid
        y = 1.0 / (1.3 - v) + 0.2 * c
        fit = fit_polynomial(v, c, y, n=3)
        assert fit.solve_seconds < 0.5


class TestOrderSelection:
    @pytest.mark.parametrize("true_n", [1, 2, 3])
    def test_recovers_true_order(self, true_n, rng):
        truth = SurfacePolynomial(rng.normal(size=(true_n + 1, true_n + 1)))
        v, c = grid_samples(16)
        y = truth.evaluate(v, c)
        selection = select_half_order(v, c, y)
        # Higher orders fit an exact polynomial equally well (within the
        # tolerance), so the tie-break must pick the smallest.
        assert selection.n == true_n

    def test_noise_prevents_overfit(self, rng):
        truth = SurfacePolynomial(rng.normal(size=(2, 2)))
        v, c = grid_samples(8)
        y = truth.evaluate(v, c) + rng.normal(scale=0.05, size=v.size)
        selection = select_half_order(v, c, y)
        assert selection.n <= 2

    def test_cv_errors_reported_per_candidate(self, rng):
        v, c = grid_samples(12)
        y = v**2 + c
        selection = select_half_order(v, c, y, candidates=(1, 2, 3))
        assert set(selection.cv_errors) == {1, 2, 3}
        assert all(err >= 0 for err in selection.cv_errors.values())
        # A rational target keeps improving with order; the selected
        # candidate must be within tolerance of the best CV error.
        best = min(selection.cv_errors.values())
        assert selection.cv_errors[selection.n] <= best * 1.05 + 1e-12

    def test_infeasible_candidates_skipped(self):
        # 12 samples cannot train a fold for n=4 ((4+1)^2 = 25 > fold
        # size); the selection must fall back to the feasible orders.
        v, c = grid_samples(4)  # 16 samples, 12 per training fold
        y = v + c
        selection = select_half_order(v, c, y, candidates=(1, 4))
        assert selection.n == 1
        assert 4 not in selection.cv_errors

    def test_no_feasible_candidate_raises(self):
        v = np.linspace(0, 1, 6)
        c = np.linspace(0, 1, 6)
        with pytest.raises(RegressionError, match="feasible"):
            select_half_order(v, c, v + c, candidates=(4,))


class TestFitPlan:
    """A plan fits stacks; a row's answer never depends on its neighbours."""

    def test_lower_orders_and_folds_are_slices_of_one_design(self):
        v, c = grid_samples(9)
        plan = FitPlan(v, c, 4)
        train = np.arange(v.size) % 4 != 1
        for n in (1, 2, 3, 4):
            np.testing.assert_array_equal(plan.design(n), design_matrix(v, c, n))
            np.testing.assert_array_equal(
                plan.design(n, train), design_matrix(v[train], c[train], n))
            assert plan.design(n, train).flags.c_contiguous

    @pytest.mark.parametrize("method", ["normal", "lstsq", "auto"])
    def test_stack_equals_one_at_a_time(self, method, rng):
        v, c = grid_samples(10)
        y = np.sin(3 * v) * np.exp(c) + rng.normal(scale=0.01, size=(7, v.size))
        plan = FitPlan(v, c, 4)
        beta, used, _ = plan.solve(y, 4, method)
        stacked = plan.results(y, beta, 4, [used] * 7, [0.0] * 7)
        selections = plan.select_orders(y, (1, 2, 3, 4))
        for row, fit, selection in zip(y, stacked, selections):
            alone = fit_polynomial(v, c, row, n=4, method=method)
            np.testing.assert_array_equal(alone.polynomial.coefficients,
                                          fit.polynomial.coefficients)
            for name in ("mean_abs_error", "rms_error", "max_abs_error",
                         "r_squared", "condition_number", "sample_count", "method"):
                assert getattr(alone, name) == getattr(fit, name), name
            assert select_half_order(v, c, row) == selection

    def test_condition_number_computed_once_per_order(self, monkeypatch):
        v, c = grid_samples(8)
        plan = FitPlan(v, c, 3)
        calls = []
        real = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond",
                            lambda matrix: calls.append(1) or real(matrix))
        assert plan.condition(3) == plan.condition(3)
        plan.condition(2)
        assert len(calls) == 2


def normal_equation_selection(v, c, y, candidates, folds=4, tolerance=0.05):
    """The order selection before :class:`CrossValidation`, kept as its oracle.

    Per (order, fold): the training ``XᵀX`` solved per row, ``lstsq`` per
    row where that solve finds it singular, Horner at the held-out
    samples.  Returns the selections and the branches taken.
    """
    index = np.arange(v.size)
    folds = min(folds, v.size)
    scores, branches = {}, set()
    for n in sorted(set(candidates)):
        fold_errors = []
        for k in range(folds):
            train, test = index % folds != k, index % folds == k
            if train.sum() < (n + 1) ** 2:
                break
            x_train = design_matrix(v[train], c[train], n)
            gram = x_train.T @ x_train
            beta = []
            for row in y:
                try:
                    beta.append(np.linalg.solve(gram, x_train.T @ row[train]))
                    branches.add("normal")
                except np.linalg.LinAlgError:
                    beta.append(np.linalg.lstsq(x_train, row[train], rcond=None)[0])
                    branches.add("lstsq")
            predicted = horner(np.reshape(beta, (len(y), 1, n + 1, n + 1)),
                               v[test], c[test])
            fold_errors.append(np.sqrt(np.mean((predicted - y[:, test]) ** 2, axis=1)))
        else:
            scores[n] = np.mean(np.stack(fold_errors, axis=1), axis=1)
    selections = []
    for b in range(len(y)):
        cv_errors = {n: float(score[b]) for n, score in scores.items()}
        ceiling = min(cv_errors.values()) * (1.0 + tolerance) + 1e-12
        selections.append((min(n for n, e in cv_errors.items() if e <= ceiling),
                           cv_errors))
    return selections, branches


def svd_selection_scores(v, c, y, candidates, folds=4):
    """Per-fold SVD least squares: the cross-validation scores to rounding."""
    index = np.arange(v.size)
    scores = {}
    for n in candidates:
        x_matrix = design_matrix(v, c, n)
        fold_errors = []
        for k in range(folds):
            train, test = index % folds != k, index % folds == k
            beta = np.linalg.lstsq(x_matrix[train], y[:, train].T, rcond=None)[0]
            fold_errors.append(np.sqrt(np.mean(
                (x_matrix[test] @ beta - y[:, test].T) ** 2, axis=0)))
        scores[n] = np.mean(fold_errors, axis=0)
    return scores


def flow_like_samples(rng, factor=4):
    """A densified rectilinear grid like the adaptive flow's final ones."""
    nv = np.sort(np.r_[0.0, 0.12, 0.28, 1.0, rng.uniform(0.3, 0.9, rng.integers(1, 3))])
    nc = np.sort(np.r_[0.0, 0.5, 1.0, rng.uniform(0.05, 0.95, rng.integers(0, 3))])
    v, c = np.meshgrid(densify(nv, factor), densify(nc, factor), indexing="ij")
    return v.ravel(), c.ravel()


def surface_stack(rng, v, c, rows=12):
    """Smooth delay-like surfaces plus sampling noise, one per row."""
    return np.asarray([
        rng.uniform(0.5, 2.0) / (rng.uniform(1.2, 1.6) - v)
        + rng.uniform(0.0, 0.3) * v * c
        + SurfacePolynomial(rng.normal(size=(2, 2))).evaluate(v, c)
        + rng.normal(scale=10.0 ** -rng.uniform(2, 4), size=v.size)
        for _ in range(rows)])


class TestCrossValidation:
    """Operators built from the positions score as per-row solves do.

    The normal-equation scorer solves the power basis per row and fold
    and is itself only as exact as ``cond(XᵀX)`` allows: ~5e-9 relative
    on stacks shaped like the flow's, ~1e-6 on unstructured ones.  It is
    compared on the former; on the latter the scores are held to SVD
    least squares.
    """

    def assert_agrees(self, v, c, y, candidates):
        expected, branches = normal_equation_selection(v, c, y, candidates)
        got = CrossValidation(FitPlan(v, c, max(candidates)), candidates).select(y)
        assert len(got) == len(expected)
        for selection, (n, cv_errors) in zip(got, expected):
            assert selection.n == n
            assert selection.cv_errors.keys() == cv_errors.keys()
            for order, score in cv_errors.items():
                assert selection.cv_errors[order] == pytest.approx(score, rel=1e-8)
        return branches

    @pytest.mark.parametrize("seed", range(6))
    def test_flow_like_stacks_match_the_normal_equations(self, seed):
        rng = np.random.default_rng(seed)
        v, c = flow_like_samples(rng)
        y = surface_stack(rng, v, c)
        assert self.assert_agrees(v, c, y, (1, 2, 3, 4)) == {"normal"}

    def test_rank_deficient_design_takes_lstsq(self, rng):
        # One load line: the load columns of X are exact multiples of each
        # other and every fold's XᵀX is singular.
        v = np.linspace(0.0, 1.0, 120)
        c = np.full(120, 0.5)
        y = surface_stack(rng, v, c)
        assert self.assert_agrees(v, c, y, (1, 2, 3)) == {"lstsq"}

    def test_infeasible_top_order_is_skipped(self, rng):
        # A 5 × 4 sample grid trains folds of 15: half-order 2 (9 columns)
        # fits, 3 (16) does not.
        v, c = np.meshgrid([0.0, 0.12, 0.28, 0.6, 1.0], [0.0, 0.25, 0.5, 1.0],
                           indexing="ij")
        v, c = v.ravel(), c.ravel()
        y = surface_stack(rng, v, c)
        assert self.assert_agrees(v, c, y, (1, 2, 3)) == {"normal"}
        assert CrossValidation(FitPlan(v, c, 3), (1, 2, 3)).orders == [1, 2]

    @pytest.mark.parametrize("seed", range(4))
    def test_scores_are_least_squares_scores(self, seed):
        rng = np.random.default_rng(seed)
        v, c = rng.uniform(size=(2, 150))
        y = surface_stack(rng, v, c)
        expected = svd_selection_scores(v, c, y, (1, 2, 3, 4))
        got = CrossValidation(FitPlan(v, c, 4), (1, 2, 3, 4)).select(y)
        for b, selection in enumerate(got):
            for order, score in selection.cv_errors.items():
                assert score == pytest.approx(expected[order][b], rel=1e-10)


class TestValidation:
    def test_too_few_samples(self):
        with pytest.raises(RegressionError, match="at least"):
            fit_polynomial(np.zeros(3), np.zeros(3), np.zeros(3), n=2)

    def test_length_mismatch(self):
        with pytest.raises(RegressionError, match="equal sample counts"):
            fit_polynomial(np.zeros(5), np.zeros(5), np.zeros(4), n=1)

    def test_unknown_method(self):
        v, c = grid_samples(4)
        with pytest.raises(RegressionError, match="unknown regression method"):
            fit_polynomial(v, c, np.zeros_like(v), n=1, method="magic")

    def test_singular_normal_equations_fallback(self):
        # All samples at one point -> singular X^T X; 'auto' must fall back.
        v = np.full(16, 0.5)
        c = np.full(16, 0.5)
        y = np.ones(16)
        fit = fit_polynomial(v, c, y, n=1, method="auto")
        assert fit.method == "lstsq"
        with pytest.raises(RegressionError, match="singular"):
            fit_polynomial(v, c, y, n=1, method="normal")
