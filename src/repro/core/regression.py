"""Multivariable linear regression for delay surfaces (paper Sec. III-C).

Given ``m`` samples ``(v_k, c_k) → y_k`` (normalized predictors and
relative delay deviations) the regression solves the ordinary
least-squares problem

    β̂ = argmin_β ‖y − X·β‖²₂                        (Eq. 7)

by the normal equations

    β̂ = (XᵀX)⁻¹ Xᵀ y                                (Eq. 8)

with a numerically robust SVD-based ``lstsq`` fallback when XᵀX is badly
conditioned (which happens for high orders with few samples).

Everything in Eq. 8 except ``Xᵀy`` depends on *where* the samples sit,
not on what was measured there.  :class:`FitPlan` holds that half — the
design matrix, ``XᵀX`` and the condition number — for one set of sample
positions and fits any number of sample vectors measured at those
positions in one call; :class:`CrossValidation` holds the same half of
the order selection, per fold.  :func:`fit_polynomial` and
:func:`select_half_order` are the one-vector forms of the same code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.polynomial import SurfacePolynomial, design_matrix
from repro.errors import RegressionError

__all__ = ["CrossValidation", "FitPlan", "FitResult", "OrderSelection",
           "fit_polynomial", "select_half_order"]

_METHODS = ("normal", "lstsq", "auto")


@dataclass(frozen=True)
class FitResult:
    """A fitted surface polynomial plus regression diagnostics.

    Error statistics are computed on the *training* samples in deviation
    units (i.e. fractions of the nominal delay; 0.01 means 1 % of d_nom).
    ``solve_seconds`` is the time spent solving for the coefficients; a
    fit solved in a stack reports its share of the stack's solve.
    """

    polynomial: SurfacePolynomial
    mean_abs_error: float
    rms_error: float
    max_abs_error: float
    r_squared: float
    condition_number: float
    sample_count: int
    solve_seconds: float
    method: str

    @property
    def order(self) -> int:
        return self.polynomial.order


@dataclass(frozen=True)
class OrderSelection:
    """Cross-validated half-order choice plus the per-candidate scores."""

    n: int
    cv_errors: Dict[int, float]


class FitPlan:
    """The sample-position half of the regression, shared by many fits.

    Built once for sample positions ``(v, c)`` and a largest half-order
    ``n``; sample vectors arrive as ``(B, m)`` stacks.  The design
    matrix is built once at order ``n``: a lower order is a column
    subset of it and a cross-validation fold a row subset, so those are
    sliced out when needed rather than stored.  ``XᵀX`` and ``cond(X)``
    (per order) are kept.

    What is shared is only what is equal: every sample vector still
    gets its own matrix-vector ``Xᵀy`` product and its own
    single-right-hand-side solve (the stacked ``np.linalg.solve`` runs
    one LAPACK solve per row), so the coefficients of one vector do not
    depend on which other vectors are in the stack — they are
    bit-identical to a plan that fits it alone.  One ``Y·X`` product or
    one multi-right-hand-side solve would be faster still and is not:
    at half-order 4 ``cond(XᵀX)`` reaches 1e11 and the coefficients
    move in the 12th digit.  For the same reason rows are handed to
    BLAS contiguous, as a lone fit's vector is: a strided vector takes
    another kernel and rounds differently.

    Cross-validation is the one exception to the per-row solve: its
    scores only rank candidate orders, so it fits through operators
    built from the positions alone (:class:`CrossValidation`).

    Not locked: concurrent users may build the same ``XᵀX`` twice and
    store equal values.
    """

    def __init__(self, v: np.ndarray, c: np.ndarray, n: int) -> None:
        self.v = np.asarray(v, dtype=np.float64).ravel()
        self.c = np.asarray(c, dtype=np.float64).ravel()
        self.n = n
        self._design = design_matrix(self.v, self.c, n)
        self._grams: Dict[int, np.ndarray] = {}
        self._conditions: Dict[int, float] = {}

    @property
    def sample_count(self) -> int:
        return self.v.size

    def design(self, n: int, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Contiguous design matrix at half-order ``n <= self.n``."""
        x_matrix = self._design
        if n != self.n:
            side = self.n + 1
            x_matrix = x_matrix.reshape(-1, side, side)[:, :n + 1, :n + 1]
        if rows is not None:
            x_matrix = x_matrix[rows]
        return np.ascontiguousarray(x_matrix).reshape(-1, (n + 1) ** 2)

    def condition(self, n: int) -> float:
        """``cond(X)`` at half-order ``n`` (a diagnostic; one SVD per order)."""
        if n not in self._conditions:
            self._conditions[n] = float(np.linalg.cond(self.design(n)))
        return self._conditions[n]

    def solve(self, y: np.ndarray, n: int, method: str = "auto"
              ) -> Tuple[np.ndarray, str, float]:
        """Coefficients only: ``(B, m)`` samples → ``(β (B, (n+1)²), method, seconds)``.

        ``seconds`` is the solve time per sample vector.
        """
        if method not in _METHODS:
            raise RegressionError(f"unknown regression method: {method!r}")
        x_matrix = self.design(n)
        # Each row must be the contiguous vector a lone fit hands to BLAS.
        y = np.ascontiguousarray(y)
        num_coefficients = (n + 1) ** 2
        if x_matrix.shape[0] < num_coefficients:
            raise RegressionError(
                f"need at least {num_coefficients} samples for order 2*{n}, "
                f"got {x_matrix.shape[0]}")
        start = time.perf_counter()
        beta = None
        if method in ("normal", "auto"):
            gram = self._grams.get(n)
            if gram is None:
                gram = self._grams[n] = x_matrix.T @ x_matrix
            rhs = np.stack([x_matrix.T @ row for row in y])
            try:
                beta = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
                used = "normal"
            except np.linalg.LinAlgError:
                if method == "normal":
                    raise RegressionError(
                        "normal equations are singular; use method='auto' or 'lstsq'"
                    ) from None
        if beta is None:
            beta = np.stack([np.linalg.lstsq(x_matrix, row, rcond=None)[0]
                             for row in y])
            used = "lstsq"
        return beta, used, (time.perf_counter() - start) / max(len(y), 1)

    def results(self, y: np.ndarray, beta: np.ndarray, n: int,
                methods: Sequence[str], seconds: Sequence[float]) -> List[FitResult]:
        """Full diagnostics for fits that are kept: one :class:`FitResult` per row."""
        x_matrix = self.design(n)
        residuals = y - np.stack([x_matrix @ row for row in beta])
        abs_res = np.abs(residuals)
        squared = np.sum(residuals ** 2, axis=1)
        total_var = np.sum((y - y.mean(axis=1)[:, None]) ** 2, axis=1)
        mean_abs = abs_res.mean(axis=1)
        rms = np.sqrt(np.mean(residuals ** 2, axis=1))
        max_abs = abs_res.max(axis=1)
        condition = self.condition(n)
        return [
            FitResult(
                polynomial=SurfacePolynomial.from_vector(beta[b]),
                mean_abs_error=float(mean_abs[b]),
                rms_error=float(rms[b]),
                max_abs_error=float(max_abs[b]),
                r_squared=(1.0 - float(squared[b]) / float(total_var[b])
                           if total_var[b] > 0 else 1.0),
                condition_number=condition,
                sample_count=y.shape[1],
                solve_seconds=seconds[b],
                method=methods[b],
            )
            for b in range(len(y))
        ]

    def select_orders(self, y: np.ndarray, candidates: Sequence[int],
                      folds: int = 4, tolerance: float = 0.05) -> List[OrderSelection]:
        """:func:`select_half_order` for every row of a ``(B, m)`` stack."""
        return CrossValidation(self, candidates, folds).select(y, tolerance)


class CrossValidation:
    """Strided K-fold scoring of candidate half-orders on one :class:`FitPlan`.

    Fold ``k`` trains on every sample but ``k, k+K, k+2K, …`` and scores
    the held-out RMS error there; a candidate's score is the mean over
    the folds.  All of it except the samples is a function of the
    positions, so it is built once — per fold, before any row is seen —
    and every row then costs products only.

    Held-out predictions depend on the space the columns span, not on
    the columns, so the scores are taken in a better-conditioned basis
    of the same space: Legendre polynomials of ``v`` and ``c`` (each
    mapped onto [-1, 1]) in place of their powers, ordered by shell
    (``max(i, j)`` first) so that half-order ``n`` is the column prefix
    of width ``(n+1)²``.  The Cholesky factor ``L`` of a fold's training
    ``XᵀX`` at the largest candidate then holds the factor of every
    smaller one as its leading block, and with the basis ``Q = X·L⁻ᵀ``
    over all samples the order-``n`` least-squares fit predicts the
    held-out samples as ``Q_H[:, :w] · (Q_Tᵀ y_T)[:w]``: one product per
    row and fold projects the training samples, and one more per
    candidate predicts from a prefix of that projection.  A fold whose
    ``XᵀX`` is not positive definite takes operators per order instead,
    on the power basis: ``(XᵀX)⁻¹Xᵀ`` through the LU the normal equations
    use, or the pseudo-inverse where that LU finds ``XᵀX`` singular — the
    ``auto`` fallback to ``lstsq``.

    The scores are the exact cross-validation scores to ~1e-13 relative
    (against per-fold SVD least squares); per-row normal equations on the
    power basis carry ~2e-9 of rounding on the Nangate15 library, whose
    closest call is 4.8 % from the parsimony ceiling.  A row's scores do
    not depend on its stack: every product is a stacked
    ``(B, 1, t) @ (t, k)`` matmul, one BLAS call per row, never one
    ``(B, t) @ (t, k)`` product, which blocks by stack height.
    """

    def __init__(self, plan: FitPlan, candidates: Sequence[int],
                 folds: int = 4) -> None:
        if folds < 2:
            raise RegressionError("cross-validation needs at least 2 folds")
        folds = min(folds, plan.sample_count)
        index = np.arange(plan.sample_count)
        smallest = min(int(np.count_nonzero(index % folds != k))
                       for k in range(folds))
        #: The candidates a training fold is large enough for, ascending.
        self.orders = [n for n in sorted(set(int(k) for k in candidates))
                       if (n + 1) ** 2 <= smallest]
        if not self.orders:
            raise RegressionError(
                f"no feasible half-order among {tuple(candidates)} for "
                f"{plan.sample_count} samples in {folds} folds"
            )
        side = self.orders[-1] + 1
        shells = sorted(range(side * side),
                        key=lambda column: (max(divmod(column, side)), column))
        x_matrix = np.einsum("mi,mj->mij", _legendre(plan.v, side),
                             _legendre(plan.c, side)).reshape(-1, side * side)
        x_matrix = x_matrix[:, shells]
        #: Per fold: the held-out sample indices and ``(project,
        #: predicts)`` stages, in candidate order — ``project`` maps all
        #: samples (zero where held out) to coordinates, and one
        #: ``predict`` per order maps a prefix of those to the held-out
        #: samples.  A shared factor is one stage for every order.
        self._folds = []
        for k in range(folds):
            train = index % folds != k
            test = np.flatnonzero(~train)
            x_train = x_matrix[train]
            try:
                factor = np.linalg.cholesky(x_train.T @ x_train)
            except np.linalg.LinAlgError:
                stages = [self._fallback(plan, n, train, test) for n in self.orders]
            else:
                basis = x_matrix @ np.linalg.inv(factor).T
                predict = np.ascontiguousarray(basis[test].T)
                stages = [(np.where(train[:, None], basis, 0.0),
                           [predict[:(n + 1) ** 2] for n in self.orders])]
            self._folds.append((test, stages))

    @staticmethod
    def _fallback(plan: FitPlan, n: int, train: np.ndarray, test: np.ndarray):
        """One order's stage for a fold whose normal equations are not definite."""
        x_train = plan.design(n, train)
        try:
            operator = np.linalg.solve(x_train.T @ x_train, x_train.T)
        except np.linalg.LinAlgError:
            operator = np.linalg.lstsq(x_train, np.eye(len(x_train)), rcond=None)[0]
        project = np.zeros((plan.sample_count, operator.shape[0]))
        project[train] = operator.T
        return project, [np.ascontiguousarray(plan.design(n, test).T)]

    def select(self, y: np.ndarray, tolerance: float = 0.05) -> List[OrderSelection]:
        """The smallest order within ``tolerance`` of the best score, per row."""
        y = np.ascontiguousarray(y, dtype=np.float64)[:, None, :]
        fold_errors = []
        for test, stages in self._folds:
            held_out = y[:, :, test]
            errors = []
            for project, predicts in stages:
                coordinates = y @ project
                for predict in predicts:
                    residual = coordinates[:, :, :len(predict)] @ predict
                    residual -= held_out
                    errors.append(np.sqrt(np.mean(
                        np.square(residual, out=residual), axis=2)))
            fold_errors.append(np.concatenate(errors, axis=1))
        scores = np.mean(np.stack(fold_errors, axis=2), axis=2)
        selections = []
        for row in scores:
            cv_errors = {n: float(score) for n, score in zip(self.orders, row)}
            ceiling = min(cv_errors.values()) * (1.0 + tolerance) + 1e-12
            selections.append(OrderSelection(
                n=min(n for n, score in cv_errors.items() if score <= ceiling),
                cv_errors=cv_errors))
        return selections


def _legendre(x: np.ndarray, count: int) -> np.ndarray:
    """Legendre polynomials ``P_0 … P_{count-1}`` of ``x`` mapped onto [-1, 1]."""
    low, high = x.min(), x.max()
    unit = (2.0 * x - (low + high)) / (high - low) if high > low else np.zeros_like(x)
    columns = [np.ones_like(unit), unit]
    for k in range(1, count - 1):  # Bonnet's recursion
        columns.append(((2 * k + 1) * unit * columns[k] - k * columns[k - 1]) / (k + 1))
    return np.stack(columns[:count], axis=1)


def _samples(v, c, y) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened float64 ``v``, ``c`` and a one-row ``(1, m)`` stack of ``y``."""
    v = np.asarray(v, dtype=np.float64).ravel()
    c = np.asarray(c, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if not (len(v) == len(c) == len(y)):
        raise RegressionError("v, c and y must have equal sample counts")
    return v, c, y[None, :]


def fit_polynomial(
    v: np.ndarray,
    c: np.ndarray,
    y: np.ndarray,
    n: int,
    method: str = "normal",
) -> FitResult:
    """Fit a half-order-``n`` surface polynomial to deviation samples.

    A one-vector :class:`FitPlan`: the design matrix, ``XᵀX`` and the
    ``cond(X)`` SVD are built for this call and dropped with it.  Code
    that fits many sample vectors at the same positions (the
    characterization flow) holds a plan instead and pays for those once.

    Parameters
    ----------
    v, c:
        Normalized predictor samples (``φ_V``, ``φ_C``), flattened.
    y:
        Relative delay deviations (``φ_D``), same length.
    n:
        Polynomial half-order N; the fitted polynomial has order ``2·N``
        and ``(N+1)²`` coefficients.
    method:
        ``"normal"`` (paper Eq. 8), ``"lstsq"`` (SVD least squares) or
        ``"auto"`` (normal equations with lstsq fallback).
    """
    v, c, y = _samples(v, c, y)
    plan = FitPlan(v, c, n)
    beta, used, seconds = plan.solve(y, n, method)
    return plan.results(y, beta, n, [used], [seconds])[0]


def select_half_order(
    v: np.ndarray,
    c: np.ndarray,
    y: np.ndarray,
    candidates: Sequence[int] = (1, 2, 3, 4),
    folds: int = 4,
    tolerance: float = 0.05,
) -> OrderSelection:
    """Pick a polynomial half-order by deterministic K-fold cross-validation.

    Every candidate ``n`` is scored by the mean held-out RMS error over
    ``folds`` strided folds (fold ``k`` holds out samples ``k, k+folds,
    k+2·folds, …`` — deterministic, no RNG, so selection is reproducible
    across processes).  Candidates whose coefficient count exceeds the
    training-fold size are skipped.  The winner is the *smallest* order
    whose CV error is within ``tolerance`` (relative) of the best score
    — the parsimony rule that keeps kernels cheap when a low order
    already explains the surface.
    """
    v, c, y = _samples(v, c, y)
    orders = [int(k) for k in candidates]
    if any(n < 0 for n in orders):
        raise RegressionError("half-order candidates must be >= 0")
    plan = FitPlan(v, c, max(orders, default=0))
    return plan.select_orders(y, orders, folds, tolerance)[0]
