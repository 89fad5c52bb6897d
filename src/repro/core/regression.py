"""Multivariable linear regression for delay surfaces (paper Sec. III-C).

Given ``m`` samples ``(v_k, c_k) → y_k`` (normalized predictors and
relative delay deviations) the regression solves the ordinary
least-squares problem

    β̂ = argmin_β ‖y − X·β‖²₂                        (Eq. 7)

by the normal equations

    β̂ = (XᵀX)⁻¹ Xᵀ y                                (Eq. 8)

with a numerically robust SVD-based ``lstsq`` fallback when XᵀX is badly
conditioned (which happens for high orders with few samples).  An
optional ridge term is provided for ablation studies.

Everything in Eq. 8 except ``Xᵀy`` depends on *where* the samples sit,
not on what was measured there.  :class:`FitPlan` holds that half — the
design matrix, ``XᵀX``, the condition number and the cross-validation
fold splits — for one set of sample positions and fits any number of
sample vectors measured at those positions in one call.
:func:`fit_polynomial` and :func:`select_half_order` are the
one-vector forms of the same code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.polynomial import SurfacePolynomial, design_matrix, horner
from repro.errors import RegressionError

__all__ = ["FitPlan", "FitResult", "OrderSelection", "fit_polynomial",
           "select_half_order"]

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
    subset of it and a cross-validation training fold a row subset, so
    those are sliced out when needed rather than stored.  ``XᵀX`` (per
    order and fold) and ``cond(X)`` (per order) are kept.

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

    Not locked: concurrent users may build the same ``XᵀX`` twice and
    store equal values.
    """

    def __init__(self, v: np.ndarray, c: np.ndarray, n: int) -> None:
        self.v = np.asarray(v, dtype=np.float64).ravel()
        self.c = np.asarray(c, dtype=np.float64).ravel()
        self.n = n
        self._design = design_matrix(self.v, self.c, n)
        self._grams: Dict[Tuple[int, Optional[Tuple[int, int]]], np.ndarray] = {}
        self._conditions: Dict[int, float] = {}

    @property
    def sample_count(self) -> int:
        return self.v.size

    def _train(self, fold: Optional[Tuple[int, int]]) -> Optional[np.ndarray]:
        """Training-row mask of strided fold ``(folds, k)``; None = all rows."""
        if fold is None:
            return None
        return np.arange(self.sample_count) % fold[0] != fold[1]

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

    def solve(self, y: np.ndarray, n: int, method: str = "auto",
              ridge: float = 0.0, fold: Optional[Tuple[int, int]] = None,
              ) -> Tuple[np.ndarray, str, float]:
        """Coefficients only: ``(B, m)`` samples → ``(β (B, (n+1)²), method, seconds)``.

        ``fold=(folds, k)`` fits on the training rows of that strided
        cross-validation fold.  ``seconds`` is the solve time per
        sample vector.
        """
        if method not in _METHODS:
            raise RegressionError(f"unknown regression method: {method!r}")
        train = self._train(fold)
        x_matrix = self.design(n, train)
        if train is not None:
            y = y[:, train]
        # A column-masked stack comes back column-major; each row must
        # be the contiguous vector a lone fit would hand to BLAS.
        y = np.ascontiguousarray(y)
        num_coefficients = (n + 1) ** 2
        if x_matrix.shape[0] < num_coefficients:
            raise RegressionError(
                f"need at least {num_coefficients} samples for order 2*{n}, "
                f"got {x_matrix.shape[0]}")
        start = time.perf_counter()
        beta = None
        if method in ("normal", "auto"):
            gram = self._grams.get((n, fold))
            if gram is None:
                gram = self._grams[(n, fold)] = x_matrix.T @ x_matrix
            if ridge:
                gram = gram + ridge * np.eye(num_coefficients)
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
        if folds < 2:
            raise RegressionError("cross-validation needs at least 2 folds")
        folds = min(folds, self.sample_count)
        scores: Dict[int, np.ndarray] = {}
        for n in sorted(set(int(k) for k in candidates)):
            fold_errors = []
            for k in range(folds):
                train = self._train((folds, k))
                if int(train.sum()) < (n + 1) ** 2 or train.all():
                    break
                beta, _, _ = self.solve(y, n, "auto", fold=(folds, k))
                test = ~train
                predicted = horner(beta.reshape(len(y), 1, n + 1, n + 1),
                                   self.v[test], self.c[test])
                held_out = np.ascontiguousarray(y[:, test])
                fold_errors.append(
                    np.sqrt(np.mean((predicted - held_out) ** 2, axis=1)))
            else:
                scores[n] = np.mean(np.stack(fold_errors, axis=1), axis=1)
        if not scores:
            raise RegressionError(
                f"no feasible half-order among {tuple(candidates)} for "
                f"{self.sample_count} samples in {folds} folds"
            )
        selections = []
        for b in range(len(y)):
            cv_errors = {n: float(score[b]) for n, score in scores.items()}
            ceiling = min(cv_errors.values()) * (1.0 + tolerance) + 1e-12
            selections.append(OrderSelection(
                n=min(n for n, score in cv_errors.items() if score <= ceiling),
                cv_errors=cv_errors))
        return selections


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
    ridge: float = 0.0,
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
    ridge:
        Optional Tikhonov regularization λ added as ``λ·I`` to XᵀX.
    """
    v, c, y = _samples(v, c, y)
    plan = FitPlan(v, c, n)
    beta, used, seconds = plan.solve(y, n, method, ridge)
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
