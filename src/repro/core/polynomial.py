"""Two-dimensional surface polynomials (paper Eq. 4).

A delay-deviation surface is approximated by

    f(P) = Σ_{i=0}^{N} Σ_{j=0}^{N} β_{i,j} · v^i · c^j ,   P = (v, c),

over *normalized* predictors ``v = φ_V(voltage)`` and ``c = φ_C(load)``.
The polynomial has order ``2·N`` and ``(N+1)²`` coefficients.

Evaluation is offered in two forms:

* :meth:`SurfacePolynomial.evaluate_naive` — the textbook double sum with
  explicit powers; used as a cross-check oracle in tests,
* :meth:`SurfacePolynomial.evaluate` — nested Horner form.  Following the
  paper's Sec. IV, Horner's method with reuse of previously computed
  terms turns the evaluation into a chain of fused multiply-adds, which
  is also the fastest formulation for NumPy array inputs.

All arithmetic is double precision; the paper notes (Sec. III-D) that the
approximation is highly sensitive to coefficient perturbations, so no
single-precision path is provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["SurfacePolynomial", "design_matrix", "horner", "term_exponents"]


def term_exponents(n: int) -> Tuple[Tuple[int, int], ...]:
    """Exponent pairs ``(i, j)`` in coefficient-vector order.

    The flattening is row-major over the ``(N+1) × (N+1)`` coefficient
    grid: ``(0,0), (0,1), …, (0,N), (1,0), …, (N,N)`` — the same layout as
    the matrix columns in the paper's Eq. 6.
    """
    if n < 0:
        raise ValueError("polynomial half-order N must be >= 0")
    return tuple((i, j) for i in range(n + 1) for j in range(n + 1))


def design_matrix(v: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Regression design matrix ``X`` (paper Eq. 6).

    Row ``k`` holds the power terms ``v_k^i · c_k^j`` of the ``k``-th
    sample, columns ordered like :func:`term_exponents`.  The first
    column is the zero-degree term and therefore all ones.
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    c = np.asarray(c, dtype=np.float64).ravel()
    if v.shape != c.shape:
        raise ValueError("v and c sample vectors must have the same length")
    # Precompute power tables: shape (m, N+1).
    v_pows = np.vander(v, n + 1, increasing=True)
    c_pows = np.vander(c, n + 1, increasing=True)
    # Row-major combination -> (m, (N+1)**2).
    return np.einsum("mi,mj->mij", v_pows, c_pows).reshape(len(v), (n + 1) ** 2)


def horner(coefficients: np.ndarray, v, c) -> np.ndarray:
    """Nested Horner evaluation of one coefficient grid or a stack of them.

    ``coefficients`` has shape ``(..., N+1, N+1)``; its leading axes
    broadcast against the point arrays ``v`` and ``c``, so a stack of
    ``B`` polynomials is evaluated on a shared ``(P, P)`` grid by
    passing ``coefficients[:, None, None]``.  For each power of ``v``
    the inner polynomial in ``c`` is folded first — over the broadcast
    shape of ``c`` alone, since it does not depend on ``v`` — then the
    outer polynomial in ``v``; every step is a single multiply-add per
    element, so the value of an element does not depend on how many
    polynomials or points ride along.
    """
    v = np.asarray(v, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    side = coefficients.shape[-1]
    inner_shape = np.broadcast_shapes(coefficients.shape[:-2], c.shape)
    result = np.zeros(np.broadcast_shapes(inner_shape, v.shape), dtype=np.float64)
    for i in range(side - 1, -1, -1):
        inner = np.zeros(inner_shape, dtype=np.float64)
        for j in range(side - 1, -1, -1):
            inner *= c
            inner += coefficients[..., i, j]
        result *= v
        result += inner
    return result


@dataclass(frozen=True)
class SurfacePolynomial:
    """An ``(N+1) × (N+1)`` coefficient grid defining ``f(v, c)``.

    ``coefficients[i, j]`` is ``β_{i,j}``, multiplying ``v^i · c^j``.
    """

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.ndim != 2 or coeffs.shape[0] != coeffs.shape[1]:
            raise ValueError(f"coefficient grid must be square, got {coeffs.shape}")
        object.__setattr__(self, "coefficients", coeffs)

    # -- structure ---------------------------------------------------------------

    @property
    def n(self) -> int:
        """Half-order ``N`` (each variable appears with powers 0…N)."""
        return self.coefficients.shape[0] - 1

    @property
    def order(self) -> int:
        """Total polynomial order ``2·N`` as the paper counts it."""
        return 2 * self.n

    @property
    def num_coefficients(self) -> int:
        """``(N+1)²`` — the storage cost per pin-delay (Sec. V-A)."""
        return self.coefficients.size

    def to_vector(self) -> np.ndarray:
        """Flatten to the β-vector of Eq. 6 (row-major)."""
        return self.coefficients.ravel().copy()

    @classmethod
    def from_vector(cls, beta: Sequence[float]) -> "SurfacePolynomial":
        beta = np.asarray(beta, dtype=np.float64)
        side = int(round(np.sqrt(beta.size)))
        if side * side != beta.size:
            raise ValueError(f"coefficient vector length {beta.size} is not square")
        return cls(beta.reshape(side, side))

    # -- evaluation ----------------------------------------------------------------

    def evaluate(self, v, c):
        """Evaluate ``f(v, c)`` in nested Horner form.

        ``v`` and ``c`` are normalized predictors (scalars or
        broadcastable arrays).  For each power of ``v`` the inner
        polynomial in ``c`` is folded first, then the outer polynomial in
        ``v`` — every step a single multiply-add.
        """
        result = horner(self.coefficients, v, c)
        if np.ndim(v) == 0 and np.ndim(c) == 0:
            return float(result)
        return result

    def evaluate_naive(self, v, c):
        """Textbook double-sum evaluation (test oracle for Horner)."""
        v = np.asarray(v, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        total = np.zeros(np.broadcast(v, c).shape, dtype=np.float64)
        for i, j in term_exponents(self.n):
            total = total + self.coefficients[i, j] * np.power(v, i) * np.power(c, j)
        if np.ndim(v) == 0 and np.ndim(c) == 0:
            return float(total)
        return total

    def __call__(self, v, c):
        return self.evaluate(v, c)

    # -- calculus / algebra -----------------------------------------------------------

    def partial_v(self) -> "SurfacePolynomial":
        """Partial derivative ∂f/∂v as a new polynomial (same grid size)."""
        coeffs = self.coefficients
        out = np.zeros_like(coeffs)
        for i in range(1, coeffs.shape[0]):
            out[i - 1, :] += i * coeffs[i, :]
        return SurfacePolynomial(out)

    def partial_c(self) -> "SurfacePolynomial":
        """Partial derivative ∂f/∂c as a new polynomial."""
        coeffs = self.coefficients
        out = np.zeros_like(coeffs)
        for j in range(1, coeffs.shape[1]):
            out[:, j - 1] += j * coeffs[:, j]
        return SurfacePolynomial(out)

    def __add__(self, other: "SurfacePolynomial") -> "SurfacePolynomial":
        a, b = self.coefficients, other.coefficients
        side = max(a.shape[0], b.shape[0])
        out = np.zeros((side, side))
        out[: a.shape[0], : a.shape[1]] += a
        out[: b.shape[0], : b.shape[1]] += b
        return SurfacePolynomial(out)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SurfacePolynomial(order={self.order}, coefficients={self.num_coefficients})"
