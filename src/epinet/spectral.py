"""Eigenvalue kernels shared by the stability tests."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

DENSE_EIG_CAP = 10_000


@dataclass(frozen=True)
class SymmetricOperator:
    """Matrix-free symmetric linear operator on R^n."""

    n: int
    matvec: Callable[[np.ndarray], np.ndarray]
    dense: Optional[np.ndarray] = None

    @staticmethod
    def from_dense(a: np.ndarray) -> "SymmetricOperator":
        a = _check_symmetric(a)
        return SymmetricOperator(n=a.shape[0], matvec=lambda v: a @ v, dense=a)


@dataclass(frozen=True)
class PowerIterationResult:
    value: float
    iterations: int
    converged: bool


def _check_symmetric(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if float(np.abs(a - a.T).max(initial=0.0)) > tol * scale:
        raise ValueError("matrix is not symmetric")
    return a


def lambda_max_dense(a: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix (dense solver)."""
    a = _check_symmetric(a)
    if a.shape[0] > DENSE_EIG_CAP:
        raise ValueError(
            f"dense eigensolve refused for n={a.shape[0]} > {DENSE_EIG_CAP}"
        )
    return float(np.linalg.eigvalsh(a)[-1])


def lambda_max_iterative(
    op: SymmetricOperator, tol: float = 1e-8, max_iter: int = 10_000
) -> PowerIterationResult:
    """Power iteration with Rayleigh-quotient stopping.

    Converges to the largest eigenvalue when it dominates in modulus, which
    holds for the nonnegative-weight operators used here.  Returns
    ``converged=False`` instead of raising if the iteration stalls.
    """
    if op.n < 1:
        raise ValueError("operator dimension must be >= 1")
    rng = np.random.default_rng(0x5EED)
    # Deterministic start: all-ones plus a fixed jitter so the iterate is not
    # orthogonal to the leading eigenvector of structured matrices.
    v = np.ones(op.n) + 1e-3 * rng.standard_normal(op.n)
    v /= np.linalg.norm(v)
    rayleigh = 0.0
    streak = 0
    for it in range(1, max_iter + 1):
        w = op.matvec(v)
        new = float(v @ w)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return PowerIterationResult(value=0.0, iterations=it, converged=True)
        v = w / norm
        if abs(new - rayleigh) <= tol * max(abs(new), 1e-30):
            streak += 1
            if streak >= 3:
                return PowerIterationResult(value=new, iterations=it, converged=True)
        else:
            streak = 0
        rayleigh = new
    return PowerIterationResult(value=rayleigh, iterations=max_iter, converged=False)


def spectral_abscissa(a, dim_cap: Optional[int] = None) -> float:
    """Spectral abscissa of a (sparse or dense) Metzler matrix, by ARPACK.

    By Perron-Frobenius the rightmost eigenvalue of a Metzler matrix is
    real, so the Ritz value of largest real part from implicitly restarted
    Arnoldi (``which="LR"``) is the abscissa.  The start vector is fixed
    (all ones, never orthogonal to a nonnegative left Perron vector), so
    reruns are bit-identical.  Refuses matrices with negative off-diagonal
    entries; raises RuntimeError if ARPACK does not converge or returns a
    value that is not real.
    """
    from scipy import sparse
    from scipy.sparse.linalg import ArpackNoConvergence, eigs

    a = sparse.csr_array(a, dtype=float)
    dim = a.shape[0]
    if a.shape[1] != dim:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if dim_cap is not None and dim > dim_cap:
        raise ValueError(f"eigensolve refused for n={dim} > {dim_cap}")
    scale = max(1.0, float(np.abs(a.data).max(initial=0.0)))
    negative = np.flatnonzero(a.data < -1e-12 * scale)
    rows = np.searchsorted(a.indptr, negative, side="right") - 1
    if np.any(a.indices[negative] != rows):
        raise ValueError(
            "matrix has negative off-diagonal entries (not Metzler); its "
            "rightmost eigenvalue need not be real"
        )
    if dim < 3:  # ARPACK needs k = 1 < dim - 1
        vals = np.linalg.eigvals(a.toarray())
    else:
        try:
            vals = eigs(
                a, k=1, which="LR", tol=0, v0=np.ones(dim),
                return_eigenvectors=False,
            )
        except ArpackNoConvergence as exc:
            raise RuntimeError(
                f"ARPACK found no abscissa of the {dim}-row matrix: {exc}"
            ) from None
    top = vals[np.argmax(vals.real)]
    if abs(top.imag) > 1e-10 * scale:
        raise RuntimeError(
            f"rightmost eigenvalue {top} of a Metzler matrix is not real"
        )
    return float(top.real)


def matrix_measure_sym(a: np.ndarray) -> float:
    """Matrix measure induced by the Euclidean norm; for symmetric input this
    is just the largest eigenvalue."""
    return lambda_max_dense(a)
