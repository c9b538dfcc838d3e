"""Eigenvalue kernels shared by the stability tests."""
from __future__ import annotations

import numpy as np


def _check_symmetric(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if float(np.abs(a - a.T).max(initial=0.0)) > tol * scale:
        raise ValueError("matrix is not symmetric")
    return a


def lambda_max_dense(a: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix (dense solver); callers
    bound the size (netmodel.DENSE_N_CAP)."""
    return float(np.linalg.eigvalsh(_check_symmetric(a))[-1])


def spectral_abscissa(a) -> float:
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
