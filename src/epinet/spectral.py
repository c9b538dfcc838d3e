"""Eigenvalue kernels shared by the stability tests."""
from __future__ import annotations

import numpy as np


# The symmetry check compares a against a.T in row blocks of about this many
# entries, so it needs no n x n temporary.
SYMMETRY_BLOCK = 1 << 16


def _check_symmetric(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    scale = max(1.0, float(a.max(initial=0.0)), -float(a.min(initial=0.0)))
    rows = max(1, SYMMETRY_BLOCK // max(n, 1))
    for start in range(0, n, rows):
        gap = a[start:start + rows] - a[:, start:start + rows].T
        if float(np.abs(gap, out=gap).max(initial=0.0)) > tol * scale:
            raise ValueError("matrix is not symmetric")
    return a


def lambda_max_dense(a: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix (dense solver); callers
    bound the size (netmodel.DENSE_N_CAP)."""
    return float(np.linalg.eigvalsh(_check_symmetric(a))[-1])


def spectral_abscissa(a) -> float:
    """Spectral abscissa of a Metzler matrix, by ARPACK.

    ``a`` is a dense matrix or an operator such as
    :class:`epinet.exact.StabilityOperator`, which reads ``offdiagonal_min``
    and ``entry_max`` from its factors.  By Perron-Frobenius the rightmost
    eigenvalue of a Metzler matrix is real, so the Ritz value of largest
    real part (``which="LR"``) is the abscissa.  The start vector is fixed
    (all ones, never orthogonal to a nonnegative left Perron vector), so
    reruns are bit-identical.  Refuses matrices with negative off-diagonal
    entries; raises RuntimeError if ARPACK does not converge or returns a
    value that is not real.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, eigs

    if hasattr(a, "matvec"):
        low, top_entry = a.offdiagonal_min, a.entry_max
    else:
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        low = float(a[~np.eye(a.shape[0], dtype=bool)].min(initial=0.0))
        top_entry = float(np.abs(a).max(initial=0.0))
    dim = a.shape[0]
    scale = max(1.0, top_entry)
    if low < -1e-12 * scale:
        raise ValueError(
            "matrix has negative off-diagonal entries (not Metzler); its "
            "rightmost eigenvalue need not be real"
        )
    if dim < 3:  # ARPACK needs k = 1 < dim - 1
        vals = np.linalg.eigvals(a @ np.eye(dim))
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
