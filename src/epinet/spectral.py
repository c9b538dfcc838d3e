"""Eigenvalue kernels shared by the stability tests.

The abscissa of a symmetric Metzler operator that supplies a preconditioner
is found by a numpy Davidson (:func:`davidson_abscissa`): a joint chain's
on edges whose transition graphs are trees, binary ones among them, whose
symmetrized generator stretches the spectrum far below a small top gap and
has a cheap exact shifted inverse.  Any other symmetric one, abar on its
edge list, takes the leaner step of a numpy Lanczos (:func:`lanczos_abscissa`).
ARPACK (:func:`spectral_abscissa`), the only kernel that imports scipy,
finds that of any other Metzler operator, a joint chain's with a cycle.
"""
from __future__ import annotations

import math

import numpy as np


# Thick-restart Lanczos: at most this many basis vectors (ARPACK's own ncv),
# and the top LANCZOS_KEEP Ritz vectors carried across each restart.
# Davidson stores each basis vector's image too, so it keeps half of each.
LANCZOS_BASIS = 20
LANCZOS_KEEP = 10
# Lanczos and Davidson stop once the top Ritz pair's residual is at most this
# times max(1, entry_max) (Davidson: or this times |theta|), or the new basis
# vector's norm is at most this times its norm before orthogonalization
# (Lanczos: |S v|), an invariant subspace.
LANCZOS_RTOL = 1e-14
# Lanczos tests its Ritz residual, an eigh of the projected matrix, at bases of
# a multiple of this many vectors and a full one (README: the measured trade-off).
LANCZOS_TEST_STRIDE = 4
# Lanczos and Davidson give up (RuntimeError) after this many products, or
# LANCZOS_BASIS per row if more: a 10 000-vertex path's tiny top gap takes
# Lanczos 14 per row.
LANCZOS_MAX_MATVECS = 5000
# A restart rewrites the basis in column blocks of this many entries, so it
# needs no second copy of the kept vectors.
RESTART_BLOCK = 1 << 14


def _metzler_scale(a) -> float:
    """max(1, ``entry_max``) of an operator whose factors are Metzler;
    refuses one with a negative off-diagonal entry."""
    scale = max(1.0, a.entry_max)
    if a.offdiagonal_min < -1e-12 * scale:
        raise ValueError(
            "matrix has negative off-diagonal entries (not Metzler); its "
            "rightmost eigenvalue need not be real"
        )
    return scale


def lanczos_tolerance(a) -> float:
    """The Ritz residual at which :func:`lanczos_abscissa` stops on ``a``,
    ``LANCZOS_RTOL`` max(1, ``entry_max``): the accuracy of its value, and
    the margin every caller puts on a solver's value: the certificate's on
    Lanczos's, and :func:`epinet.exact.exact_mean_stable`'s bracket on
    Davidson's and ARPACK's."""
    return LANCZOS_RTOL * max(1.0, a.entry_max)


def lanczos_abscissa(a) -> float:
    """Spectral abscissa of a symmetric Metzler operator, by thick-restart
    Lanczos on numpy alone.

    ``a`` is read as :func:`spectral_abscissa` reads it and must be
    symmetric.  The basis holds at most ``LANCZOS_BASIS`` vectors, each
    orthogonalized against all the others twice (classical Gram-Schmidt);
    a full basis restarts from its top ``LANCZOS_KEEP`` Ritz vectors and
    the residual.  The start vector is all ones, never orthogonal to the
    nonnegative Perron vector, so a new vector of norm at most
    ``LANCZOS_RTOL`` |S v| means the basis spans an invariant subspace that
    holds it.  It stops there, or once the top Ritz pair's residual
    |beta_m y_m|, tested every ``LANCZOS_TEST_STRIDE`` vectors, is at most
    :func:`lanczos_tolerance`; it returns that Ritz vector's Rayleigh
    quotient, from one more product, free of the restarts' rounding drift.
    Past max(``LANCZOS_MAX_MATVECS``, ``LANCZOS_BASIS`` x rows) products it
    raises RuntimeError.  Reruns are bit-identical.
    """
    # the basis works on S / max(1, entry_max), whose norms cannot overflow;
    # there a residual of LANCZOS_RTOL is lanczos_tolerance(a) on S
    scale = _metzler_scale(a)
    dim = a.shape[0]
    size = min(LANCZOS_BASIS, dim)
    keep = min(LANCZOS_KEEP, size - 1)
    basis = np.empty((size + 1, dim))
    basis[0] = 1.0 / math.sqrt(dim)
    proj = np.zeros((size, size))
    start, matvecs, budget = 0, 0, max(LANCZOS_MAX_MATVECS, LANCZOS_BASIS * dim)
    while True:
        for j in range(start, size):
            w = a @ basis[j]
            w /= scale
            matvecs += 1
            norm = math.sqrt(w @ w)
            coef = basis[:j + 1] @ w
            w -= coef @ basis[:j + 1]
            again = basis[:j + 1] @ w
            w -= again @ basis[:j + 1]
            coef += again
            proj[j, :j + 1] = proj[:j + 1, j] = coef
            beta = math.sqrt(w @ w)
            invariant = beta <= LANCZOS_RTOL * norm
            if invariant or j == size - 1 or (j + 1) % LANCZOS_TEST_STRIDE == 0:
                theta, vecs = np.linalg.eigh(proj[:j + 1, :j + 1])
                if invariant or beta * abs(vecs[j, -1]) <= LANCZOS_RTOL:
                    ritz = vecs[:, -1] @ basis[:j + 1]
                    return float(ritz @ (a @ ritz)) / float(ritz @ ritz)
            np.divide(w, beta, out=basis[j + 1])
        if matvecs >= budget:
            raise RuntimeError(
                f"Lanczos found no abscissa of the {dim}-row matrix in "
                f"{matvecs} products (residual {beta * abs(vecs[-1, -1]) * scale:.3g})"
            )
        top = vecs[:, -keep:]
        for col in range(0, dim, RESTART_BLOCK):
            block = slice(col, col + RESTART_BLOCK)
            basis[:keep, block] = top.T @ basis[:size, block]
        basis[keep] = basis[size]
        proj[:] = 0.0
        proj[:keep, :keep] = np.diag(theta[-keep:])
        start = keep


def davidson_abscissa(a) -> float:
    """Spectral abscissa of a symmetric Metzler operator that supplies a
    preconditioner, by thick-restart Davidson on numpy alone.

    ``a`` is read as :func:`lanczos_abscissa` reads it, and its
    ``precondition(r, theta)`` approximates (theta I - S)^-1 r; it sets
    the speed, never the value.  The basis holds at most
    ``LANCZOS_BASIS`` // 2 vectors and their images under S, as many
    vectors as Lanczos's basis.  From the all-ones start vector each step
    takes the top Ritz pair (theta, u) of the basis and its residual
    r = S u - theta u from the images, and extends the basis by the
    preconditioned residual, orthogonalized twice, or by r itself if that
    falls within ``LANCZOS_RTOL`` of the basis; if r does too, the basis
    spans an invariant subspace that holds u.  A full basis restarts from
    its top ``LANCZOS_KEEP`` // 2 Ritz vectors and their images.  It stops
    there, or once |r| is at most :func:`lanczos_tolerance` or
    ``LANCZOS_RTOL`` |theta| on S / max(1, ``entry_max``): r is a difference
    of images and cannot be resolved below the rounding of S u, where
    Lanczos's recurrence estimate still can.  It returns u's Rayleigh
    quotient from one more product, free of the images' rounding drift.
    The budget, the error and bit-identical reruns are those of
    :func:`lanczos_abscissa`.
    """
    scale = _metzler_scale(a)
    dim = a.shape[0]
    size = min(LANCZOS_BASIS // 2, dim)
    keep = min(LANCZOS_KEEP // 2, size - 1)
    basis, images = np.empty((size, dim)), np.empty((size, dim))
    basis[0] = 1.0 / math.sqrt(dim)
    proj = np.zeros((size, size))
    j, matvecs, budget = 0, 0, max(LANCZOS_MAX_MATVECS, LANCZOS_BASIS * dim)
    while True:
        np.divide(a @ basis[j], scale, out=images[j])
        matvecs += 1
        proj[j, :j + 1] = proj[:j + 1, j] = basis[:j + 1] @ images[j]
        theta, vecs = np.linalg.eigh(proj[:j + 1, :j + 1])
        top = vecs[:, -1]
        resid = top @ images[:j + 1]
        resid -= theta[-1] * (top @ basis[:j + 1])
        norm = math.sqrt(resid @ resid)
        done = norm <= LANCZOS_RTOL * max(1.0, abs(theta[-1]))
        if not done:
            if matvecs >= budget:
                raise RuntimeError(
                    f"Davidson found no abscissa of the {dim}-row matrix in "
                    f"{matvecs} products (residual {norm * scale:.3g})"
                )
            resid /= norm
            for new in (a.precondition(resid, theta[-1] * scale), resid):
                before = math.sqrt(new @ new)
                for _ in range(2):
                    new -= (basis[:j + 1] @ new) @ basis[:j + 1]
                after = math.sqrt(new @ new)
                if after > LANCZOS_RTOL * before:
                    break
            else:
                done = True  # an invariant subspace that holds the Ritz vector
        if done:
            ritz = top @ basis[:j + 1]
            return float(ritz @ (a @ ritz)) / float(ritz @ ritz)
        if j == size - 1:
            kept = vecs[:, -keep:]
            for col in range(0, dim, RESTART_BLOCK):
                block = slice(col, col + RESTART_BLOCK)
                basis[:keep, block] = kept.T @ basis[:, block]
                images[:keep, block] = kept.T @ images[:, block]
            proj[:] = 0.0
            proj[:keep, :keep] = np.diag(theta[-keep:])
            j = keep - 1
        j += 1
        np.divide(new, after, out=basis[j])


def spectral_abscissa(a) -> float:
    """Spectral abscissa of a Metzler operator, by ARPACK.

    ``a`` is a matrix-free operator such as
    :class:`epinet.exact.StabilityOperator`, with ``shape``, ``dtype``,
    ``matvec``, ``@`` and the ``offdiagonal_min`` and ``entry_max`` of its
    factors.  By Perron-Frobenius the rightmost eigenvalue of a Metzler
    matrix is real, so the Ritz value of largest real part (``which="LR"``)
    is the abscissa.  The start vector is fixed (all ones, never orthogonal
    to a nonnegative left Perron vector), so reruns are bit-identical.
    Refuses operators with negative off-diagonal entries or fewer than 3
    rows (a chain with a cycle has at least 3 states, so 6 rows); raises
    RuntimeError if ARPACK does not converge or returns a value that is not
    real.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, eigs

    scale = _metzler_scale(a)
    dim = a.shape[0]
    if dim < 3:  # k = 1 < dim - 1
        raise ValueError(f"ARPACK needs an operator of at least 3 rows, got {dim}")
    try:
        vals = eigs(
            a, k=1, which="LR", tol=0, v0=np.ones(dim), return_eigenvectors=False
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
