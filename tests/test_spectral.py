from types import SimpleNamespace

import numpy as np
import pytest

from epinet import spectral
from epinet.spectral import davidson_abscissa, lanczos_abscissa, spectral_abscissa


class DenseOperator:
    """A small dense matrix behind the operator interface that
    spectral_abscissa reads; the library passes only StabilityOperator."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.shape, self.dtype = self.a.shape, self.a.dtype
        off = self.a[~np.eye(len(self.a), dtype=bool)]
        self.offdiagonal_min = min(0.0, float(off.min(initial=0.0)))
        self.entry_max = float(np.abs(self.a).max(initial=0.0))

    def matvec(self, x):
        return self.a @ x

    __matmul__ = matvec


def test_spectral_abscissa_triangular():
    a = DenseOperator([[-1.0, 2.0, 0.5], [0.0, -3.0, 1.0], [0.0, 0.0, -2.0]])
    assert spectral_abscissa(a) == pytest.approx(-1.0, abs=1e-12)
    # two rows are below ARPACK's minimum, and no joint chain has so few
    with pytest.raises(ValueError, match="at least 3 rows"):
        spectral_abscissa(DenseOperator([[-1.0, 2.0], [0.0, -3.0]]))


def test_spectral_abscissa_complex_pair():
    # rotation generator: eigenvalues +/- i.  It is not Metzler, so its
    # rightmost eigenvalue need not be real and the Krylov abscissa refuses it
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="Metzler"):
        spectral_abscissa(DenseOperator(a))
    with pytest.raises(ValueError, match="Metzler"):
        spectral_abscissa(DenseOperator(np.kron(np.eye(3), a)))


def test_spectral_abscissa_arpack_guards(monkeypatch):
    import scipy.sparse.linalg as sla

    a = DenseOperator([[-2.0, 1.0, 0.0], [0.5, -1.0, 1.0], [0.0, 1.0, -3.0]])
    assert spectral_abscissa(a) == pytest.approx(
        np.linalg.eigvals(a.a).real.max(), abs=1e-13
    )

    def no_convergence(*args, **kwargs):
        raise sla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((3, 0)))

    monkeypatch.setattr(sla, "eigs", no_convergence)
    with pytest.raises(RuntimeError, match="ARPACK"):
        spectral_abscissa(a)
    monkeypatch.setattr(sla, "eigs", lambda *args, **kwargs: np.array([0.5 + 1e-3j]))
    with pytest.raises(RuntimeError, match="not real"):
        spectral_abscissa(a)


def test_spectral_abscissa_metzler_no_warning(recwarn):
    spectral_abscissa(DenseOperator([[-2.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 1.0, -3.0]]))
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


def test_spectral_abscissa_operator_metzler_guard():
    # a matrix-free operator is checked on its factors: a negative weight or
    # a negative off-diagonal rate, which no validated spec has, is refused
    from epinet.exact import JointChain, StabilityOperator

    rates = np.array([[-1.0, 1.0], [1.0, -1.0]])
    for values, rate in ((np.array([0.0, -0.5]), rates), (np.array([0.0, 1.0]), -rates)):
        edge = SimpleNamespace(i=1, j=2, values=values, rate_matrix=rate,
                               stationary=np.array([0.5, 0.5]))
        joint = JointChain(n=3, edges=(edge,), stationary=edge.stationary,
                           ends=np.array([[0, 1]]))
        with pytest.raises(ValueError, match="Metzler"):
            spectral_abscissa(StabilityOperator(joint, 1.0))


def _symmetric_metzler(rng, dim, spread=1.0):
    off = np.triu(rng.random((dim, dim)) * (rng.random((dim, dim)) < 0.3), 1)
    return off + off.T + np.diag(rng.uniform(-spread, 0.0, dim))


@pytest.mark.parametrize("dim", [1, 2, 3, 19, 20, 21, 300])
def test_lanczos_abscissa_matches_eigvalsh(dim):
    # bases shorter than, equal to and past LANCZOS_BASIS, with restarts at
    # 300 rows and a diagonal spread of 1e3
    rng = np.random.default_rng(dim)
    for spread in (1.0, 1e3):
        a = _symmetric_metzler(rng, dim, spread)
        ref = float(np.linalg.eigvalsh(a)[-1])
        eta = lanczos_abscissa(DenseOperator(a))
        assert abs(eta - ref) <= 1e-12 * max(1.0, np.abs(a).max())
        assert eta == lanczos_abscissa(DenseOperator(a))


def test_lanczos_abscissa_guards(monkeypatch):
    a = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="Metzler"):
        lanczos_abscissa(DenseOperator(a))
    # a stop tolerance of 0 is never met: the budget is LANCZOS_BASIS
    # products a row past LANCZOS_MAX_MATVECS
    monkeypatch.setattr(spectral, "LANCZOS_RTOL", 0.0)
    monkeypatch.setattr(spectral, "LANCZOS_MAX_MATVECS", 20)
    with pytest.raises(RuntimeError, match="of the 300-row matrix in 6000 products"):
        lanczos_abscissa(DenseOperator(_symmetric_metzler(np.random.default_rng(300), 300, 1e3)))


def test_lanczos_abscissa_scales_with_the_operator():
    # the basis works on S / max|S|: at entries of 1e200 the norms of S v
    # overflowed (a RuntimeWarning, and eta read half its value)
    a = _symmetric_metzler(np.random.default_rng(7), 50)
    ref = lanczos_abscissa(DenseOperator(a))
    assert lanczos_abscissa(DenseOperator(a * 1e200)) == pytest.approx(ref * 1e200, rel=1e-12)


class PreconditionedOperator(DenseOperator):
    """A dense symmetric matrix with a preconditioner: Jacobi's
    (theta - diag S)^-1 r, or, ``stale``, the all-ones start vector, which
    the basis already holds."""

    def __init__(self, a, stale=False):
        super().__init__(a)
        self.stale = stale

    def precondition(self, r, theta):
        if self.stale:
            return np.ones_like(r)
        gap = theta - np.diag(self.a)
        return r / np.where(np.abs(gap) < 1e-300, 1.0, gap)


@pytest.mark.parametrize("dim", [1, 2, 3, 10, 11, 300])
def test_davidson_abscissa_matches_eigvalsh(dim):
    # bases shorter than, equal to and past LANCZOS_BASIS // 2, with
    # restarts at 300 rows; a preconditioner that adds nothing leaves the
    # residual as the new direction, so it sets the speed, not the value
    rng = np.random.default_rng(dim)
    for spread in (1.0, 1e3):
        a = _symmetric_metzler(rng, dim, spread)
        ref = float(np.linalg.eigvalsh(a)[-1])
        for stale in (False, True):
            eta = davidson_abscissa(PreconditionedOperator(a, stale))
            assert abs(eta - ref) <= 1e-12 * max(1.0, np.abs(a).max())
            assert eta == davidson_abscissa(PreconditionedOperator(a, stale))


def test_davidson_abscissa_guards(monkeypatch):
    with pytest.raises(ValueError, match="Metzler"):
        davidson_abscissa(PreconditionedOperator([[0.0, -1.0], [-1.0, 0.0]]))
    monkeypatch.setattr(spectral, "LANCZOS_RTOL", 0.0)
    monkeypatch.setattr(spectral, "LANCZOS_MAX_MATVECS", 20)
    with pytest.raises(RuntimeError, match="Davidson .* of the 300-row matrix in 6000 products"):
        davidson_abscissa(PreconditionedOperator(
            _symmetric_metzler(np.random.default_rng(300), 300, 1e3)))


def test_davidson_abscissa_scales_with_the_operator():
    a = _symmetric_metzler(np.random.default_rng(7), 50)
    ref = davidson_abscissa(PreconditionedOperator(a))
    assert davidson_abscissa(PreconditionedOperator(a * 1e200)) == pytest.approx(
        ref * 1e200, rel=1e-12)


def test_abscissa_bracket_picks_the_solver_the_operator_offers(monkeypatch):
    # one nonnegative symmetric matrix behind three interfaces: with a
    # preconditioner it takes Davidson, without one Lanczos, and flagged not
    # symmetric ARPACK; each bracket holds the dense top eigenvalue and the
    # value, inside [0, largest column sum]
    off = np.triu(np.random.default_rng(4).random((30, 30)), 1)
    a = off + off.T
    top, bound = float(np.linalg.eigvalsh(a)[-1]), float(a.sum(axis=0).max())
    for make, symmetric, expected in ((PreconditionedOperator, True, "davidson"),
                                      (DenseOperator, True, "lanczos"),
                                      (DenseOperator, False, "arpack")):
        op = make(a)
        op.symmetric, op.column_sum_max = symmetric, bound
        solver, value, lo, hi, note = spectral.abscissa_bracket(op)
        assert (solver, note) == (expected, None)
        assert 0.0 < lo <= min(value, top) <= max(value, top) <= hi < bound
        # the half-width is LANCZOS_RTOL |value| here, as |value| > max|a| = 1
        assert hi - lo == pytest.approx(2.0 * spectral.LANCZOS_RTOL * value, rel=0.01)
    # a solver that gives up leaves [0, bound], no value and a note
    monkeypatch.setattr(spectral, "LANCZOS_RTOL", 0.0)
    monkeypatch.setattr(spectral, "LANCZOS_MAX_MATVECS", 20)
    op.symmetric = True
    solver, value, lo, hi, note = spectral.abscissa_bracket(op)
    assert (solver, value, lo, hi) == ("lanczos", None, 0.0, bound)
    assert note.startswith("the lanczos solve failed: Lanczos found no abscissa")
