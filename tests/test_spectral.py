import math

import numpy as np
import pytest

from epinet.spectral import lambda_max_dense, spectral_abscissa


def test_lambda_max_dense_known_graphs():
    edge = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert lambda_max_dense(edge) == pytest.approx(1.0, abs=1e-14)
    path3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    assert lambda_max_dense(path3) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    k4 = np.ones((4, 4)) - np.eye(4)
    assert lambda_max_dense(k4) == pytest.approx(3.0, rel=1e-13)


def test_lambda_max_dense_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        lambda_max_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        lambda_max_dense(np.zeros((2, 3)))


def test_spectral_abscissa_triangular():
    a = np.array([[-1.0, 2.0], [0.0, -3.0]])
    assert spectral_abscissa(a) == pytest.approx(-1.0, abs=1e-12)


def test_spectral_abscissa_complex_pair():
    # rotation generator: eigenvalues +/- i.  It is not Metzler, so its
    # rightmost eigenvalue need not be real and the Krylov abscissa refuses it
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="Metzler"):
        spectral_abscissa(a)
    with pytest.raises(ValueError, match="Metzler"):
        spectral_abscissa(np.kron(np.eye(3), a))


def test_spectral_abscissa_arpack_guards(monkeypatch):
    import scipy.sparse.linalg as sla

    a = np.array([[-2.0, 1.0, 0.0], [0.5, -1.0, 1.0], [0.0, 1.0, -3.0]])
    assert spectral_abscissa(a) == pytest.approx(
        np.linalg.eigvals(a).real.max(), abs=1e-13
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
    a = np.array([[-2.0, 1.0], [0.5, -1.0]])
    spectral_abscissa(a)
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]
