import numpy as np
import pytest

from epinet.ensembles import (
    CommunitySpec,
    ExpectedDegreeSpec,
    PowerLawSpec,
    community_abar_dense,
    community_quotient,
    community_stats,
    ensemble_from_dict,
    expected_degree_stats,
    power_law_degrees,
    realize_switched_spec,
)
from epinet.netmodel import SpecFormatError, stationary_stats
from epinet.spectral import lambda_max_dense
from epinet.stability import expected_degree_lambda_max


def small_community():
    return CommunitySpec(n1=7, n2=5, theta1=0.6, theta2=0.3, phi=0.15)


def test_quotient_matches_dense_eigenvalue():
    spec = small_community()
    stats = community_stats(spec)
    dense = community_abar_dense(spec)
    assert stats.lambda_max == pytest.approx(lambda_max_dense(dense), rel=1e-12)
    # quotient layout
    q = community_quotient(spec)
    assert q[0, 0] == pytest.approx(0.6 * 6)
    assert q[0, 1] == pytest.approx(0.15 * 5)
    assert q[1, 0] == pytest.approx(0.15 * 7)
    assert q[1, 1] == pytest.approx(0.3 * 4)


def test_community_delta_matches_dense():
    spec = small_community()
    stats = community_stats(spec)
    dense = community_abar_dense(spec)
    rows = (dense * (1.0 - dense)).sum(axis=1)
    assert stats.delta_uncertainty == pytest.approx(rows.max(), rel=1e-12)


def test_community_frozen_reference_values():
    spec = CommunitySpec(n1=10_000, n2=100_000, theta1=0.5, theta2=0.3, phi=0.1)
    stats = community_stats(spec)
    # frozen from the closed form evaluated independently
    assert stats.lambda_max == pytest.approx(30393.493904092742, rel=1e-12)
    assert stats.delta_uncertainty == pytest.approx(21899.79, rel=1e-12)


def test_community_edge_cases():
    # single-vertex communities: no within-community edges at all
    spec = CommunitySpec(n1=1, n2=1, theta1=0.9, theta2=0.8, phi=0.5)
    stats = community_stats(spec)
    assert stats.lambda_max == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(ValueError):
        CommunitySpec(n1=0, n2=5, theta1=0.5, theta2=0.5, phi=0.5)
    with pytest.raises(ValueError):
        CommunitySpec(n1=2, n2=5, theta1=1.5, theta2=0.5, phi=0.5)


def test_expected_degree_stats_small():
    d = np.array([3.0, 2.0, 1.0])
    stats = expected_degree_stats(ExpectedDegreeSpec(degrees=d))
    assert stats.rho == pytest.approx(1.0 / 6.0)
    assert stats.d_tilde == pytest.approx(14.0 / 6.0)
    abar = np.outer(d, d) / 6.0
    np.fill_diagonal(abar, 0.0)
    assert stats.delta_uncertainty == pytest.approx(
        (abar * (1 - abar)).sum(axis=1).max(), rel=1e-12
    )
    lam = expected_degree_lambda_max(d)
    assert lam == pytest.approx(lambda_max_dense(abar), rel=1e-12)
    # rank-one bound sandwiches the true eigenvalue
    assert lam <= stats.d_tilde
    assert lam >= stats.d_tilde - stats.rho * 9.0


def _random_degrees(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 120))
    d = rng.pareto(rng.uniform(1.2, 3.0), size=n) + rng.uniform(0.0, 1.0)
    d[rng.random(n) < 0.25] = 0.0
    d[rng.integers(n)] += 1.0
    return d


@pytest.mark.parametrize(
    "degrees",
    [
        np.array([2.0, 3.0]),
        np.array([0.0, 4.0]),
        np.array([1.0, 0.0, 5.0, 0.0, 2.0]),
        np.full(50, 3.0),
        np.array([1000.0, 1.0, 1.0]),
        *[_random_degrees(seed) for seed in range(40)],
    ],
)
def test_expected_degree_lambda_max_matches_dense(degrees):
    abar = np.outer(degrees, degrees) / degrees.sum()
    np.fill_diagonal(abar, 0.0)
    lam = expected_degree_lambda_max(degrees)
    assert lam == pytest.approx(lambda_max_dense(abar), rel=1e-12, abs=1e-300)


def test_power_law_calibration_targets():
    spec = PowerLawSpec(n=200_000, exponent=2.5, max_degree=2e4, avg_degree=10.0)
    d = power_law_degrees(spec)
    assert d[0] == pytest.approx(spec.max_degree, rel=1e-12)
    assert np.all(np.diff(d) <= 0)
    assert d.min() > 0
    # the offset construction tracks the average-degree target closely when
    # max_degree >> avg_degree
    assert d.mean() == pytest.approx(spec.avg_degree, rel=0.02)


def test_power_law_frozen_coefficients():
    spec = PowerLawSpec(n=10_000_000, exponent=2.2, max_degree=5e5, avg_degree=1e3)
    # frozen from independent evaluation of the closed forms
    assert spec.coefficient == pytest.approx(113548678.17577, rel=1e-9)
    assert spec.offset == pytest.approx(672.1320, rel=1e-6)


def test_power_law_validation():
    with pytest.raises(ValueError, match="exponent"):
        PowerLawSpec(n=100, exponent=2.0, max_degree=10.0, avg_degree=1.0)
    with pytest.raises(ValueError, match="avg_degree"):
        PowerLawSpec(n=100, exponent=2.5, max_degree=1.0, avg_degree=5.0)
    with pytest.raises(ValueError, match="n >= 2"):
        PowerLawSpec(n=1, exponent=2.5, max_degree=10.0, avg_degree=1.0)
    # i0 = 1.1e-304 made the first degree c * 0^(-gamma) = inf
    with pytest.raises(ValueError, match="offset"):
        PowerLawSpec(n=4, exponent=2.01, max_degree=1e300, avg_degree=3.0)


def test_realize_switched_spec_round_trip():
    rng = np.random.default_rng(2)
    n = 6
    abar = np.triu(rng.uniform(0.05, 0.95, size=(n, n)), 1)
    abar[0, 1] = 1.0  # always-on edge: q_rate = 0 must be accepted
    abar[2, 3] = 0.0  # absent edge: no chain at all
    abar = abar + abar.T
    spec = realize_switched_spec(abar, kappa=2.5)
    pairs = {(e.i, e.j) for e in spec.edges}
    assert (3, 4) not in pairs
    for e in spec.edges:
        assert e.p_rate + e.q_rate == pytest.approx(2.5, rel=1e-12)
    stats = stationary_stats(spec)
    assert np.allclose(stats.abar, abar, atol=1e-12)


def test_realize_switched_spec_validation():
    ok = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError, match="kappa"):
        realize_switched_spec(ok, kappa=0.0)
    with pytest.raises(ValueError, match="symmetric"):
        realize_switched_spec(np.array([[0.0, 0.5], [0.4, 0.0]]), kappa=1.0)
    with pytest.raises(ValueError, match="diagonal"):
        realize_switched_spec(np.array([[0.1, 0.5], [0.5, 0.0]]), kappa=1.0)
    with pytest.raises(ValueError, match="lie in"):
        realize_switched_spec(np.array([[0.0, 1.5], [1.5, 0.0]]), kappa=1.0)


def test_ensemble_from_dict_dispatch():
    com = ensemble_from_dict(
        {
            "ensemble": "community",
            "n1": 3, "n2": 4,
            "theta1": 0.5, "theta2": 0.25, "phi": 0.1,
        }
    )
    assert isinstance(com, CommunitySpec) and com.n == 7
    exd = ensemble_from_dict(
        {"ensemble": "expected-degree", "degrees": [1.0, 2.0, 3.0]}
    )
    assert isinstance(exd, ExpectedDegreeSpec) and exd.n == 3
    pl = ensemble_from_dict(
        {
            "ensemble": "power-law",
            "n": 100, "exponent": 2.5,
            "max_degree": 10.0, "avg_degree": 2.0,
        }
    )
    assert isinstance(pl, PowerLawSpec)
    with pytest.raises(ValueError, match="unknown ensemble"):
        ensemble_from_dict({"ensemble": "smallworld"})
    with pytest.raises(ValueError, match="missing field"):
        ensemble_from_dict({"ensemble": "community", "n1": 3})
    # wrong types and floats out of range are format errors, not crashes
    community = {"ensemble": "community", "n1": 3, "n2": 4,
                 "theta1": 0.5, "theta2": 0.25, "phi": 0.1}
    for bad in ({**community, "phi": [0.1]}, {**community, "theta1": 10**400},
                {"ensemble": "expected-degree", "degrees": {"a": 1}}):
        with pytest.raises(SpecFormatError, match="ensemble '"):
            ensemble_from_dict(bad)
