import dataclasses

import numpy as np
import pytest

from epinet.cli import POWERLAW_EXAMPLE
from epinet.ensembles import (
    CommunitySpec,
    ExpectedDegreeSpec,
    PowerLawSpec,
    community_abar_dense,
    community_quotient,
    community_stats,
    degree_sequence,
    ensemble_from_dict,
    expected_degree_stats,
    realize_switched_spec,
    summarize,
)
from epinet.netmodel import SpecFormatError, stationary_stats
from epinet.spectral import lambda_max_dense
from epinet.stability import (
    DEGREE_BLOCK,
    expected_degree_lambda_max,
    expected_degree_uncertainty,
    pair_probability_violations,
)


def stream(degrees):
    """The validated degree stream of an explicit expected-degree array."""
    return degree_sequence(ExpectedDegreeSpec(degrees=np.asarray(degrees, dtype=float)))


def small_community():
    return CommunitySpec(n1=7, n2=5, theta1=0.6, theta2=0.3, phi=0.15)


def test_quotient_matches_dense_eigenvalue():
    spec = small_community()
    stats = community_stats(spec)
    dense = community_abar_dense(spec)
    assert stats.lambda_max_abar == pytest.approx(lambda_max_dense(dense), rel=1e-12)
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
    assert stats.lambda_max_abar == pytest.approx(30393.493904092742, rel=1e-12)
    assert stats.delta_uncertainty == pytest.approx(21899.79, rel=1e-12)


def test_community_edge_cases():
    # single-vertex communities: no within-community edges at all
    spec = CommunitySpec(n1=1, n2=1, theta1=0.9, theta2=0.8, phi=0.5)
    stats = community_stats(spec)
    assert stats.lambda_max_abar == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(ValueError):
        CommunitySpec(n1=0, n2=5, theta1=0.5, theta2=0.5, phi=0.5)
    with pytest.raises(ValueError):
        CommunitySpec(n1=2, n2=5, theta1=1.5, theta2=0.5, phi=0.5)


def test_expected_degree_stats_small():
    d = np.array([3.0, 2.0, 1.0])
    stats = expected_degree_stats(stream(d))
    assert stats.d_tilde == stats.lambda_max_abar == pytest.approx(14.0 / 6.0)
    abar = np.outer(d, d) / 6.0
    np.fill_diagonal(abar, 0.0)
    assert stats.delta_uncertainty == pytest.approx(
        (abar * (1 - abar)).sum(axis=1).max(), rel=1e-12
    )
    lam = expected_degree_lambda_max(stream(d))
    assert lam == pytest.approx(lambda_max_dense(abar), rel=1e-12)
    # rank-one bound sandwiches the true eigenvalue
    assert lam <= stats.d_tilde
    assert lam >= stats.d_tilde - 9.0 / 6.0


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
        # one dominant hub: the top pole sits next to the root
        np.array([2.0, 1e-9]),
        np.array([1.0, 1e-8]),
        np.array([1.0, 1e-150, 0.0]),
        np.array([1e8] + [1.0] * 10),
        np.array([1e6] + [0.1] * 1000),
        # r_1 (1 - r_1) underflows; every product d_i d_j underflows
        np.array([1e150, 1e-200]),
        np.array([1e-170, 1e-170]),
    ],
)
def test_expected_degree_lambda_max_matches_dense(degrees):
    total = degrees.sum()
    abar = np.outer(degrees, degrees) / total
    np.fill_diagonal(abar, 0.0)
    lam = expected_degree_lambda_max(stream(degrees))
    assert lam == pytest.approx(lambda_max_dense(abar), rel=1e-12, abs=1e-300)
    # between the largest entry rho d_1 d_2 and d_tilde
    second, first = np.sort(degrees)[-2:]
    assert first * second / total * (1 - 1e-14) <= lam
    assert lam <= (degrees @ degrees) / total * (1 + 1e-14)


def test_power_law_calibration_targets():
    spec = PowerLawSpec(n=200_000, exponent=2.5, max_degree=2e4, avg_degree=10.0)
    d = spec.degree_block(0, spec.n)
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
    # each kind has a fixed set of fields: switch_scale, once read by two of
    # the three kinds and dropped by the third, is refused by all of them
    degrees = {"ensemble": "expected-degree", "degrees": [1.0, 2.0]}
    power_law = {"ensemble": "power-law", "n": 100, "exponent": 2.5,
                 "max_degree": 10.0, "avg_degree": 2.0}
    for good in (community, degrees, power_law):
        kind = good["ensemble"]
        for extra in ("switch_scale", "edges"):
            message = f"ensemble '{kind}': unknown field '{extra}'"
            with pytest.raises(SpecFormatError, match=message):
                ensemble_from_dict({**good, extra: 1.0})
    without_n = {k: v for k, v in power_law.items() if k != "n"}
    with pytest.raises(SpecFormatError, match="ensemble 'power-law': missing field 'n'"):
        ensemble_from_dict(without_n)
    for kind in (["community"], {"kind": "community"}, None, 3):
        with pytest.raises(SpecFormatError, match="unknown ensemble kind"):
            ensemble_from_dict({**community, "ensemble": kind})


def test_power_law_refusals_from_the_closed_form():
    # the refusals of an explicit degree array, made before any block
    with pytest.raises(ValueError, match=r"n \* max\(d\)\^2 overflows"):
        PowerLawSpec(n=100, exponent=2.5, max_degree=1e200, avg_degree=1e199)
    with pytest.raises(ValueError, match="sum\\(d\\) may vanish"):
        PowerLawSpec(n=10, exponent=2.5, max_degree=1e-310, avg_degree=1e-310)
    with pytest.raises(ValueError, match="power-law cap 1000000000"):
        PowerLawSpec(n=10**9 + 1, exponent=2.2, max_degree=5e5, avg_degree=1e3)
    # the materialized path refuses both by the same rule on d_1, so a sum
    # above the smallest normal double no longer admits a smaller d_1
    for top, message in ((1e200, "overflows"), (1e-310, "may vanish"),
                         (1e-308, "may vanish")):
        with pytest.raises(ValueError, match=message):
            ExpectedDegreeSpec(degrees=np.array([top] * 10))


# --- streamed statistics against the materialized formulas -------------------

def _reference_stats(degrees: np.ndarray) -> tuple[float, float, float, int, float]:
    """d_tilde, Delta, the largest pair probability, the invalid pairs and
    the secular root from whole-array formulas on the materialized sequence."""
    d = np.asarray(degrees, dtype=float)
    d1, sq = float(d.sum()), d * d
    d2 = float(sq.sum())
    rho = 1.0 / d1
    a = rho * d
    delta_u = float(((d1 - d) * a - a * a * (d2 - sq)).max())
    top = int(np.argmax(d))
    d_max = float(d[top])
    second = max(d[:top].max(initial=-np.inf), d[top + 1:].max(initial=-np.inf))
    max_pair = float(rho * second * d_max)
    invalid = 0
    if max_pair > 1.0:
        hubs = np.sort(d[d > d1 / d_max])
        cutoffs = d1 / hubs
        ordered = int((hubs.size - np.searchsorted(hubs, cutoffs, side="right")).sum())
        invalid = (ordered - int((hubs > cutoffs).sum())) // 2
    return rho * d2, delta_u, max_pair, invalid, _reference_root(d)


def _reference_root(d: np.ndarray) -> float:
    """lambda_max(abar) by dense eigvalsh up to 2000 vertices, and above by
    bisection on the secular function with the top pole kept apart,
    sum_{i >= 2} w_i / (lambda + w_i) - lambda / (lambda + w_1), which is
    positive left of the root, between rho d_1 d_2 and d_tilde."""
    if d.size <= 2000:
        abar = np.outer(d, d) / d.sum()
        np.fill_diagonal(abar, 0.0)
        return lambda_max_dense(abar)
    w = np.sort(d)[::-1] ** 2 / d.sum()
    lo, hi = float(np.sqrt(w[0] * w[1])), float(w.sum())
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if (w[1:] / (mid + w[1:])).sum() > mid / (mid + w[0]):
            lo = mid
        else:
            hi = mid
    return lo


def _assert_streamed_matches(model, degrees: np.ndarray) -> None:
    d_tilde, delta_u, max_pair, invalid, lam = _reference_stats(degrees)
    seq = degree_sequence(model)
    assert seq.d2 / seq.d1 == pytest.approx(d_tilde, rel=1e-13)
    assert expected_degree_uncertainty(seq) == pytest.approx(delta_u, rel=1e-13)
    assert pair_probability_violations(seq) == (pytest.approx(max_pair, rel=1e-13), invalid)
    assert expected_degree_lambda_max(seq) == pytest.approx(lam, rel=1e-13)
    if delta_u >= 0:
        summary = expected_degree_stats(seq)
        assert summary.d_tilde == pytest.approx(d_tilde, rel=1e-13)
        assert summary.delta_uncertainty == pytest.approx(delta_u, rel=1e-13)
        assert summary.invalid_pairs == invalid


def _random_power_law(seed: int) -> PowerLawSpec:
    rng = np.random.default_rng(seed)
    while True:
        avg = 10.0 ** rng.uniform(-1.0, 3.0)
        try:
            return PowerLawSpec(
                n=int(rng.integers(2, 4 * DEGREE_BLOCK)),
                exponent=float(rng.uniform(2.01, 4.0)),
                max_degree=avg * 10.0 ** rng.uniform(0.0, 5.0),
                avg_degree=avg,
            )
        except ValueError:  # an offset that vanishes next to 1
            continue


@pytest.mark.parametrize(
    "spec",
    [
        *[PowerLawSpec(n=n, exponent=2.2, max_degree=m, avg_degree=a)
          for n in (2, DEGREE_BLOCK - 1, DEGREE_BLOCK, DEGREE_BLOCK + 1,
                    3 * DEGREE_BLOCK + 5)
          for m, a in ((50.0, 5.0), (1e9, 1e3))],
        *[_random_power_law(seed) for seed in range(30)],
        # every vertex a hub: 10^6 hubs, and a negative Delta
        PowerLawSpec(n=1_000_000, exponent=2.2, max_degree=1e9, avg_degree=1e3),
        # every vertex a hub with a valid Delta, across 31 blocks
        PowerLawSpec(n=2_000_000, exponent=2.05, max_degree=1e7, avg_degree=2e6),
    ],
    ids=lambda spec: f"{spec.n}-{spec.exponent:.3g}-{spec.max_degree:.3g}-{spec.avg_degree:.3g}",
)
def test_streamed_power_law_matches_materialized(spec):
    _assert_streamed_matches(spec, spec.degree_block(0, spec.n))


@pytest.mark.parametrize("seed", range(10))
def test_streamed_explicit_array_matches_materialized(seed):
    # unsorted input, with zeros, across block boundaries
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 7, DEGREE_BLOCK + 1, 2 * DEGREE_BLOCK + 3]))
    d = rng.pareto(rng.uniform(1.2, 3.0), size=n) + rng.uniform(0.0, 1.0)
    d[rng.random(n) < 0.25] = 0.0
    d[rng.integers(n)] += 1.0
    d[: min(n, 5)] *= 10.0 ** rng.uniform(0.0, 4.0)  # unsorted hubs
    _assert_streamed_matches(ExpectedDegreeSpec(degrees=d), d)


def test_explicit_array_and_power_law_are_one_stream():
    # the sorted array is the closed form bit for bit, so every statistic is
    spec = PowerLawSpec(n=3 * DEGREE_BLOCK + 5, exponent=2.2, max_degree=1e5,
                        avg_degree=50.0)
    shuffled = np.random.default_rng(0).permutation(spec.degree_block(0, spec.n))
    assert summarize(spec) == summarize(ExpectedDegreeSpec(degrees=shuffled))
    assert expected_degree_lambda_max(degree_sequence(spec)) == (
        expected_degree_lambda_max(stream(shuffled))
    )


def test_power_law_blocks_are_never_larger_than_a_block(monkeypatch):
    spec = PowerLawSpec(n=3 * DEGREE_BLOCK + 5, exponent=2.2, max_degree=1e9,
                        avg_degree=1e3)
    sizes = []
    original = PowerLawSpec.degree_block
    monkeypatch.setattr(
        PowerLawSpec, "degree_block",
        lambda self, lo, hi: sizes.append(hi - lo) or original(self, lo, hi),
    )
    expected_degree_lambda_max(degree_sequence(spec))
    pair_probability_violations(degree_sequence(spec))
    with pytest.raises(ValueError, match="variance proxy is negative"):
        summarize(spec)
    assert sizes and max(sizes) <= DEGREE_BLOCK


def test_secular_root_reads_the_stream_twice():
    # example powerlaw's 10^7-vertex stream: the root starts from the sums
    # of the first pass, so it needs no moment pass; its first Newton step
    # lands within rounding of the root and the second confirms it (2n)
    seq = degree_sequence(POWERLAW_EXAMPLE)
    read = []
    counted = dataclasses.replace(
        seq, block=lambda lo, hi: read.append(hi - lo) or seq.block(lo, hi)
    )
    assert expected_degree_lambda_max(counted) == pytest.approx(31523.961006291152, rel=1e-15)
    assert sum(read) <= 2 * seq.n


def test_expected_degree_spec_keeps_its_own_degrees():
    d = np.array([3.0, 0.5, 2.0, 1.0])
    spec = ExpectedDegreeSpec(degrees=d)
    before = summarize(spec)
    d[0] = np.nan  # the caller's array, after validation
    assert summarize(spec) == before
    assert spec.degrees.tolist() == [3.0, 0.5, 2.0, 1.0]  # vertex order kept
    assert spec.degree_block(0, 4).tolist() == [3.0, 2.0, 1.0, 0.5]
    for view in (spec.degrees, spec.degree_block(0, 2)):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 1.0
