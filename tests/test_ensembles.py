import dataclasses
import json
import math

import numpy as np
import pytest

import epinet.ensembles
from epinet import stability
from epinet.cli import POWERLAW_EXAMPLE, main
from epinet.ensembles import (
    CommunitySpec,
    ExpectedDegreeSpec,
    PowerLawSpec,
    as_switched_network,
    community_abar_dense,
    community_quotient,
    community_stats,
    degree_sequence,
    ensemble_from_dict,
    expected_degree_stats,
    summarize,
)
from epinet.netmodel import (
    EdgeChain,
    SpecFormatError,
    SwitchedNetworkSpec,
    EpidemicParams,
    WeightedEdgeChain,
    stationary_stats,
)
from epinet.oracle import dense_abar, random_small_spec
from epinet.stability import (
    DEGREE_BLOCK,
    DegreeSequence,
    check_sufficient,
    expected_degree_lambda_max,
    expected_degree_uncertainty,
    pair_probability_violations,
    read_table,
)


def top_eigenvalue(a):
    """The reference lambda_max of a small symmetric matrix: dense eigvalsh."""
    return float(np.linalg.eigvalsh(a)[-1])


def stream(degrees):
    """The validated degree stream of an explicit expected-degree array."""
    return degree_sequence(ExpectedDegreeSpec(degrees=np.asarray(degrees, dtype=float)))


def small_community():
    return CommunitySpec(n1=7, n2=5, theta1=0.6, theta2=0.3, phi=0.15)


def test_quotient_matches_dense_eigenvalue():
    spec = small_community()
    stats = community_stats(spec)
    dense = community_abar_dense(spec)
    assert stats.lambda_max_abar == pytest.approx(top_eigenvalue(dense), rel=1e-12)
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
    assert stats.lambda_max_abar == pytest.approx(14.0 / 6.0)
    abar = np.outer(d, d) / 6.0
    np.fill_diagonal(abar, 0.0)
    assert stats.delta_uncertainty == pytest.approx(
        (abar * (1 - abar)).sum(axis=1).max(), rel=1e-12
    )
    lam = expected_degree_lambda_max(stream(d))
    assert lam == pytest.approx(top_eigenvalue(abar), rel=1e-12)
    # rank-one bound sandwiches the true eigenvalue
    assert lam <= stats.lambda_max_abar
    assert lam >= stats.lambda_max_abar - 9.0 / 6.0


def _small_random_degrees(seed: int) -> np.ndarray:
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
        *[_small_random_degrees(seed) for seed in range(40)],
        # one dominant hub: the top pole sits next to the root
        np.array([2.0, 1e-9]),
        np.array([1.0, 1e-8]),
        np.array([1.0, 1e-150, 0.0]),
        np.array([1e8] + [1.0] * 10),
        np.array([1e6] + [0.1] * 1000),
        # r_1 (1 - r_1) underflows; every product d_i d_j underflows
        np.array([1e150, 1e-200]),
        # a tiny uniform pair just above the scale floor d_1^2 >= n * tiny;
        # [1e-170, 1e-170] lies below it and is refused
        np.array([1e-153, 1e-153]),
    ],
)
def test_expected_degree_lambda_max_matches_dense(degrees):
    total = degrees.sum()
    abar = np.outer(degrees, degrees) / total
    np.fill_diagonal(abar, 0.0)
    lam = expected_degree_lambda_max(stream(degrees))
    assert lam == pytest.approx(top_eigenvalue(abar), rel=1e-12, abs=1e-300)
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


def test_realization_round_trip():
    # each pair with abar_ij > 0 becomes a chain with p = abar_ij and
    # q = 1 - abar_ij, whose stationary law gives abar back; a zero entry
    # (phi = 0 across communities, a zero degree) gives no edge, and an
    # entry of exactly 1 (theta1 = 1) an always-on chain with q = 0
    community = CommunitySpec(n1=2, n2=3, theta1=1.0, theta2=0.4, phi=0.0)
    degrees = ExpectedDegreeSpec(degrees=np.array([2.0, 0.0, 1.5, 0.5, 1.0]))
    d = degrees.degrees
    degree_abar = np.outer(d, d) / d.sum()
    np.fill_diagonal(degree_abar, 0.0)
    for model, abar in ((community, community_abar_dense(community)),
                        (degrees, degree_abar)):
        spec = as_switched_network(model)
        assert spec.n == model.n
        assert {(e.i, e.j) for e in spec.edges} == {
            (i + 1, j + 1) for i, j in zip(*np.nonzero(np.triu(abar)))
        }
        for e in spec.edges:
            assert e.p_rate == abar[e.i - 1, e.j - 1]
            assert e.p_rate + e.q_rate == 1.0
        assert np.array_equal(dense_abar(stationary_stats(spec), spec.n), abar)
    assert len(as_switched_network(community).edges) == 1 + 3


def _random_sparse_spec(rng, n, m, rates):
    """A binary spec on n vertices with m distinct random edges, each with
    the (p, q) that ``rates(rng)`` draws."""
    pairs = set()
    while len(pairs) < m:
        pairs.add(tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False) + 1)))
    return SwitchedNetworkSpec(n=n, edges=tuple(
        EdgeChain(i=i, j=j, p_rate=p, q_rate=q)
        for (i, j), (p, q) in zip(sorted(pairs), (rates(rng) for _ in pairs))))


def _always_on(n, pairs):
    """Always-on edges (q = 0): abar is the graph's adjacency and Delta is 0."""
    return SwitchedNetworkSpec(n=n, edges=tuple(
        EdgeChain(i=i, j=j, p_rate=1.0, q_rate=0.0) for i, j in pairs))


def test_summarize_known_graphs():
    assert summarize(_always_on(2, [(1, 2)])).lambda_max_abar == pytest.approx(1.0, abs=1e-14)
    path3 = summarize(_always_on(3, [(1, 2), (2, 3)]))
    assert path3.lambda_max_abar == pytest.approx(math.sqrt(2.0), rel=1e-14)
    k4 = summarize(_always_on(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]))
    assert k4.lambda_max_abar == pytest.approx(3.0, rel=1e-13)
    assert k4.delta_uncertainty == 0.0


def test_summarize_matches_dense_on_the_oracle_specs():
    # the specs of run_sandwich_suite(count=300, seed=0), drawn in its order
    rng = np.random.default_rng(0)
    for _ in range(300):
        spec = random_small_spec(rng)
        assert summarize(spec).lambda_max_abar == pytest.approx(
            top_eigenvalue(dense_abar(stationary_stats(spec), spec.n)), rel=1e-12)


@pytest.mark.parametrize("n, m", [(5, 8), (12, 20), (60, 200), (400, 1500)])
def test_summarize_matches_dense_on_rare_edges(n, m):
    # means near 1e-12: the Lanczos stop tolerance is absolute, so only the
    # operator scaled by its largest mean resolves lambda_max to 1e-12 (left
    # unscaled, it is off by up to 5e-6 here)
    rng = np.random.default_rng(n)
    for _ in range(5):
        spec = _random_sparse_spec(
            rng, n, m, lambda r: (float(r.uniform(0.5e-12, 2e-12)), 1.0))
        assert summarize(spec).lambda_max_abar == pytest.approx(
            top_eigenvalue(dense_abar(stationary_stats(spec), spec.n)), rel=1e-12, abs=0.0)


def test_summarize_matches_dense_on_large_sparse_specs():
    # hundreds of vertices, isolated ones and several components: Lanczos
    # restarts many times; weighted edges take the same route
    rng = np.random.default_rng(7)
    for n, m in ((300, 400), (1000, 3000)):
        spec = _random_sparse_spec(rng, n, m, lambda r: tuple(r.uniform(0.1, 5.0, 2)))
        assert summarize(spec).lambda_max_abar == pytest.approx(
            top_eigenvalue(dense_abar(stationary_stats(spec), spec.n)), rel=1e-12)
    gen = ((-1.0, 1.0, 0.0), (0.5, -1.0, 0.5), (0.0, 2.0, -2.0))
    weighted = SwitchedNetworkSpec(n=50, edges=tuple(
        WeightedEdgeChain(i=i, j=i + k, states=(0.0, 0.3 * k, 0.9), generator=gen)
        for k in (1, 2) for i in range(1, 50 - k, 3)))
    assert summarize(weighted).lambda_max_abar == pytest.approx(
        top_eigenvalue(dense_abar(stationary_stats(weighted), weighted.n)), rel=1e-12)


def test_summarize_matches_low_gap_graphs():
    # a path's and a grid's top gaps are about 3 pi^2 / n^2 and 3 pi^2 / k^2,
    # so Lanczos restarts thousands of times; lambda_max is 2 cos(pi / (n + 1))
    # and 4 cos(pi / (k + 1)), and the certificate sits at or just above it
    for n in (1000, 2000):
        path = _always_on(n, [(v, v + 1) for v in range(1, n)])
        lam, exact = summarize(path).lambda_max_abar, 2.0 * math.cos(math.pi / (n + 1))
        assert exact <= lam <= exact * (1.0 + 1e-12)
        if n == 1000:
            dense = top_eigenvalue(dense_abar(stationary_stats(path), n))
            assert lam == pytest.approx(dense, rel=1e-12, abs=0.0)
    k = 100
    pairs = ([(r * k + c + 1, r * k + c + 2) for r in range(k) for c in range(k - 1)]
             + [(r * k + c + 1, r * k + c + k + 1) for r in range(k - 1) for c in range(k)])
    lam = summarize(_always_on(k * k, pairs)).lambda_max_abar
    exact = 4.0 * math.cos(math.pi / (k + 1))
    assert exact <= lam <= exact * (1.0 + 1e-12)
    # a ring with uneven rates
    pairs = [(v, v + 1) for v in range(1, 1000)] + [(1, 1000)]
    rates = np.random.default_rng(3).uniform(0.1, 5.0, (1000, 2)).tolist()
    ring = SwitchedNetworkSpec(n=1000, edges=tuple(
        EdgeChain(i=i, j=j, p_rate=p, q_rate=q) for (i, j), (p, q) in zip(pairs, rates)))
    assert summarize(ring).lambda_max_abar == pytest.approx(
        top_eigenvalue(dense_abar(stationary_stats(ring), ring.n)), rel=1e-12, abs=0.0)


def test_summarize_prices_an_upper_bound_at_a_tie():
    # one always-on edge: lambda_max(abar) is exactly 1 = delta / beta, so a
    # strict test cannot certify it; a Ritz value a rounding below 1 would
    summary = summarize(_always_on(2, [(1, 2)]))
    assert 1.0 < summary.lambda_max_abar <= 1.0 + 1e-13
    block = check_sufficient(summary, EpidemicParams(beta=1.0, delta=1.0))
    assert block["lhs"] == summary.lambda_max_abar and block["verdict"] == "inconclusive"


def test_summarize_without_means_makes_no_solve(monkeypatch):
    # no edge, or every edge always absent (p = 0): lambda_max(abar) is 0
    def refuse(operator):
        raise AssertionError("Lanczos ran on a zero abar")

    monkeypatch.setattr(epinet.ensembles, "lanczos_abscissa", refuse)
    absent = SwitchedNetworkSpec(n=4, edges=(
        EdgeChain(i=1, j=2, p_rate=0.0, q_rate=1.0),
        EdgeChain(i=2, j=4, p_rate=0.0, q_rate=3.0),
    ))
    for spec in (SwitchedNetworkSpec(n=4, edges=()), absent):
        summary = summarize(spec)
        assert summary.lambda_max_abar == 0.0
        assert summary.delta_uncertainty == 0.0


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
    # strings and booleans in real-valued fields are refused, not converted
    for bad, message in (
        ({**community, "theta1": "0.5"}, "field 'theta1' must be a number"),
        ({**community, "phi": True}, "field 'phi' must be a number"),
        ({**power_law, "max_degree": " 10 "}, "field 'max_degree' must be a number"),
        ({**power_law, "exponent": False}, "field 'exponent' must be a number"),
        ({**power_law, "avg_degree": None}, "field 'avg_degree' must be a number"),
        ({**degrees, "degrees": ["1", "2", True]}, "'degrees' entry must be a number"),
        ({**degrees, "degrees": [1, 2, True]}, "'degrees' entry must be a number"),
        ({**degrees, "degrees": "12"}, "'degrees' entry must be a number"),
    ):
        with pytest.raises(SpecFormatError, match=message):
            ensemble_from_dict(bad)


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
    # d_1^2 below n times the smallest normal double: every square is
    # subnormal, which costs d_tilde 1e-5 relative at 1e-160, or zero
    for top in (1e-160, 1e-170):
        with pytest.raises(ValueError, match=r"square of the largest.*below n \*"):
            ExpectedDegreeSpec(degrees=np.array([top, top]))


@pytest.mark.parametrize("degrees", [
    np.array([3e-154, 2e-154, 1e-154]),
    np.array([1.0001, 1.0, 1e-2]) * np.sqrt(3 * np.finfo(float).tiny),
])
def test_degrees_just_above_the_scale_floor(degrees):
    # d_1^2 just above n * tiny, with a subnormal square among the rest, is
    # admitted and keeps its digits: every statistic matches the materialized
    # reference, and the secular root dense eigvalsh
    _assert_streamed_matches(ExpectedDegreeSpec(degrees=degrees), degrees)


# --- streamed statistics against the materialized formulas -------------------

def _reference_stats(degrees: np.ndarray) -> tuple[float, float, float, int, float]:
    """d_tilde, Delta, the largest pair probability, the invalid pairs and
    the secular root from whole-array formulas on the materialized sequence."""
    d = np.asarray(degrees, dtype=float)
    d1 = float(d.sum())
    d2 = float((d * d).sum())
    rho = 1.0 / d1
    delta_u = _reference_delta(d, d1, d2)
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


def _reference_delta(d: np.ndarray, d1: float, d2: float) -> float:
    """Delta, the largest row sum rho d (D1 - d) - (rho d)^2 (D2 - d^2), over
    the whole array at once, for the sums D1 and D2."""
    rho = 1.0 / d1
    a = rho * d
    return float(((d1 - d) * a - a * a * (d2 - d * d)).max())


def _reference_root(d: np.ndarray) -> float:
    """lambda_max(abar) by dense eigvalsh up to 2000 vertices, and above by
    :func:`_bisected_root`."""
    if d.size <= 2000:
        abar = np.outer(d, d) / d.sum()
        np.fill_diagonal(abar, 0.0)
        return top_eigenvalue(abar)
    return _bisected_root(d)


def _bisected_root(d: np.ndarray) -> float:
    """lambda_max(abar) by bisection on the secular function with the top
    pole kept apart, sum_{i >= 2} w_i / (lambda + w_i) - lambda / (lambda +
    w_1), which is positive left of the root, between rho d_1 d_2 and
    d_tilde."""
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
        assert summary.lambda_max_abar == pytest.approx(d_tilde, rel=1e-13)
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


def _random_degrees(seed: int) -> np.ndarray:
    """Unsorted degrees, a quarter of them zero, across block boundaries."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 7, DEGREE_BLOCK + 1, 2 * DEGREE_BLOCK + 3]))
    d = rng.pareto(rng.uniform(1.2, 3.0), size=n) + rng.uniform(0.0, 1.0)
    d[rng.random(n) < 0.25] = 0.0
    d[rng.integers(n)] += 1.0
    d[: min(n, 5)] *= 10.0 ** rng.uniform(0.0, 4.0)  # unsorted hubs
    return d


@pytest.mark.parametrize("seed", range(10))
def test_streamed_explicit_array_matches_materialized(seed):
    d = _random_degrees(seed)
    _assert_streamed_matches(ExpectedDegreeSpec(degrees=d), d)


# streams that span many blocks of max(3, n // 300) degrees
BLOCK_SPANNING_MODELS = [
    *[_random_power_law(seed) for seed in range(30)],
    *[ExpectedDegreeSpec(degrees=_random_degrees(seed)) for seed in range(10)],
    ExpectedDegreeSpec(degrees=np.full(1000, 3.0)),  # every block opened
    # every vertex a hub: 10^6 hubs, and a negative Delta
    PowerLawSpec(n=1_000_000, exponent=2.2, max_degree=1e9, avg_degree=1e3),
    ExpectedDegreeSpec(degrees=np.array([2.0, 0.5])),
    ExpectedDegreeSpec(degrees=np.array([0.0, 4.0, 0.0, 1.0, 0.0, 0.0, 2.5])),
]


def _model_id(model) -> str:
    return f"{type(model).__name__}-{model.n}"


@pytest.mark.parametrize("model", BLOCK_SPANNING_MODELS, ids=_model_id)
def test_delta_is_the_whole_array_maximum_bit_for_bit(model, monkeypatch):
    # Delta opens blocks in descending order of their bounds and stops below
    # the largest row so far; a block it skips holds no larger float row, so
    # it equals the whole-array maximum exactly.  Blocks of max(3, n // 300)
    # degrees make even short sequences span many blocks.
    monkeypatch.setattr(stability, "DEGREE_BLOCK", max(3, model.n // 300))
    seq = degree_sequence(model)
    opened = []
    counted = dataclasses.replace(
        seq, block=lambda lo, hi: opened.append(lo) or seq.block(lo, hi)
    )
    d = model.degree_block(0, model.n)
    assert expected_degree_uncertainty(counted) == _reference_delta(d, seq.d1, seq.d2)
    blocks = -(-model.n // stability.DEGREE_BLOCK)
    assert len(set(opened)) == len(opened) <= blocks
    if d[0] == d[-1]:
        assert len(opened) == blocks


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


def _root_against_references(model, monkeypatch, block: int) -> list:
    """The secular root of ``model`` in blocks of ``block`` degrees, checked
    against dense eigvalsh (up to 400 vertices) and against bisection on the
    materialized sequence; returns the (lo, hi) of every block it read."""
    monkeypatch.setattr(stability, "DEGREE_BLOCK", block)
    seq = degree_sequence(model)
    read = []
    counted = dataclasses.replace(
        seq, block=lambda lo, hi: read.append((lo, hi)) or seq.block(lo, hi)
    )
    lam = expected_degree_lambda_max(counted)
    d = model.degree_block(0, model.n)
    if d.size <= 400:
        abar = np.outer(d, d) / d.sum()
        np.fill_diagonal(abar, 0.0)
        assert lam == pytest.approx(top_eigenvalue(abar), rel=1e-12)
    assert lam == pytest.approx(_bisected_root(d), rel=1e-13)
    return read


@pytest.mark.parametrize("block", [7, 64, None])
@pytest.mark.parametrize(
    "degrees, head",
    [
        (np.full(300, 3.0), "every"),  # no tail is small enough
        (np.array([1e3, 1e3] + [1e-3] * 398), "first"),  # a tail of crumbs
        (np.array([1e6] + [0.1] * 50), None),
        (np.array([1e6] + [0.1] * 399), None),
        (PowerLawSpec(n=400, exponent=2.2, max_degree=50.0, avg_degree=5.0)
         .degree_block(0, 400), None),
        (PowerLawSpec(n=400, exponent=3.5, max_degree=1e3, avg_degree=2.0)
         .degree_block(0, 400), None),
        *[(_small_random_degrees(seed), None) for seed in range(8)],
    ],
)
def test_secular_root_head_and_tail_on_small_streams(degrees, head, block, monkeypatch):
    # Newton reads a head of whole blocks and takes the tail from the first
    # pass's block sums; blocks of 7, 64 and max(3, n // 300) degrees move
    # the head from the first block to every block
    block = block or max(3, degrees.size // 300)
    read = _root_against_references(ExpectedDegreeSpec(degrees=degrees), monkeypatch, block)
    end = max(hi for lo, hi in read)
    assert end == degrees.size or end % block == 0
    if head == "every":
        assert end == degrees.size
    elif head == "first":
        assert end == block


@pytest.mark.parametrize("model", BLOCK_SPANNING_MODELS, ids=_model_id)
def test_secular_root_head_and_tail_on_block_spanning_streams(model, monkeypatch):
    _root_against_references(model, monkeypatch, max(3, model.n // 300))


def _counting_degree_blocks(monkeypatch) -> list:
    """The (lo, hi) of every block PowerLawSpec.degree_block computes from
    here on, in order."""
    computed = []
    original = PowerLawSpec.degree_block
    monkeypatch.setattr(
        PowerLawSpec, "degree_block",
        lambda self, lo, hi: computed.append((lo, hi)) or original(self, lo, hi),
    )
    return computed


def test_secular_root_reads_its_head_blocks(monkeypatch):
    # example powerlaw's 10^7-vertex stream: the root starts from the sums
    # of the first pass, and each Newton step reads the first three blocks,
    # aligned as the first pass's, the first less d_1; the other 150 enter
    # through their first-pass sums.  The first block is a slice of the
    # head the first pass computed, so a step computes two blocks.
    computed = _counting_degree_blocks(monkeypatch)
    seq = degree_sequence(POWERLAW_EXAMPLE)
    assert computed == [(0, DEGREE_BLOCK)]
    read = []
    counted = dataclasses.replace(
        seq, block=lambda lo, hi: read.append((lo, hi)) or seq.block(lo, hi)
    )
    assert expected_degree_lambda_max(counted) == pytest.approx(31523.961006291152, rel=1e-15)
    step = [(1, DEGREE_BLOCK), (DEGREE_BLOCK, 2 * DEGREE_BLOCK),
            (2 * DEGREE_BLOCK, 3 * DEGREE_BLOCK)]
    steps = (len(read) - 1) // 3
    assert steps >= 1
    assert read == [(0, 2)] + step * steps
    assert computed == [(0, DEGREE_BLOCK)] + step[1:] * steps


def test_power_law_summary_reads_the_stream_once(monkeypatch):
    # example powerlaw's 10^7-vertex stream: the first pass computes the
    # head, the first block, once and sums the other 152 in closed form;
    # Delta's one block and the hub-pair count's d_1 and d_2, 4636 rows
    # and window of 41239 hubs are all slices of the head
    computed = _counting_degree_blocks(monkeypatch)
    assert summarize(POWERLAW_EXAMPLE).invalid_pairs == 44_368_861
    assert computed == [(0, DEGREE_BLOCK)]


def test_power_law_example_computes_five_blocks(monkeypatch, capsys):
    # example powerlaw: the head, then two Newton steps of two blocks each
    computed = _counting_degree_blocks(monkeypatch)
    assert main(["example", "powerlaw"]) == 0
    step = [(DEGREE_BLOCK, 2 * DEGREE_BLOCK), (2 * DEGREE_BLOCK, 3 * DEGREE_BLOCK)]
    assert computed == [(0, DEGREE_BLOCK)] + step * 2


def _power_law_sweep(count: int) -> list:
    """``count`` seeded power laws of 1e5 to 5e6 vertices and exponents 2.02
    to 4, with max / avg degree ratios from 1 to 1e5."""
    rng = np.random.default_rng(2026)
    specs = []
    while len(specs) < count:
        avg = 10.0 ** rng.uniform(-1.0, 3.0)
        try:
            specs.append(PowerLawSpec(
                n=int(10.0 ** rng.uniform(5.0, math.log10(5e6))),
                exponent=float(rng.uniform(2.02, 4.0)),
                max_degree=avg * 10.0 ** rng.uniform(0.0, 5.0),
                avg_degree=avg,
            ))
        except ValueError:  # an offset that vanishes next to 1
            continue
    return specs


CLOSED_FORM_SPECS = [
    *_power_law_sweep(100),
    PowerLawSpec(n=1_000_000, exponent=3.0, max_degree=100.0, avg_degree=2.0),  # 2 gamma = 1
    PowerLawSpec(n=1_000_000, exponent=5.0, max_degree=100.0, avg_degree=2.0),  # 4 gamma = 1
    PowerLawSpec(n=1_000_000, exponent=4.0, max_degree=1e5, avg_degree=1.0),  # i0 = 3e-10
    PowerLawSpec(n=5_000_000, exponent=2.0000001, max_degree=100.0, avg_degree=1.0),
    PowerLawSpec(n=5_000_000, exponent=2.02, max_degree=5e5, avg_degree=1e3),
    PowerLawSpec(n=DEGREE_BLOCK, exponent=2.5, max_degree=50.0, avg_degree=5.0),  # one block
    PowerLawSpec(n=DEGREE_BLOCK + 1, exponent=2.5, max_degree=50.0, avg_degree=5.0),
    PowerLawSpec(n=1000, exponent=3.0, max_degree=50.0, avg_degree=5.0),
]


@pytest.mark.parametrize(
    "spec", CLOSED_FORM_SPECS,
    ids=lambda spec: f"{spec.n}-{spec.exponent:.8g}-{spec.max_degree:.3g}-{spec.avg_degree:.3g}",
)
def test_closed_form_block_sums_match_the_stream(spec):
    # a closed-form partial is within 64 u of its block's exact sum, and a
    # read's pairwise sum of at most 2^16 terms, each a few roundings, lies
    # well within another 64 u: 128 u = 64 eps apart.  The ends come from
    # degree_block's own operations, so they equal each read bit for bit.
    with np.errstate(all="raise"):
        fast = degree_sequence(spec)
    slow = DegreeSequence.of(spec.n, spec.degree_block, read_table(spec.degree_block, spec.n))
    bound = 64 * np.finfo(float).eps
    assert np.all(np.abs(fast.block_sums - slow.block_sums) <= bound * slow.block_sums)
    for total in ("d1", "d2", "d4"):
        assert getattr(fast, total) == pytest.approx(getattr(slow, total), rel=bound, abs=0.0)
    assert fast.ends.tobytes() == slow.ends.tobytes()


@pytest.mark.parametrize("n", [10**7, 10**8, 10**9])
def test_power_law_analyze_reads_only_head_blocks(n, tmp_path, capsys, monkeypatch):
    # analyze on the bench's power law at 1e7, 1e8 and at the 1e9 cap: the
    # spec's scale check computes d_1, and the first pass the first block,
    # the head, whose slices every kernel reads; every later block is summed
    # in closed form
    computed = _counting_degree_blocks(monkeypatch)
    spec = tmp_path / "powerlaw.json"
    spec.write_text(json.dumps({"ensemble": "power-law", "n": n, "exponent": 2.2,
                                "max_degree": 5e5, "avg_degree": 1e3}))
    assert main(["analyze", "--spec", str(spec), "--beta", "3.886364388224014e-05",
                 "--delta", "0.9021563793787044"]) == 0
    assert "-> inconclusive" in capsys.readouterr().out
    assert computed == [(0, 1), (0, DEGREE_BLOCK)]


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
