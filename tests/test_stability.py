import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epinet.ensembles import (
    ExpectedDegreeSpec,
    PowerLawSpec,
    degree_sequence,
    expected_degree_stats,
    summarize,
)
from epinet.exact import build_joint_chain, expected_lambda_max
from epinet.netmodel import (
    EdgeChain,
    EpidemicParams,
    SwitchedNetworkSpec,
    WeightedEdgeChain,
    stationary_stats,
)
from epinet import stability
from epinet.stability import (
    AbarSummary,
    _penalty_derivative,
    check_sufficient,
    concentration_penalty,
    convexity_onset,
    expected_degree_lambda_max,
    expected_degree_uncertainty,
    minimize_penalty,
    pair_probability_violations,
)


def stream(degrees):
    """The validated degree stream of an explicit expected-degree array."""
    return degree_sequence(ExpectedDegreeSpec(degrees=np.asarray(degrees, dtype=float)))


def grid_min(n: int, delta_u: float, points: int = 400_000) -> tuple[float, float]:
    """Independent minimizer: brute-force log-spaced grid plus s = 0."""
    s = np.concatenate([[0.0], np.logspace(-8, math.log10(2.0 * n * n + 10.0), points)])
    f = concentration_penalty(s, n, delta_u)
    i = int(np.argmin(f))
    return float(s[i]), float(f[i])


# --- penalty evaluation ------------------------------------------------------

def test_penalty_at_zero_is_2n_squared():
    assert concentration_penalty(0.0, 7, 3.0) == pytest.approx(98.0, abs=0)
    assert concentration_penalty(0.0, 1, 0.0) == pytest.approx(2.0, abs=0)


def test_penalty_hand_value():
    # n=1, Delta=0.5, s=1: f = 1 + 2 exp(-3/(2+3)) = 1 + 2 e^{-0.6}
    expected = 1.0 + 2.0 * math.exp(-0.6)
    assert concentration_penalty(1.0, 1, 0.5) == pytest.approx(expected, rel=1e-15)


def test_penalty_vectorized_matches_scalar():
    s = np.array([0.0, 0.5, 2.0, 100.0])
    vec = concentration_penalty(s, 12, 1.7)
    for si, fi in zip(s, vec):
        assert fi == concentration_penalty(float(si), 12, 1.7)


def test_penalty_underflow_clamp_keeps_finite():
    # enormous s drives the exponent far below the underflow floor
    val = concentration_penalty(1e12, 10, 1e-2)
    assert math.isfinite(val)
    assert val == pytest.approx(1e12, rel=1e-12)


def test_penalty_rejects_bad_inputs():
    for bad_s in (-1.0, math.nan, np.array([0.0, math.nan])):
        with pytest.raises(ValueError, match="s >= 0"):
            concentration_penalty(bad_s, 5, 1.0)
    with pytest.raises(ValueError):
        concentration_penalty(1.0, 0, 1.0)
    for huge_n in (10**160, 10**400):  # 2 n^2 overflows, or float(n) does
        with pytest.raises(ValueError, match="n must be"):
            minimize_penalty(huge_n, 1.0)
    with pytest.raises(ValueError):
        concentration_penalty(1.0, 5, -0.5)
    with pytest.raises(ValueError):
        concentration_penalty(1.0, 5, math.inf)
    for bad in (math.nan, -1e-300, 1e101):
        for call in (lambda: concentration_penalty(1.0, 5, bad),
                     lambda: convexity_onset(bad),
                     lambda: minimize_penalty(5, bad)):
            with pytest.raises(ValueError, match="delta_u"):
                call()


# --- convexity onset ---------------------------------------------------------

def test_onset_zero_for_frozen_graph():
    assert convexity_onset(0.0) == 0.0


def test_onset_small_delta_asymptotics():
    # For Delta -> 0 the onset behaves like a Delta^(2/3) - 3 Delta with
    # a^3 = 12, an independent closed-form check of the root finder.
    a = 12.0 ** (1.0 / 3.0)
    for delta_u in (1e-8, 1e-6, 1e-4):
        approx = a * delta_u ** (2.0 / 3.0) - 3.0 * delta_u
        assert convexity_onset(delta_u) == pytest.approx(approx, rel=2e-2)


def test_onset_is_a_sign_change_of_the_convexity_polynomial():
    # defining property: h(t) = 1.5 t^2 - 13.5 D^2 - sqrt(27 D^2 t) changes
    # sign exactly at t = s0 + 3 D
    for delta_u in (1e-2, 1.0, 42.0, 1e4):
        c3 = 13.5 * delta_u**2

        def h(t):
            return 1.5 * t * t - c3 - math.sqrt(2.0 * c3 * t)

        t_root = convexity_onset(delta_u) + 3.0 * delta_u
        assert h(t_root * (1.0 - 1e-9)) <= 0.0 <= h(t_root * (1.0 + 1e-9))


@pytest.mark.parametrize(
    "delta_u, s0",
    [
        (0.0, 0.0),
        (1e-300, 2.2894284851066644e-200),
        (1e-12, 2.2891285113140776e-08),
        (1e-2, 0.0817039311729928),
        (0.234375, 0.46875000000000006),
        (1.0, 0.9899209252796483),
        (42.0, 6.478704642487789),
        (21899.79, 147.98568270180837),
        (1e6, 999.9999861157402),
        (1e20, 10000000000.000002),
        (1e40, 1.0000000000000003e20),
        (1e100, 1.0000000000000003e50),
    ],
)
def test_onset_pinned_values(delta_u, s0):
    # bit-exact values of the bracket and bisection, each within 3 ulps of
    # an 80-digit mpmath root of g(s) = 9 s + 1.5 s^2 / Delta
    # - sqrt(27 (3 Delta + s)); pinned so a change to them is deliberate
    assert convexity_onset(delta_u) == s0


@pytest.mark.parametrize("delta_u", [1e-300, 1e-12, 1e20, 1e40, 1e100])
def test_onset_tracks_its_asymptotes(delta_u):
    # s0 ~ 12^(1/3) Delta^(2/3) for small Delta and ~ sqrt(Delta) for large:
    # the old t - 3 Delta form read 1.3e-162 at 1e-300 and 3.9e84 at 1e100
    approx = (12.0 * delta_u * delta_u) ** (1.0 / 3.0) if delta_u < 1 else math.sqrt(delta_u)
    assert convexity_onset(delta_u) == pytest.approx(approx, rel=1e-3)


@pytest.mark.parametrize(
    "n, delta_u", [(1e30, 1e20), (1e60, 1e40), (1e149, 1e100)]
)
def test_minimize_below_dense_grid_for_large_delta(n, delta_u):
    # a tail bracket started at a wrong onset gave f_min = 4.84e24 at
    # (1e60, 1e40) and 3.89e84 at (1e149, 1e100) against grid minima of
    # 2.17e21 and 3.39e51; the grid stops at 1e150, where 3 s^2 is finite
    pm = minimize_penalty(n, delta_u)
    s = np.concatenate([[0.0], np.logspace(-8, 150, 400_000)])
    f = concentration_penalty(s, n, delta_u)
    assert pm.f_min <= f.min() * (1.0 + 1e-15)
    assert pm.f_min == pytest.approx(f.min(), rel=1e-4)


def test_onset_exceeds_2delta_for_small_delta():
    # the onset is NOT always below 2 Delta; at small Delta it scales like
    # Delta^(2/3) and crosses over
    delta_u = 1e-2
    s0 = convexity_onset(delta_u)
    assert s0 > 2.0 * delta_u


def test_onset_between_zero_and_2delta_for_large_delta():
    for delta_u in (1.0, 1e3, 1e6):
        s0 = convexity_onset(delta_u)
        assert 0.0 < s0 < 2.0 * delta_u


@settings(max_examples=60, deadline=None)
@given(
    log_delta=st.floats(min_value=-6.0, max_value=6.0),
    log_n=st.floats(min_value=0.0, max_value=7.0),
)
def test_second_differences_nonnegative_beyond_onset(log_delta, log_n):
    delta_u = 10.0**log_delta
    n = max(1, int(10.0**log_n))
    s0 = convexity_onset(delta_u)
    span = max(s0, delta_u, 1.0)
    ss = np.linspace(s0 * 1.002 + 1e-9, s0 + 50.0 * span, 200)
    h = np.minimum(1e-3 * np.maximum(ss, 1e-6), 0.49 * (ss - s0))
    f0 = concentration_penalty(ss, n, delta_u)
    d2 = (
        concentration_penalty(ss - h, n, delta_u)
        - 2.0 * f0
        + concentration_penalty(ss + h, n, delta_u)
    )
    assert np.all(d2 >= -1e-8 * f0)


def test_concave_strictly_inside_the_dip():
    # between 0 and the onset the function really is concave: second
    # differences go negative, which is why the minimizer must not do a
    # naive convex search from s = 0
    n, delta_u = 1000, 10.0
    s0 = convexity_onset(delta_u)
    ss = np.linspace(0.3 * s0, 0.9 * s0, 50)
    h = 1e-4 * s0
    f0 = concentration_penalty(ss, n, delta_u)
    d2 = (
        concentration_penalty(ss - h, n, delta_u)
        - 2.0 * f0
        + concentration_penalty(ss + h, n, delta_u)
    )
    assert d2.min() < 0.0


# --- global minimization -----------------------------------------------------

def test_minimize_matches_grid_on_reference_cases():
    cases = [
        (110_000, 21899.79),
        (10_000_000, 63300.66),
        (100, 2.5),
        (2, 0.25),
        (50_000, 1e4),
    ]
    for n, delta_u in cases:
        pm = minimize_penalty(n, delta_u)
        s_g, f_g = grid_min(n, delta_u)
        assert pm.f_min == pytest.approx(f_g, rel=1e-4), (n, delta_u)
        assert pm.f_min <= f_g + 1e-9 * f_g  # library should never be worse


def test_minimize_frozen_values():
    # values pinned by an independent 2e6-point grid search
    pm = minimize_penalty(110_000, 21899.79)
    assert pm.f_min == pytest.approx(983.8336, abs=1e-3)
    assert pm.s_star == pytest.approx(960.53, abs=0.5)
    pm2 = minimize_penalty(2, 0.25)
    assert pm2.f_min == pytest.approx(2.882114, abs=1e-5)


def test_minimize_delta_zero_closed_form():
    # with Delta = 0, f = s + 2 n^2 exp(-1.5 s): minimum at s = ln(3 n^2)/1.5
    for n in (1, 5, 1000):
        pm = minimize_penalty(n, 0.0)
        s_star = math.log(3.0 * n * n) / 1.5
        f_star = s_star + 2.0 / 3.0
        if s_star <= 0:  # n = 1: boundary wins
            assert pm.s_star >= 0.0
            continue
        assert pm.s_star == pytest.approx(s_star, rel=1e-12)
        assert pm.f_min == pytest.approx(f_star, rel=1e-9)


def test_minimize_evaluates_the_penalty_twice(monkeypatch):
    calls = []
    original = stability.concentration_penalty
    monkeypatch.setattr(
        stability,
        "concentration_penalty",
        lambda *args: calls.append(args) or original(*args),
    )
    for n, delta_u in ((110_000, 21899.79), (3, 0.0), (10, 1e5), (2, 0.25)):
        calls.clear()
        pm = minimize_penalty(n, delta_u)
        assert len(calls) == 2 and calls[0][0] == 0.0
        assert pm.s_star in (0.0, calls[1][0])


def test_tail_minimum_is_the_sign_change_of_the_derivative():
    # criterion 7's draws: f'(previous float) <= 0 < f'(s_star)
    rng = np.random.default_rng(2024)
    interior = 0
    for _ in range(50):
        n = int(10.0 ** rng.uniform(1.0, 7.0))
        delta_u = 10.0 ** rng.uniform(-2.0, 5.0)
        pm = minimize_penalty(n, delta_u)
        if pm.s_star == 0.0:
            continue
        interior += 1
        below = _penalty_derivative(math.nextafter(pm.s_star, 0.0), n, delta_u)
        assert below <= 0.0 < _penalty_derivative(pm.s_star, n, delta_u)
    assert interior >= 40


def test_boundary_candidate_wins_for_huge_delta_small_n():
    # the dip after s = 0 is too shallow to beat f(0) = 2 n^2 here
    pm = minimize_penalty(10, 1e5)
    assert pm.s_star == 0.0
    assert pm.f_min == pytest.approx(200.0, abs=0)


@settings(max_examples=40, deadline=None)
@given(
    log_delta=st.floats(min_value=-2.0, max_value=5.0),
    log_n=st.floats(min_value=0.5, max_value=7.0),
    log_s=st.floats(min_value=-6.0, max_value=6.0),
)
def test_minimum_is_global_spot_check(log_delta, log_n, log_s):
    delta_u = 10.0**log_delta
    n = max(1, int(10.0**log_n))
    pm = minimize_penalty(n, delta_u)
    probe = 10.0**log_s
    assert pm.f_min <= concentration_penalty(probe, n, delta_u) + 1e-9 * pm.f_min
    assert pm.f_min <= concentration_penalty(0.0, n, delta_u) + 1e-12 * pm.f_min
    assert pm.f_min > 0.0


# --- report assembly ---------------------------------------------------------

def _params(beta=1.0, delta=1.0):
    return EpidemicParams(beta=beta, delta=delta)


def _summary(n, lambda_max_abar, delta_u):
    return AbarSummary(
        n=n,
        lambda_max_abar=lambda_max_abar,
        delta_uncertainty=delta_u,
        network_kind="binary",
    )


def test_frozen_graph_report_is_exact_branch():
    rep = check_sufficient(_summary(4, 1.5, 0.0), _params(delta=2.0))
    assert rep["f_min"] == 0.0 and rep["s_star"] == 0.0 and rep["s0"] == 0.0
    assert rep["lhs"] == 1.5
    assert rep["stable"]
    assert any("exact" in note for note in rep["notes"])
    rep2 = check_sufficient(_summary(4, 1.5, 0.0), _params(delta=1.5))
    assert not rep2["stable"]  # strict inequality at the threshold


def test_report_strict_threshold():
    pm = minimize_penalty(3, 0.1)
    lhs = 0.4 + pm.f_min
    exact = check_sufficient(_summary(3, 0.4, 0.1), _params(delta=lhs))
    assert not exact["stable"]
    above = check_sufficient(_summary(3, 0.4, 0.1), _params(delta=lhs * (1 + 1e-9)))
    assert above["stable"]


def test_report_to_dict_is_json_ready():
    rep = check_sufficient(_summary(3, 0.4, 0.1), _params())
    payload = json.dumps(rep)
    back = json.loads(payload)
    assert back["verdict"] in ("stable-a.s.", "inconclusive")
    assert back["n"] == 3


def test_check_sufficient_small_network():
    spec = SwitchedNetworkSpec(
        n=2, edges=(EdgeChain(i=1, j=2, p_rate=1.0, q_rate=1.0),)
    )
    rep = check_sufficient(summarize(spec), _params())
    assert rep["lambda_max_abar"] == pytest.approx(0.5, abs=1e-14)
    assert rep["delta_uncertainty"] == pytest.approx(0.25, abs=1e-14)
    assert rep["network_kind"] == "binary"
    assert rep["lhs"] == pytest.approx(0.5 + minimize_penalty(2, 0.25).f_min, rel=1e-12)


def test_weighted_binary_valued_chain_matches_binary_test():
    # a two-state weighted chain with weights {0, 1} is the same process as
    # a binary chain; the numeric report must agree to machine precision
    p, q = 1.3, 0.6
    binary = SwitchedNetworkSpec(
        n=2, edges=(EdgeChain(i=1, j=2, p_rate=p, q_rate=q),)
    )
    weighted = SwitchedNetworkSpec(
        n=2,
        edges=(
            WeightedEdgeChain(
                i=1, j=2, states=(0.0, 1.0), generator=((-p, p), (q, -q))
            ),
        ),
    )
    rb = check_sufficient(summarize(binary), _params())
    rw = check_sufficient(summarize(weighted), _params())
    assert rw["lambda_max_abar"] == pytest.approx(rb["lambda_max_abar"], abs=1e-12)
    assert rw["delta_uncertainty"] == pytest.approx(rb["delta_uncertainty"], abs=1e-12)
    assert rw["f_min"] == pytest.approx(rb["f_min"], rel=1e-12)
    assert rw["stable"] == rb["stable"]
    assert rw["network_kind"] == "weighted" and rb["network_kind"] == "binary"


def test_weighted_fractional_chain_report():
    # three-state weight chain; variance comes from the weight law, checked
    # against a direct computation
    gen = ((-2.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, -2.0))
    spec = SwitchedNetworkSpec(
        n=2,
        edges=(WeightedEdgeChain(i=1, j=2, states=(0.0, 0.4, 1.0), generator=gen),),
    )
    stats = stationary_stats(spec)
    # symmetric generator -> uniform stationary law
    mean = (0.0 + 0.4 + 1.0) / 3.0
    var = (0.0 + 0.16 + 1.0) / 3.0 - mean * mean
    assert stats.means.tolist() == [pytest.approx(mean, abs=1e-12)]
    assert stats.delta_uncertainty == pytest.approx(var, abs=1e-12)
    rep = check_sufficient(summarize(spec), _params())
    assert rep["network_kind"] == "weighted"
    assert rep["lambda_max_abar"] == pytest.approx(mean, abs=1e-12)


# --- expected-degree test ----------------------------------------------------

def test_uniform_degrees_closed_form():
    n, c = 50, 5.0
    d = np.full(n, c)
    rep = check_sufficient(expected_degree_stats(stream(d)), _params(delta=100.0))
    assert rep["d_tilde"] == pytest.approx(c, rel=1e-14)
    # abar_ij = c/n off-diagonal; row sum of variances has n-1 terms
    expected_delta = (n - 1) * (c / n) * (1 - c / n)
    assert rep["delta_uncertainty"] == pytest.approx(expected_delta, rel=1e-12)
    assert rep["max_pair_prob"] == pytest.approx(c / n, rel=1e-12)
    assert rep["invalid_pairs"] == 0


def test_expected_degree_uncertainty_matches_dense():
    rng = np.random.default_rng(5)
    d = rng.uniform(0.5, 4.0, size=40)
    abar = np.outer(d, d) / d.sum()
    np.fill_diagonal(abar, 0.0)
    assert abar.max() < 1.0
    dense_delta = (abar * (1.0 - abar)).sum(axis=1).max()
    delta_u = expected_degree_uncertainty(stream(d))
    assert delta_u == pytest.approx(dense_delta, rel=1e-12)


def test_pair_violations_match_bruteforce():
    rng = np.random.default_rng(9)
    d = np.concatenate([rng.uniform(0.5, 2.0, size=30), [40.0, 55.0, 70.0]])
    d = np.concatenate([d, rng.pareto(1.5, size=200) + 0.1])
    rho = 1.0 / d.sum()
    brute = int(np.triu(rho * np.outer(d, d) > 1.0, 1).sum())
    top_two = np.sort(d)[-2:]
    assert brute > 3
    # unsorted, descending and shuffled input
    for order in (d, np.sort(d)[::-1], rng.permutation(d)):
        max_pair, invalid = pair_probability_violations(stream(order))
        assert invalid == brute
        assert max_pair == pytest.approx(rho * top_two[0] * top_two[1], rel=1e-12)
    assert max_pair > 1.0
    valid = np.array([1.0, 2.0, 3.0, 2.0])
    assert pair_probability_violations(stream(valid)) == (pytest.approx(6.0 / 8.0), 0)


def _violations_brute(d: np.ndarray, d1: float) -> int:
    """The unordered pairs i < j with fl(d_i d_j) > D1, row by row: O(n^2)."""
    return sum(int(np.count_nonzero(d[i] * d[i + 1:] > d1)) for i in range(d.size))


def _exact_ties() -> np.ndarray:
    """Integer degrees summing to D1 = 2^16 exactly, shuffled: 111 rows of the
    Durfee square (d^2 > D1) among 206 hubs, five 256s with d^2 = D1, pairs
    with d_i d_j = D1 (4096 16, 2048 32, 1024 64, 512 128) and ties
    throughout."""
    counts = {4096: 1, 2048: 2, 1024: 3, 512: 5, 300: 40, 257: 60, 256: 5,
              255: 10, 200: 30, 128: 20, 64: 20, 32: 10, 16: 10}
    d = np.repeat(np.array(list(counts), dtype=float), list(counts.values()))
    d = np.concatenate([d, np.full(int(2**16 - d.sum()) // 2, 2.0)])
    return np.random.default_rng(3).permutation(d)


EXACT_TIES = ExpectedDegreeSpec(degrees=_exact_ties())


@pytest.mark.parametrize("block", [64, 7, None])
@pytest.mark.parametrize(
    "model",
    [
        EXACT_TIES,
        ExpectedDegreeSpec(degrees=np.repeat(  # float ties, D1 not a round number
            np.random.default_rng(5).pareto(1.2, size=400) + 0.5, 5)),
        ExpectedDegreeSpec(degrees=np.full(150, 200.0)),  # every vertex a row
        # every vertex a row, and fl(D1 / d_i) off by an ulp either way
        ExpectedDegreeSpec(degrees=np.repeat(np.random.default_rng(2).uniform(200, 300, 50), 3)),
        ExpectedDegreeSpec(degrees=np.array([1e6, 1e6])),
        PowerLawSpec(n=3000, exponent=2.1, max_degree=1500.0, avg_degree=10.0),
    ],
    ids=["exact-ties", "float-ties", "all-rows", "all-rows-rounded", "two", "power-law"],
)
def test_pair_count_over_the_durfee_square(model, block, monkeypatch):
    # the count over the square's rows equals the pair-by-pair count of the
    # same predicate, with blocks small enough that the rows, the hubs and
    # the window each span several
    if block is not None:
        monkeypatch.setattr(stability, "DEGREE_BLOCK", block)
    seq = degree_sequence(model)
    d = model.degree_block(0, model.n)
    max_pair, invalid = pair_probability_violations(seq)
    assert max_pair > 1.0
    assert invalid == _violations_brute(d, seq.d1) > 0
    # each row's threshold is the largest float whose product stays <= D1
    t = stability._row_thresholds(d, seq.d1)
    rows = d[: t.size]
    assert np.all(rows * t <= seq.d1) and np.all(rows * np.nextafter(t, np.inf) > seq.d1)
    if model is EXACT_TIES:
        assert seq.d1 == 2.0**16
        assert np.count_nonzero(d * d > seq.d1) == 111
        assert np.count_nonzero(d * d == seq.d1) == 5
        assert np.count_nonzero(np.multiply.outer(d[:250], d) == seq.d1) > 0


def test_invalid_probabilities_recorded_as_note():
    d = np.array([1.0, 1.0, 50.0, 60.0])
    rep = check_sufficient(expected_degree_stats(stream(d)), _params())
    assert rep["max_pair_prob"] > 1.0
    assert rep["invalid_pairs"] >= 1
    assert any("invalid edge probabilities" in note for note in rep["notes"])
    valid = check_sufficient(
        expected_degree_stats(stream([1.0, 2.0, 3.0, 2.0])), _params()
    )
    assert valid["invalid_pairs"] == 0
    assert not any("invalid" in n for n in valid["notes"])


def test_expected_degrees_input_validation():
    for bad in ([1.0], [1.0, -2.0], [0.0, 0.0], [1.0, np.nan], [[1.0, 2.0]],
                [1e308, 1.0], [1e-311, 0.0]):
        # the last two made d^2 or 1 / sum(d) overflow into a NaN Delta
        with np.errstate(all="raise"), pytest.raises(ValueError, match="degrees"):
            stream(bad)
    # the kernels read only a validated stream: a bare array gave Delta -inf
    # for [nan, 1, 2] and -1.5 for [-1, 2, 3], and [0, 0] divided by zero
    for kernel in (expected_degree_uncertainty, expected_degree_lambda_max,
                   pair_probability_violations):
        for bad in ([np.nan, 1.0, 2.0], [-1.0, 2.0, 3.0], [0.0, 0.0]):
            with pytest.raises(AttributeError):
                kernel(np.array(bad))
    # a negative Delta (edge probabilities far above 1) is refused
    assert expected_degree_uncertainty(stream([1e6, 1e6])) < 0
    with pytest.raises(ValueError, match="variance proxy is negative"):
        expected_degree_stats(stream([1e6, 1e6]))


def test_expected_degree_verdict_against_dense_test():
    # for a valid small ensemble the expected-degree shortcut must agree in
    # spirit with the dense spectral test: same Delta, d_tilde bounding the
    # dense eigenvalue from above
    rng = np.random.default_rng(17)
    d = rng.uniform(0.5, 3.0, size=25)
    rep = check_sufficient(expected_degree_stats(stream(d)), _params(delta=50.0))
    abar = np.outer(d, d) / d.sum()
    np.fill_diagonal(abar, 0.0)
    lam_dense = float(np.linalg.eigvalsh(abar)[-1])
    assert lam_dense <= rep["d_tilde"] + 1e-12
    dense_delta = (abar * (1.0 - abar)).sum(axis=1).max()
    assert rep["delta_uncertainty"] == pytest.approx(dense_delta, rel=1e-12)


def test_check_mean_lambda_max_single_edge():
    spec = SwitchedNetworkSpec(
        n=2, edges=(EdgeChain(i=1, j=2, p_rate=1.0, q_rate=3.0),)
    )
    e_lam = expected_lambda_max(build_joint_chain(spec))
    # lambda_max is 0 or 1 with stationary probability 3/4 and 1/4
    assert e_lam == pytest.approx(0.25, abs=1e-12)
    assert e_lam < _params(beta=1.0, delta=0.3).threshold  # 0.25 < 0.3
    # strict comparison at the boundary
    assert not e_lam < _params(beta=1.0, delta=0.25).threshold
