import dataclasses
import math

import numpy as np
import pytest

import epinet.ensembles
import epinet.netmodel
import epinet.oracle
import epinet.spectral
from epinet.exact import build_joint_chain, exact_mean_stable
from epinet.netmodel import (
    EdgeChain,
    EpidemicParams,
    StationaryStats,
    SwitchedNetworkSpec,
    WeightedEdgeChain,
    stationary_stats,
)
from epinet.oracle import (
    check_instance,
    check_tail_bound,
    dense_abscissa,
    dense_generator,
    dense_stability_matrix,
    random_small_spec,
    run_sandwich_suite,
    suite_summary,
)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def single_edge_spec():
    return SwitchedNetworkSpec(n=2, edges=(EdgeChain(i=1, j=2, p_rate=1.0, q_rate=1.0),))


def test_single_edge_report_values():
    report = check_instance(single_edge_spec())
    assert report.n == 2 and report.m == 1
    # abar = [[0,.5],[.5,0]], so lambda_max(abar) = 1/2 and the two graph
    # states have lambda_max 0 and 1 with equal weight
    assert report.lambda_max_abar == pytest.approx(0.5, abs=1e-12)
    assert report.e_lambda_max == pytest.approx(0.5, abs=1e-12)
    assert report.eta_beta1 == pytest.approx(GOLDEN, abs=1e-9)
    assert report.sandwich_ok and report.tail_ok and report.abar_consistent
    assert report.passed
    d = report.to_dict()
    assert d["eta_beta1"] == report.eta_beta1
    assert d["sandwich_ok"] is True and d["tail_ok"] is True


def test_check_instance_eigensolves_configurations_once(monkeypatch):
    # the per-configuration eigenvalues feed E[lambda_max], the sandwich and
    # the tail check; they are computed once per instance
    batched = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        if np.ndim(a) == 3:
            batched.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rng = np.random.default_rng(4)
    for _ in range(5):
        spec = random_small_spec(rng)
        batched.clear()
        assert check_instance(spec).passed
        assert len(batched) == 1


def test_check_instance_prices_stationary_moments_once(monkeypatch):
    # the summary and the abar check read one set of closed-form moments
    calls = []

    def counting(spec):
        calls.append(spec)
        return stationary_stats(spec)

    for module in (epinet.netmodel, epinet.ensembles, epinet.oracle):
        monkeypatch.setattr(module, "stationary_stats", counting)
    rng = np.random.default_rng(4)
    for _ in range(5):
        calls.clear()
        assert check_instance(random_small_spec(rng)).passed
        assert len(calls) == 1


def test_perturbed_closed_form_abar_fails_the_consistency_check(monkeypatch):
    def perturbed(spec):
        stats = stationary_stats(spec)
        means = stats.means.copy()
        means[0] += 1e-8
        return StationaryStats(stats.ends, means, stats.delta_uncertainty)

    spec = random_small_spec(np.random.default_rng(4))
    assert check_instance(spec).abar_consistent
    monkeypatch.setattr(epinet.oracle, "stationary_stats", perturbed)
    report = check_instance(spec)
    assert not report.abar_consistent and not report.passed


@pytest.mark.parametrize("error, consistent", [(1e-13, True), (1e-11, False)])
def test_perturbed_lambda_max_fails_the_consistency_check(error, consistent, monkeypatch):
    # the edge list is right and only the Lanczos lambda_max(abar) is off: the
    # check against dense eigvalsh holds it to 1e-12 max(1, lambda_max)
    lanczos = epinet.spectral.lanczos_abscissa
    monkeypatch.setattr(epinet.spectral, "lanczos_abscissa",
                        lambda operator: lanczos(operator) * (1.0 + error))
    report = check_instance(random_small_spec(np.random.default_rng(4)))
    assert report.lambda_max_abar > 1.0
    assert report.abar_consistent is consistent and report.passed is consistent


def test_sandwich_ordering_holds_on_instance():
    report = check_instance(single_edge_spec())
    tol = 1e-8
    assert report.lambda_max_abar <= report.e_lambda_max + tol
    assert report.e_lambda_max <= report.eta_beta1 + tol
    assert report.eta_beta1 <= report.lhs_upper + tol


def test_tail_bound_hand_arithmetic():
    # single edge: lambda_max is 0 or 1 with probability 1/2 each,
    # lambda_max(abar) = 1/2.  At s = 0.25 the exact tail is
    # P(lambda > 0.75) = 1/2, the bound 2n exp(-3 s^2 / (2 s + 6 Delta))
    # with n = 2 and Delta = 1/4 (Bernoulli(1/2) variance fills one row)
    delta_u = 0.25
    tail = check_tail_bound(
        np.array([0.5, 0.5]), np.array([0.0, 1.0]), 0.5, 2, delta_u, np.array([0.25])
    )
    exact = 0.5
    bound = 4.0 * math.exp(-3.0 * 0.0625 / (0.5 + 6.0 * delta_u))
    assert tail.exact_tail[0] == pytest.approx(exact, abs=1e-12)
    assert tail.bound[0] == pytest.approx(bound, rel=1e-12)
    assert tail.ok


def test_tail_bound_flags_violation():
    # hand-made law on one vertex whose top value sits far above the mean:
    # with a tiny claimed fluctuation scale the bound dips below the exact
    # tail and the checker must notice.  (Real binary chains cannot trip
    # this: the 2n prefactor keeps the bound above any tail a 2-4 vertex
    # graph produces.)
    tail = check_tail_bound(
        np.array([0.5, 0.5]), np.array([0.0, 10.0]), 5.0, 1, 1e-6, np.array([1.0])
    )
    # exact P(lambda > 5 + 1) = 1/2, bound ~ 2 exp(-3/2) ~ 0.446
    assert tail.exact_tail[0] == pytest.approx(0.5, abs=1e-12)
    assert tail.bound[0] < 0.5
    assert not tail.ok
    assert tail.max_violation > 0.0


def _masked_tail(stationary, lam_all, lam_bar, s_values):
    # the slow reference: one masked sum per s
    return np.array([stationary[lam_all > lam_bar + s].sum() for s in s_values])


def test_tail_bound_matches_masked_sums():
    rng = np.random.default_rng(8)
    for size in (1, 2, 7, 64, 300):
        stationary = rng.dirichlet(np.ones(size))
        # quarters, so lam_bar + s lands exactly on entries, which the strict
        # > leaves out of the tail
        lam_all = rng.integers(0, 12, size=size) / 4.0
        s_values = np.append(np.arange(13) / 4.0, np.linspace(0.0, 3.0, 20))
        tail = check_tail_bound(stationary, lam_all, 0.5, 3, 0.5, s_values)
        ref = _masked_tail(stationary, lam_all, 0.5, s_values)
        assert np.abs(tail.exact_tail - ref).max() <= 1e-15
    ties = check_tail_bound(np.full(4, 0.25), np.array([0.0, 1.0, 1.0, 2.0]), 0.5, 2,
                            0.25, np.array([0.0, 0.5, 1.5, 2.0]))
    assert ties.exact_tail.tolist() == [0.75, 0.25, 0.0, 0.0]


def _kronecker_generator(joint):
    # the slow reference: the Kronecker sum sum_e I x ... x Q_e x ... x I
    gen = np.zeros((1, 1))
    for q in (e.rate_matrix for e in joint.edges):
        gen = np.kron(gen, np.eye(len(q))) + np.kron(np.eye(len(gen)), q)
    return gen


@pytest.mark.parametrize("edges", [
    (EdgeChain(i=1, j=2, p_rate=0.7, q_rate=1.3), EdgeChain(i=1, j=3, p_rate=2.0, q_rate=0.4),
     EdgeChain(i=2, j=3, p_rate=1.1, q_rate=0.9)),
    (WeightedEdgeChain(i=1, j=2, states=(0.0, 0.5, 1.0),
                       generator=((-1, 1, 0), (0, -2, 2), (3, 0, -3))),
     WeightedEdgeChain(i=2, j=3, states=(0.0, 1.0), generator=((-0.3, 0.3), (4, -4)))),
    (EdgeChain(i=1, j=2, p_rate=1.5, q_rate=0.0), EdgeChain(i=2, j=3, p_rate=1.0, q_rate=2.0)),
    (WeightedEdgeChain(i=1, j=3, states=(0.0, 1.0), generator=((-0.5, 0.5), (0.25, -0.25))),
     WeightedEdgeChain(i=2, j=3, states=(0.0, 0.5, 1.0),
                       generator=((-1, 1, 0), (0.5, -1, 0.5), (0, 0, 0)))),
], ids=["binary", "cyclic", "frozen", "absorbing"])
def test_dense_generator_is_the_kronecker_sum(edges):
    joint = build_joint_chain(SwitchedNetworkSpec(n=3, edges=edges))
    assert np.array_equal(dense_generator(joint), _kronecker_generator(joint))


def test_dense_generator_is_the_kronecker_sum_on_oracle_specs():
    rng = np.random.default_rng(2)
    for _ in range(50):
        joint = build_joint_chain(random_small_spec(rng))
        assert np.array_equal(dense_generator(joint), _kronecker_generator(joint))


def test_random_small_spec_reproducible():
    a = random_small_spec(np.random.default_rng(42))
    b = random_small_spec(np.random.default_rng(42))
    assert a.n == b.n
    assert a.edges == b.edges
    assert 2 <= a.n <= 4
    assert len(a.edges) >= 1


def test_suite_deterministic():
    r1 = run_sandwich_suite(count=6, seed=11)
    r2 = run_sandwich_suite(count=6, seed=11)
    assert [r.to_dict() for r in r1] == [r.to_dict() for r in r2]


def test_suite_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="expected a non-negative integer, got -2"):
        run_sandwich_suite(count=1, seed=-2)


def test_suite_passes():
    reports = run_sandwich_suite(count=25, seed=0)
    assert len(reports) == 25
    summary = suite_summary(reports)
    assert summary["count"] == 25
    assert summary["passed"] == 25
    assert summary["failures"] == 0


def test_suite_summary_counts_failures():
    reports = run_sandwich_suite(count=3, seed=5)
    object.__setattr__(reports[1], "sandwich_ok", False)
    summary = suite_summary(reports)
    assert summary["passed"] == 2
    assert summary["failures"] == 1


def _weighted_spec(generator):
    # a 3-state chain on (1, 2) beside a binary-valued one on (2, 3)
    return SwitchedNetworkSpec(n=3, edges=(
        WeightedEdgeChain(i=1, j=2, states=(0.0, 0.5, 1.0), generator=generator),
        WeightedEdgeChain(i=2, j=3, states=(0.0, 1.0), generator=((-1, 1), (2, -2))),
    ))


def _eigvals_abscissa(joint, beta):
    return float(np.linalg.eigvals(dense_stability_matrix(joint, beta)).real.max())


def test_dense_abscissa_symmetric_route_matches_eigvals():
    # binary and birth-death chains are reversible, so eta comes from
    # eigvalsh of D^-1 M D; it must match eigvals of M itself
    rng = np.random.default_rng(3)
    specs = [random_small_spec(rng) for _ in range(50)]
    specs.append(_weighted_spec(((-1, 1, 0), (2, -2.5, 0.5), (0, 3, -3))))
    for spec in specs:
        joint = build_joint_chain(spec)
        for beta in (0.1, 1.0, 10.0):
            eta, ref = dense_abscissa(joint, beta), _eigvals_abscissa(joint, beta)
            assert abs(eta - ref) <= 1e-12 * max(1.0, abs(ref))


def test_dense_abscissa_keeps_eigvals_off_reversible_chains():
    # a cyclic chain is not reversible; a frozen edge (p = 0) leaves its
    # present state transient with stationary weight 0, and that block holds
    # eta = beta - q
    cyclic = build_joint_chain(_weighted_spec(((-1, 1, 0), (0, -2, 2), (3, 0, -3))))
    frozen = build_joint_chain(SwitchedNetworkSpec(
        n=2, edges=(EdgeChain(i=1, j=2, p_rate=0.0, q_rate=0.01),)))
    for joint in (cyclic, frozen):
        assert dense_abscissa(joint, 0.7) == _eigvals_abscissa(joint, 0.7)
    assert dense_abscissa(frozen, 0.7) == pytest.approx(0.69, rel=1e-12)


def test_suite_makes_no_nonsymmetric_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called on a binary spec")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    assert all(r.passed for r in run_sandwich_suite(count=25, seed=0))


def _scaled(spec, factor):
    return SwitchedNetworkSpec(n=spec.n, edges=tuple(
        EdgeChain(i=e.i, j=e.j, p_rate=e.p_rate * factor, q_rate=e.q_rate * factor)
        for e in spec.edges))


def test_dense_generator_accepts_stiff_chains():
    # the residual check is relative to max|Pi| and the solve check grows
    # with the rate spread, so fast but valid chains are not refused
    rng = np.random.default_rng(0)
    for spec in [random_small_spec(rng) for _ in range(300)]:
        for factor in (1e-4, 1e4):
            dense_generator(build_joint_chain(_scaled(spec, factor)))
    for rate in (1e6, 1e8, 1e10):
        dense_generator(build_joint_chain(SwitchedNetworkSpec(n=3, edges=(
            EdgeChain(i=1, j=2, p_rate=rate, q_rate=rate),
            EdgeChain(i=2, j=3, p_rate=1.0, q_rate=1.0),
        ))))


def test_dense_generator_skips_a_solve_that_checks_nothing(monkeypatch):
    # a rate near 1e-276 makes the direct solve singular, and its tolerance
    # 1e-12 * spread, past 1 there, admits any law: the solve is skipped and
    # the residual still checked, so the dense reference meets Davidson.  On
    # oracle specs (rates in [0.1, 5]) it still runs
    joint = build_joint_chain(SwitchedNetworkSpec(n=3, edges=(
        EdgeChain(i=1, j=2, p_rate=0.009390050364037124, q_rate=30.344573421165695),
        EdgeChain(i=1, j=3, p_rate=1.2990726822941082e-276, q_rate=0.0),
        EdgeChain(i=2, j=3, p_rate=0.0, q_rate=0.05606105929423507),
    )))
    dense = dense_abscissa(joint, 0.5)
    res = exact_mean_stable(joint, EpidemicParams(beta=0.5, delta=1.0))
    assert res.solver == "davidson"
    assert abs(res.eta - dense) <= 1e-10 * max(1.0, abs(dense))
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
    rng = np.random.default_rng(0)
    for _ in range(5):
        dense_generator(build_joint_chain(random_small_spec(rng)))
    assert len(calls) == 5


@pytest.mark.parametrize("rate, message", [(1.0, "disagree"), (1e13, "residual")])
def test_dense_generator_refuses_a_misordered_stationary_law(rate, message):
    # at a rate spread of 6e13 the solve comparison admits anything, and the
    # residual check alone refuses
    joint = build_joint_chain(SwitchedNetworkSpec(n=3, edges=(
        EdgeChain(i=1, j=2, p_rate=rate, q_rate=3.0 * rate),
        EdgeChain(i=2, j=3, p_rate=2.0, q_rate=0.5),
    )))
    swapped = joint.stationary[[1, 0, 2, 3]]
    assert swapped[0] != swapped[1]
    with pytest.raises(RuntimeError, match=message):
        dense_generator(dataclasses.replace(joint, stationary=swapped))
