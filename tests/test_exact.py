import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epinet import exact
from epinet.exact import (
    StabilityOperator,
    build_joint_chain,
    exact_mean_stable,
    expected_lambda_max,
)
from epinet.netmodel import (
    EdgeChain,
    EpidemicParams,
    SwitchedNetworkSpec,
    WeightedEdgeChain,
)
from epinet.oracle import (
    dense_abscissa,
    dense_configs,
    dense_generator,
    dense_stability_matrix,
    random_small_spec,
    run_sandwich_suite,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def single_edge_spec(p=1.0, q=1.0):
    return SwitchedNetworkSpec(n=2, edges=(EdgeChain(i=1, j=2, p_rate=p, q_rate=q),))


def random_spec(rng, n_max=4):
    n = int(rng.integers(2, n_max + 1))
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if edges and rng.random() < 0.2:
                continue
            p, q = rng.uniform(0.1, 5.0, size=2)
            edges.append(EdgeChain(i=i, j=j, p_rate=float(p), q_rate=float(q)))
    return SwitchedNetworkSpec(n=n, edges=tuple(edges))


def test_single_edge_eta_is_golden_ratio():
    joint = build_joint_chain(single_edge_spec())
    eta = exact_mean_stable(joint, EpidemicParams(beta=1.0, delta=1.0)).eta
    assert abs(eta - GOLDEN) <= 1e-9


def test_joint_chain_structure_two_edges():
    spec = SwitchedNetworkSpec(
        n=3,
        edges=(
            EdgeChain(i=1, j=2, p_rate=2.0, q_rate=1.0),
            EdgeChain(i=2, j=3, p_rate=1.0, q_rate=3.0),
        ),
    )
    joint = build_joint_chain(spec)
    assert joint.n_configs == 4 and joint.dims == (2, 2)
    # enumeration: config index k has mixed-radix digits over edge states in
    # the order of spec.edges, last edge fastest; config 1 = first edge
    # absent, second present
    configs = dense_configs(joint)
    for k, edge in zip((2, 1), spec.edges):
        assert configs[k][edge.i - 1, edge.j - 1] == 1.0
    assert configs[1][1, 2] == 1.0 and configs[1][0, 1] == 0.0
    assert configs[2][0, 1] == 1.0 and configs[2][1, 2] == 0.0
    assert configs[3][0, 1] == 1.0 and configs[3][1, 2] == 1.0
    # product-form stationary law
    pi12, pi23 = 2.0 / 3.0, 0.25
    expected = np.array(
        [
            (1 - pi12) * (1 - pi23),
            (1 - pi12) * pi23,
            pi12 * (1 - pi23),
            pi12 * pi23,
        ]
    )
    assert joint.stationary == pytest.approx(expected, abs=1e-14)
    mean_edges = joint.stationary @ configs.sum(axis=(1, 2)) / 2.0
    assert mean_edges == pytest.approx(pi12 + pi23, abs=1e-14)
    # generator invariants
    gen = dense_generator(joint)
    assert np.abs(gen.sum(axis=1)).max() < 1e-12
    offdiag = gen - np.diag(np.diag(gen))
    assert offdiag.min() >= 0.0
    assert np.abs(joint.stationary @ gen).max() < 1e-12


def test_joint_generator_against_bruteforce_enumeration():
    # independently rebuild the generator by iterating over configuration
    # pairs that differ in exactly one edge
    spec = SwitchedNetworkSpec(
        n=3,
        edges=(
            EdgeChain(i=1, j=2, p_rate=0.7, q_rate=1.3),
            EdgeChain(i=1, j=3, p_rate=2.0, q_rate=0.4),
            EdgeChain(i=2, j=3, p_rate=1.1, q_rate=0.9),
        ),
    )
    joint = build_joint_chain(spec)
    m = len(spec.edges)
    rates = [(e.p_rate, e.q_rate) for e in spec.edges]
    size = 2**m
    brute = np.zeros((size, size))
    for k in range(size):
        bits = [(k >> (m - 1 - e)) & 1 for e in range(m)]
        for e in range(m):
            flipped = k ^ (1 << (m - 1 - e))
            p, q = rates[e]
            brute[k, flipped] = q if bits[e] else p
        brute[k, k] = -brute[k].sum()
    assert np.allclose(dense_generator(joint), brute, atol=1e-13)


def test_config_cap_raises():
    n = 7  # complete graph: 21 edges -> 2^21 configurations
    edges = tuple(
        EdgeChain(i=i, j=j, p_rate=1.0, q_rate=1.0)
        for i, j in itertools.combinations(range(1, n + 1), 2)
    )
    with pytest.raises(ValueError, match="configurations"):
        build_joint_chain(SwitchedNetworkSpec(n=n, edges=edges))


def _binary_spec(n, m):
    pairs = list(itertools.combinations(range(1, n + 1), 2))[:m]
    return SwitchedNetworkSpec(
        n=n, edges=tuple(EdgeChain(i=i, j=j, p_rate=1.0, q_rate=1.0) for i, j in pairs)
    )


@pytest.mark.parametrize(
    "n, m, refusal",
    [
        (8, 16, None),  # 2^19 rows, exactly the cap
        (7, 16, None),
        (9, 16, "configurations"),
        (7, 17, "configurations"),  # 2^17 configurations: the lone cap on them is gone
        (16, 16, "configurations"),
        (200, 9, None),  # once refused on 512 stored 200 x 200 matrices
    ],
)
def test_binary_admission_boundary(n, m, refusal):
    spec = _binary_spec(n, m)
    if refusal is None:
        assert build_joint_chain(spec).n_configs == 2**m
    else:
        with pytest.raises(ValueError, match=refusal):
            build_joint_chain(spec)


def _random_chain(rng, i, j):
    """A weighted edge chain with 1-4 states, some zero weights and some zero
    rates (absorbing states among them), redrawn until its stationary law is
    unique."""
    while True:
        k = int(rng.integers(1, 5))
        states = np.where(rng.random(k) < 0.3, 0.0, rng.uniform(0.0, 1.0, k))
        rates = np.where(rng.random((k, k)) < 0.4, 0.0, rng.uniform(0.1, 3.0, (k, k)))
        np.fill_diagonal(rates, 0.0)
        np.fill_diagonal(rates, -rates.sum(axis=1))
        try:
            return WeightedEdgeChain(i=i, j=j, states=tuple(states),
                                     generator=tuple(map(tuple, rates)))
        except ValueError:
            continue


@pytest.mark.parametrize("seed", range(100))
def test_nonzero_count_matches_assembly(seed):
    # the operator applied to the identity is the oracle's dense Kronecker
    # assembly, nonzero for nonzero and entry for entry, on binary and
    # weighted specs with absorbing states, p = 0 chains, single-state chains
    # and zero weights; its column-sum bound is the largest column sum over
    # the enumerated configurations, bit for bit
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(2, 5))
        pairs = [pair for pair in itertools.combinations(range(1, n + 1), 2)
                 if rng.random() < 0.7] or [(1, 2)]
        if seed % 2:
            edges = tuple(_random_chain(rng, i, j) for i, j in pairs)
        else:
            edges = tuple(
                EdgeChain(i=i, j=j, p_rate=float(p), q_rate=float(q))
                for (i, j), (p, q) in zip(
                    pairs,
                    rng.choice([0.0, 0.5, 2.0], size=(len(pairs), 2), p=[0.3, 0.35, 0.35]),
                )
                if p + q > 0
            ) or (EdgeChain(i=1, j=2, p_rate=0.0, q_rate=1.0),)
        joint = build_joint_chain(SwitchedNetworkSpec(n=n, edges=edges))
        if n * joint.n_configs <= 1024:
            break
    op = StabilityOperator(joint, 0.7)
    mat = op @ np.eye(op.shape[0])
    dense = dense_stability_matrix(joint, 0.7)
    assert np.count_nonzero(mat) == np.count_nonzero(dense)
    assert np.abs(mat - dense).max() <= 1e-14 * max(1.0, op.entry_max)
    assert op.entry_max == pytest.approx(np.abs(dense).max(), rel=1e-14)
    assert op.offdiagonal_min == 0.0
    assert op.column_sum_max == 0.7 * float(dense_configs(joint).sum(axis=1).max())


def test_caps_admit_more_than_65536_weighted_configurations():
    # three 41-state birth-death chains on a triangle: 68 921 configurations,
    # 206 763 rows and about 2e6 nonzeros, all under the caps
    k = 41
    rates = np.diag(np.ones(k - 1), 1) + np.diag(np.ones(k - 1), -1)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    chain = {"states": tuple(np.linspace(0.0, 1.0, k)),
             "generator": tuple(map(tuple, rates))}
    spec = SwitchedNetworkSpec(
        n=3,
        edges=tuple(WeightedEdgeChain(i=i, j=j, **chain)
                    for i, j in ((1, 2), (1, 3), (2, 3))),
    )
    joint = build_joint_chain(spec)
    assert joint.n_configs == 68_921
    assert joint.stationary.sum() == pytest.approx(1.0, abs=1e-12)


def test_no_edges_rejected():
    with pytest.raises(ValueError, match="no edges"):
        build_joint_chain(SwitchedNetworkSpec(n=3, edges=()))


def _birth_death_chain(i, j, states):
    rates = np.diag(np.linspace(0.5, 2.0, states - 1), 1) + np.diag(np.ones(states - 1), -1)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return WeightedEdgeChain(i=i, j=j, states=tuple(np.linspace(0.0, 1.0, states)),
                             generator=tuple(map(tuple, rates)))


def test_stability_matrix_against_bruteforce_kron():
    spec = single_edge_spec(p=1.0, q=1.0)
    beta = 1.0
    op = StabilityOperator(build_joint_chain(spec), beta)
    pi_gen = np.array([[-1.0, 1.0], [1.0, -1.0]])
    a_off = np.zeros((2, 2))
    a_on = np.array([[0.0, 1.0], [1.0, 0.0]])
    brute = np.kron(pi_gen.T, np.eye(2))
    brute[0:2, 0:2] += beta * a_off
    brute[2:4, 2:4] += beta * a_on
    assert op.shape == (4, 4)
    assert np.array_equal(op @ np.eye(4), brute)
    # random instances, and an edge of 17 or 20 states (a generator group of
    # its own) first, between or after binary edges
    rng = np.random.default_rng(3)
    specs = [random_small_spec(rng) for _ in range(10)]
    for big in ((1, 2), (1, 3), (2, 3)):
        edges = [_birth_death_chain(i, j, 17 if (i, j) == big else 2)
                 for i, j in ((1, 2), (1, 3), (2, 3))]
        specs.append(SwitchedNetworkSpec(n=3, edges=tuple(edges)))
    specs.append(SwitchedNetworkSpec(n=3, edges=(_birth_death_chain(1, 2, 20),
                                                 _birth_death_chain(2, 3, 3))))
    for spec in specs:
        joint = build_joint_chain(spec)
        op = StabilityOperator(joint, 0.7)
        dense = dense_stability_matrix(joint, 0.7)
        x = rng.standard_normal((op.shape[0], 3))
        assert np.abs(op @ np.eye(op.shape[0]) - dense).max() <= 1e-14 * op.entry_max
        # a block of columns is the product with each column
        block = op @ x
        for c in range(3):
            assert np.allclose(block[:, c], op.matvec(x[:, c]), rtol=0, atol=1e-13)
        assert np.allclose(block, dense @ x, rtol=0, atol=1e-12)


def test_krylov_eta_matches_dense_reference():
    # every spec of the default oracle suite, whose eta_beta1 is the dense
    # eigvals reference, plus one 5-vertex, 9-edge spec (2560 rows)
    reports = run_sandwich_suite(count=100, seed=0)
    rng = np.random.default_rng(0)
    params = EpidemicParams(beta=1.0, delta=1.0)
    for report in reports:
        spec = random_small_spec(rng)
        assert (report.n, report.m) == (spec.n, len(spec.edges))
        joint = build_joint_chain(spec)
        eta = exact_mean_stable(joint, params).eta
        assert abs(eta - report.eta_beta1) <= 1e-10 * max(1.0, abs(report.eta_beta1))
    rng = np.random.default_rng(9)
    pairs = list(itertools.combinations(range(1, 6), 2))
    edges = tuple(
        EdgeChain(i=i, j=j, p_rate=float(p), q_rate=float(q))
        for (i, j), (p, q) in zip(pairs[:9], rng.uniform(0.1, 5.0, size=(9, 2)))
    )
    joint = build_joint_chain(SwitchedNetworkSpec(n=5, edges=edges))
    eta = exact_mean_stable(joint, params).eta
    dense = dense_abscissa(joint, beta=1.0)
    assert abs(eta - dense) <= 1e-10 * max(1.0, abs(dense))


def test_perfect_matching_eta_is_golden_ratio():
    # 12 disjoint symmetric edges decouple, so eta is the single-edge value;
    # 4096 configurations x 24 vertices = 98 304 rows, far past dense reach
    edges = tuple(
        EdgeChain(i=2 * k + 1, j=2 * k + 2, p_rate=1.0, q_rate=1.0) for k in range(12)
    )
    joint = build_joint_chain(SwitchedNetworkSpec(n=24, edges=edges))
    assert joint.n_configs * joint.n == 98_304
    eta = exact_mean_stable(joint, EpidemicParams(beta=1.0, delta=1.0)).eta
    assert abs(eta - GOLDEN) <= 1e-9


def test_stability_matrix_dim_cap(monkeypatch):
    # one edge: 2 configurations x 2 vertices = 4 rows
    spec = single_edge_spec()
    monkeypatch.setattr(exact, "JOINT_DIM_CAP", 3)
    with pytest.raises(ValueError, match="exceed 3 rows"):
        build_joint_chain(spec)
    monkeypatch.setattr(exact, "JOINT_DIM_CAP", 4)
    build_joint_chain(spec)


def test_exact_mean_stable_strictness():
    joint = build_joint_chain(single_edge_spec())
    eta = exact_mean_stable(joint, EpidemicParams(beta=1.0, delta=1.0)).eta
    at = exact_mean_stable(joint, EpidemicParams(beta=1.0, delta=eta))
    assert not at.mean_stable
    above = exact_mean_stable(joint, EpidemicParams(beta=1.0, delta=eta + 1e-12))
    assert above.mean_stable


def test_eta_scales_with_beta_on_static_graph():
    # frozen complete graph: eta = beta * lambda_max(A); checks the beta
    # coupling without any switching in the way
    n = 3
    edges = tuple(
        EdgeChain(i=i, j=j, p_rate=5.0, q_rate=0.0)
        for i, j in itertools.combinations(range(1, n + 1), 2)
    )
    joint = build_joint_chain(SwitchedNetworkSpec(n=n, edges=edges))
    for beta in (0.5, 1.0, 2.0):
        eta = exact_mean_stable(joint, EpidemicParams(beta=beta, delta=1.0)).eta
        assert eta == pytest.approx(beta * (n - 1), rel=1e-10)


def test_eta_past_column_sum_bound_is_refused():
    # eta <= beta * max_k max_v sum_u A_k[u, v] = 1 on this path, and
    # ARPACK's value for p = q = 1e20 on edge (1, 2) is rounding noise above it
    stiff = SwitchedNetworkSpec(
        n=3,
        edges=(
            EdgeChain(i=1, j=2, p_rate=1e20, q_rate=1e20),
            EdgeChain(i=2, j=3, p_rate=1.0, q_rate=1.0),
        ),
    )
    with pytest.raises(RuntimeError, match="exceeds its bound 1"):
        exact_mean_stable(build_joint_chain(stiff), EpidemicParams(beta=0.5, delta=1.0))
    # a frozen complete graph is regular and sits on the bound; fast rates put
    # ARPACK's value a little above it, within the slack
    for n in (3, 4, 5):
        edges = tuple(
            EdgeChain(i=i, j=j, p_rate=1e6, q_rate=0.0)
            for i, j in itertools.combinations(range(1, n + 1), 2)
        )
        joint = build_joint_chain(SwitchedNetworkSpec(n=n, edges=edges))
        for beta in (1e-3, 0.5, 7.3):
            eta = exact_mean_stable(joint, EpidemicParams(beta=beta, delta=1.0)).eta
            assert eta == pytest.approx(beta * (n - 1), rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_eta_invariant_under_vertex_relabeling(seed):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, n_max=3)
    perm = rng.permutation(spec.n) + 1
    relabeled = SwitchedNetworkSpec(
        n=spec.n,
        edges=tuple(
            EdgeChain(
                i=int(perm[e.i - 1]),
                j=int(perm[e.j - 1]),
                p_rate=e.p_rate,
                q_rate=e.q_rate,
            )
            for e in spec.edges
        ),
    )
    params = EpidemicParams(beta=1.0, delta=1.0)
    eta1 = exact_mean_stable(build_joint_chain(spec), params).eta
    eta2 = exact_mean_stable(build_joint_chain(relabeled), params).eta
    assert eta1 == pytest.approx(eta2, abs=1e-9)


def test_expected_lambda_max_single_edge():
    # lambda_max is 0 or 1 with stationary probability 3/4 and 1/4
    joint = build_joint_chain(single_edge_spec(p=1.0, q=3.0))
    assert expected_lambda_max(joint) == pytest.approx(0.25, abs=1e-13)


def test_expected_lambda_max_is_not_a_mean_stability_test():
    # E[lambda_max] < delta/beta (equivalently the matrix-measure form
    # beta E[lambda_max] - delta < 0) certifies almost-sure extinction only.
    # It does not imply mean stability: on a symmetric edge
    # E[lambda_max] = 1/2 < 0.55 while eta = 0.618... > 0.55.  Nor is it
    # implied by it: under fast switching eta approaches
    # beta lambda_max(abar), which sits below beta E[lambda_max].
    sym = build_joint_chain(single_edge_spec())
    params = EpidemicParams(beta=1.0, delta=0.55)
    assert expected_lambda_max(sym) < params.threshold
    assert not exact_mean_stable(sym, params).mean_stable
    fast = build_joint_chain(
        SwitchedNetworkSpec(
            n=3,
            edges=(
                EdgeChain(i=1, j=2, p_rate=50.0, q_rate=50.0),
                EdgeChain(i=2, j=3, p_rate=50.0, q_rate=50.0),
            ),
        )
    )
    # lambda_max(abar) = 1/sqrt(2) ~ 0.707 < 0.72 < E[lambda_max] = 0.853...
    params = EpidemicParams(beta=1.0, delta=0.72)
    assert not expected_lambda_max(fast) < params.threshold
    assert exact_mean_stable(fast, params).mean_stable


def test_enumerate_expectation_edge_count():
    # stationary expectation of the edge count, enumerated over the
    # configurations of the joint chain
    spec = SwitchedNetworkSpec(
        n=3,
        edges=(
            EdgeChain(i=1, j=2, p_rate=1.0, q_rate=1.0),
            EdgeChain(i=1, j=3, p_rate=3.0, q_rate=1.0),
        ),
    )
    joint = build_joint_chain(spec)
    edge_counts = np.array([a.sum() / 2.0 for a in dense_configs(joint)])
    mean_edges = float(joint.stationary @ edge_counts)
    assert mean_edges == pytest.approx(0.5 + 0.75, abs=1e-13)


@pytest.mark.parametrize("block", [1, 7, exact.CONFIG_BLOCK])
def test_expected_lambda_max_blocks_match_dense(block, monkeypatch):
    # configurations built block by block on the vertices that carry an edge
    # give the enumerated expectation over all n x n matrices, with isolated
    # vertices and with several blocks
    monkeypatch.setattr(exact, "CONFIG_BLOCK", block)
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        pairs = [pair for pair in itertools.combinations(range(1, n + 1), 2)
                 if rng.random() < 0.3] or [(1, n)]
        edges = tuple(_random_chain(rng, i, j) for i, j in pairs[:4])
        joint = build_joint_chain(SwitchedNetworkSpec(n=n, edges=edges))
        dense = float(joint.stationary @ np.linalg.eigvalsh(dense_configs(joint))[:, -1])
        assert expected_lambda_max(joint) == pytest.approx(dense, abs=1e-14)


def test_many_vertices_few_edges_decided_in_block_memory():
    # 1500 vertices and 4 edges: 16 configurations and 24 000 rows, once
    # refused on its 16 stored 1500 x 1500 adjacency matrices (3.6e7
    # entries).  E[lambda_max] reads only the 5 vertices that carry an edge,
    # so it equals that of the same star on 5 vertices, bit for bit
    rates = ((0.5, 1.0), (2.0, 1.0), (1.0, 3.0), (0.3, 0.3))
    big = SwitchedNetworkSpec(n=1500, edges=tuple(
        EdgeChain(i=1, j=k, p_rate=p, q_rate=q) for k, (p, q) in zip((2, 3, 700, 1500), rates)))
    small = SwitchedNetworkSpec(n=5, edges=tuple(
        EdgeChain(i=1, j=k, p_rate=p, q_rate=q) for k, (p, q) in zip((2, 3, 4, 5), rates)))
    joint = build_joint_chain(big)
    assert joint.n_configs * joint.n == 24_000
    tracemalloc.start()
    try:
        e_lam = expected_lambda_max(joint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert e_lam == expected_lambda_max(build_joint_chain(small))
    params = EpidemicParams(beta=1.0, delta=1.0)
    eta = exact_mean_stable(joint, params).eta
    assert eta == pytest.approx(dense_abscissa(build_joint_chain(small), 1.0), abs=1e-10)
