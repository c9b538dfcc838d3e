import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epinet import exact
from epinet.exact import (
    CONFIG_ENTRY_CAP,
    build_joint_chain,
    assemble_stability_matrix,
    dump_stability_matrix,
    exact_mean_stable,
    expected_lambda_max,
)
from epinet.netmodel import EdgeChain, EpidemicParams, SwitchedNetworkSpec
from epinet.oracle import (
    dense_abscissa,
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
    assert joint.n_configs == 4
    assert joint.edge_order == ((1, 2), (2, 3))
    # enumeration: config index k has mixed-radix digits over edge states,
    # last edge fastest; config 1 = first edge absent, second present
    assert joint.configs[1][1, 2] == 1.0 and joint.configs[1][0, 1] == 0.0
    assert joint.configs[2][0, 1] == 1.0 and joint.configs[2][1, 2] == 0.0
    assert joint.configs[3][0, 1] == 1.0 and joint.configs[3][1, 2] == 1.0
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
    mean_edges = joint.stationary @ joint.configs.sum(axis=(1, 2)) / 2.0
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
    # 200 vertices, 9 edges: 512 adjacency matrices of 200 x 200 would
    # exceed the stored-entry cap long before the configuration cap
    many = SwitchedNetworkSpec(
        n=200,
        edges=tuple(EdgeChain(i=1, j=k, p_rate=1.0, q_rate=1.0) for k in range(2, 11)),
    )
    assert 512 * 200**2 > CONFIG_ENTRY_CAP
    with pytest.raises(ValueError, match="entries"):
        build_joint_chain(many)


def test_no_edges_rejected():
    with pytest.raises(ValueError, match="no edges"):
        build_joint_chain(SwitchedNetworkSpec(n=3, edges=()))


def test_stability_matrix_against_bruteforce_kron():
    spec = single_edge_spec(p=1.0, q=1.0)
    joint = build_joint_chain(spec)
    beta = 1.0
    mat = assemble_stability_matrix(joint, beta)
    pi_gen = np.array([[-1.0, 1.0], [1.0, -1.0]])
    a_off = np.zeros((2, 2))
    a_on = np.array([[0.0, 1.0], [1.0, 0.0]])
    brute = np.kron(pi_gen.T, np.eye(2))
    brute[0:2, 0:2] += beta * a_off
    brute[2:4, 2:4] += beta * a_on
    assert mat.format == "csr"
    assert np.array_equal(mat.toarray(), brute)
    # the sparse assembly equals the oracle's dense reference on random
    # instances, entry for entry
    rng = np.random.default_rng(3)
    for _ in range(10):
        joint = build_joint_chain(random_small_spec(rng))
        sparse_mat = assemble_stability_matrix(joint, 0.7)
        assert np.array_equal(sparse_mat.toarray(), dense_stability_matrix(joint, 0.7))


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
    joint = build_joint_chain(single_edge_spec())
    with pytest.raises(ValueError, match="cap"):
        assemble_stability_matrix(joint, 1.0, dim_cap=3)
    # 4 generator entries x 2 vertices + 2 adjacency entries = 10 nonzeros
    monkeypatch.setattr(exact, "JOINT_NNZ_CAP", 9)
    with pytest.raises(ValueError, match="10 nonzeros"):
        assemble_stability_matrix(joint, 1.0)


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
    joint = build_joint_chain(single_edge_spec(p=1.0, q=3.0))
    assert expected_lambda_max(joint) == pytest.approx(0.25, abs=1e-13)


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
    edge_counts = np.array([a.sum() / 2.0 for a in joint.configs])
    mean_edges = float(joint.stationary @ edge_counts)
    assert mean_edges == pytest.approx(0.5 + 0.75, abs=1e-13)


def test_dump_stability_matrix_round_trip(tmp_path):
    from scipy import io

    joint = build_joint_chain(single_edge_spec())
    mat = assemble_stability_matrix(joint, 1.0)
    path = tmp_path / "stability_matrix.mtx"
    dump_stability_matrix(mat, path)
    back = io.mmread(path).toarray()
    assert np.allclose(back, mat.toarray(), atol=1e-15)
