import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epinet import exact, spectral
from epinet.ensembles import summarize
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
    stationary_stats,
)
from epinet.oracle import (
    dense_abar,
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


def test_joint_chain_reads_the_spec_numbering():
    # the exact route numbers no vertex itself: vertices 3 and 8 of 10 are 0, 1
    spec = SwitchedNetworkSpec(n=10, edges=(EdgeChain(i=8, j=3, p_rate=1.0, q_rate=2.0),))
    joint = build_joint_chain(spec)
    assert joint.ends is spec.local and not joint.ends.flags.writeable
    assert joint.ends.tolist() == [[0, 1]] and joint.touched == 2


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


def test_refusal_stops_at_the_edge_that_crosses_the_cap():
    # 50 * 2^14 rows pass the cap at the 14th of 1000 edges, so the refusal
    # reads the states of no edge past it; the message still counts all 1000
    reads = []

    class Counting:
        def __init__(self, edge):
            self._edge = edge

        def __getattr__(self, name):
            if name == "values":
                reads.append(self._edge)
            return getattr(self._edge, name)

    spec = _binary_spec(50, 1000)
    counted = SimpleNamespace(n=spec.n, edges=tuple(map(Counting, spec.edges)),
                              local=spec.local)
    with pytest.raises(ValueError, match=r"\(1000 edges;"):
        build_joint_chain(counted)
    assert 0 < len(reads) <= 20


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


def _on_touched(dense, joint):
    """An nN x nN matrix of the oracle on the rows and columns of the k
    vertices some edge touches, the operator's k N rows: another vertex's
    rows and columns hold only its decoupled kron(Pi^T, I) block."""
    touched = np.unique([(e.i - 1, e.j - 1) for e in joint.edges])
    rows = (np.arange(joint.n_configs)[:, None] * joint.n + touched).ravel()
    return dense[np.ix_(rows, rows)]


def _operator_reference(op, joint, beta):
    """The oracle's dense M on the touched vertices, or D^-1 M D, D =
    diag(sqrt pi) x I_k, when the operator applies the symmetrized form of
    chains with every pi > 0."""
    dense = _on_touched(dense_stability_matrix(joint, beta), joint)
    if not op.symmetric:
        return dense
    root = np.repeat(np.sqrt(joint.stationary), len(dense) // joint.n_configs)
    return dense * root / root[:, None]


@pytest.mark.parametrize("seed", range(100))
def test_nonzero_count_matches_assembly(seed):
    # the operator applied to the identity is the oracle's dense Kronecker
    # assembly M on the rows and columns of the vertices some edge touches
    # (a spec with an isolated vertex checks the reduction), or D^-1 M D,
    # D = diag(sqrt pi) x I_k, when it applies the symmetrized form and every
    # pi > 0: nonzero for nonzero and entry for entry, on binary and weighted
    # specs with absorbing states, p = 0 chains, single-state chains and zero
    # weights.  A one-way link leaves a state
    # of weight 0 and no D (the solved law may read it as rounding noise);
    # the symmetrized form drops those links and keeps M's spectrum.  The
    # column-sum bound is the largest column sum over the enumerated
    # configurations, bit for bit
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
    dense = _on_touched(dense_stability_matrix(joint, 0.7), joint)
    scale = max(1.0, op.entry_max)
    if seed % 2 == 0:
        # every binary edge, frozen (p = 0 or q = 0) or not, is a tree
        assert op.symmetric
    if op.symmetric:
        assert np.array_equal(mat, mat.T)
    one_way = any(np.any((e.rate_matrix > 0) != (e.rate_matrix.T > 0)) for e in edges)
    if op.symmetric and one_way:
        # a repeated eigenvalue of two blocks can make a Jordan block of M,
        # which eigvals splits by about sqrt(eps)
        spectrum = np.linalg.eigvals(dense)
        assert np.abs(spectrum.imag).max() <= 1e-7 * scale
        assert np.abs(np.linalg.eigvalsh(mat) - np.sort(spectrum.real)).max() <= 1e-7 * scale
    else:
        dense = _operator_reference(op, joint, 0.7)
        assert np.count_nonzero(mat) == np.count_nonzero(dense)
        assert np.abs(mat - dense).max() <= 1e-14 * scale
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
        # binary edges with positive rates and birth-death chains are
        # reversible, so the operator applies D^-1 M D
        assert op.symmetric
        dense = _operator_reference(op, joint, 0.7)
        x = rng.standard_normal((op.shape[0], 3))
        assert np.abs(op @ np.eye(op.shape[0]) - dense).max() <= 1e-14 * op.entry_max
        # a block of columns is the product with each column
        block = op @ x
        for c in range(3):
            assert np.allclose(block[:, c], op.matvec(x[:, c]), rtol=0, atol=1e-13)
        assert np.allclose(block, dense @ x, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dims, states", [
    ((2,) * 9, [8, 8, 8]),  # the greedy's 4 + 4 + 1 edges, evened out
    ((2,) * 7, [16, 8]),
    ((2,) * 8, [16, 16]),
    ((3, 3, 3), [9, 3]),
    ((2, 17, 2), [2, 17, 2]),  # an edge past the cap is a group of its own
])
def test_generator_groups_keep_the_greedy_count_with_even_states(dims, states):
    # each group is a run of consecutive edges: as many groups as the greedy
    # makes under GROUP_STATES, the largest as small as that count allows
    pairs = itertools.combinations(range(1, 6), 2)
    spec = SwitchedNetworkSpec(n=5, edges=tuple(
        _birth_death_chain(i, j, k) for (i, j), k in zip(pairs, dims)))
    joint = build_joint_chain(spec)
    op = StabilityOperator(joint, 0.7)
    assert [len(g) for _, g in op._groups] == states
    x = np.random.default_rng(0).standard_normal((op.shape[0], 3))
    assert np.allclose(op @ x, _operator_reference(op, joint, 0.7) @ x, rtol=0, atol=1e-12)


def test_krylov_eta_matches_dense_reference():
    # every spec of the default oracle suite, whose eta_beta1 is the dense
    # reference (eigvalsh of the symmetrized matrix, as every spec is
    # binary), plus one 5-vertex, 9-edge spec (2560 rows)
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


@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
def test_lanczos_eta_matches_dense_reference(scale):
    # random binary specs with every rate scaled, at three betas: the
    # Davidson route against the oracle's dense abscissa
    rng = np.random.default_rng(5)
    for _ in range(30):
        spec = random_small_spec(rng)
        joint = build_joint_chain(SwitchedNetworkSpec(n=spec.n, edges=tuple(
            EdgeChain(i=e.i, j=e.j, p_rate=e.p_rate * scale, q_rate=e.q_rate * scale)
            for e in spec.edges)))
        for beta in (0.1, 1.0, 10.0):
            res = exact_mean_stable(joint, EpidemicParams(beta=beta, delta=1.0))
            dense = dense_abscissa(joint, beta)
            assert res.solver == "davidson" and res.matvecs > 0
            assert abs(res.eta - dense) <= 1e-10 * max(1.0, abs(dense))


def _ladder_size_joint():
    # 5 vertices and 8 binary edges drawn by default_rng(8): 1280 rows
    rng = np.random.default_rng(8)
    pairs = list(itertools.combinations(range(1, 6), 2))
    edges = tuple(
        EdgeChain(i=i, j=j, p_rate=float(p), q_rate=float(q))
        for (i, j), (p, q) in zip(pairs[:8], rng.uniform(0.1, 5.0, size=(8, 2)))
    )
    return build_joint_chain(SwitchedNetworkSpec(n=5, edges=edges))


def test_lanczos_decomposes_the_projected_matrix_at_a_stride(monkeypatch):
    # Lanczos on a ladder-size operator tests its Ritz residual at every
    # LANCZOS_TEST_STRIDE-th basis and a full one, not at every product,
    # and still meets the dense reference
    calls = []
    eigh = np.linalg.eigh

    def counting(a):
        calls.append(a.shape)
        return eigh(a)

    joint = _ladder_size_joint()
    op = StabilityOperator(joint, 0.5)
    monkeypatch.setattr(spectral.np.linalg, "eigh", counting)
    eta = spectral.lanczos_abscissa(op)
    assert op.matvecs > spectral.LANCZOS_BASIS
    assert 0 < len(calls) < op.matvecs / 3
    dense = dense_abscissa(joint, 0.5)
    assert abs(eta - dense) <= 1e-12 * max(1.0, abs(dense))


def test_exact_route_preconditions_with_the_generator():
    # the same operator: the generator's spectrum stretches to about -60
    # against a top gap near 0.5, so Lanczos takes 73 products; Davidson,
    # preconditioned by the generator's shifted inverse, takes at most 25
    joint = _ladder_size_joint()
    res = exact_mean_stable(joint, EpidemicParams(beta=0.5, delta=1.0))
    assert res.solver == "davidson" and res.matvecs <= 25
    dense = dense_abscissa(joint, 0.5)
    assert abs(res.eta - dense) <= 1e-12 * max(1.0, abs(dense))


def _drawn_binary_spec(n, m, seed=0):
    """m of the pairs on n vertices drawn by default_rng(seed), sorted, with
    p, q ~ U[0.1, 5] per pair in that order."""
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = []
    for k in sorted(rng.choice(len(pairs), m, replace=False)):
        p, q = rng.uniform(0.1, 5.0, 2)
        edges.append(EdgeChain(i=pairs[k][0], j=pairs[k][1], p_rate=float(p), q_rate=float(q)))
    return SwitchedNetworkSpec(n=n, edges=tuple(edges))


def test_davidson_agrees_with_lanczos():
    # a 57 344-row binary spec (7 vertices, 13 pairs) and a birth-death spec
    # of 3 to 7 states per edge (10 080 rows): the two solvers on one operator
    birth_death = SwitchedNetworkSpec(n=4, edges=tuple(
        _birth_death_chain(i, j, k)
        for (i, j), k in zip([(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)], [6, 5, 4, 3, 7])))
    for spec in (_drawn_binary_spec(7, 13), birth_death):
        joint = build_joint_chain(spec)
        davidson = spectral.davidson_abscissa(StabilityOperator(joint, 0.5))
        lanczos = spectral.lanczos_abscissa(StabilityOperator(joint, 0.5))
        assert abs(davidson - lanczos) <= 1e-12 * max(1.0, abs(lanczos))


def test_near_frozen_edges_keep_the_top_eigenvalue():
    # edges with p = 1e-105 to 1e-298 leave S all but reducible: blocks of
    # configurations with such an edge on have their own, lower tops.  The
    # first spec's start vector reads -6.9 and the top is 0.026; the second
    # is an expected-degree triple (degrees 1, 3e-149, 3e-149) as an edge
    # list, whose start vector's Rayleigh quotient sits on an eigenvalue of
    # the generator.  Shifted by a theta below 0, the preconditioner drew
    # Davidson to -2.77 and -0.5
    cases = [
        (4, [(1, 3, 6.0, 1.2), (1, 4, 6.2, 0.2), (2, 3, 1e-141, 2.8), (2, 4, 1e-105, 4.9),
             (3, 4, 0.36, 0.72)], 0.018),
        (3, [(1, 2, 3e-149, 1.0), (1, 3, 3e-149, 1.0), (2, 3, 9e-298, 1.0)], 0.5),
    ]
    for n, edges, beta in cases:
        joint = build_joint_chain(SwitchedNetworkSpec(n=n, edges=tuple(
            EdgeChain(i=i, j=j, p_rate=p, q_rate=q) for i, j, p, q in edges)))
        res = exact_mean_stable(joint, EpidemicParams(beta=beta, delta=1.0))
        dense = dense_abscissa(joint, beta)
        assert res.solver == "davidson"
        assert abs(res.eta - dense) <= 1e-10 * max(1.0, abs(dense))


def test_cap_instance_is_decided_in_few_products():
    # 16 binary edges on 8 vertices: 524 288 rows, the row cap.  The value is
    # Lanczos's, which took 151 products
    joint = build_joint_chain(_drawn_binary_spec(8, 16))
    assert joint.n * joint.n_configs == exact.JOINT_DIM_CAP
    res = exact_mean_stable(joint, EpidemicParams(beta=0.5, delta=1.5))
    assert res.solver == "davidson" and res.matvecs <= 50
    assert res.eta == pytest.approx(1.0777592946082906, rel=1e-12)


def _cyclic_chain(i, j):
    rates = ((-1.0, 1.0, 0.0), (0.0, -2.0, 2.0), (3.0, 0.0, -3.0))
    return WeightedEdgeChain(i=i, j=j, states=(0.0, 0.5, 1.0), generator=rates)


def test_irreversible_chains_take_arpack(monkeypatch):
    # a cyclic weighted chain breaks detailed balance whatever its rates, so
    # it goes through eigs, once; a frozen edge, whose state of stationary
    # weight 0 splits its chain into balanced blocks, and birth-death chains
    # never call it.  Each matches the dense reference
    import scipy.sparse.linalg as sla

    calls = []
    eigs = sla.eigs

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return eigs(*args, **kwargs)

    monkeypatch.setattr(sla, "eigs", counting)
    specs = {
        "cyclic": (SwitchedNetworkSpec(n=3, edges=(
            _cyclic_chain(1, 2), _birth_death_chain(2, 3, 2))), 1),
        "frozen": (SwitchedNetworkSpec(n=3, edges=(
            EdgeChain(i=1, j=2, p_rate=0.0, q_rate=0.01),
            EdgeChain(i=2, j=3, p_rate=1.0, q_rate=2.0))), 0),
        "reversible": (SwitchedNetworkSpec(n=3, edges=(
            _birth_death_chain(1, 2, 4), _birth_death_chain(2, 3, 2))), 0),
    }
    for name, (spec, expected) in specs.items():
        calls.clear()
        joint = build_joint_chain(spec)
        res = exact_mean_stable(joint, EpidemicParams(beta=0.7, delta=1.0))
        assert len(calls) == expected, name
        assert res.solver == ("arpack" if expected else "davidson")
        dense = dense_abscissa(joint, 0.7)
        assert abs(res.eta - dense) <= 1e-10 * max(1.0, abs(dense)), name


@pytest.mark.parametrize("ratio", [1e5, 1e6])
def test_lopsided_binary_edge_stays_reversible(ratio):
    # p / q up to 1e6: the route reads only the rates' pattern, so a lopsided
    # edge stays symmetric (a balance test on its law once refused it)
    spec = SwitchedNetworkSpec(n=3, edges=(
        EdgeChain(i=1, j=2, p_rate=ratio, q_rate=1.0),
        EdgeChain(i=2, j=3, p_rate=3.0, q_rate=0.5),
        EdgeChain(i=1, j=3, p_rate=0.2, q_rate=1e3),
    ))
    joint = build_joint_chain(spec)
    res = exact_mean_stable(joint, EpidemicParams(beta=0.5, delta=1.0))
    dense = dense_abscissa(joint, 0.5)
    assert res.solver == "davidson"
    assert abs(res.eta - dense) <= 1e-10 * max(1.0, abs(dense))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_frozen_edge_eta_is_beta_less_q(n):
    # p = 0: the present state is transient and its block holds eta = beta - q.
    # Spare vertices put the start vector's Rayleigh quotient at or below 0.
    # Read as 0, it left the absorbing block's zero modes a preconditioner gap
    # of eps, and Davidson stopped on one of them: 7.8e-30 on 4 vertices, and
    # 1.6e-30 on 3 at beta 1.18
    spec = SwitchedNetworkSpec(n=n, edges=(EdgeChain(i=1, j=2, p_rate=0.0, q_rate=1.0),))
    res = exact_mean_stable(build_joint_chain(spec), EpidemicParams(beta=1.5, delta=0.3))
    assert res.solver == "davidson"
    assert abs(res.eta - 0.5) <= 1e-12
    assert res.mean_stable is False


def _stiff_birth_death_chain(rng, i, j):
    """A birth-death chain of 2-4 states with weights U[0, 1] and rates
    10^U[-3, 3]."""
    k = int(rng.integers(2, 5))
    up, down = 10.0 ** rng.uniform(-3.0, 3.0, (2, k - 1))
    rates = np.diag(up, 1) + np.diag(down, -1)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return WeightedEdgeChain(i=i, j=j, states=tuple(rng.uniform(0.0, 1.0, k)),
                             generator=tuple(map(tuple, rates)))


def test_stiff_birth_death_chains_take_the_symmetric_route():
    # a path of states balances whatever its rates; a float test of detailed
    # balance on the solved law refused 63 of these 300 chains.  Triangles of
    # them match the dense reference
    rng = np.random.default_rng(0)
    chains = [_stiff_birth_death_chain(rng, i, j) for i, j in [(1, 2), (1, 3), (2, 3)] * 100]
    for chain in chains:
        joint = build_joint_chain(SwitchedNetworkSpec(n=3, edges=(chain,)))
        assert StabilityOperator(joint, 1.0).symmetric
    for start in range(0, len(chains), 3):
        joint = build_joint_chain(SwitchedNetworkSpec(n=3, edges=tuple(chains[start:start + 3])))
        beta = float(10.0 ** rng.uniform(-1.0, 1.0))
        res = exact_mean_stable(joint, EpidemicParams(beta=beta, delta=1.0))
        dense = dense_abscissa(joint, beta)
        assert res.solver == "davidson"
        assert abs(res.eta - dense) <= 1e-10 * max(1.0, abs(dense))


def _mixed_rate(rng):
    """0, 10^U[-300, -100] or 10^U[-4, 4], with probability 1/4, 1/8, 5/8."""
    u = rng.random()
    if u < 0.25:
        return 0.0
    return float(10.0 ** (rng.uniform(-300.0, -100.0) if u < 0.375 else rng.uniform(-4.0, 4.0)))


def _drawn_specs():
    """150 specs of 2-4 vertices and at most 2500 rows, each with a beta
    10^U[-3, 2] and whether it is binary: half binary with frozen,
    underflowing and stiff rates, half weighted chains of 1-4 states with
    absorbing states and cycles.  An edge with p = q = 0, which has no unique
    law, gets its q redrawn; one that moves only at 1e-100 or slower stays."""
    rng = np.random.default_rng(0)
    for _ in range(150):
        while True:
            n = int(rng.integers(2, 5))
            pairs = [pair for pair in itertools.combinations(range(1, n + 1), 2)
                     if rng.random() < 0.5] or [(1, 2)]
            binary = rng.random() < 0.5
            if binary:
                edges = []
                for i, j in pairs:
                    p, q = _mixed_rate(rng), _mixed_rate(rng)
                    if p + q == 0:
                        q = float(10.0 ** rng.uniform(-4.0, 4.0))
                    edges.append(EdgeChain(i=i, j=j, p_rate=p, q_rate=q))
            else:
                edges = [_random_chain(rng, i, j) for i, j in pairs]
            spec = SwitchedNetworkSpec(n=n, edges=tuple(edges))
            joint = build_joint_chain(spec)
            if n * joint.n_configs <= 2500:
                break
        yield spec, joint, binary, float(10.0 ** rng.uniform(-3.0, 2.0))


def test_exact_route_matches_the_dense_reference_on_drawn_specs():
    # every binary spec of _drawn_specs takes Davidson; the bracket holds the
    # dense value, to its rounding, and eta lies inside the bracket
    for _, joint, binary, beta in _drawn_specs():
        res = exact_mean_stable(joint, EpidemicParams(beta=beta, delta=1.0))
        dense = dense_abscissa(joint, beta)
        assert res.solver == "davidson" or not binary
        assert abs(res.eta - dense) <= 1e-10 * max(1.0, abs(dense))
        slack = 1e-12 * max(1.0, abs(dense))
        assert res.lo - slack <= dense <= res.hi + slack
        assert res.lo <= res.eta <= res.hi


def test_certificate_bounds_lambda_max_abar_from_above_on_drawn_specs():
    # the certificate's lambda_max(abar) lies between the dense top
    # eigenvalue and abar's largest row sum, on frozen, stiff and weighted
    # specs alike (those with every mean 0 read 0)
    for spec, *_ in _drawn_specs():
        abar = dense_abar(stationary_stats(spec), spec.n)
        lam = summarize(spec).lambda_max_abar
        assert np.linalg.eigvalsh(abar)[-1] <= lam <= abar.sum(axis=1).max()


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
    # delta = eta lies inside the bracket eta -/+ the stop tolerance (1e-14
    # here), so it is undecided; 1e-12 above it, the bracket is below delta
    joint = build_joint_chain(single_edge_spec())
    eta = exact_mean_stable(joint, EpidemicParams(beta=1.0, delta=1.0)).eta
    at = exact_mean_stable(joint, EpidemicParams(beta=1.0, delta=eta))
    assert at.mean_stable is None and at.lo < eta < at.hi
    above = exact_mean_stable(joint, EpidemicParams(beta=1.0, delta=eta + 1e-12))
    assert above.mean_stable is True


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


def test_eta_past_column_sum_bound_is_refused(monkeypatch):
    # 0 <= eta <= beta * max_k max_v sum_u A_k[u, v] = 1 on this path, and
    # Davidson's stop tolerance for p = q = 1e20 on edge (1, 2), 1e6, is far
    # wider: whatever value it reads, the bracket is the bound itself, and a
    # value that narrows nothing is not reported as eta
    stiff = SwitchedNetworkSpec(
        n=3,
        edges=(
            EdgeChain(i=1, j=2, p_rate=1e20, q_rate=1e20),
            EdgeChain(i=2, j=3, p_rate=1.0, q_rate=1.0),
        ),
    )
    res = exact_mean_stable(build_joint_chain(stiff), EpidemicParams(beta=0.5, delta=1.0))
    assert (res.eta, res.lo, res.hi) == (None, 0.0, 1.0)
    assert res.mean_stable is None and "within 1e+06 of all of [0, 1]" in res.note
    # a value past the bound by more than the tolerance is refused as eta:
    # the bracket stays [0, bound] and the note quotes the value
    monkeypatch.setattr(spectral, "davidson_abscissa", lambda op: 2.0)
    res = exact_mean_stable(build_joint_chain(single_edge_spec()),
                            EpidemicParams(beta=1.0, delta=1.5))
    assert (res.eta, res.lo, res.hi, res.mean_stable) == (None, 0.0, 1.0, True)
    assert "davidson value 2 lies more than its tolerance" in res.note
    monkeypatch.undo()
    # a frozen complete graph is regular and sits on the bound; Davidson
    # reads it to rounding, where ARPACK was off by up to 6.4e-7 at rates 1e6
    for n in (3, 4, 5):
        edges = tuple(
            EdgeChain(i=i, j=j, p_rate=1e6, q_rate=0.0)
            for i, j in itertools.combinations(range(1, n + 1), 2)
        )
        joint = build_joint_chain(SwitchedNetworkSpec(n=n, edges=edges))
        for beta in (1e-3, 0.5, 7.3):
            eta = exact_mean_stable(joint, EpidemicParams(beta=beta, delta=1.0)).eta
            assert eta == pytest.approx(beta * (n - 1), rel=1e-12)
    # K4 of 3-state cyclic chains whose states all weigh 1, rates 1e6: ARPACK
    # reads 1.4e-8 relative above the bound 3e-3, within its tolerance 6e-8,
    # and eta is clamped into its bracket, onto the bound
    rates = ((-1e6, 1e6, 0.0), (0.0, -1e6, 1e6), (1e6, 0.0, -1e6))
    joint = build_joint_chain(SwitchedNetworkSpec(n=4, edges=tuple(
        WeightedEdgeChain(i=i, j=j, states=(1.0, 1.0, 1.0), generator=rates)
        for i, j in itertools.combinations(range(1, 5), 2))))
    res = exact_mean_stable(joint, EpidemicParams(beta=1e-3, delta=1.0))
    assert res.solver == "arpack" and res.note is None
    assert res.eta == res.hi == 3e-3 and res.mean_stable is True


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
    assert exact_mean_stable(sym, params).mean_stable is False
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
    assert exact_mean_stable(fast, params).mean_stable is True


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
