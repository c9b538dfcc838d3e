import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epinet.netmodel import (
    DENSE_N_CAP,
    EdgeChain,
    EpidemicParams,
    SpecFormatError,
    SwitchedNetworkSpec,
    WeightedEdgeChain,
    edge_moments,
    edge_process,
    spec_from_dict,
    stationary_edge_prob,
    stationary_stats,
)

rates = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def test_edge_chain_normalizes_vertex_order():
    e = EdgeChain(i=5, j=2, p_rate=1.0, q_rate=2.0)
    assert (e.i, e.j) == (2, 5)
    assert repr(e) == "EdgeChain(i=2, j=5, p_rate=1.0, q_rate=2.0)"
    assert e == EdgeChain(i=2, j=5, p_rate=1.0, q_rate=2.0)
    assert hash(e) == hash(EdgeChain(i=2, j=5, p_rate=1.0, q_rate=2.0))
    w = WeightedEdgeChain(i=3, j=1, states=(0.0, 1.0), generator=((-1, 1), (2, -2)))
    assert (w.i, w.j) == (1, 3)
    assert repr(w) == ("WeightedEdgeChain(i=1, j=3, states=(0.0, 1.0), "
                       "generator=((-1.0, 1.0), (2.0, -2.0)))")
    assert w == WeightedEdgeChain(i=1, j=3, states=(0, 1), generator=((-1, 1), (2, -2)))
    assert hash(w) == hash(WeightedEdgeChain(1, 3, (0, 1), ((-1, 1), (2, -2))))
    # the one endpoint rule holds for both kinds
    for i, j, message in ((2, 2, "self-loop"), (0, 2, "must be >= 1")):
        with pytest.raises(ValueError, match=message):
            WeightedEdgeChain(i=i, j=j, states=(1.0,), generator=((0.0,),))


def test_edge_chain_rejects_bad_input():
    with pytest.raises(ValueError):
        EdgeChain(i=1, j=1, p_rate=1.0, q_rate=1.0)
    with pytest.raises(ValueError):
        EdgeChain(i=0, j=2, p_rate=1.0, q_rate=1.0)
    with pytest.raises(ValueError):
        EdgeChain(i=1, j=2, p_rate=-1.0, q_rate=1.0)
    with pytest.raises(ValueError):
        EdgeChain(i=1, j=2, p_rate=0.0, q_rate=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"edge \(1, 2\): rates must be finite"):
            EdgeChain(i=1, j=2, p_rate=bad, q_rate=1.0)
        with pytest.raises(ValueError, match="finite"):
            EdgeChain(i=1, j=2, p_rate=1.0, q_rate=bad)
    # each rate is finite but p + q overflows, which made p / (p + q) = 0
    with pytest.raises(ValueError, match="their sum"):
        EdgeChain(i=1, j=2, p_rate=1e308, q_rate=1e308)


def test_stationary_edge_prob_hand_value():
    e = EdgeChain(i=1, j=2, p_rate=2.0, q_rate=3.0)
    assert stationary_edge_prob(e) == pytest.approx(0.4, abs=0)


@given(p=rates, q=rates)
def test_stationary_edge_prob_in_unit_interval(p, q):
    prob = stationary_edge_prob(EdgeChain(i=1, j=2, p_rate=p, q_rate=q))
    assert 0.0 <= prob <= 1.0
    assert prob == pytest.approx(p / (p + q), rel=1e-12)


def test_edge_process_binary_layout():
    proc = edge_process(EdgeChain(i=1, j=2, p_rate=1.0, q_rate=4.0))
    assert np.array_equal(proc.values, [0.0, 1.0])
    assert proc.stationary == pytest.approx([0.8, 0.2], abs=1e-14)
    assert proc.rate_matrix[0, 1] == 1.0 and proc.rate_matrix[1, 0] == 4.0
    assert np.allclose(proc.rate_matrix.sum(axis=1), 0.0)


def test_weighted_chain_two_state_matches_binary():
    w = WeightedEdgeChain(
        i=1, j=2, states=(0.0, 1.0), generator=((-1.5, 1.5), (0.5, -0.5))
    )
    mean, var = edge_moments(w)
    assert mean == pytest.approx(0.75, abs=1e-12)
    assert var == pytest.approx(0.75 * 0.25, abs=1e-12)


def test_weighted_chain_moments_three_states():
    # birth-death chain over weights (0, 0.5, 1); stationary law solves
    # detailed balance: pi_0 * 2 = pi_1 * 1, pi_1 * 1 = pi_2 * 2
    gen = ((-2.0, 2.0, 0.0), (1.0, -2.0, 1.0), (0.0, 2.0, -2.0))
    w = WeightedEdgeChain(i=1, j=2, states=(0.0, 0.5, 1.0), generator=gen)
    proc = edge_process(w)
    assert proc.stationary == pytest.approx([0.25, 0.5, 0.25], abs=1e-10)
    mean, var = edge_moments(w)
    assert mean == pytest.approx(0.5, abs=1e-10)
    assert var == pytest.approx(0.125, abs=1e-10)


def test_weighted_chain_validation():
    with pytest.raises(ValueError, match="weight"):
        WeightedEdgeChain(i=1, j=2, states=(0.0, 1.5), generator=((-1, 1), (1, -1)))
    with pytest.raises(ValueError, match="sum to zero"):
        WeightedEdgeChain(i=1, j=2, states=(0.0, 1.0), generator=((-1, 2), (1, -1)))
    with pytest.raises(ValueError, match="nonnegative"):
        WeightedEdgeChain(
            i=1, j=2, states=(0.0, 0.5, 1.0),
            generator=((-1, 2, -1), (1, -2, 1), (0, 1, -1)),
        )
    with pytest.raises(ValueError, match="2x2"):
        WeightedEdgeChain(i=1, j=2, states=(0.0, 1.0), generator=((-1, 1),))
    with pytest.raises(ValueError, match="finite"):
        WeightedEdgeChain(
            i=1, j=2, states=(0.0, 1.0), generator=((-math.inf, math.inf), (1, -1))
        )


def test_weighted_chain_requires_unique_stationary_law():
    # two disconnected recurrent classes
    gen = (
        (-1.0, 1.0, 0.0, 0.0),
        (1.0, -1.0, 0.0, 0.0),
        (0.0, 0.0, -2.0, 2.0),
        (0.0, 0.0, 2.0, -2.0),
    )
    with pytest.raises(ValueError, match="unique stationary"):
        WeightedEdgeChain(i=1, j=2, states=(0.0, 0.25, 0.5, 1.0), generator=gen)


def test_spec_sorts_edges_and_validates():
    e21 = EdgeChain(i=2, j=3, p_rate=1.0, q_rate=1.0)
    e12 = EdgeChain(i=1, j=2, p_rate=1.0, q_rate=1.0)
    spec = SwitchedNetworkSpec(n=3, edges=(e21, e12))
    assert [(e.i, e.j) for e in spec.edges] == [(1, 2), (2, 3)]
    with pytest.raises(ValueError, match="duplicate"):
        SwitchedNetworkSpec(n=3, edges=(e12, EdgeChain(2, 1, 1.0, 1.0)))
    with pytest.raises(ValueError, match="beyond"):
        SwitchedNetworkSpec(n=2, edges=(e21,))
    with pytest.raises(ValueError, match="mix"):
        SwitchedNetworkSpec(
            n=3,
            edges=(
                e12,
                WeightedEdgeChain(
                    i=2, j=3, states=(0.0, 1.0), generator=((-1, 1), (1, -1))
                ),
            ),
        )


def test_spec_kind():
    assert SwitchedNetworkSpec(n=2, edges=()).kind == "binary"
    w = WeightedEdgeChain(i=1, j=2, states=(0.5,), generator=((0.0,),))
    assert SwitchedNetworkSpec(n=2, edges=(w,)).kind == "weighted"


def test_epidemic_params_validation():
    with pytest.raises(ValueError):
        EpidemicParams(beta=0.0, delta=1.0)
    with pytest.raises(ValueError):
        EpidemicParams(beta=1.0, delta=-2.0)
    assert EpidemicParams(beta=2.0, delta=5.0).threshold == pytest.approx(2.5)


def test_stationary_stats_hand_example():
    spec = SwitchedNetworkSpec(
        n=3,
        edges=(
            EdgeChain(i=1, j=2, p_rate=1.0, q_rate=1.0),
            EdgeChain(i=1, j=3, p_rate=1.0, q_rate=3.0),
        ),
    )
    stats = stationary_stats(spec)
    assert stats.abar[0, 1] == pytest.approx(0.5)
    assert stats.abar[0, 2] == pytest.approx(0.25)
    assert stats.abar[1, 2] == 0.0
    assert np.allclose(stats.abar, stats.abar.T)
    assert np.all(np.diag(stats.abar) == 0.0)
    # row 1 carries both variances: 0.25 + 0.1875
    assert stats.delta_uncertainty == pytest.approx(0.4375, abs=1e-14)
    assert stats.kind == "binary"


def test_stationary_stats_edgeless():
    stats = stationary_stats(SwitchedNetworkSpec(n=4, edges=()))
    assert stats.delta_uncertainty == 0.0
    assert np.all(stats.abar == 0.0)


def test_stationary_stats_dense_cap():
    # refused before any n x n array: a 10 001-vertex abar alone is 800 MB
    spec = SwitchedNetworkSpec(
        n=DENSE_N_CAP + 1, edges=(EdgeChain(i=1, j=2, p_rate=1.0, q_rate=1.0),)
    )
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense cap 10000"):
            stationary_stats(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_delta_uncertainty_is_permutation_invariant(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = data.draw(st.sets(st.sampled_from(pairs), min_size=1))
    edges = tuple(
        EdgeChain(i=i, j=j, p_rate=data.draw(rates), q_rate=data.draw(rates))
        for (i, j) in sorted(chosen)
    )
    perm = data.draw(st.permutations(range(1, n + 1)))
    relabeled = tuple(
        EdgeChain(
            i=perm[e.i - 1], j=perm[e.j - 1], p_rate=e.p_rate, q_rate=e.q_rate
        )
        for e in edges
    )
    s1 = stationary_stats(SwitchedNetworkSpec(n=n, edges=edges))
    s2 = stationary_stats(SwitchedNetworkSpec(n=n, edges=relabeled))
    assert s1.delta_uncertainty == pytest.approx(s2.delta_uncertainty, rel=1e-12)


def test_json_round_trip_binary():
    spec = SwitchedNetworkSpec(
        n=3,
        edges=(
            EdgeChain(i=1, j=2, p_rate=1.5, q_rate=0.5),
            EdgeChain(i=2, j=3, p_rate=0.25, q_rate=2.0),
        ),
    )
    data = {"n": 3, "edges": [{"i": 2, "j": 3, "p": 0.25, "q": 2.0},
                              {"i": 2, "j": 1, "p": 1.5, "q": 0.5}]}
    assert spec_from_dict(json.loads(json.dumps(data))) == spec


def test_json_round_trip_weighted():
    spec = SwitchedNetworkSpec(
        n=2,
        edges=(
            WeightedEdgeChain(
                i=1,
                j=2,
                states=(0.0, 0.5, 1.0),
                generator=(
                    (-2.0, 2.0, 0.0),
                    (1.0, -2.0, 1.0),
                    (0.0, 2.0, -2.0),
                ),
            ),
        ),
    )
    data = {"n": 2, "edges": [{"i": 1, "j": 2, "states": [0.0, 0.5, 1.0],
                               "generator": [[-2, 2, 0], [1, -2, 1], [0, 2, -2]]}]}
    assert spec_from_dict(json.loads(json.dumps(data))) == spec


def test_spec_from_dict_diagnostics():
    with pytest.raises(SpecFormatError, match="'n'"):
        spec_from_dict({"edges": []})
    with pytest.raises(SpecFormatError, match="edges\\[0\\]"):
        spec_from_dict({"n": 2, "edges": [{"i": 1}]})
    with pytest.raises(SpecFormatError, match="edges\\[1\\]"):
        spec_from_dict(
            {"n": 3, "edges": [{"i": 1, "j": 2, "p": 1, "q": 1}, {"i": 2, "j": 3}]}
        )
    with pytest.raises(SpecFormatError):
        spec_from_dict({"n": "many", "edges": []})
    # non-integral numbers and booleans are refused, not truncated
    edge = {"i": 1, "j": 3, "p": 1, "q": 1}
    for bad, where in (
        ({"n": 3.9, "edges": [edge]}, "'n'"),
        ({"n": True, "edges": []}, "'n'"),
        ({"n": 3, "edges": [{**edge, "i": 1.7}]}, "'i'"),
        ({"n": 3, "edges": [{**edge, "j": 3.2}]}, "'j'"),
        ({"n": 3, "edges": [{**edge, "i": True}]}, "'i'"),
        ({"n": float("inf"), "edges": []}, "'n'"),
    ):
        with pytest.raises(SpecFormatError, match=f"{where} must be an integer"):
            spec_from_dict(bad)
    spec = spec_from_dict({"n": 3.0, "edges": [{**edge, "i": 1.0, "j": 3}]})
    assert spec.n == 3 and (spec.edges[0].i, spec.edges[0].j) == (1, 3)
    with pytest.raises(SpecFormatError):
        spec_from_dict([1, 2, 3])
    # a JSON integer too large for a float
    with pytest.raises(SpecFormatError, match="edges\\[0\\]"):
        spec_from_dict({"n": 2, "edges": [{"i": 1, "j": 2, "p": 10**400, "q": 1}]})
    # every object has a fixed set of fields: a misspelled, extra or missing
    # one is refused and named, never dropped or defaulted
    weighted = {"i": 1, "j": 3, "states": [0, 1], "generator": [[-1, 1], [1, -1]]}
    for bad, message in (
        ({"n": 3, "edge": [edge]}, "top level: unknown field 'edge'"),
        ({"n": 3}, "top level: missing field 'edges'"),
        ({"n": 3, "edges": [], "switch_scale": 1.0},
         "top level: unknown field 'switch_scale'"),
        ({"n": 3, "edges": [edge, {**edge, "j": 2, "weight": 0.5}]},
         "edges\\[1\\]: unknown field 'weight'"),
        ({"n": 3, "edges": [{**weighted, "p": 1, "q": 1}]},
         "edges\\[0\\]: unknown field 'p'"),
        ({"n": 3, "edges": [{"i": 1, "j": 3, "states": [1.0]}]},
         "edges\\[0\\]: missing field 'generator'"),
        ({"n": 3, "edges": [7]}, "edges\\[0\\]: expected an object"),
    ):
        with pytest.raises(SpecFormatError, match=message):
            spec_from_dict(bad)
