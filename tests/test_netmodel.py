import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epinet.netmodel import (
    EdgeChain,
    EpidemicParams,
    SpecFormatError,
    SwitchedNetworkSpec,
    WeightedEdgeChain,
    edge_moments,
    max_vertex_weight,
    spec_from_dict,
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
    assert e.stationary[1] == pytest.approx(0.4, abs=0)


@given(p=rates, q=rates)
def test_stationary_edge_prob_in_unit_interval(p, q):
    prob = EdgeChain(i=1, j=2, p_rate=p, q_rate=q).stationary[1]
    assert 0.0 <= prob <= 1.0
    assert prob == pytest.approx(p / (p + q), rel=1e-12)


def test_edge_process_binary_layout():
    edge = EdgeChain(i=1, j=2, p_rate=1.0, q_rate=4.0)
    assert np.array_equal(edge.values, [0.0, 1.0])
    assert edge.stationary == pytest.approx([0.8, 0.2], abs=1e-14)
    assert edge.rate_matrix[0, 1] == 1.0 and edge.rate_matrix[1, 0] == 4.0
    assert np.allclose(edge.rate_matrix.sum(axis=1), 0.0)
    # every binary edge shares one values array; no edge's arrays can be
    # written, whatever its kind
    assert EdgeChain(i=3, j=4, p_rate=2.0, q_rate=0.5).values is edge.values
    weighted = WeightedEdgeChain(i=1, j=2, states=(0.0, 0.5), generator=((-1, 1), (2, -2)))
    assert weighted.values.tolist() == [0.0, 0.5]
    assert weighted.rate_matrix.tolist() == [[-1.0, 1.0], [2.0, -2.0]]
    for e in (edge, weighted):
        for array in (e.values, e.rate_matrix, e.stationary):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5


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
    assert w.stationary == pytest.approx([0.25, 0.5, 0.25], abs=1e-10)
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
    # abar as its edge list: 0-based endpoints, one row per edge
    assert stats.ends.tolist() == [[0, 1], [0, 2]]
    assert stats.means.tolist() == pytest.approx([0.5, 0.25])
    # row 1 carries both variances: 0.25 + 0.1875
    assert stats.delta_uncertainty == pytest.approx(0.4375, abs=1e-14)
    assert spec.kind == "binary"


def test_stationary_stats_edgeless():
    stats = stationary_stats(SwitchedNetworkSpec(n=4, edges=()))
    assert stats.delta_uncertainty == 0.0
    assert stats.ends.shape == (0, 2) and stats.means.shape == (0,)


def test_vertex_sums_match_the_row_sums_of_all_n_vertices():
    # Delta and the heaviest vertex weight, summed only over the vertices that
    # carry an edge, equal the row sums over an n-vector bit for bit: both add
    # the edges in order
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        pairs = sorted({tuple(sorted(rng.choice(n, 2, replace=False) + 1))
                        for _ in range(int(rng.integers(1, 40)))})
        rates = rng.uniform(0.1, 5.0, size=(len(pairs), 2))
        spec = SwitchedNetworkSpec(n=n, edges=tuple(
            EdgeChain(i=int(i), j=int(j), p_rate=float(p), q_rate=float(q))
            for (i, j), (p, q) in zip(pairs, rates)))
        var_rows, top_rows = np.zeros(n), np.zeros(n)
        for e in spec.edges:
            var_rows[[e.i - 1, e.j - 1]] += edge_moments(e)[1]
            top_rows[[e.i - 1, e.j - 1]] += e.values.max()
        assert stationary_stats(spec).delta_uncertainty == var_rows.max()
        assert max_vertex_weight(spec.edges) == top_rows.max()


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
    # strings and booleans in real-valued fields are refused, not converted
    weighted = {"i": 1, "j": 3, "states": [0, 1], "generator": [[-1, 1], [1, -1]]}
    for bad, where in (
        ({**edge, "p": "2", "q": " 1.5 "}, "'p'"),
        ({**edge, "q": " 1.5 "}, "'q'"),
        ({**edge, "p": True}, "'p'"),
        ({**edge, "q": None}, "'q'"),
        ({**weighted, "states": ["0", 1]}, "'states' entry"),
        ({**weighted, "states": "01"}, "'states' entry"),
        ({**weighted, "states": [0, False]}, "'states' entry"),
        ({**weighted, "generator": [[-1, "1"], [1, -1]]}, "'generator' entry"),
        ({**weighted, "generator": [[-1, 1], [True, -1]]}, "'generator' entry"),
    ):
        with pytest.raises(SpecFormatError, match=f"edges\\[0\\]: {where} must be a number"):
            spec_from_dict({"n": 3, "edges": [bad]})
    spec = spec_from_dict({"n": 3.0, "edges": [{**edge, "i": 1.0, "j": 3}]})
    assert spec.n == 3 and (spec.edges[0].i, spec.edges[0].j) == (1, 3)
    with pytest.raises(SpecFormatError):
        spec_from_dict([1, 2, 3])
    # a JSON integer too large for a float
    with pytest.raises(SpecFormatError, match="edges\\[0\\]"):
        spec_from_dict({"n": 2, "edges": [{"i": 1, "j": 2, "p": 10**400, "q": 1}]})
    # every object has a fixed set of fields: a misspelled, extra or missing
    # one is refused and named, never dropped or defaulted
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
