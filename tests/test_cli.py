import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epinet.cli
import epinet.ensembles
import epinet.exact
import epinet.netmodel
import epinet.simulate
import epinet.spectral
import epinet.stability
from epinet.cli import COMMUNITY_EXAMPLE, POWERLAW_EXAMPLE, main
from epinet.ensembles import (
    ExpectedDegreeSpec,
    degree_sequence,
    expected_degree_stats,
    load_network,
    summarize,
)
from epinet.netmodel import EpidemicParams, spec_from_dict
from epinet.oracle import dense_abscissa
from epinet.stability import check_sufficient

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def triangle_spec(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(
        json.dumps(
            {
                "n": 3,
                "edges": [
                    {"i": 1, "j": 2, "p": 2.0, "q": 1.0},
                    {"i": 1, "j": 3, "p": 0.5, "q": 1.5},
                    {"i": 2, "j": 3, "p": 1.0, "q": 1.0},
                ],
            }
        )
    )
    return path


def test_analyze_writes_report_and_manifest(triangle_spec, tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "analyze",
            "--spec", str(triangle_spec),
            "--beta", "0.2",
            "--delta", "1.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["exact"]["status"] == "ok"
    assert report["exact"]["n_configs"] == 8
    assert "expected_measure" not in report["exact"]
    assert isinstance(report["exact"]["mean_stable"], bool)
    assert report["sufficient"]["test"] == "spectral-penalty"
    assert report["sufficient"]["n"] == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "epinet"
    assert manifest["command"] == "analyze"


def test_analyze_stdout_json_without_out(triangle_spec, capsys):
    code = main(
        ["analyze", "--spec", str(triangle_spec), "--beta", "0.2", "--delta", "1.5"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    payload = stdout[stdout.index("{"):]
    report = json.loads(payload)
    assert report["exact"]["status"] == "ok"


def test_dump_matrix_option_is_gone(triangle_spec, tmp_path):
    # the exact operator is matrix-free, so there is no matrix to write;
    # oracle.dense_stability_matrix builds it for small specs
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--spec", str(triangle_spec), "--beta", "0.2",
              "--delta", "1.5", "--dump-matrix", "--out", str(tmp_path / "run")])
    assert exc.value.code == 1
    assert not (tmp_path / "run").exists()


def test_exact_cap_option_is_gone(triangle_spec):
    # the caps of the exact route are fixed and checked from the edge chains
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--spec", str(triangle_spec), "--beta", "0.2",
              "--delta", "1.5", "--exact-cap", "4"])
    assert exc.value.code == 1


def _cycle_spec(n: int) -> dict:
    return {"n": n, "edges": [{"i": k, "j": k % n + 1, "p": 1.0, "q": 1.0}
                              for k in range(1, n + 1)]}


def _dense_weighted_spec(states: int) -> dict:
    rates = np.ones((states, states))
    np.fill_diagonal(rates, 1.0 - states)
    chain = {"states": np.linspace(0.0, 1.0, states).tolist(),
             "generator": rates.tolist()}
    return {"n": 3, "edges": [{"i": 1, "j": 2, **chain}, {"i": 2, "j": 3, **chain}]}


def _analyze_traced(data, tmp_path, capsys):
    """The exact block of ``analyze`` on ``data`` and the traced peak."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(data))
    # spectral_abscissa imports scipy.sparse.linalg at its first call; a
    # one-time cost of the process, not of the command, so it is paid here
    import scipy.sparse.linalg  # noqa: F401
    tracemalloc.start()
    try:
        code = main(["analyze", "--spec", str(spec), "--beta", "0.5", "--delta", "1.0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    stdout = capsys.readouterr().out
    return json.loads(stdout[stdout.index("{"):])["exact"], peak


@pytest.mark.parametrize(
    "data, reason",
    [
        # 16 binary edges on 16 vertices: 2^16 configurations, 2^20 rows
        (_cycle_spec(16), "more than 32768 configurations"),
        # two dense 256-state chains on 3 vertices: 196 608 rows, refused on
        # its 1.0e8 nonzeros while the matrix was stored; now admitted
        (_dense_weighted_spec(256), None),
    ],
    ids=["binary-16x16", "weighted-dense-256"],
)
def test_exact_refused_before_building(data, reason, tmp_path, capsys, monkeypatch):
    # a refusal comes before E[lambda_max] or any configuration: the
    # binary spec was refused at 181 MB, after both
    calls = []
    expected = epinet.exact.expected_lambda_max

    def counting(joint):
        calls.append(joint)
        return expected(joint)

    for module in (epinet.exact, epinet.cli):
        monkeypatch.setattr(module, "expected_lambda_max", counting)
    exact, peak = _analyze_traced(data, tmp_path, capsys)
    if reason is None:
        assert exact["status"] == "ok" and exact["n_configs"] == 256 ** 2
        assert len(calls) == 1
        assert peak < 64 << 20
    else:
        assert exact["status"] == "skipped" and reason in exact["reason"]
        assert calls == []
        assert peak < 32 << 20


def test_dense_weighted_exact_runs_in_vector_memory(tmp_path, capsys):
    # two dense 128-state chains: 49 152 rows and 1.26e7 nonzeros, which
    # peaked at 583 MB while the matrix and the configurations were stored
    exact, peak = _analyze_traced(_dense_weighted_spec(128), tmp_path, capsys)
    assert exact["status"] == "ok" and exact["n_configs"] == 128 ** 2
    assert 0.0 < exact["eta"] < 1.0
    assert peak < 64 << 20


def test_analyze_solves_each_stationary_law_once(tmp_path, capsys, monkeypatch):
    # a weighted edge's law is solved (a K x K SVD) when the chain is
    # validated and read from it afterwards, by summarize and the exact route
    calls = []
    solve = epinet.netmodel._stationary_from_generator

    def counting(q, label):
        calls.append(label)
        return solve(q, label)

    monkeypatch.setattr(epinet.netmodel, "_stationary_from_generator", counting)
    data = _dense_weighted_spec(5)
    data["edges"].append({**data["edges"][0], "i": 1, "j": 3})
    exact, _ = _analyze_traced(data, tmp_path, capsys)
    assert exact["status"] == "ok"
    assert sorted(calls) == ["edge (1, 2)", "edge (1, 3)", "edge (2, 3)"]


def test_analyze_missing_file(tmp_path):
    code = main(
        [
            "analyze",
            "--spec", str(tmp_path / "nope.json"),
            "--beta", "0.2",
            "--delta", "1.5",
        ]
    )
    assert code == 1


def test_analyze_invalid_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    for text, message in (("{not json", "invalid JSON"),
                          ("[1, 2]", "expected a JSON object")):
        bad.write_text(text)
        code = main(["analyze", "--spec", str(bad), "--beta", "0.2", "--delta", "1.5"])
        assert code == 1
        assert message in capsys.readouterr().err


def test_analyze_malformed_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "edges": [{"i": 1, "j": 2, "p": 2.0}]}))
    code = main(["analyze", "--spec", str(bad), "--beta", "0.2", "--delta", "1.5"])
    assert code == 1
    assert "edges[0]" in capsys.readouterr().err
    # non-integral ids and booleans used to be truncated (3.9 -> 3, true -> 1)
    community = {"ensemble": "community", "n1": 2, "n2": 2,
                 "theta1": 0.6, "theta2": 0.4, "phi": 0.2}
    for data, name in (
        ({"n": 3.9, "edges": [{"i": 1.7, "j": 3.2, "p": 1, "q": 1}]}, "'n'"),
        ({"n": 3, "edges": [{"i": 1.7, "j": 3, "p": 1, "q": 1}]}, "'i'"),
        ({"n": 3, "edges": [{"i": 1, "j": 3.2, "p": 1, "q": 1}]}, "'j'"),
        ({"n": True, "edges": []}, "'n'"),
        ({**community, "n1": 2.5}, "'n1'"),
        ({**community, "n2": True}, "'n2'"),
        ({"ensemble": "power-law", "n": 50.5, "exponent": 2.5,
          "max_degree": 10.0, "avg_degree": 2.0}, "'n'"),
    ):
        bad.write_text(json.dumps(data))
        code = main(["analyze", "--spec", str(bad), "--beta", "0.2", "--delta", "1.5"])
        assert code == 1
        assert f"{name} must be an integer" in capsys.readouterr().err
    # a misspelled, extra or missing field used to be dropped or defaulted:
    # the "edge" typo read as an edgeless graph certified stable, exit 0
    edge = {"i": 1, "j": 2, "p": 2.0, "q": 1.0}
    generator = {"states": [0.0, 1.0], "generator": [[-1.0, 1.0], [1.0, -1.0]]}
    power_law = {"ensemble": "power-law", "n": 50, "exponent": 2.5,
                 "max_degree": 10.0, "avg_degree": 2.0}
    degrees = {"ensemble": "expected-degree", "degrees": [1.0, 2.0, 3.0]}
    for data, message in (
        ({"n": 3, "edge": [edge]}, "top level: unknown field 'edge'"),
        ({"n": 3, "edges": [{**edge, "weight": 0.5}]},
         "edges[0]: unknown field 'weight'"),
        ({"n": 3, "edges": [{**edge, **generator}]}, "edges[0]: unknown field 'p'"),
        ({"n": 3}, "top level: missing field 'edges'"),
        ({**community, "switch_scale": 1.0},
         "ensemble 'community': unknown field 'switch_scale'"),
        ({**degrees, "switch_scale": 1.0},
         "ensemble 'expected-degree': unknown field 'switch_scale'"),
        ({**power_law, "switch_scale": 1.0},
         "ensemble 'power-law': unknown field 'switch_scale'"),
        ({**community, "ensemble": ["community"]}, "unknown ensemble kind"),
        # strings and booleans in real-valued fields used to be converted:
        # "2" read as 2.0, true as 1.0
        ({"n": 3, "edges": [{**edge, "p": "2", "q": " 1.5 "}]},
         "edges[0]: 'p' must be a number"),
        ({"n": 3, "edges": [{**edge, "q": True}]}, "edges[0]: 'q' must be a number"),
        ({"n": 3, "edges": [{"i": 1, "j": 2, "states": [0.0, "1"],
                             "generator": generator["generator"]}]},
         "edges[0]: 'states' entry must be a number"),
        ({**community, "phi": "0.2"}, "field 'phi' must be a number"),
        ({**power_law, "avg_degree": True}, "field 'avg_degree' must be a number"),
        ({**degrees, "degrees": ["1", "2", True]}, "'degrees' entry must be a number"),
        # the graph as a whole: its size, its edge list and its edges together
        ({"n": 0, "edges": []}, "need at least one vertex, got n=0"),
        ({"n": 3, "edges": {}}, "field 'edges' must be a list"),
        ({"n": 3, "edges": [edge, {**edge, "i": 2, "j": 1}]}, "duplicate edge (1, 2)"),
        ({"n": 2, "edges": [{**edge, "j": 3}]}, "beyond n=2"),
        ({"n": 3, "edges": [{"i": 1, "j": 2, "states": [], "generator": []}]},
         "edges[0]: edge (1, 2): needs at least one state"),
        ({"n": 3, "edges": [edge, {"i": 2, "j": 3, **generator}]}, "cannot mix"),
    ):
        bad.write_text(json.dumps(data))
        code = main(["analyze", "--spec", str(bad), "--beta", "0.2", "--delta", "1.5"])
        assert code == 1
        assert message in capsys.readouterr().err
    assert main(["oracle", "--trials", "0"]) == 1
    assert "count must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["simulate", "--step", "0.1"]],
                         ids=" ".join)
def test_dense_cap_refused_before_allocating(command, tmp_path, capsys):
    # simulate holds n x n adjacency; past its vertex cap it is refused before
    # any n-array: the default step and the initial state used to build one
    # first, and at n = 1e12 numpy raised a traceback for 7.3 TiB
    spec = tmp_path / "big.json"
    spec.write_text(
        json.dumps({"n": 10**12, "edges": [{"i": 1, "j": 2, "p": 1.0, "q": 1.0}]})
    )
    tracemalloc.start()
    try:
        code = main([*command, "--spec", str(spec), "--beta", "0.5", "--delta", "1.0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "dense cap 10000" in capsys.readouterr().err
    assert peak < 1 << 20


def test_analyze_has_no_vertex_cap(tmp_path, capsys):
    # abar is an edge list and Delta sums over the vertices that carry an
    # edge, so a 1e12-vertex spec is priced in O(m) memory; the exact test
    # runs on the 2 vertices the edge touches, and is authoritative
    spec = tmp_path / "big.json"
    spec.write_text(
        json.dumps({"n": 10**12, "edges": [{"i": 1, "j": 2, "p": 1.0, "q": 3.0}]})
    )
    tracemalloc.start()
    try:
        code = main(["analyze", "--spec", str(spec), "--beta", "0.5", "--delta", "1.0",
                     "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20
    assert "(authoritative)" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["sufficient"]["lambda_max_abar"] == pytest.approx(0.25, rel=1e-14)
    assert report["exact"]["status"] == "ok" and report["exact"]["n_configs"] == 2


def _twelve_edge_spec(n: int) -> dict:
    """12 of the 28 pairs on vertices 1-8 drawn by default_rng(0), sorted,
    with p, q ~ U[0.1, 5] per pair in that order, on n vertices."""
    rng = np.random.default_rng(0)
    pairs = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)]
    edges = []
    for k in sorted(rng.choice(len(pairs), 12, replace=False)):
        p, q = rng.uniform(0.1, 5.0, 2)
        edges.append({"i": pairs[k][0], "j": pairs[k][1], "p": float(p), "q": float(q)})
    return {"n": n, "edges": edges}


def test_exact_route_ignores_untouched_vertices(tmp_path, capsys):
    # vertices no edge touches add only kron(Pi^T, I) blocks of abscissa 0,
    # so eta on 200, 1e6 and 1e12 vertices is the 8-vertex value, bit for
    # bit; at 200 vertices the joint chain was once refused ("more than 2621
    # configurations"), at 1e6 on the vertex count alone
    etas = []
    for n in (8, 200, 10**6, 10**12):
        spec = tmp_path / f"spec{n}.json"
        spec.write_text(json.dumps(_twelve_edge_spec(n)))
        assert main(["analyze", "--spec", str(spec), "--beta", "0.5", "--delta", "1.5",
                     "--out", str(tmp_path / str(n))]) == 0
        assert "(authoritative)" in capsys.readouterr().out
        exact = json.loads((tmp_path / str(n) / "report.json").read_text())["exact"]
        assert exact["status"] == "ok" and exact["n_configs"] == 2**12
        etas.append(exact["eta"])
    assert etas == [etas[0]] * 4


def test_exact_refusal_names_the_vertex_count(tmp_path, capsys, monkeypatch):
    # the touched vertices alone past the row cap: the joint chain used to be
    # said to need "more than 0 configurations"
    spec = tmp_path / "wide.json"
    spec.write_text(
        json.dumps({"n": 10**6, "edges": [{"i": 1, "j": 2, "p": 1.0, "q": 1.0}]})
    )
    monkeypatch.setattr(epinet.exact, "JOINT_DIM_CAP", 1)
    code = main(["analyze", "--spec", str(spec), "--beta", "0.5", "--delta", "1.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert ("exact test skipped: the 2 vertices the edges touch alone exceed the "
            "1-row cap of the stability matrix") in out
    assert "0 configurations" not in out


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("rate", ["NaN", "Infinity"])
def test_non_finite_rate_rejected(command, rate, tmp_path, capsys):
    # json reads the bare NaN / Infinity literals; before the check, analyze
    # failed with a misleading message, simulate on NaN exited 0 with a
    # garbage trajectory and simulate on Infinity never returned
    spec = tmp_path / "bad.json"
    spec.write_text(
        '{"n": 3, "edges": [{"i": 1, "j": 2, "p": 1.0, "q": 1.0}, '
        f'{{"i": 2, "j": 3, "p": {rate}, "q": 1.0}}]}}'
    )
    code = main([command, "--spec", str(spec), "--beta", "0.5", "--delta", "1.0"])
    assert code == 1
    err = capsys.readouterr().err
    assert "edge (2, 3)" in err and "finite" in err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_rate_sum_overflow_rejected(command, tmp_path, capsys):
    # p = q = 1e308 are finite but p + q is not; p / (p + q) read 0 instead
    # of 1/2, so the sufficient test used lambda_max(abar) = 0.5 against the
    # true 0.707, and the exact test's ARPACK failed (exit 2)
    spec = tmp_path / "path.json"
    spec.write_text(json.dumps({"n": 3, "edges": [
        {"i": 1, "j": 2, "p": 1e308, "q": 1e308},
        {"i": 2, "j": 3, "p": 1.0, "q": 1.0},
    ]}))
    assert main([command, "--spec", str(spec), "--beta", "0.5", "--delta", "1.0"]) == 1
    err = capsys.readouterr().err
    assert "edge (1, 2)" in err and "their sum" in err


def _frozen_triangle(tmp_path) -> Path:
    """The README triangle with edge (1, 3) frozen absent (p = 0): its
    stationary law has a zero, and the exact test still takes Davidson."""
    spec = tmp_path / "frozen.json"
    spec.write_text(json.dumps({"n": 3, "edges": [
        {"i": 1, "j": 2, "p": 2.0, "q": 1.0},
        {"i": 1, "j": 3, "p": 0.0, "q": 1.5},
        {"i": 2, "j": 3, "p": 1.0, "q": 1.0},
    ]}))
    return spec


def _cyclic_triangle(tmp_path) -> Path:
    """The README triangle as weighted chains, with edge (1, 3) cycling
    0 -> 1/2 -> 1 -> 0: a transition graph with a cycle, so the exact test
    takes ARPACK."""
    spec = tmp_path / "cyclic.json"
    spec.write_text(json.dumps({"n": 3, "edges": [
        {"i": 1, "j": 2, "states": [0.0, 1.0], "generator": [[-2.0, 2.0], [1.0, -1.0]]},
        {"i": 1, "j": 3, "states": [0.0, 0.5, 1.0],
         "generator": [[-1.0, 1.0, 0.0], [0.0, -2.0, 2.0], [3.0, 0.0, -3.0]]},
        {"i": 2, "j": 3, "states": [0.0, 1.0], "generator": [[-1.0, 1.0], [1.0, -1.0]]},
    ]}))
    return spec


def test_analyze_exact_solver_failure_leaves_a_note(tmp_path, monkeypatch, capsys):
    # a solver that raises leaves the bracket [0, column-sum bound] and a
    # note naming it: ARPACK without convergence on the cyclic triangle, and
    # Davidson on a path of two reversible edges of weight 0 (bound 0), under
    # a stop tolerance of 0 that is never met (on one such edge's 4 rows
    # Davidson's residual is exactly 0); the path's abar needs no solve
    import scipy.sparse.linalg as sla

    def no_convergence(*args, **kwargs):
        raise sla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((3, 0)))

    weightless = tmp_path / "weightless.json"
    weightless.write_text(json.dumps({"n": 3, "edges": [
        {"i": 1, "j": 2, "states": [0.0, 0.0], "generator": [[-1.0, 1.0], [2.0, -2.0]]},
        {"i": 2, "j": 3, "states": [0.0, 0.0], "generator": [[-3.0, 3.0], [0.5, -0.5]]}]}))
    cases = ((_cyclic_triangle(tmp_path), "arpack", 0.4, (sla, "eigs", no_convergence)),
             (weightless, "davidson", 0.0, (epinet.spectral, "LANCZOS_RTOL", 0.0)))
    for spec, solver, bound, patch in cases:
        out = tmp_path / solver
        with monkeypatch.context() as m:
            m.setattr(*patch)
            assert main(["analyze", "--spec", str(spec), "--beta", "0.2", "--delta", "1.5",
                         "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        exact = json.loads((out / "report.json").read_text())["exact"]
        assert exact["eta"] is None and exact["mean_stable"] is True
        assert exact["lo"] == 0.0 and exact["hi"] == pytest.approx(bound, rel=1e-15)
        assert exact["note"].startswith(f"the {solver} solve failed")
        assert f"note: {exact['note']}" in stdout
        assert "-> mean-stable (authoritative)" in stdout


def test_analyze_lanczos_failure_leaves_a_note(triangle_spec, tmp_path, monkeypatch, capsys):
    # a stop tolerance of 0 is never met, so the certificate's Lanczos on the
    # triangle runs out of products: lambda_max(abar) is priced at abar's
    # largest row sum, 2/3 + 1/2 on vertex 2, and a note quotes that bound
    monkeypatch.setattr(epinet.spectral, "LANCZOS_RTOL", 0.0)
    assert main(["analyze", "--spec", str(triangle_spec), "--beta", "0.2", "--delta", "1.5",
                 "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    sufficient = json.loads((tmp_path / "report.json").read_text())["sufficient"]
    assert sufficient["lambda_max_abar"] == pytest.approx(2.0 / 3.0 + 0.5, rel=1e-15, abs=0.0)
    (note,) = [n for n in sufficient["notes"] if "Lanczos" in n]
    assert note.startswith(f"lambda_max(abar) is its row-sum bound "
                           f"{sufficient['lambda_max_abar']:.6g}: the lanczos solve failed")
    assert f"note: {note}" in stdout


_FROZEN_NOTE = "frozen graph: the eigenvalue comparison is exact, not merely sufficient"


@pytest.mark.parametrize("spec, delta, patch", [
    # d_tilde = 2 bounds the frozen edge's eigenvalue 1
    ({"ensemble": "expected-degree", "degrees": [2, 2]}, 1.5, False),
    # the path 1-2-3, frozen present, priced at its row sum 2 above sqrt 2
    ({"n": 3, "edges": [{"i": 1, "j": 2, "p": 1, "q": 0},
                        {"i": 2, "j": 3, "p": 1, "q": 0}]}, 1.7, True),
])
def test_frozen_note_only_on_an_eigenvalue(spec, delta, patch, tmp_path, monkeypatch, capsys):
    # a frozen graph priced at a bound on lambda_max(abar) is inconclusive, not
    # exact; its exact block decides it mean-stable
    def fail(a):
        raise RuntimeError("no Lanczos")

    if patch:
        monkeypatch.setattr(epinet.spectral, "lanczos_abscissa", fail)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["analyze", "--spec", str(path), "--beta", "1", "--delta", str(delta),
                 "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    sufficient = report["sufficient"]
    assert sufficient["delta_uncertainty"] == 0.0 and sufficient["lhs"] == 2.0
    assert sufficient["verdict"] == "inconclusive"
    assert report["exact"]["mean_stable"] is True
    assert _FROZEN_NOTE not in sufficient["notes"]
    assert "frozen graph" not in capsys.readouterr().out
    assert [n.startswith("lambda_max(abar) is its row-sum bound 2:")
            for n in sufficient["notes"]] == ([True] if patch else [])


def test_frozen_note_keeps_its_place(tmp_path):
    # a frozen explicit spec and a frozen community ensemble hold abar's
    # eigenvalue: the note follows the producer's own notes
    frozen = {"ensemble": "community", "n1": 3, "n2": 4, "theta1": 1.0, "theta2": 1.0,
              "phi": 0.0}
    for name, spec, first in (("explicit", _MODELS["frozen"], []),
                              ("community", frozen,
                               ["two-community closed form (exact quotient eigenvalue)"])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        assert main(["analyze", "--spec", str(path), "--beta", "1", "--delta", "1",
                     "--out", str(tmp_path / name)]) == 0
        notes = json.loads((tmp_path / name / "report.json").read_text())["sufficient"]["notes"]
        assert notes == [*first, _FROZEN_NOTE]


@pytest.mark.parametrize("n", [3, 10**12])
def test_analyze_numbers_the_touched_vertices_once(n, tmp_path, monkeypatch, capsys):
    # the spec numbers its touched vertices when it is built; the moments, the
    # certificate's operator and the exact route read that one numbering, at
    # any n
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({**_MODELS["binary"], "n": n}))
    calls, unique = [], np.unique

    def counting(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    assert main(["analyze", "--spec", str(path), "--beta", "0.2", "--delta", "1.5",
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    assert ("exact test: eta = 0.200301846 in [0.200301846, 0.200301846]"
            in capsys.readouterr().out)


def test_analyze_names_the_solver_that_decided_eta(triangle_spec, tmp_path):
    # binary chains take Davidson, a cyclic weighted chain ARPACK; report.json
    # and manifest.json both name the solver, its matvec count, the bracket
    # and the note
    for spec, solver in ((triangle_spec, "davidson"), (_cyclic_triangle(tmp_path), "arpack")):
        out = tmp_path / solver
        assert main(["analyze", "--spec", str(spec), "--beta", "0.2", "--delta", "1.5",
                     "--out", str(out)]) == 0
        exact = json.loads((out / "report.json").read_text())["exact"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert exact["solver"] == solver and exact["matvecs"] > 0
        assert exact["lo"] < exact["eta"] < exact["hi"] and exact["note"] is None
        assert manifest["exact"] == {k: exact[k] for k in ("solver", "matvecs", "lo", "hi", "note")}


def test_analyze_on_an_underflowing_stationary_law(tmp_path, capsys):
    # each edge's law (1, 1e-200) is positive, but the joint law's product
    # underflows to 0; the symmetric generator comes from the rates alone,
    # so nothing divides by its square roots
    data = {"n": 3, "edges": [{"i": 1, "j": 2, "p": 1e-200, "q": 1.0},
                              {"i": 2, "j": 3, "p": 1e-200, "q": 1.0}]}
    spec = tmp_path / "underflow.json"
    spec.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", "--spec", str(spec), "--beta", "0.5", "--delta", "1.5"])
    assert code == 0
    out = capsys.readouterr().out
    exact = json.loads(out[out.index("{"):])["exact"]
    assert exact["status"] == "ok" and exact["solver"] == "davidson"
    dense = dense_abscissa(epinet.exact.build_joint_chain(spec_from_dict(data)), 0.5)
    assert abs(exact["eta"] - dense) <= 1e-10 * max(1.0, abs(dense))


def _analyze_in_fresh_process(spec: Path) -> str:
    probe = (
        "import sys, epinet.cli\n"
        f"code = epinet.cli.main(['analyze', '--spec', {str(spec)!r}, '--beta', '0.5', "
        "'--delta', '1.0'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), code)\n"
    )
    return subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout


def test_analyze_on_reversible_chains_loads_no_scipy(triangle_spec, tmp_path):
    for spec in (triangle_spec, _frozen_triangle(tmp_path)):
        out = _analyze_in_fresh_process(spec)
        assert out.splitlines()[-1] == "[] 0"
        assert '"solver": "davidson"' in out


def test_lanczos_eta_is_identical_across_processes(triangle_spec, tmp_path):
    # the triangle, and the stiff path at rate 1e8, each run twice
    stiff = tmp_path / "stiff.json"
    stiff.write_text(json.dumps({"n": 3, "edges": [
        {"i": 1, "j": 2, "p": 1e8, "q": 1e8},
        {"i": 2, "j": 3, "p": 1.0, "q": 1.0},
    ]}))
    for spec in (triangle_spec, stiff):
        runs = [_analyze_in_fresh_process(spec) for _ in range(2)]
        assert '"solver": "davidson"' in runs[0] and runs[0] == runs[1]


def test_ensemble_refused_from_its_pair_count(tmp_path, capsys, monkeypatch):
    # a 200-vertex community has 19 900 positive pairs; the exact test is
    # refused before any of their edge chains is built, for the reason the
    # joint chain gives
    built = []
    chain = epinet.ensembles.EdgeChain
    monkeypatch.setattr(epinet.ensembles, "EdgeChain",
                        lambda **kw: built.append(kw) or chain(**kw))
    spec = tmp_path / "community.json"
    spec.write_text(json.dumps({"ensemble": "community", "n1": 100, "n2": 100,
                                "theta1": 0.5, "theta2": 0.3, "phi": 0.1}))
    assert main(["analyze", "--spec", str(spec), "--beta", "0.001", "--delta", "2.0"]) == 0
    assert built == []
    stdout = capsys.readouterr().out
    exact = json.loads(stdout[stdout.index("{"):])["exact"]
    with pytest.raises(ValueError) as refusal:
        epinet.exact.build_joint_chain(
            epinet.ensembles.as_switched_network(load_network(spec)))
    assert len(built) == 19_900
    assert exact == {"status": "skipped", "reason": str(refusal.value)}
    assert "(19900 edges;" in exact["reason"]


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from epinet import *", namespace)
    assert epinet.__all__
    for name in epinet.__all__:
        assert namespace[name] is getattr(epinet, name)


def test_import_cli_loads_no_scipy():
    # scipy is imported inside the functions that need it; importing it at
    # module level would add its import time to every command.  The oracle
    # (the dense reference) runs on numpy alone.
    probe = (
        "import sys, epinet.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded(), file=sys.stderr)\n"
        "epinet.cli.main(['oracle', '--trials', '3'])\n"
        "print(loaded(), file=sys.stderr)\n"
    )
    err = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stderr
    assert err.splitlines() == ["[]", "[]"]


def test_analyze_beta_overflowing_the_column_sum_skips_exact(triangle_spec, capsys):
    # beta times the heaviest vertex weight overflows: ARPACK used to fail
    # (exit 2) after two overflow warnings; now the exact test is skipped
    code = main(
        ["analyze", "--spec", str(triangle_spec), "--beta", "1e308", "--delta", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert report["exact"]["status"] == "skipped"
    assert "heaviest vertex weight overflows" in report["exact"]["reason"]
    assert report["sufficient"]["verdict"] == "inconclusive"


def test_parser_is_built_once(triangle_spec, monkeypatch, capsys):
    builds = []
    add_subparsers = epinet.cli._Parser.add_subparsers

    def counting(self, *args, **kwargs):
        builds.append(1)
        return add_subparsers(self, *args, **kwargs)

    epinet.cli._build_parser.cache_clear()
    monkeypatch.setattr(epinet.cli._Parser, "add_subparsers", counting)
    try:
        for _ in range(2):
            assert main(["minimize-f", "--n", "10", "--uncertainty", "2"]) == 0
            assert main(["analyze", "--spec", str(triangle_spec),
                         "--beta", "0.2", "--delta", "1.5"]) == 0
    finally:
        epinet.cli._build_parser.cache_clear()
    assert builds == [1]


def test_analyze_bad_params(triangle_spec):
    code = main(
        ["analyze", "--spec", str(triangle_spec), "--beta", "-1", "--delta", "1"]
    )
    assert code == 1


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--spec", "x.json", "--beta", "0.2"])  # missing --delta
    assert exc.value.code == 1


def test_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_simulate_writes_deterministic_csv(triangle_spec, tmp_path):
    args = [
        "simulate",
        "--spec", str(triangle_spec),
        "--beta", "0.5",
        "--delta", "1.0",
        "--horizon", "2.0",
        "--step", "0.1",
        "--seed", "7",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("trajectory.csv", "events.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["mode"] == "full"
    header = (out1 / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,p_1,p_2,p_3"


def test_simulate_coupled_outputs(triangle_spec, tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "simulate",
            "--spec", str(triangle_spec),
            "--beta", "0.5",
            "--delta", "1.0",
            "--horizon", "2.0",
            "--coupled",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "trajectory_linear.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "coupled"
    assert summary["min_margin"] >= -1e-7


@pytest.mark.parametrize("mode", ["--linearized", "--coupled"])
def test_simulate_linearized_overflow_exits_one(mode, triangle_spec, tmp_path, capsys):
    # the linearized state overflows to inf, then NaN; both modes used to
    # exit 0 and print "final l1 = nan" or "min l1 margin = nan"
    code = main(
        ["simulate", "--spec", str(triangle_spec), "--beta", "100", "--delta", "1",
         "--horizon", "10", "--step", "0.01", mode, "--out", str(tmp_path / "run")]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the linearized state overflowed")
    assert "nan" not in captured.out
    assert not (tmp_path / "run" / "summary.json").exists()


def test_simulate_step_too_coarse_exits_one(triangle_spec, tmp_path, monkeypatch, capsys):
    # a step far too coarse for the rates is bad input, not a failed internal
    # check; the overflow on the way there warns nothing (a RuntimeWarning is
    # an error here)
    monkeypatch.setattr(epinet.simulate, "MAX_HALVINGS", 2)
    code = main(["simulate", "--spec", str(triangle_spec), "--beta", "1e7", "--delta", "1",
                 "--step", "1", "--horizon", "1", "--out", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: state left [0, 1] even after 2 step halvings; "
        "the configured step is far too coarse for these rates\n")


def test_simulate_conflicting_modes(triangle_spec):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "simulate",
                "--spec", str(triangle_spec),
                "--beta", "0.5",
                "--delta", "1.0",
                "--linearized",
                "--coupled",
            ]
        )
    assert exc.value.code == 1


def test_simulate_refuses_unbounded_work(triangle_spec, tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--spec", str(triangle_spec),
            "--beta", "0.5",
            "--delta", "1.0",
            "--horizon", "1e9",
            "--step", "1e-12",
        ]
    )
    assert code == 1
    assert "grid steps per trial exceeds the cap" in capsys.readouterr().err
    # 2 edges switching at rate 1e4 over horizon 10 expect 2e5 events; that
    # run used to take 13 s and 146 MB, and rates of 1e5 over 100 s
    fast = tmp_path / "fast.json"
    fast.write_text(json.dumps({"n": 3, "edges": [
        {"i": 1, "j": 2, "p": 1e4, "q": 1e4},
        {"i": 2, "j": 3, "p": 1e4, "q": 1e4},
    ]}))
    code = main(["simulate", "--spec", str(fast), "--beta", "0.5",
                 "--delta", "1.0", "--horizon", "10"])
    assert code == 1
    assert "switching events per trial exceeds the cap" in capsys.readouterr().err
    # 1e5 grid steps pass, but the expected event count overflows to inf;
    # decay mode sizes its batches from that count, and must refuse it first
    code = main(["simulate", "--spec", str(triangle_spec), "--beta", "0.2",
                 "--delta", "1.5", "--trials", "2", "--horizon", "1e308",
                 "--step", "1e303"])
    assert code == 1
    err = capsys.readouterr().err
    assert "expected inf switching events per trial exceeds the cap" in err


@pytest.mark.parametrize("mode, step", [([], "1e-4"), (["--linearized"], "1e-4"),
                                        (["--coupled"], "2e-4")],
                         ids=["full", "linearized", "coupled"])
def test_simulate_refuses_an_unbounded_path(mode, step, tmp_path, capsys):
    # a path stores a state of n entries per sample and system: 2000 vertices
    # over 10^4 grid points (or 5000 for both systems of a coupled run) pass
    # BATCH_ENTRY_CAP, and are refused before any n-array; 8000 grid points
    # of a full run peaked at 246 MiB and took 47.5 s
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"n": 2000, "edges": [{"i": 1, "j": 2, "p": 1.0, "q": 1.0}]}))
    tracemalloc.start()
    try:
        code = main(["simulate", "--spec", str(spec), "--beta", "0.5", "--delta", "1.0",
                     "--horizon", "1", "--step", step, *mode])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert f"states of 2000 entries, past the cap of {1 << 24}" in capsys.readouterr().err
    assert peak < 1 << 20


def test_simulate_decay_mode(triangle_spec, tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "simulate",
            "--spec", str(triangle_spec),
            "--beta", "0.2",
            "--delta", "2.0",
            "--trials", "5",
            "--horizon", "6.0",
            "--step", "0.1",
            "--out", str(out),
        ]
    )
    assert code == 0
    decay = json.loads((out / "decay.json").read_text())
    assert decay["mode"] == "decay" and decay["trials"] == 5
    assert decay["rate"] < 0.0


def test_simulate_decay_records_event_count(triangle_spec, tmp_path, capsys):
    argv = ["simulate", "--spec", str(triangle_spec), "--beta", "0.2", "--delta",
            "2.0", "--trials", "5", "--horizon", "6.0", "--step", "0.1"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == plain  # stdout does not change
    decay = json.loads((out / "decay.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(decay)[:4] == ["mode", "trials", "events", "rate"]
    assert decay["events"] == manifest["simulate"]["events"] > 0
    spec = epinet.ensembles.as_switched_network(load_network(triangle_spec))
    cfg = epinet.simulate.SimConfig(horizon=6.0, step=0.1, trials=5)
    est = epinet.simulate.estimate_decay(spec, EpidemicParams(0.2, 2.0), cfg)
    assert decay["events"] == est.events


@pytest.mark.parametrize("argv", [
    ["simulate", "--spec", "absent.json", "--beta", "1", "--delta", "1", "--seed", "-1"],
    ["oracle", "--seed", "-3"],
])
def test_negative_seed_refused_at_parse_time(argv, capsys):
    # numpy's SeedSequence refuses negative seeds with a message that does
    # not name the option; the parser refuses them first (the spec file is
    # never opened)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument --seed: expected a non-negative integer, got '{argv[-1]}'" in err


def test_readme_simulate_lines(triangle_spec, tmp_path, capsys, monkeypatch):
    # README's two simulate runs print its console lines verbatim; this pins
    # the switching draw order end to end
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Simulate:\n\n```\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", "").splitlines()
    assert lines[1::2] == [
        "coupled run: 433 samples, 52 events, min l1 margin = 0",
        "decay rate = -1.30049 (95% half-width 0.000536) from 200 trials",
    ]
    monkeypatch.chdir(tmp_path)  # where triangle.json is
    for command, line in zip(lines[::2], lines[1::2]):
        assert main(command.removeprefix("$ epinet ").split()) == 0
        assert capsys.readouterr().out == line + "\n"


def test_simulate_decay_rejects_linearized(triangle_spec):
    code = main(
        [
            "simulate",
            "--spec", str(triangle_spec),
            "--beta", "0.2",
            "--delta", "2.0",
            "--trials", "5",
            "--linearized",
        ]
    )
    assert code == 1


def test_example_community(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["example", "community", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count(" ok") >= 3 and "DEVIATES" not in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["all_within_tolerance"] is True
    assert report["parameters"]["n1"] == 10_000


def test_oracle_command(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["oracle", "--trials", "10", "--seed", "3", "--out", str(out)])
    assert code == 0
    assert "10/10 passed" in capsys.readouterr().out
    payload = json.loads((out / "oracle.json").read_text())
    assert payload["summary"]["count"] == 10
    assert len(payload["reports"]) == 10


def test_minimize_f_stdout_json(capsys):
    code = main(["minimize-f", "--n", "110000", "--uncertainty", "21899.79"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["f_min"] == pytest.approx(983.8336, abs=1e-3)


def test_non_finite_certificate_inputs_exit_one(tmp_path, capsys):
    # a community whose lambda_max(abar) overflows, a Delta too large for
    # the convexity onset to be evaluated and an n whose 2 n^2 overflows
    spec = tmp_path / "huge.json"
    spec.write_text(
        json.dumps(
            {"ensemble": "community", "n1": 1e200, "n2": 1e200,
             "theta1": 1, "theta2": 1, "phi": 1}
        )
    )
    runs = {
        "lambda_max(abar) must be finite": [
            "analyze", "--spec", str(spec), "--beta", "1", "--delta", "1"],
        "delta_u must be finite": [
            "minimize-f", "--n", "5", "--uncertainty", "1e150"],
        "n must be": ["minimize-f", "--n", str(10**400), "--uncertainty", "1"],
    }
    for message, argv in runs.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


def test_analyze_edgeless_spec_skips_exact(tmp_path, capsys):
    spec = tmp_path / "edgeless.json"
    spec.write_text(json.dumps({"n": 3, "edges": []}))
    code = main(["analyze", "--spec", str(spec), "--beta", "0.2", "--delta", "1.5"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout[stdout.index("{"):])["exact"] == {
        "status": "skipped",
        "reason": "spec has no edges; the joint chain would be trivial",
    }


def test_analyze_small_community_ensemble(tmp_path, capsys):
    spec = tmp_path / "ens.json"
    spec.write_text(
        json.dumps(
            {"ensemble": "community", "n1": 2, "n2": 2,
             "theta1": 0.6, "theta2": 0.4, "phi": 0.2}
        )
    )
    code = main(["analyze", "--spec", str(spec), "--beta", "0.1", "--delta", "2.0"])
    assert code == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout[stdout.index("{"):])
    # 4 vertices -> 6 pairs, all present here, so the exact joint chain
    # has 2^6 configurations and fits comfortably under the cap
    assert payload["exact"]["status"] == "ok"
    assert payload["exact"]["n_configs"] == 64
    assert payload["sufficient"]["network_kind"] == "binary"


def test_analyze_large_ensemble_skips_exact(tmp_path, capsys):
    spec = tmp_path / "ens.json"
    spec.write_text(
        json.dumps(
            {"ensemble": "community", "n1": 300, "n2": 300,
             "theta1": 0.5, "theta2": 0.5, "phi": 0.1}
        )
    )
    code = main(["analyze", "--spec", str(spec), "--beta", "0.001", "--delta", "2.0"])
    assert code == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout[stdout.index("{"):])
    assert payload["exact"]["status"] == "skipped"


def test_analyze_power_law_checks_size_before_realizing(tmp_path, capsys, monkeypatch):
    # neither the sufficient test nor the exact attempt builds the sequence
    # whole: no block is larger than DEGREE_BLOCK, a third of this n
    sizes = []
    original = epinet.ensembles.PowerLawSpec.degree_block
    monkeypatch.setattr(
        epinet.ensembles.PowerLawSpec, "degree_block",
        lambda self, lo, hi: sizes.append(hi - lo) or original(self, lo, hi),
    )
    n = 3 * epinet.stability.DEGREE_BLOCK + 5
    spec = tmp_path / "ens.json"
    spec.write_text(
        json.dumps(
            {"ensemble": "power-law", "n": n, "exponent": 2.5,
             "max_degree": 50.0, "avg_degree": 5.0}
        )
    )
    code = main(["analyze", "--spec", str(spec), "--beta", "0.001", "--delta", "2.0"])
    assert code == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout[stdout.index("{"):])
    assert payload["exact"]["status"] == "skipped"
    assert f"n={n}" in payload["exact"]["reason"]
    assert sizes and max(sizes) <= epinet.stability.DEGREE_BLOCK


def test_analyze_expected_degree_ensemble(tmp_path, capsys):
    spec = tmp_path / "ens.json"
    spec.write_text(
        json.dumps({"ensemble": "expected-degree", "degrees": [2.0, 2.0, 1.5, 0.5]})
    )
    code = main(["analyze", "--spec", str(spec), "--beta", "0.1", "--delta", "3.0"])
    assert code == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout[stdout.index("{"):])
    assert payload["sufficient"]["network_kind"] == "expected-degree"
    assert payload["exact"]["status"] == "ok"


@pytest.mark.parametrize(
    "degrees", [[2.0, 2.0, 1.5, 0.5], [1.0, 1.0, 50.0, 60.0], [3.0, 0.0, 1.0]]
)
def test_analyze_expected_degree_matches_stats(degrees, tmp_path, capsys):
    spec = tmp_path / "ens.json"
    spec.write_text(json.dumps({"ensemble": "expected-degree", "degrees": degrees}))
    code = main(["analyze", "--spec", str(spec), "--beta", "0.1", "--delta", "3.0"])
    assert code == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout[stdout.index("{"):])
    report = payload["sufficient"]
    stats = expected_degree_stats(
        degree_sequence(ExpectedDegreeSpec(degrees=np.array(degrees)))
    )
    assert report["d_tilde"] == report["lambda_max_abar"] == stats.lambda_max_abar
    assert report["delta_uncertainty"] == stats.delta_uncertainty
    assert report["max_pair_prob"] == stats.max_pair_prob
    assert report["invalid_pairs"] == stats.invalid_pairs
    # the realization refuses the same pairs the report counts
    if stats.max_pair_prob > 1.0:
        assert payload["exact"]["status"] == "skipped"
        assert "exceed 1" in payload["exact"]["reason"]
    else:
        assert payload["exact"]["status"] == "ok"


def test_analyze_never_computes_secular_root(tmp_path, monkeypatch):
    calls = []
    root = epinet.stability.expected_degree_lambda_max

    def counting(*args, **kwargs):
        calls.append(args)
        return root(*args, **kwargs)

    # patched in every namespace that could reach it
    for module in (epinet.stability, epinet.ensembles, epinet.cli):
        monkeypatch.setattr(module, "expected_degree_lambda_max", counting, raising=False)
    specs = (
        {"ensemble": "expected-degree", "degrees": [2.0, 2.0, 1.5, 0.5]},
        {"ensemble": "power-law", "n": 5000, "exponent": 2.5,
         "max_degree": 50.0, "avg_degree": 5.0},
    )
    for k, data in enumerate(specs):
        spec = tmp_path / f"ens{k}.json"
        spec.write_text(json.dumps(data))
        code = main(["analyze", "--spec", str(spec), "--beta", "0.1", "--delta", "3.0"])
        assert code == 0
    assert calls == []


def test_analyze_e_lambda_max_strict_threshold(tmp_path, capsys):
    # lambda_max is 0 or 1 with stationary probability 3/4 and 1/4, so
    # E[lambda_max] = 1/4, and the comparison with delta/beta is strict
    spec = tmp_path / "edge.json"
    spec.write_text(json.dumps({"n": 2, "edges": [{"i": 1, "j": 2, "p": 1, "q": 3}]}))
    for delta, stable in (("0.3", True), ("0.25", False)):
        code = main(["analyze", "--spec", str(spec), "--beta", "1", "--delta", delta])
        assert code == 0
        stdout = capsys.readouterr().out
        exact = json.loads(stdout[stdout.index("{"):])["exact"]
        assert exact["e_lambda_max"] == pytest.approx(0.25, abs=1e-13)
        assert exact["e_lambda_max_stable"] is stable


def test_analyze_exact_tie_is_inconclusive(tmp_path, capsys):
    # a frozen edge at beta = delta = 1: eta = 1 = delta, which Davidson reads
    # exactly; the bracket [1 - 1e-14, 1] holds delta, so it is undecided
    spec = tmp_path / "frozen.json"
    spec.write_text(json.dumps({"n": 2, "edges": [{"i": 1, "j": 2, "p": 1.0, "q": 0.0}]}))
    assert main(["analyze", "--spec", str(spec), "--beta", "1", "--delta", "1"]) == 0
    stdout = capsys.readouterr().out
    exact = json.loads(stdout[stdout.index("{"):])["exact"]
    assert exact["solver"] == "davidson"
    assert exact["eta"] == 1.0 and exact["lo"] < 1.0 == exact["hi"]
    assert exact["mean_stable"] is None
    assert "exact test: eta = 1 in [1, 1], delta = 1 -> inconclusive\n" in stdout


_BENCH_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "seed-0.json"


@pytest.mark.parametrize("index", range(3))
def test_analyze_matches_the_exact_ladder_bench(index, tmp_path, capsys):
    # the committed exact-ladder commands, read-only, with the bench's own
    # tolerance on eta and both verdicts against its expected values
    ladder = json.loads(_BENCH_INPUTS.read_text())["exact-ladder"]
    command = ladder["commands"][index]
    spec = tmp_path / command["spec"]
    spec.write_text(json.dumps(ladder["specs"][command["spec"]]))
    assert main([arg.replace("{spec}", str(spec)) for arg in command["argv"]]) == 0
    stdout = capsys.readouterr().out
    report = json.loads(stdout[stdout.index("{"):])
    expect = command["expect"]
    assert report["exact"]["eta"] == pytest.approx(expect["eta"], rel=1e-9, abs=0.0)
    assert report["exact"]["mean_stable"] is expect["mean_stable"]
    assert report["sufficient"]["verdict"] == expect["verdict"]


@pytest.mark.parametrize("index", range(4))
def test_commands_match_the_ensemble_bench(index, tmp_path, capsys):
    # the committed ensemble-1e7 commands, read-only: each example exits 0,
    # every quantity within its reference tolerance, and analyze gives the
    # bench's expected verdict
    ensemble = json.loads(_BENCH_INPUTS.read_text())["ensemble-1e7"]
    command = ensemble["commands"][index]
    argv = command["argv"]
    if "spec" in command:
        spec = tmp_path / command["spec"]
        spec.write_text(json.dumps(ensemble["specs"][command["spec"]]))
        argv = [arg.replace("{spec}", str(spec)) for arg in argv]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    if command["check"] == "analyze-verdict":
        report = json.loads(stdout[stdout.index("\n{") + 1:])
        assert report["sufficient"]["verdict"] == command["expect"]["verdict"]
    else:
        assert command["check"] == "example" and "DEVIATES" not in stdout


# One model of each kind; the community and power-law ones are the built-in
# examples' ensembles.
_MODELS = {
    "binary": {"n": 3, "edges": [{"i": 1, "j": 2, "p": 2.0, "q": 1.0},
                                 {"i": 1, "j": 3, "p": 0.5, "q": 1.5},
                                 {"i": 2, "j": 3, "p": 1.0, "q": 1.0}]},
    "weighted": {"n": 3, "edges": [
        {"i": 1, "j": 2, "states": [0.0, 0.4, 1.0],
         "generator": [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]},
        {"i": 2, "j": 3, "states": [0.0, 0.5, 1.0],
         "generator": [[-1, 1, 0], [0.5, -1, 0.5], [0, 2, -2]]},
    ]},
    "frozen": {"n": 3, "edges": [
        {"i": 1, "j": 2, "states": [0.7], "generator": [[0.0]]},
        {"i": 2, "j": 3, "states": [0.3], "generator": [[0.0]]},
    ]},
    "community": {"ensemble": "community", **dataclasses.asdict(COMMUNITY_EXAMPLE)},
    "expected-degree": {"ensemble": "expected-degree",
                        "degrees": [1.0, 1.0, 50.0, 60.0]},
    "power-law": {"ensemble": "power-law", **dataclasses.asdict(POWERLAW_EXAMPLE)},
}
_EXAMPLE_OF = {"community": "community", "power-law": "powerlaw"}
# report.json's `sufficient` block, in its written order
_SUFFICIENT_KEYS = [
    "test", "network_kind", "n", "beta", "delta", "threshold", "lambda_max_abar",
    "delta_uncertainty", "f_min", "s_star", "s0", "lhs", "stable", "verdict",
    "d_tilde", "max_pair_prob", "invalid_pairs", "notes",
]


@pytest.mark.parametrize("kind", list(_MODELS))
def test_one_sufficient_path_for_every_model(kind, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_MODELS[kind]))
    out = tmp_path / "analyze"
    argv = ["analyze", "--spec", str(spec), "--beta", "0.25", "--delta", "1.5"]
    assert main(argv + ["--out", str(out)]) == 0
    sufficient = json.loads((out / "report.json").read_text())["sufficient"]
    expected = check_sufficient(
        summarize(load_network(spec)), EpidemicParams(beta=0.25, delta=1.5)
    )
    assert sufficient == json.loads(json.dumps(expected))
    assert list(sufficient) == _SUFFICIENT_KEYS
    frozen_notes = [note for note in sufficient["notes"] if "frozen graph" in note]
    assert len(frozen_notes) == (kind == "frozen")
    if kind in _EXAMPLE_OF:
        example = tmp_path / "example"
        assert main(["example", _EXAMPLE_OF[kind], "--out", str(example)]) == 0
        computed = json.loads((example / "report.json").read_text())["computed"]
        # JSON floats round-trip exactly, so == is bit for bit
        for key in ("f_min", "s_star", "lhs"):
            assert computed[key] == sufficient[key]


@pytest.mark.parametrize("n", [1_000_000_001, 10_000_000_000_000])
def test_power_law_cap_refused_before_allocating(n, tmp_path, capsys):
    # n = 1e13 used to die materializing the sequence, asking numpy for 72.8 TiB;
    # the cap now bounds work, and it is checked before any block
    spec = tmp_path / "ens.json"
    spec.write_text(json.dumps({"ensemble": "power-law", "n": n, "exponent": 2.2,
                                "max_degree": 5e5, "avg_degree": 1e3}))
    tracemalloc.start()
    try:
        code = main(["analyze", "--spec", str(spec), "--beta", "0.1", "--delta", "1.0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "power-law cap 1000000000" in capsys.readouterr().err
    assert peak < 16 << 20


# Two 2e6-vertex power laws: the 5e5 / 1e3 example's shape with 2e7 invalid
# pairs among 1e4 hubs, and one where every vertex is a hub.
_STREAMED = (
    epinet.ensembles.PowerLawSpec(n=2_000_000, exponent=2.2, max_degree=5e5,
                                  avg_degree=1e3),
    epinet.ensembles.PowerLawSpec(n=2_000_000, exponent=2.05, max_degree=1e7,
                                  avg_degree=2e6),
)


@pytest.mark.parametrize("spec", _STREAMED, ids=["example-shape", "all-hub"])
def test_expected_degree_statistics_run_in_block_memory(spec, monkeypatch, capsys):
    # one n-array of 2e6 degrees alone is 16 MB; the blocks keep every
    # traced peak under 4 MiB
    monkeypatch.setattr(epinet.cli, "POWERLAW_EXAMPLE", spec)
    for run in (lambda: summarize(spec), lambda: main(["example", "powerlaw"])):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
    assert "invalid edge probabilities" in capsys.readouterr().out


@pytest.mark.parametrize("delta", [0.5, 1.5])
@pytest.mark.parametrize("rate", [1e14, 1e16, 1e20, 1e100])
def test_analyze_decides_stiff_path_from_its_bound(rate, delta, tmp_path, capsys):
    # on this path 0 <= eta <= beta * (largest column sum) = 0.5 * 2 = 1, but
    # the eigensolver's error grows with the largest rate: its stop tolerance,
    # 1e-14 times the largest entry, is 1 to 1e86 here, so the bracket is the
    # bound [0, 1] itself.  It decides delta = 1.5 (once refused with exit 2
    # from 1e16 on) and leaves 0.5 undecided (the dense eta is 0.371; 1e14
    # once read not mean-stable there)
    spec = tmp_path / "path.json"
    spec.write_text(json.dumps({"n": 3, "edges": [
        {"i": 1, "j": 2, "p": rate, "q": rate},
        {"i": 2, "j": 3, "p": 1.0, "q": 1.0},
    ]}))
    code = main(["analyze", "--spec", str(spec), "--beta", "0.5", "--delta", str(delta)])
    assert code == 0
    stdout = capsys.readouterr().out
    exact = json.loads(stdout[stdout.index("{"):])["exact"]
    assert (exact["lo"], exact["hi"]) == (0.0, 1.0)
    if delta < 1:
        assert exact["mean_stable"] is None and "-> inconclusive" in stdout
    else:
        assert exact["mean_stable"] is True and "-> mean-stable (authoritative)" in stdout


def _bracket_cases() -> dict:
    """Specs whose eigensolver misses or strays, each with its beta, the
    bracket's upper end and whether the solver's value is taken."""
    cyclic = [[-1e6, 1e6, 0.0], [0.0, -1e6, 1e6], [1e6, 0.0, -1e6]]
    return {
        # eigs stops below the top at -0.2376 (its Krylov space is invariant
        # at dimension 18), where eta is 0
        "arpack-miss": ({"n": 4, "edges": [
            {"i": 1, "j": 3, "states": [0.0], "generator": [[0.0]]},
            {"i": 1, "j": 4, "states": [0.0, 0.0], "generator": [[-1.08, 1.08], [1.92, -1.92]]},
            {"i": 2, "j": 4,
             "states": [0.4709880669164216, 0.0, 0.6591078335748368, 0.17581140283814967],
             "generator": [
                 [-3.035327583777139, 1.002442622252316, 0.0, 2.032884961524823],
                 [0.0, 0.0, 0.0, 0.0],
                 [0.0, 2.9505338712687106, -5.077806803055685, 2.127272931786974],
                 [0.0, 1.9761767665188719, 0.1507591616348406, -2.1269359281537126]]},
            {"i": 3, "j": 4, "states": [0.0, 0.178], "generator": [[0.0, 0.0], [0.259, -0.259]]},
        ]}, 0.12031815589697487, 0.1007192708, False),
        # Davidson ends its 5000 products at a residual of 1.29e-10, just
        # above its tolerance 9.9e-11; the dense eta is 1.156e-4
        "davidson-stall": ({"n": 4, "edges": [
            {"i": 1, "j": 3, "p": 1.0485062837688404, "q": 1489.9974566682133},
            {"i": 1, "j": 4, "p": 1.1933315953589288e-244, "q": 1.0764168174528383},
            {"i": 2, "j": 4, "p": 0.0, "q": 8383.091246409776},
            {"i": 3, "j": 4, "p": 0.00027286245707330235, "q": 1.0785394224515723},
        ]}, 0.1502931576569745, 0.4508794730, False),
        # ARPACK reads 1.4e-8 relative above the bound, within its tolerance
        "cyclic-k4": ({"n": 4, "edges": [
            {"i": i, "j": j, "states": [1.0, 1.0, 1.0], "generator": cyclic}
            for i in range(1, 5) for j in range(i + 1, 5)
        ]}, 1e-3, 3e-3, True),
    }


@pytest.mark.parametrize("case", ["arpack-miss", "davidson-stall", "cyclic-k4"])
def test_analyze_decides_from_the_bracket_when_the_solver_strays(case, tmp_path, capsys):
    data, beta, hi, taken = _bracket_cases()[case]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(data))
    assert main(["analyze", "--spec", str(spec), "--beta", repr(beta), "--delta", "1.0"]) == 0
    stdout = capsys.readouterr().out
    exact = json.loads(stdout[stdout.index("{"):])["exact"]
    assert exact["hi"] == pytest.approx(hi, rel=1e-9) and exact["mean_stable"] is True
    assert "-> mean-stable (authoritative)" in stdout
    if taken:
        assert exact["note"] is None and exact["eta"] is not None
    else:
        assert exact["eta"] is None and exact["lo"] == 0.0
        assert f"note: {exact['note']}" in stdout


def test_every_command_writes_one_manifest(triangle_spec, tmp_path):
    runs = {
        "analyze": ["--spec", str(triangle_spec), "--beta", "0.2", "--delta", "1.5"],
        "simulate": ["--spec", str(triangle_spec), "--beta", "0.5",
                     "--delta", "1.0", "--horizon", "1.0"],
        "example": ["community"],
        "oracle": ["--trials", "2"],
        "minimize-f": ["--n", "10", "--uncertainty", "2.0"],
    }
    for command, args in runs.items():
        out = tmp_path / command
        assert main([command, *args, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # analyze adds the solver that decided eta
        extra = ["exact"] if command == "analyze" else []
        assert sorted(manifest) == sorted(["argv", "command", "elapsed_s", "tool",
                                           "version", *extra])
        assert manifest["command"] == command
        # the argv main parsed, not the host process's command line
        assert manifest["argv"] == [command, *args, "--out", str(out)]
    # a run that exits 1 writes no manifest
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3}) + "x")
    for argv in (
        ["analyze", "--spec", str(bad), "--beta", "0.2", "--delta", "1.5"],
        ["simulate", "--spec", str(triangle_spec), "--beta", "0.2", "--delta",
         "1.5", "--trials", "3", "--linearized"],
    ):
        out = tmp_path / "failed"
        assert main([*argv, "--out", str(out)]) == 1
        assert not (out / "manifest.json").exists()


# Arbitrary spec JSON for the CLI: a well-formed explicit spec (binary or
# weighted chains) or ensemble on at most 4 vertices, with up to two fields
# deleted or replaced by wrong types, fractional ids, or negative, huge and
# non-finite numbers.
_ODD_NUMBERS = (0, -1.0, 1.5, 1e-300, 1e300, 1e308, math.inf, -math.inf, math.nan,
                10**400)
_JUNK = (None, True, "", "x", [], [1, 2], {})
_RATE = st.floats(min_value=0.0, max_value=10.0)
_UNKNOWN_FIELDS = ("edge", "weight", "switch_scale")
_UNIT = st.floats(min_value=0.0, max_value=1.0)


def _edge(draw, i, j, weighted):
    if not weighted:
        return {"i": i, "j": j, "p": draw(_RATE), "q": draw(_RATE)}
    k = draw(st.integers(1, 3))
    rates = [[draw(_RATE) if a != b else 0.0 for b in range(k)] for a in range(k)]
    return {
        "i": i, "j": j,
        "states": [draw(_UNIT) for _ in range(k)],
        "generator": [[-sum(row) if a == b else x for b, x in enumerate(row)]
                      for a, row in enumerate(rates)],
    }


@st.composite
def _spec_json(draw):
    kind = draw(st.sampled_from(["explicit", "community", "expected-degree",
                                 "power-law"]))
    if kind == "explicit":
        n = draw(st.integers(1, 4))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)
                      if pairs else st.just([]))
        weighted = draw(st.booleans())
        data = {"n": n, "edges": [_edge(draw, i, j, weighted) for i, j in chosen]}
    elif kind == "community":
        data = {"ensemble": kind, "n1": draw(st.integers(1, 2)),
                "n2": draw(st.integers(1, 2)), "theta1": draw(_UNIT),
                "theta2": draw(_UNIT), "phi": draw(_UNIT)}
    elif kind == "expected-degree":
        data = {"ensemble": kind,
                "degrees": draw(st.lists(st.floats(0.0, 3.0), min_size=2, max_size=4))}
    else:
        avg = draw(st.floats(0.1, 5.0))
        data = {"ensemble": kind, "n": draw(st.integers(2, 4)),
                "exponent": draw(st.floats(2.01, 4.0)),
                "max_degree": avg + draw(st.floats(0.0, 5.0)), "avg_degree": avg}
    data = {"root": data}
    rng = draw(st.randoms(use_true_random=False))  # uniform over the slots
    for _ in range(rng.choice((0, 0, 1, 2))):
        slots = []
        stack = [data]
        while stack:
            node = stack.pop()
            for key in (range(len(node)) if isinstance(node, list) else list(node)):
                slots.append((node, key))
                if isinstance(node[key], (dict, list)):
                    stack.append(node[key])
        if not slots:
            break
        objects = [node[key] for node, key in slots if isinstance(node[key], dict)]
        if objects and rng.random() < 0.2:  # a field no record has
            rng.choice(objects)[rng.choice(_UNKNOWN_FIELDS)] = 1.0
            continue
        node, key = rng.choice(slots)
        if rng.random() < 0.3:
            del node[key]
        elif isinstance(node[key], (int, float)) and rng.random() < 0.8:
            node[key] = rng.choice(_ODD_NUMBERS)
        else:
            node[key] = copy.deepcopy(rng.choice(_JUNK))
    return data.get("root", {})


_NON_FINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)


@settings(max_examples=200, derandomize=True, deadline=2000)
@given(
    data=_spec_json(),
    beta=st.floats(min_value=1e-3, max_value=1e3),
    delta=st.floats(min_value=1e-3, max_value=1e3),
    command=st.sampled_from(["analyze", "simulate"]),
)
def test_cli_fuzz_exits_cleanly(data, beta, delta, command):
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp) / "spec.json", Path(tmp) / "out"
        spec.write_text(json.dumps(data))
        argv = [command, "--spec", str(spec), "--beta", repr(beta),
                "--delta", repr(delta), "--out", str(out)]
        if command == "simulate":
            argv += ["--horizon", "0.01"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        if code == 0:
            texts = [stdout.getvalue()] + [f.read_text() for f in out.iterdir()]
            assert not any(_NON_FINITE.search(text) for text in texts), texts
            assert not any(f'"{key}":' in spec.read_text() for key in _UNKNOWN_FIELDS)
        elif code == 1:
            assert stderr.getvalue().startswith("error:")
        else:
            assert code == 2
            assert stderr.getvalue().startswith("internal check failed:")
