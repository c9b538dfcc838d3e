import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import mmread

import epinet.cli
import epinet.exact
from epinet.cli import main

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


def test_analyze_dump_matrix(triangle_spec, tmp_path, monkeypatch):
    built = []
    assemble = epinet.exact.assemble_stability_matrix

    def counting(*args, **kwargs):
        built.append(assemble(*args, **kwargs))
        return built[-1]

    # patched in both namespaces, so a second assembly anywhere is counted
    monkeypatch.setattr(epinet.exact, "assemble_stability_matrix", counting)
    monkeypatch.setattr(epinet.cli, "assemble_stability_matrix", counting, raising=False)
    out = tmp_path / "run"
    code = main(
        [
            "analyze",
            "--spec", str(triangle_spec),
            "--beta", "0.2",
            "--delta", "1.5",
            "--dump-matrix",
            "--out", str(out),
        ]
    )
    assert code == 0
    mat = mmread(out / "stability_matrix.mtx")
    assert mat.shape == (24, 24)  # 8 configurations x 3 vertices
    assert len(built) == 1
    assert np.array_equal(mat.toarray(), built[0].toarray())


def test_analyze_respects_exact_cap(triangle_spec, capsys):
    code = main(
        [
            "analyze",
            "--spec", str(triangle_spec),
            "--beta", "0.2",
            "--delta", "1.5",
            "--exact-cap", "4",
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "exact test skipped" in stdout
    payload = stdout[stdout.index("{"):]
    assert json.loads(payload)["exact"]["status"] == "skipped-too-large"


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


def test_analyze_malformed_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "edges": [{"i": 1, "j": 2, "p": 2.0}]}))
    code = main(["analyze", "--spec", str(bad), "--beta", "0.2", "--delta", "1.5"])
    assert code == 1
    assert "edges[0]" in capsys.readouterr().err


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


def test_analyze_arpack_failure_exits_two(triangle_spec, monkeypatch, capsys):
    import scipy.sparse.linalg as sla

    def no_convergence(*args, **kwargs):
        raise sla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((3, 0)))

    monkeypatch.setattr(sla, "eigs", no_convergence)
    code = main(
        ["analyze", "--spec", str(triangle_spec), "--beta", "0.2", "--delta", "1.5"]
    )
    assert code == 2
    assert "ARPACK" in capsys.readouterr().err


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


def test_simulate_refuses_unbounded_work(triangle_spec, capsys):
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
    assert payload["exact"]["status"] == "skipped-too-large"


def test_analyze_power_law_checks_size_before_realizing(tmp_path, capsys, monkeypatch):
    calls = []
    original = epinet.cli.power_law_degrees
    monkeypatch.setattr(
        epinet.cli, "power_law_degrees", lambda ens: calls.append(ens) or original(ens)
    )
    spec = tmp_path / "ens.json"
    spec.write_text(
        json.dumps(
            {"ensemble": "power-law", "n": 5000, "exponent": 2.5,
             "max_degree": 50.0, "avg_degree": 5.0}
        )
    )
    code = main(["analyze", "--spec", str(spec), "--beta", "0.001", "--delta", "2.0"])
    assert code == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout[stdout.index("{"):])
    assert payload["exact"]["status"] == "skipped-too-large"
    assert "n=5000" in payload["exact"]["reason"]
    assert len(calls) == 1  # the sufficient test's sequence only


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
