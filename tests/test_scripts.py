import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_run_oracle_suite_script(tmp_path):
    proc = run_script("run_oracle_suite.py", ["--count", "3"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "3/3 instances passed" in proc.stdout
    assert "smallest sandwich slack" in proc.stdout


def test_decay_experiment_script(tmp_path):
    proc = run_script("decay_experiment.py", ["--trials", "4"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "fitted decay rate" in proc.stdout
    lines = (tmp_path / "decay_norms.csv").read_text().splitlines()
    assert lines[0] == "t,mean_norm" and len(lines) > 3


def test_reproduce_examples_script(tmp_path):
    proc = run_script("reproduce_examples.py", [], tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("community", "powerlaw"):
        report = json.loads(
            (tmp_path / "example_reports" / name / "report.json").read_text()
        )
        assert report["example"] == name
        assert report["all_within_tolerance"] is True
