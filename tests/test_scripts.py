import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", ["run_oracle_suite.py", "decay_experiment.py"])
def test_scripts_refuse_a_negative_seed(name, tmp_path):
    # refused when the arguments are parsed, before any instance is drawn
    proc = run_script(name, ["--seed", "-1"], tmp_path)
    assert proc.returncode != 0
    assert "argument --seed: expected a non-negative integer, got '-1'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "" and not (tmp_path / "decay_norms.csv").exists()


def test_reproduce_examples_script(tmp_path):
    proc = run_script("reproduce_examples.py", [], tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("community", "powerlaw"):
        report = json.loads(
            (tmp_path / "example_reports" / name / "report.json").read_text()
        )
        assert report["example"] == name
        assert report["all_within_tolerance"] is True


def test_readme_python_usage_block():
    # each `expression  # value` line of README's python block is checked:
    # a comment "x.yz..." is the value rounded to the digits shown, any other
    # comment its repr
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    checked = []
    for statement in ast.parse(block).body:
        source = ast.get_source_segment(block, statement)
        line = block.splitlines()[statement.end_lineno - 1]
        if isinstance(statement, ast.Expr) and "#" in line:
            value = eval(source, scope)
            expected = line.split("#", 1)[1].strip()
            if expected.endswith("..."):
                digits = expected[:-3]
                decimals = len(digits.split(".")[1])
                assert f"{value:.{decimals}f}" == digits, (source, value)
            else:
                assert repr(value) == expected, (source, value)
            checked.append(expected)
        else:
            exec(source, scope)
    assert checked == ["0.6180339887...", "'inconclusive'", "31377.33..."]
