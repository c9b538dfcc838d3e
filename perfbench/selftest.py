"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout; it takes under a minute.  It shows
that every correctness check can fail (a perturbed reference, a non-zero
exit and a raised exception each count as a failed operation), that the
tracer patches re-exported names, links spans to their parents and records
a missing function as absent, that a worker's peak resident set leaves out
the memory of the process that started it, that the host probe scales a
time by the host's slowness over its window, that the committed
default-seed inputs are what the generator makes, that ``BENCHMARK.json`` names exactly the figures
the code reports, and that the benchmark refuses to run without the
package sources.
"""
from __future__ import annotations

import json
import math
import time
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import epinet  # noqa: E402
import hostprobe  # noqa: E402
import epinet.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import run_command  # noqa: E402

SCRATCH = run.OUT / "selftest"


def _materialized(inputs: dict, name: str) -> list[list[str]]:
    return run.materialize(inputs, SCRATCH / name)


def _run(argv: list[str]) -> dict:
    return run_command(epinet.cli.main, argv)


def _fails(outcome: dict, command: dict, expect: dict | None = None) -> bool:
    if expect is not None:
        command = dict(command, expect=dict(command["expect"], **expect))
    return workloads.check_outcome(outcome, command) is not None


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracer.PER_LAYER]


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def test_committed_inputs() -> None:
    committed = json.loads(workloads.committed_path().read_text())
    assert committed.keys() == workloads.GENERATORS.keys()
    for name, generate in workloads.GENERATORS.items():
        assert _close(generate(workloads.DEFAULT_SEED), committed[name]), name


def test_exact_check() -> None:
    inputs = workloads.gen_exact_ladder(7, edge_counts=(3,))
    (argv,) = _materialized(inputs, "exact")
    (command,) = inputs["commands"]
    outcome = _run(argv)
    assert workloads.check_outcome(outcome, command) is None, outcome
    eta = command["expect"]["eta"]
    assert _fails(outcome, command, {"eta": eta * (1 + 1e-6)})
    assert _fails(outcome, command, {"mean_stable": not command["expect"]["mean_stable"]})
    assert _fails(outcome, command, {"verdict": "stable-a.s."})


def test_exit_code_and_exception_fail() -> None:
    inputs = workloads.gen_exact_ladder(7, edge_counts=(3,))
    (command,) = inputs["commands"]
    missing = [str(SCRATCH / "missing.json") if a == "{spec}" else a for a in command["argv"]]
    outcome = _run(missing)
    assert outcome["rc"] == 1 and _fails(outcome, command)

    def broken_main(argv):
        raise ZeroDivisionError("injected")

    outcome = run_command(broken_main, ["analyze"])
    assert outcome["raised"] and "ZeroDivisionError" in outcome["raised"]
    assert _fails(outcome, command)


def test_ensemble_checks() -> None:
    inputs = workloads.gen_ensemble(3)
    argvs = _materialized(inputs, "ensemble")
    for argv, command in zip(argvs, inputs["commands"]):
        if not any("community" in a for a in argv):
            continue
        outcome = _run(argv)
        assert workloads.check_outcome(outcome, command) is None, outcome
        if command["check"] == "analyze-verdict":
            flipped = {"stable-a.s.": "inconclusive", "inconclusive": "stable-a.s."}
            assert _fails(outcome, command, {"verdict": flipped[command["expect"]["verdict"]]})
        assert _fails(dict(outcome, stdout=outcome["stdout"] + "\nlhs = nan\n"), command)
        assert _fails(dict(outcome, rc=2), command)


def test_decay_check() -> None:
    inputs = workloads.gen_decay(0)
    argv = _materialized(inputs, "decay")[0]
    command = inputs["commands"][0]
    outcome = _run(argv)
    assert workloads.check_outcome(outcome, command) is None, outcome
    margin = command["expect"]["margin"]
    assert _fails(outcome, command, {"margin": margin * 1.5})
    assert _fails(outcome, command, {"margin": margin * 0.7})
    assert _fails(dict(outcome, stdout="decay rate = 0.1 from 200 trials\n"), command)


def test_small_checks() -> None:
    inputs = workloads.gen_small_many(0)
    argvs = _materialized(inputs, "small")
    oracle, coupled = inputs["commands"][0], inputs["commands"][workloads.SMALL_ORACLE]
    for argv, command in ((argvs[0], oracle), (argvs[workloads.SMALL_ORACLE], coupled)):
        outcome = _run(argv)
        assert workloads.check_outcome(outcome, command) is None, outcome
    assert _fails({"rc": 0, "stdout": "oracle suite: 0/1 passed (0.01 s)\n"}, oracle)
    assert _fails({"rc": 0, "stdout": "coupled run: 9 samples, 1 events, "
                   "min l1 margin = -1e-05\n"}, coupled)


def test_tracer() -> None:
    inputs = workloads.gen_exact_ladder(7, edge_counts=(3,))
    (argv,) = _materialized(inputs, "trace")
    t = tracer.Tracer()
    t.install()
    try:
        for fn in (epinet.cli.build_joint_chain, epinet.exact.spectral_abscissa,
                   epinet.build_joint_chain, epinet.cli.main):
            assert hasattr(fn, "__trace_key__"), fn
        outcome = run_command(epinet.cli.main, argv)
    finally:
        t.uninstall()
    assert outcome["rc"] == 0, outcome
    assert not hasattr(epinet.cli.build_joint_chain, "__trace_key__")
    assert t.absent == []
    spans = {s[0]: s for s in t.spans}
    assert all(s[1] == 0 or s[1] in spans for s in spans.values())
    (abscissa,) = [s for s in spans.values() if s[2] == "spectral.spectral_abscissa"]
    chain = []
    while abscissa[1]:
        abscissa = spans[abscissa[1]]
        chain.append(abscissa[2])
    assert chain[-1] == "cli.main" and "exact.mean_stability_abscissa" in chain, chain
    figures = t.layer_metrics()
    assert figures.keys() == {m for m, _, _ in tracer.PER_LAYER}
    assert figures[tracer.OVERHEAD] > 0
    assert figures["cli.main.calls"] == 1 and figures["exact.build_joint_chain.calls"] == 1
    assert figures["spectral.spectral_abscissa.max_dim"] == workloads.LADDER_N * 2**3
    path = SCRATCH / "spans.json"
    t.write_spans(str(path))
    assert len(json.loads(path.read_text())["spans"]) == len(t.spans)


def test_tracer_records_absent() -> None:
    original = epinet.spectral.lambda_max_iterative
    del epinet.spectral.lambda_max_iterative
    t = tracer.Tracer()
    try:
        t.install()
        figures = t.layer_metrics()
    finally:
        t.uninstall()
        epinet.spectral.lambda_max_iterative = original
    assert "spectral.lambda_max_iterative" in t.absent, t.absent
    assert figures["spectral.lambda_max_iterative.calls"] == 0


def test_peak_rss_is_the_workers_own() -> None:
    import numpy as np

    deadline = time.monotonic() + 120
    job = {"argvs": [], "trace": False, "spans_path": str(SCRATCH / "unused.json")}
    alone = run.spawn(job, "selftest-alone", deadline)["peak_rss_kb"]
    ballast = np.ones(256 * 2**20 // 8)
    try:
        beside = run.spawn(job, "selftest-ballast", deadline)["peak_rss_kb"]
    finally:
        del ballast
    assert beside - alone < 32 * 1024, (alone, beside)


def test_host_probe() -> None:
    probe = hostprobe.HostProbe()
    # Synthetic samples: twice the reference time in [0, 1), the reference
    # time in [1, 2].
    ref = hostprobe.REFERENCE_MS / 1e3
    for t in (0.1, 0.5, 0.9, 1.1, 1.5, 1.9):
        probe.times.append(t)
        probe.cpu_s.append(2 * ref if t < 1 else ref)
    assert math.isclose(probe.slowness(0.0, 0.95), 2.0)
    assert math.isclose(probe.slowness(1.05, 2.0), 1.0)
    # A short window is widened about its centre until it holds a sample.
    assert math.isclose(probe.slowness(0.5, 0.5), 2.0)
    assert math.isclose(probe.slowness(1.0, 1.0), 1.5)
    assert math.isclose(probe.slowness(3.0, 3.0), 1.0)
    with hostprobe.HostProbe() as live:
        time.sleep(0.3)
    summary = live.summary()
    assert summary["samples"] >= 3 and summary["median_ms"] > 0, summary
    assert 0.1 < live.slowness(live.times[0], live.times[-1]) < 10


def test_refuses_without_sources() -> None:
    bare = SCRATCH / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-many", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name, test in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            test()
        except Exception:
            failures += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
        else:
            print(f"ok   {name}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
