#!/usr/bin/env python3
"""Benchmark of the epinet command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  The seed fixes every input; the default seed's inputs and
reference values are committed under ``perfbench/inputs/``.  After the
inputs are made, the run pins itself to one core; every worker it starts
runs there with one BLAS thread.  Each pass over a workload's commands runs
in a fresh interpreter (``worker.py``), so every pass has its own set-up time
and peak resident set.  A few set-up-only interpreters come first, then
passes repeat until ``--seconds`` is used up.  After measuring, every
command's output is checked against its reference.

``--trace 0`` reports the end-to-end figures.  Times are CPU times of the
worker, divided by the slowness of the host over the same interval as the
host probe measured it on the same core (``hostprobe.py``), because the
speed of a core on a shared host moves by up to 1.8x over minutes.  The
unscaled times are printed and kept in the run record.  ``--trace 1`` runs
traced passes, without the probe, and reports the per-layer figures of
``tracer.PER_LAYER``.  Human-readable lines come first; the last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and a full record of each run
(environment, every pass) are written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("exact-ladder", "ensemble-1e7", "decay-mc", "small-many")
# (name, unit, better).  The share of failed commands is reported as the
# result's "failed" / "attempted" and printed, not as a metric, because it is
# 0 on a healthy run.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# A run must end within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170.0
# Set-up-only interpreters started before the first pass.
SETUP_SPAWNS = 3
# Every worker runs with this many BLAS threads, on the run's one core.
WORKER_BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def _generation_blas_threads() -> int:
    """BLAS threads for making inputs, before pinning: 2, or fewer if fewer cores."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(loadavg: tuple, nproc: int, core: int, generation_threads: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": openblas,
        "nproc": nproc,
        "core": core,
        "blas_threads": WORKER_BLAS_THREADS,
        "generation_blas_threads": generation_threads,
        "loadavg_at_start": list(loadavg),
    }


def materialize(inputs: dict, directory: Path) -> list[list[str]]:
    """Write the workload's spec files and return its command lines."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, spec in inputs["specs"].items():
        (directory / name).write_text(json.dumps(spec) + "\n")
    argvs = []
    for cmd in inputs["commands"]:
        path = str(directory / cmd["spec"]) if "spec" in cmd else None
        argvs.append([path if arg == "{spec}" else arg for arg in cmd["argv"]])
    return argvs


def spawn(job: dict, tag: str, deadline: float) -> dict:
    """Run one worker to completion and return its result."""
    job_path = OUT / f"{tag}.job.json"
    result_path = OUT / f"{tag}.result.json"
    job_path.write_text(json.dumps(job))
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, **{var: str(WORKER_BLAS_THREADS) for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    timeout = max(1.0, deadline - time.monotonic())
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(job_path), str(result_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {tag} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    result["spawned"] = started
    return result


def measure(argvs, tag, seconds, trace, spans_path, deadline) -> tuple[list, list]:
    """Set-up-only spawns, then passes until ``seconds`` is spent (at least one)."""
    end = min(time.monotonic() + seconds, deadline)
    empty = {"argvs": [], "trace": False, "spans_path": str(spans_path)}
    setups = [spawn(empty, tag, deadline) for _ in range(SETUP_SPAWNS)]
    job = {"argvs": argvs, "trace": trace, "spans_path": str(spans_path)}
    passes = []
    while True:
        started = time.monotonic()
        passes.append(spawn(job, tag, deadline))
        now = time.monotonic()
        if now + (now - started) > end:
            return setups, passes


def scale(results: list, probe) -> None:
    """Add host-scaled set-up and command times to each worker result."""
    for r in results:
        r["setup_s"] = r["ready_cpu_s"] / probe.slowness(r["spawned"], r["ready"])
        for o in r["outcomes"]:
            o["slowness"] = probe.slowness(o["start"], o["end"])
            o["scaled_s"] = o["cpu_s"] / o["slowness"]


def _median(values) -> float:
    return float(statistics.median(values))


def _per_command(passes: list, key) -> float:
    """Sum over commands of the command's median over passes of ``key(outcome)``."""
    return sum(_median(key(o) for o in outs) for outs in zip(*(r["outcomes"] for r in passes)))


def end_to_end(setups: list, passes: list, items: int) -> dict:
    cpu = _per_command(passes, lambda o: o["scaled_s"])
    return {
        "setup_s": _median(r["setup_s"] for r in setups + passes),
        "cpu_s": cpu,
        "items_per_s": items / cpu,
        "peak_rss_mb": _median(r["peak_rss_kb"] / 1024.0 for r in passes),
    }


def unscaled(setups: list, passes: list) -> dict:
    """The same times before host scaling, for the human-readable lines."""
    return {
        "setup_wall_s": _median(r["ready"] - r["spawned"] for r in setups + passes),
        "setup_cpu_s": _median(r["ready_cpu_s"] for r in setups + passes),
        "wall_s": _per_command(passes, lambda o: o["end"] - o["start"]),
        "cpu_s": _per_command(passes, lambda o: o["cpu_s"]),
        "slowness": _median(o["slowness"] for r in passes for o in r["outcomes"]),
    }


def per_layer(passes: list) -> dict:
    from tracer import PER_LAYER

    return {name: _median(r["layers"][name] for r in passes) for name, _, _ in PER_LAYER}


def check(passes: list, commands: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every command of every pass."""
    from workloads import check_outcome

    attempted, reasons = 0, []
    for run in passes:
        for k, (outcome, command) in enumerate(zip(run["outcomes"], commands)):
            attempted += 1
            reason = check_outcome(outcome, command)
            if reason is not None:
                reasons.append(f"command {k} ({' '.join(command['argv'][:2])}): {reason}")
    return attempted, len(reasons), reasons


def main(argv=None) -> int:
    run_started = time.monotonic()
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "epinet" / "cli.py").is_file():
        print(f"error: no epinet sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    generation_threads = _generation_blas_threads()
    for var in BLAS_VARS:
        os.environ[var] = str(generation_threads)
    # The simulator's optional process pool stays at its default (off).
    os.environ.pop("EPINET_THREADS", None)

    import hostprobe
    import workloads

    inputs = workloads.workload_inputs(args.workload, args.seed)
    argvs = materialize(inputs, OUT / "inputs" / f"seed-{args.seed}" / args.workload)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    nproc = len(os.sched_getaffinity(0))
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    deadline = run_started + RUN_LIMIT_S
    probe = None if args.trace else hostprobe.HostProbe()
    try:
        with probe or contextlib.nullcontext():
            setups, passes = measure(argvs, tag, args.seconds, bool(args.trace),
                                     spans_path, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = environment(loadavg, nproc, core, generation_threads)

    attempted, failed, reasons = check(passes, inputs["commands"])
    if args.trace:
        from tracer import PER_LAYER

        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = per_layer(passes)
        raw = {}
    else:
        units = {name: unit for name, unit, _ in END_TO_END}
        scale(setups + passes, probe)
        metrics = end_to_end(setups, passes, inputs["items"])
        raw = unscaled(setups, passes)
        env["host_probe"] = probe.summary()

    print("environment: " + json.dumps(env))
    print(f"workload {args.workload}, seed {args.seed}: {len(setups)} set-ups, "
          f"{len(passes)} {'traced ' if args.trace else ''}passes of {len(argvs)} commands, "
          f"{inputs['items']} {inputs['item_unit']} per pass")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':<48} {failed / attempted:>16.6g} ({failed}/{attempted})")
    for name, value in raw.items():
        print(f"  unscaled {name:<39} {value:>16.6g}")
    if args.trace:
        absent = sorted({a for r in passes for a in r["absent"]})
        if absent:
            print("absent from the library (figures read 0): " + ", ".join(absent))
    for reason in reasons[:20]:
        print("FAILED " + reason)

    def summary(r: dict) -> dict:
        times = ("start", "end", "cpu_s", "slowness", "scaled_s")
        out = {k: v for k, v in r.items() if k not in ("outcomes", "layers")}
        out["commands"] = [{k: o[k] for k in times if k in o} for o in r["outcomes"]]
        return out

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "metrics": metrics, "unscaled": raw,
        "attempted": attempted, "failed": failed, "failures": reasons,
        "setups": [summary(r) for r in setups], "passes": [summary(r) for r in passes],
    }
    if probe is not None:
        record["host_probe_samples"] = {"times": probe.times, "cpu_s": probe.cpu_s}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
