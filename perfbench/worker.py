"""One fresh-interpreter pass over a workload's commands.

Usage: python3 worker.py JOB.json RESULT.json

The job lists epinet command lines; each runs through ``epinet.cli.main``
in this process, as the ``epinet`` console script would, with stdout and
stderr captured.  The result records when ``import epinet.cli`` finished
and the CPU time this process had used by then, when each command started
and ended and the CPU time it used (times are on the system-wide monotonic
clock, so the parent can line them up with its own), the peak resident set
of this process and every command's outcome.  With
``"trace": true`` the public functions of every epinet module are wrapped
first and the per-layer figures are added.

The peak resident set is ``VmHWM`` of ``/proc/self/status``: the high-water
mark of this interpreter's own address space.  ``getrusage``'s ``ru_maxrss``
is not used, because Linux carries it across ``execve`` and folds in the
peak of the address space the launching process had at fork time.
"""
import time
import sys

import epinet.cli

READY = time.monotonic()
READY_CPU_S = time.process_time()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402


def run_command(main, argv: list) -> dict:
    """Run one CLI invocation; a raised exception is recorded, not re-raised."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    started, cpu = time.monotonic(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc = None
        raised = traceback.format_exc()
    cpu = time.process_time() - cpu
    return {
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "raised": raised,
        "start": started,
        "end": time.monotonic(),
        "cpu_s": cpu,
    }


def peak_rss_kb() -> int:
    """High-water resident set of this process's own address space, in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(job_path: str, result_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = None
    if job.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    outcomes = []
    for request, argv in enumerate(job["argvs"]):
        if tracer is not None:
            tracer.request = request
        # Looked up on each call so an installed wrapper is used.
        outcomes.append(run_command(epinet.cli.main, argv))
    result = {
        "ready": READY,
        "ready_cpu_s": READY_CPU_S,
        "outcomes": outcomes,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["absent"] = tracer.absent
        tracer.write_spans(job["spans_path"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
