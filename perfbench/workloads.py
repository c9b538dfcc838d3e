"""Seeded inputs, reference values and correctness checks for each workload.

A workload is a list of ``epinet`` command lines plus the JSON specs they
read.  Everything here is derived from the workload seed alone, so the same
seed always gives the same commands.  Reference values are computed by the
benchmark's own dense linear algebra, never by calling ``epinet``: the
mean-dynamics abscissa from ``kron(Pi^T, I) + beta blockdiag(A_k)`` and the
concentration penalty minimum from a dense grid.

Run ``python3 perfbench/workloads.py`` to regenerate the committed inputs of
the default seed (``perfbench/inputs/seed-0.json``).
"""
from __future__ import annotations

import itertools
import json
import re
import sys
import zlib
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
INPUTS_DIR = Path(__file__).resolve().parent / "inputs"

# exact-ladder: analyze on 5-vertex networks with 7, 8 and 9 binary switching
# edges, i.e. 128, 256 and 512 joint configurations and mean-dynamics
# matrices of 640^2, 1280^2 and 2560^2.  K5 (10 edges, 5120^2) takes ~40 s
# per command and would not fit the run budget.
LADDER_N = 5
LADDER_EDGES = (7, 8, 9)
ETA_RTOL = 1e-9
# Keep the sampled recovery rate this far (relative) from both decision
# thresholds, so a verdict is never decided by the last digits of eta.
VERDICT_MARGIN = 0.02

# ensemble-1e7: the built-in worked examples and analyze runs on the same
# ensembles.  The reference lhs values are the rounded figures the examples
# are checked against; sampled thresholds stay far outside their tolerance.
POWERLAW_SPEC = {
    "ensemble": "power-law",
    "n": 10_000_000,
    "exponent": 2.2,
    "max_degree": 5e5,
    "avg_degree": 1e3,
}
COMMUNITY_SPEC = {
    "ensemble": "community",
    "n1": 10_000,
    "n2": 100_000,
    "theta1": 0.5,
    "theta2": 0.3,
    "phi": 0.1,
}
POWERLAW_LHS = 3.35e4
COMMUNITY_LHS = 3.14e4

# decay-mc: the README triangle and one random complete 4-vertex instance,
# both at 200 trials.
TRIANGLE_SPEC = {
    "n": 3,
    "edges": [
        {"i": 1, "j": 2, "p": 2.0, "q": 1.0},
        {"i": 1, "j": 3, "p": 0.5, "q": 1.5},
        {"i": 2, "j": 3, "p": 1.0, "q": 1.0},
    ],
}
DECAY_TRIALS = 200
# A random K4 instance is redrawn until its expected segment count per trial
# (sample-grid points plus edge jumps) lies in this band, so that the seed
# changes the instance but not the amount of work by more than a few percent.
K4_SEGMENTS = (580.0, 600.0)
# The full dynamics are dominated by their linearization, so a correct run
# decays at least as fast as the exact margin -(delta - eta), up to Monte-Carlo
# error (10%).  Saturation of the full dynamics makes the fitted decay up to
# ~11% faster on random K4 instances while ||p|| is still ~0.1 in the fit
# window, so the fast side allows 20%.
DECAY_SLOW_TOL = 0.10
DECAY_FAST_TOL = 0.20

# small-many: single-instance oracle runs and coupled runs at a quarter of the
# default step on random 2-4 vertex instances, as acceptance criterion 5.
SMALL_ORACLE = 800
SMALL_COUPLED = 100
COUPLED_HORIZON = 2.0
COUPLED_FLOOR = -1e-7

NAN_RE = re.compile(r"\bnan\b", re.IGNORECASE)


# --------------------------------------------------------------------------
# Independent reference computations.

def _edge_tuples(spec: dict) -> list[tuple[int, int, float, float]]:
    return [(e["i"], e["j"], float(e["p"]), float(e["q"])) for e in spec["edges"]]


def mean_dynamics_matrix(spec: dict, beta: float) -> np.ndarray:
    """Dense kron(Pi^T, I_n) + beta blockdiag(A_k) for a binary edge list."""
    n = spec["n"]
    edges = _edge_tuples(spec)
    gen = np.zeros((1, 1))
    for _, _, p, q in edges:
        rate = np.array([[-p, p], [q, -q]])
        gen = np.kron(gen, np.eye(2)) + np.kron(np.eye(gen.shape[0]), rate)
    n_configs = gen.shape[0]
    mat = np.kron(gen.T, np.eye(n))
    for k in range(n_configs):
        block = mat[k * n:(k + 1) * n, k * n:(k + 1) * n]
        for e, (i, j, _, _) in enumerate(edges):
            if (k >> (len(edges) - 1 - e)) & 1:
                block[i - 1, j - 1] += beta
                block[j - 1, i - 1] += beta
    return mat


def mean_abscissa(spec: dict, beta: float) -> float:
    """Spectral abscissa eta of the mean dynamics, by dense eigvals."""
    return float(np.linalg.eigvals(mean_dynamics_matrix(spec, beta)).real.max())


def sufficient_lhs(spec: dict) -> float:
    """lambda_max(abar) + min_s f(s) for a binary edge list.

    f(s) = s + 2 n^2 exp(-3 s^2 / (2 s + 6 Delta)) is minimized on a dense
    grid over [0, 2 n^2]; since f(s) >= s and f(0) = 2 n^2 the minimizer lies
    in that interval.
    """
    n = spec["n"]
    abar = np.zeros((n, n))
    var = np.zeros((n, n))
    for i, j, p, q in _edge_tuples(spec):
        prob = p / (p + q)
        abar[i - 1, j - 1] = abar[j - 1, i - 1] = prob
        var[i - 1, j - 1] = var[j - 1, i - 1] = prob * (1.0 - prob)
    delta_u = float(var.sum(axis=1).max())
    s = np.linspace(0.0, 2.0 * n * n, 400_001)
    f = s + 2.0 * n * n * np.exp(-3.0 * s * s / (2.0 * s + 6.0 * delta_u))
    return float(np.linalg.eigvalsh(abar)[-1] + f.min())


def _max_row(spec: dict) -> int:
    rows = np.zeros(spec["n"])
    for e in spec["edges"]:
        rows[e["i"] - 1] += 1
        rows[e["j"] - 1] += 1
    return int(rows.max())


def default_step(spec: dict, beta: float, delta: float) -> float:
    """The simulator's default grid step for a binary spec: a tenth of
    1 / (delta + beta * max vertex degree)."""
    return 0.1 / (delta + beta * _max_row(spec))


# --------------------------------------------------------------------------
# Generators.  Each returns {"specs": {file: spec}, "commands": [...],
# "items": units of work per pass, "item_unit": what a unit is}.  A command's
# argv may hold "{spec}", replaced by the path of its "spec" file.

def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _rates(rng: np.random.Generator) -> tuple[float, float]:
    p, q = rng.uniform(0.1, 5.0, size=2)
    return float(p), float(q)


def _cmd(argv: list[str], check: str, expect: dict, spec: str | None = None) -> dict:
    cmd = {"argv": argv, "check": check, "expect": expect}
    if spec is not None:
        cmd["spec"] = spec
    return cmd


def gen_exact_ladder(seed: int, edge_counts=LADDER_EDGES) -> dict:
    rng = _rng(seed, "exact-ladder")
    pairs = list(itertools.combinations(range(1, LADDER_N + 1), 2))
    specs, commands = {}, []
    for m in edge_counts:
        chosen = sorted(rng.choice(len(pairs), size=m, replace=False))
        edges = []
        for k in chosen:
            p, q = _rates(rng)
            edges.append({"i": pairs[k][0], "j": pairs[k][1], "p": p, "q": q})
        spec = {"n": LADDER_N, "edges": edges}
        beta = float(rng.uniform(0.3, 1.0))
        eta = mean_abscissa(spec, beta)
        lhs = sufficient_lhs(spec)
        while True:
            if rng.random() < 0.5:
                delta = eta * float(rng.uniform(1.05, 1.5))
            else:
                delta = eta * float(rng.uniform(0.6, 0.95))
            if abs(delta / beta - lhs) > VERDICT_MARGIN * lhs:
                break
        name = f"ladder-m{m}.json"
        specs[name] = spec
        commands.append(_cmd(
            ["analyze", "--spec", "{spec}", "--beta", repr(beta), "--delta", repr(delta)],
            "analyze-exact",
            {
                "eta": eta,
                "mean_stable": eta < delta,
                "verdict": "stable-a.s." if lhs < delta / beta else "inconclusive",
            },
            spec=name,
        ))
    return {"specs": specs, "commands": commands,
            "items": len(commands), "item_unit": "exact verdicts"}


def gen_ensemble(seed: int) -> dict:
    rng = _rng(seed, "ensemble-1e7")
    specs = {"powerlaw.json": POWERLAW_SPEC, "community.json": COMMUNITY_SPEC}
    commands = []
    for example, name, lhs in (
        ("powerlaw", "powerlaw.json", POWERLAW_LHS),
        ("community", "community.json", COMMUNITY_LHS),
    ):
        beta = float(10.0 ** rng.uniform(-5.0, -4.0))
        stable = bool(rng.random() < 0.5)
        ratio = float(rng.uniform(1.25, 2.5) if stable else rng.uniform(0.4, 0.8))
        delta = beta * ratio * lhs
        commands.append(_cmd(["example", example], "example", {}))
        commands.append(_cmd(
            ["analyze", "--spec", "{spec}", "--beta", repr(beta), "--delta", repr(delta)],
            "analyze-verdict",
            {"verdict": "stable-a.s." if stable else "inconclusive"},
            spec=name,
        ))
    vertices = 2 * POWERLAW_SPEC["n"] + 2 * (COMMUNITY_SPEC["n1"] + COMMUNITY_SPEC["n2"])
    return {"specs": specs, "commands": commands,
            "items": vertices, "item_unit": "vertices certified"}


def _k4_segments(spec: dict, delta: float) -> float:
    """Expected sample-grid points plus edge jumps of one decay trial."""
    horizon = 20.0 / delta
    jumps = sum(2.0 * p * q / (p + q) for _, _, p, q in _edge_tuples(spec))
    return horizon / default_step(spec, 1.0, delta) + horizon * jumps


def gen_decay(seed: int) -> dict:
    rng = _rng(seed, "decay-mc")
    beta_t, delta_t = 0.2, 1.5
    eta_t = mean_abscissa(TRIANGLE_SPEC, beta_t)
    while True:
        edges = []
        for i, j in itertools.combinations(range(1, 5), 2):
            p, q = _rates(rng)
            edges.append({"i": i, "j": j, "p": p, "q": q})
        k4 = {"n": 4, "edges": edges}
        eta_k = mean_abscissa(k4, 1.0)
        delta_k = eta_k + 0.5
        if K4_SEGMENTS[0] <= _k4_segments(k4, delta_k) <= K4_SEGMENTS[1]:
            break
    commands = []
    for name, beta, delta, eta, horizon in (
        ("triangle.json", beta_t, delta_t, eta_t, 12.0),
        ("k4.json", 1.0, delta_k, eta_k, 20.0 / delta_k),
    ):
        commands.append(_cmd(
            ["simulate", "--spec", "{spec}", "--beta", repr(beta), "--delta", repr(delta),
             "--trials", str(DECAY_TRIALS), "--horizon", repr(horizon),
             "--seed", str(int(rng.integers(0, 2**31)))],
            "decay",
            {"margin": delta - eta},
            spec=name,
        ))
    return {"specs": {"triangle.json": TRIANGLE_SPEC, "k4.json": k4},
            "commands": commands,
            "items": DECAY_TRIALS * len(commands), "item_unit": "simulated trials"}


def gen_small_many(seed: int) -> dict:
    rng = _rng(seed, "small-many")
    base = int(rng.integers(0, 2**31 - SMALL_ORACLE))
    commands = [
        _cmd(["oracle", "--trials", "1", "--seed", str(base + k)], "oracle", {})
        for k in range(SMALL_ORACLE)
    ]
    specs = {}
    for k in range(SMALL_COUPLED):
        n = int(rng.integers(2, 5))
        edges = []
        for i, j in itertools.combinations(range(1, n + 1), 2):
            if edges and rng.random() < 0.15:
                continue
            p, q = _rates(rng)
            edges.append({"i": i, "j": j, "p": p, "q": q})
        spec = {"n": n, "edges": edges}
        beta, delta = (float(x) for x in rng.uniform(0.3, 2.0, size=2))
        name = f"coupled-{k:03d}.json"
        specs[name] = spec
        commands.append(_cmd(
            ["simulate", "--spec", "{spec}", "--beta", repr(beta), "--delta", repr(delta),
             "--coupled", "--horizon", repr(COUPLED_HORIZON),
             "--step", repr(default_step(spec, beta, delta) / 4.0), "--seed", str(k)],
            "coupled",
            {},
            spec=name,
        ))
    return {"specs": specs, "commands": commands,
            "items": len(commands), "item_unit": "small instances checked"}


GENERATORS = {
    "exact-ladder": gen_exact_ladder,
    "ensemble-1e7": gen_ensemble,
    "decay-mc": gen_decay,
    "small-many": gen_small_many,
}


def committed_path() -> Path:
    return INPUTS_DIR / f"seed-{DEFAULT_SEED}.json"


def workload_inputs(name: str, seed: int) -> dict:
    """Inputs of one workload: committed for the default seed, else generated."""
    if seed == DEFAULT_SEED:
        return json.loads(committed_path().read_text())[name]
    return GENERATORS[name](seed)


# --------------------------------------------------------------------------
# Correctness checks.  Each takes one command outcome (see worker.py) and the
# command's "expect" dict and returns None when the output is correct, else a
# one-line reason.

def _report_json(stdout: str) -> dict:
    """The JSON report analyze prints after its summary lines."""
    start = stdout.find("\n{")
    if start < 0:
        raise ValueError("no JSON report in analyze output")
    return json.loads(stdout[start + 1:])


def _analyze_exact(out: str, expect: dict) -> str | None:
    report = _report_json(out)
    exact = report["exact"]
    if exact.get("status") != "ok":
        return f"exact test did not run: {exact.get('reason')}"
    eta = float(exact["eta"])
    if not abs(eta - expect["eta"]) <= ETA_RTOL * abs(expect["eta"]):
        return f"eta {eta!r} differs from reference {expect['eta']!r}"
    if bool(exact["mean_stable"]) != expect["mean_stable"]:
        return f"exact verdict mean_stable={exact['mean_stable']} is wrong"
    verdict = report["sufficient"]["verdict"]
    if verdict != expect["verdict"]:
        return f"sufficient verdict {verdict!r}, expected {expect['verdict']!r}"
    return None


def _analyze_verdict(out: str, expect: dict) -> str | None:
    verdict = _report_json(out)["sufficient"]["verdict"]
    if verdict != expect["verdict"]:
        return f"sufficient verdict {verdict!r}, expected {expect['verdict']!r}"
    return None


def _example(out: str, expect: dict) -> str | None:
    # Exit code 0 already means every quantity met its reference tolerance.
    return None


def _decay(out: str, expect: dict) -> str | None:
    match = re.search(r"decay rate = (\S+)", out)
    if match is None:
        return "no decay rate in output"
    rate = float(match.group(1))
    margin = expect["margin"]
    if not (-(1.0 + DECAY_FAST_TOL) * margin <= rate <= -(1.0 - DECAY_SLOW_TOL) * margin):
        return f"decay rate {rate!r} outside the band around -{margin:.6g}"
    return None


def _oracle(out: str, expect: dict) -> str | None:
    if "oracle suite: 1/1 passed" not in out:
        return "oracle instance failed"
    return None


def _coupled(out: str, expect: dict) -> str | None:
    match = re.search(r"min l1 margin = (\S+)", out)
    if match is None:
        return "no l1 margin in output"
    margin = float(match.group(1))
    if not margin >= COUPLED_FLOOR:
        return f"min l1 margin {margin!r} below {COUPLED_FLOOR}"
    return None


CHECKS = {
    "analyze-exact": _analyze_exact,
    "analyze-verdict": _analyze_verdict,
    "example": _example,
    "decay": _decay,
    "oracle": _oracle,
    "coupled": _coupled,
}


def check_outcome(outcome: dict, command: dict) -> str | None:
    """Why ``outcome`` of ``command`` is a failed operation, or None."""
    if outcome.get("raised"):
        return "raised: " + outcome["raised"].strip().splitlines()[-1]
    if outcome.get("rc") != 0:
        return f"exit code {outcome.get('rc')}: {outcome.get('stderr', '').strip()[:200]}"
    out = outcome.get("stdout", "")
    if NAN_RE.search(out):
        return "NaN in output"
    try:
        return CHECKS[command["check"]](out, command["expect"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def main() -> int:
    inputs = {name: gen(DEFAULT_SEED) for name, gen in GENERATORS.items()}
    INPUTS_DIR.mkdir(exist_ok=True)
    committed_path().write_text(json.dumps(inputs, indent=1) + "\n")
    print(f"wrote {committed_path()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
