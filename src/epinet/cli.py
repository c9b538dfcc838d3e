"""Command-line interface: analyze, simulate, example, oracle, minimize-f."""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .ensembles import (
    CommunitySpec,
    PowerLawSpec,
    as_switched_network,
    community_stats,
    degree_sequence,
    expected_degree_stats,
    load_network,
    summarize,
)
from .exact import (
    build_joint_chain,
    exact_mean_stable,
    expected_lambda_max,
)
from .netmodel import EpidemicParams, SpecFormatError
from .oracle import run_sandwich_suite, suite_summary
from .simulate import (
    SimConfig,
    default_step,
    estimate_decay,
    simulate_coupled,
    simulate_linear_path,
    simulate_path,
    write_events_csv,
    write_trajectory_csv,
)
from .stability import (
    check_sufficient,
    expected_degree_lambda_max,
    minimize_penalty,
    sufficient_lhs,
)

# Built-in worked examples with rounded reference values and the relative
# tolerances each computed quantity is expected to meet.
COMMUNITY_EXAMPLE = CommunitySpec(
    n1=10_000, n2=100_000, theta1=0.5, theta2=0.3, phi=0.1
)
COMMUNITY_REFERENCE = {
    "lambda_max": (3.04e4, 0.005),
    "f_min": (9.83e2, 0.05),
    "lhs": (3.14e4, 0.01),
}
POWERLAW_EXAMPLE = PowerLawSpec(
    n=10_000_000, exponent=2.2, max_degree=5e5, avg_degree=1e3
)
POWERLAW_REFERENCE = {
    "d_tilde": (3.15e4, 0.01),
    "f_min": (1.97e3, 0.10),
    "lhs": (3.35e4, 0.02),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for failed
    internal checks, so remap usage errors to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path: Path, obj) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(_jsonable(obj), indent=2) + "\n")
    tmp.replace(path)


def _attempt_exact(model, params: EpidemicParams) -> dict:
    try:
        joint = build_joint_chain(as_switched_network(model))
        e_lam = expected_lambda_max(joint)
        res = exact_mean_stable(joint, params)
        return {
            "status": "ok",
            "n_configs": joint.n_configs,
            "eta": res.eta,
            "mean_stable": res.mean_stable,
            "e_lambda_max": e_lam,
            "e_lambda_max_stable": e_lam < params.threshold,
        }
    except ValueError as exc:
        return {"status": "skipped", "reason": str(exc)}


def _cmd_analyze(args, out: Optional[Path], started: float) -> int:
    params = EpidemicParams(beta=args.beta, delta=args.delta)
    model = load_network(args.spec)
    report = check_sufficient(summarize(model), params)
    exact_info = _attempt_exact(model, params)

    result = {
        "beta": params.beta,
        "delta": params.delta,
        "sufficient": report.to_dict(),
        "exact": exact_info,
    }
    if exact_info["status"] == "ok":
        verdict = "mean-stable" if exact_info["mean_stable"] else "not-mean-stable"
        print(
            f"exact test: eta = {exact_info['eta']:.9g}, delta = {params.delta:g} "
            f"-> {verdict} (authoritative)"
        )
    else:
        print(f"exact test skipped: {exact_info['reason']}")
    print(
        f"sufficient test [{report.summary.test}]: lhs = {report.lhs:.9g}, "
        f"threshold delta/beta = {params.threshold:.9g} -> {report.verdict}"
    )
    for note in report.notes:
        print(f"note: {note}")
    if out:
        _write_json(out / "report.json", result)
    else:
        print(json.dumps(_jsonable(result), indent=2))
    return 0


def _cmd_simulate(args, out: Optional[Path], started: float) -> int:
    params = EpidemicParams(beta=args.beta, delta=args.delta)
    spec = as_switched_network(load_network(args.spec))
    step = args.step if args.step is not None else default_step(spec, params)
    cfg = SimConfig(
        horizon=args.horizon, step=step, trials=args.trials, seed=args.seed
    )
    common = {"step": cfg.step, "horizon": cfg.horizon, "seed": cfg.seed}

    if args.trials > 1:
        if args.linearized or args.coupled:
            raise ValueError("decay estimation (--trials > 1) runs the full dynamics")
        est = estimate_decay(spec, params, cfg)
        hw = "n/a" if est.half_width is None else f"{est.half_width:.3g}"
        print(
            f"decay rate = {est.rate:.6g} (95% half-width {hw}) "
            f"from {est.trials} trials"
        )
        if out:
            summary = {
                "mode": "decay",
                "trials": est.trials,
                "rate": est.rate,
                "half_width": est.half_width,
                "window_start": est.window_start,
                **common,
                "grid_times": est.grid_times,
                "mean_norms": est.mean_norms,
            }
            _write_json(out / "decay.json", summary)
        return 0

    if args.coupled:
        res = simulate_coupled(spec, params, cfg)
        traj, linear = res.full, res.linear
        summary = {"mode": "coupled", "min_margin": res.min_margin}
        outcome = f"min l1 margin = {res.min_margin:.3g}"
    else:
        runner = simulate_linear_path if args.linearized else simulate_path
        traj, linear = runner(spec, params, cfg), None
        final_l1 = float(np.abs(traj.p[-1]).sum())
        summary = {"mode": "linearized" if args.linearized else "full",
                   "final_l1": final_l1}
        outcome = f"final l1 = {final_l1:.6g}"
    summary.update(samples=int(traj.times.size), events=len(traj.events), **common)
    print(
        f"{summary['mode']} run: {summary['samples']} samples, "
        f"{summary['events']} events, {outcome}"
    )
    if out:
        write_trajectory_csv(traj, out / "trajectory.csv")
        if linear is not None:
            write_trajectory_csv(linear, out / "trajectory_linear.csv")
        write_events_csv(traj, out / "events.csv")
        _write_json(out / "summary.json", summary)
    return 0


def _compare_reference(computed: dict, reference: dict) -> tuple[list[dict], bool]:
    rows = []
    all_ok = True
    for key, (ref, tol) in reference.items():
        val = computed[key]
        dev = abs(val - ref) / abs(ref)
        ok = dev <= tol
        all_ok &= ok
        rows.append(
            {"quantity": key, "computed": val, "reference": ref,
             "rel_deviation": dev, "tolerance": tol, "within": ok}
        )
    return rows, all_ok


def _cmd_example(args, out: Optional[Path], started: float) -> int:
    if args.name == "community":
        ens = COMMUNITY_EXAMPLE
        summary = community_stats(ens)
        pm, lhs = sufficient_lhs(summary)
        computed = {
            "lambda_max": summary.lambda_max_abar,
            "delta_uncertainty": summary.delta_uncertainty,
            "f_min": pm.f_min,
            "s_star": pm.s_star,
            "lhs": lhs,
        }
        parameters = {
            "n1": ens.n1, "n2": ens.n2,
            "theta1": ens.theta1, "theta2": ens.theta2, "phi": ens.phi,
        }
        reference = COMMUNITY_REFERENCE
        notes = [
            *summary.notes,
            "the reference penalty value is the global minimum of f over "
            "s >= 0 (the only reading that yields a meaningful threshold)",
        ]
    else:
        ens = POWERLAW_EXAMPLE
        degrees = degree_sequence(ens)
        summary = expected_degree_stats(degrees)
        pm, lhs = sufficient_lhs(summary)
        computed = {
            "coefficient": ens.coefficient,
            "offset": ens.offset,
            "max_degree": float(degrees.block(0, 1)[0]),
            "mean_degree": degrees.d1 / degrees.n,
            "d_tilde": summary.d_tilde,
            "lambda_max": expected_degree_lambda_max(degrees),
            "delta_uncertainty": summary.delta_uncertainty,
            "f_min": pm.f_min,
            "s_star": pm.s_star,
            "lhs": lhs,
            "max_pair_prob": summary.max_pair_prob,
            "invalid_pairs": summary.invalid_pairs,
        }
        parameters = {
            "n": ens.n, "exponent": ens.exponent,
            "max_degree": ens.max_degree, "avg_degree": ens.avg_degree,
        }
        reference = POWERLAW_REFERENCE
        notes = [
            "variance proxy Delta taken as the largest row sum of "
            "abar*(1-abar) with abar_ij = rho d_i d_j; this reading "
            "reproduces the reference f_min",
            *summary.notes,
        ]
    rows, all_ok = _compare_reference(computed, reference)
    elapsed = time.perf_counter() - started
    for row in rows:
        status = "ok" if row["within"] else "DEVIATES"
        print(
            f"{row['quantity']:>18}: computed {row['computed']:.6g}  "
            f"reference {row['reference']:.6g}  rel dev {row['rel_deviation']:.2%} "
            f"(tol {row['tolerance']:.1%}) {status}"
        )
    for note in notes:
        print(f"note: {note}")
    print(f"elapsed: {elapsed:.2f} s")
    result = {
        "example": args.name,
        "parameters": parameters,
        "computed": computed,
        "reference_rows": rows,
        "all_within_tolerance": all_ok,
        "elapsed_s": elapsed,
        "notes": notes,
    }
    if out:
        _write_json(out / "report.json", result)
    return 0 if all_ok else 2


def _cmd_oracle(args, out: Optional[Path], started: float) -> int:
    reports = run_sandwich_suite(count=args.trials, seed=args.seed)
    summary = suite_summary(reports)
    for k, rep in enumerate(reports):
        mark = "ok " if rep.passed else "FAIL"
        print(
            f"[{mark}] #{k:03d} n={rep.n} m={rep.m} "
            f"lam={rep.lambda_max_abar:.4g} E[lam]={rep.e_lambda_max:.4g} "
            f"lam+f_min={rep.lhs_upper:.4g} eta={rep.eta_beta1:.4g}"
        )
    print(
        f"oracle suite: {summary['passed']}/{summary['count']} passed "
        f"({time.perf_counter() - started:.2f} s)"
    )
    if out:
        _write_json(
            out / "oracle.json",
            {"summary": summary, "reports": [r.to_dict() for r in reports]},
        )
    return 0 if summary["failures"] == 0 else 2


def _cmd_minimize(args, out: Optional[Path], started: float) -> int:
    pm = minimize_penalty(args.n, args.uncertainty)
    result = {
        "n": pm.n,
        "delta_uncertainty": pm.delta_uncertainty,
        "s0": pm.s0,
        "s_star": pm.s_star,
        "f_min": pm.f_min,
    }
    print(json.dumps(_jsonable(result), indent=2))
    if out:
        _write_json(out / "minimize.json", result)
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built at the first call to main."""
    parser = _Parser(
        prog="epinet",
        description=(
            "Decide whether an SIS epidemic over a randomly switched network "
            "dies out: exact small-instance tests, scalable spectral bounds, "
            "and an event-driven simulator."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"epinet {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pa = sub.add_parser(
        "analyze", help="stability report for a network spec or ensemble"
    )
    pa.add_argument("--spec", required=True, help="JSON network spec or ensemble")
    pa.add_argument("--beta", type=float, required=True, help="infection rate")
    pa.add_argument("--delta", type=float, required=True, help="recovery rate")
    pa.add_argument("--out", help="directory for report.json and manifest.json")
    pa.set_defaults(func=_cmd_analyze)

    ps = sub.add_parser("simulate", help="event-driven simulation")
    ps.add_argument("--spec", required=True)
    ps.add_argument("--beta", type=float, required=True)
    ps.add_argument("--delta", type=float, required=True)
    ps.add_argument("--trials", type=int, default=1)
    ps.add_argument("--horizon", type=float, default=10.0)
    ps.add_argument(
        "--step",
        type=float,
        default=None,
        help="sample-grid step (default: a tenth of the fastest time constant)",
    )
    ps.add_argument("--seed", type=int, default=0)
    group = ps.add_mutually_exclusive_group()
    group.add_argument(
        "--linearized", action="store_true", help="integrate the linearized system"
    )
    group.add_argument(
        "--coupled",
        action="store_true",
        help="run full and linearized systems on one switching realization",
    )
    ps.add_argument("--out")
    ps.set_defaults(func=_cmd_simulate)

    pe = sub.add_parser("example", help="reproduce a built-in worked example")
    pe.add_argument("name", choices=["community", "powerlaw"])
    pe.add_argument("--out")
    pe.set_defaults(func=_cmd_example)

    po = sub.add_parser("oracle", help="brute-force cross-check suite")
    po.add_argument("--trials", type=int, default=100)
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--out")
    po.set_defaults(func=_cmd_oracle)

    pm = sub.add_parser("minimize-f", help="minimize the concentration penalty")
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument(
        "--uncertainty", type=float, required=True, help="variance row-sum Delta"
    )
    pm.add_argument("--out")
    pm.set_defaults(func=_cmd_minimize)
    return parser


def main(argv=None) -> int:
    """Run one command.  With ``--out`` the directory is created first, and
    ``manifest.json`` is written once the command has returned; a command
    that raises (exit 1 or 2) leaves no manifest."""
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        out = None if args.out is None else Path(args.out)
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        code = args.func(args, out, started)
        if out is not None:
            manifest = {
                "tool": "epinet",
                "version": __version__,
                "command": args.command,
                "argv": sys.argv[1:],
                "elapsed_s": time.perf_counter() - started,
            }
            _write_json(out / "manifest.json", manifest)
        return code
    except (SpecFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
