"""Command-line interface: analyze, simulate, example, oracle, minimize-f."""
from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
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
    load_network,
    realized_pairs,
    summarize,
)
from .exact import (
    build_joint_chain,
    check_joint_size,
    exact_mean_stable,
    expected_lambda_max,
)
from .netmodel import EpidemicParams, SpecFormatError, SwitchedNetworkSpec, as_seed
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


def seed_argument(text: str) -> int:
    """A ``--seed`` option's decimal value, refused at parse time unless
    :func:`~epinet.netmodel.as_seed` takes it."""
    try:
        return as_seed(int(text) if text.strip().isdecimal() else text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
        if not isinstance(model, SwitchedNetworkSpec):
            # an ensemble is refused from its pairs, before any chain
            rows, cols, _ = realized_pairs(model)
            touched = np.count_nonzero(np.bincount(np.r_[rows, cols]))
            check_joint_size(touched, len(rows), itertools.repeat(2, len(rows)))
        joint = build_joint_chain(as_switched_network(model))
        e_lam = expected_lambda_max(joint)
        res = exact_mean_stable(joint, params)
    except ValueError as exc:
        return {"status": "skipped", "reason": str(exc)}
    return {"status": "ok", "n_configs": joint.n_configs, **dataclasses.asdict(res),
            "e_lambda_max": e_lam, "e_lambda_max_stable": e_lam < params.threshold}


def _cmd_analyze(args, out: Optional[Path], started: float, manifest: dict) -> int:
    params = EpidemicParams(beta=args.beta, delta=args.delta)
    model = load_network(args.spec)
    sufficient = check_sufficient(summarize(model), params)
    exact_info = _attempt_exact(model, params)

    result = {
        "beta": params.beta,
        "delta": params.delta,
        "sufficient": sufficient,
        "exact": exact_info,
    }
    if exact_info["status"] == "ok":
        manifest["exact"] = {k: exact_info[k] for k in ("solver", "matvecs", "lo", "hi", "note")}
        eta = exact_info["eta"]
        verdict = {True: "mean-stable (authoritative)", None: "inconclusive",
                   False: "not-mean-stable (authoritative)"}[exact_info["mean_stable"]]
        print(
            f"exact test: eta = {'n/a' if eta is None else format(eta, '.9g')} in "
            f"[{exact_info['lo']:.9g}, {exact_info['hi']:.9g}], delta = {params.delta:g} "
            f"-> {verdict}"
        )
        if exact_info["note"]:
            print(f"note: {exact_info['note']}")
    else:
        print(f"exact test skipped: {exact_info['reason']}")
    print(
        f"sufficient test [{sufficient['test']}]: lhs = {sufficient['lhs']:.9g}, "
        f"threshold delta/beta = {params.threshold:.9g} -> {sufficient['verdict']}"
    )
    for note in sufficient["notes"]:
        print(f"note: {note}")
    if out:
        _write_json(out / "report.json", result)
    else:
        print(json.dumps(_jsonable(result), indent=2))
    return 0


def _cmd_simulate(args, out: Optional[Path], started: float, manifest: dict) -> int:
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
        manifest["simulate"] = {"events": est.events}
        hw = "n/a" if est.half_width is None else f"{est.half_width:.3g}"
        print(
            f"decay rate = {est.rate:.6g} (95% half-width {hw}) "
            f"from {est.trials} trials"
        )
        if out:
            summary = {
                "mode": "decay",
                "trials": est.trials,
                "events": est.events,
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


def _compare_reference(computed: dict, reference: dict) -> list[dict]:
    return [{"quantity": key, "computed": computed[key], "reference": ref,
             "rel_deviation": (dev := abs(computed[key] - ref) / abs(ref)),
             "tolerance": tol, "within": dev <= tol}
            for key, (ref, tol) in reference.items()]


def _cmd_example(args, out: Optional[Path], started: float, manifest: dict) -> int:
    ens = COMMUNITY_EXAMPLE if args.name == "community" else POWERLAW_EXAMPLE
    summary = summarize(ens)
    pm, seq = summary.penalty, summary.degrees
    certificate = {
        "lambda_max": (summary.lambda_max_abar if seq is None
                       else expected_degree_lambda_max(seq)),
        "delta_uncertainty": summary.delta_uncertainty,
        "f_min": pm.f_min,
        "s_star": pm.s_star,
        "lhs": summary.lhs,
    }
    parameters = dataclasses.asdict(ens)
    if seq is None:
        computed = certificate
        reference = COMMUNITY_REFERENCE
        notes = [
            *summary.notes,
            "the reference penalty value is the global minimum of f over "
            "s >= 0 (the only reading that yields a meaningful threshold)",
        ]
    else:
        computed = {
            "coefficient": ens.coefficient,
            "offset": ens.offset,
            "max_degree": float(seq.ends[0, 0]),
            "mean_degree": seq.d1 / seq.n,
            "d_tilde": summary.lambda_max_abar,
            **certificate,
            "max_pair_prob": summary.max_pair_prob,
            "invalid_pairs": summary.invalid_pairs,
        }
        reference = POWERLAW_REFERENCE
        notes = [
            "variance proxy Delta taken as the largest row sum of "
            "abar*(1-abar) with abar_ij = rho d_i d_j; this reading "
            "reproduces the reference f_min",
            *summary.notes,
        ]
    rows = _compare_reference(computed, reference)
    all_ok = all(row["within"] for row in rows)
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


def _cmd_oracle(args, out: Optional[Path], started: float, manifest: dict) -> int:
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


def _cmd_minimize(args, out: Optional[Path], started: float, manifest: dict) -> int:
    pm = minimize_penalty(args.n, args.uncertainty)
    keys = ("n", "delta_uncertainty", "s0", "s_star", "f_min")
    result = {k: getattr(pm, k) for k in keys}
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
    ps.add_argument("--step", type=float, help="sample-grid step (default: a tenth "
                    "of the fastest time constant)")
    ps.add_argument("--seed", type=seed_argument, default=0)
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
    po.add_argument("--seed", type=seed_argument, default=0)
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
    ``manifest.json`` is written once the command has returned, with the
    argv main parsed and the fields the command added (``analyze``: the
    exact route's solver, its matvec count, its bracket on eta and its note;
    a decay ``simulate``: its
    switching event count); a command that raises (exit 1 or 2) leaves no
    manifest."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        out = None if args.out is None else Path(args.out)
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        manifest = {
            "tool": "epinet",
            "version": __version__,
            "command": args.command,
            "argv": argv,
        }
        code = args.func(args, out, started, manifest)
        if out is not None:
            manifest["elapsed_s"] = time.perf_counter() - started
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
