"""Event-driven simulation of the epidemic over a switching network.

Edge chains jump at exponential times; between jumps the adjacency matrix is
frozen and the infection-probability ODE is integrated with fixed-step RK4
(the full system) or an exact eigendecomposition propagator (the linearized
system, for moderate n).  Integration always lands exactly on the next
breakpoint -- edge event, sample-grid time k * step, or the horizon -- so a
run samples the state on the shared uniform grid plus every switching
instant.

Determinism contract: one (spec, params, config, p0) tuple maps to one
bit-identical trajectory.  Randomness is consumed only by the edge machinery
(initial states, holding times, jump targets), never by the integrator, so a
full run and a linearized run with the same seed see the same switching
sequence.  Trial k of a multi-trial estimate uses the seed stream
SeedSequence(seed, spawn_key=(k,)), which makes trials independent of each
other and of the trial count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .netmodel import EpidemicParams, SwitchedNetworkSpec, edge_process

# Linearized segments use an exact symmetric-eigendecomposition propagator up
# to this dimension, RK4 beyond it.
EXPM_N_CAP = 64

BOUNDS_TOL = 1e-9
MAX_HALVINGS = 20

# Every trial integrates and stores at least horizon / step grid samples, so
# this caps the work of a run; the tests and the benchmark stay below 10^4.
GRID_STEP_CAP = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    """Run length, sample-grid step, trial count and master seed."""

    horizon: float
    step: float
    trials: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not (self.step > 0 and np.isfinite(self.step)):
            raise ValueError(f"step must be positive, got {self.step}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.horizon / self.step > GRID_STEP_CAP:
            raise ValueError(
                f"horizon/step = {self.horizon / self.step:.3g} grid steps per "
                f"trial exceeds the cap of {GRID_STEP_CAP}; raise the step or "
                "shorten the horizon"
            )


@dataclass(frozen=True)
class SwitchEvent:
    """One edge jump: at ``time``, edge {i, j} moved to weight ``new_value``."""

    time: float
    i: int
    j: int
    new_value: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled path of one realization.

    ``times`` contains t = 0, every k * step up to the horizon, the horizon
    itself, and every switching instant; ``grid_mask`` flags the uniform-grid
    samples (the horizon counts as a grid point), which are the ones shared
    across trials.
    """

    times: np.ndarray
    p: np.ndarray
    events: tuple[SwitchEvent, ...]
    seed: int
    grid_mask: np.ndarray

    def grid_times(self) -> np.ndarray:
        return self.times[self.grid_mask]

    def grid_values(self) -> np.ndarray:
        return self.p[self.grid_mask]


@dataclass(frozen=True, eq=False)
class CoupledResult:
    """Full and linearized paths driven by one switching realization.

    ``min_margin`` is the smallest value of ||p_lin||_1 - ||p_full||_1 over
    all samples; the linearized system dominates, so it should never be
    materially negative.
    """

    full: Trajectory
    linear: Trajectory
    min_margin: float


def default_step(spec: SwitchedNetworkSpec, params: EpidemicParams) -> float:
    """A tenth of the fastest time constant delta + beta * (max row weight)."""
    row_weight = np.zeros(spec.n)
    for edge in spec.edges:
        proc = edge_process(edge)
        w = float(proc.values.max())
        row_weight[proc.i - 1] += w
        row_weight[proc.j - 1] += w
    rate = params.delta + params.beta * float(row_weight.max(initial=0.0))
    return 0.1 / rate


def _positive_exponential(rng: np.random.Generator, scale: float) -> float:
    x = float(rng.exponential(scale))
    while x == 0.0:  # zero holding times would stall the event loop
        x = float(rng.exponential(scale))
    return x


def _rk4_span(rhs, p: np.ndarray, span: float, hmax: float, clamp01: bool) -> np.ndarray:
    """Fixed-step RK4 over one switching segment.

    Substep count is chosen so h <= hmax.  When ``clamp01`` is set the result
    must stay inside [-BOUNDS_TOL, 1 + BOUNDS_TOL]; a violation halves the
    substep and retries, erroring out after MAX_HALVINGS halvings.
    """
    nsub = max(1, math.ceil(span / hmax - 1e-12))
    for _ in range(MAX_HALVINGS + 1):
        h = span / nsub
        q = p
        for _ in range(nsub):
            k1 = rhs(q)
            k2 = rhs(q + 0.5 * h * k1)
            k3 = rhs(q + 0.5 * h * k2)
            k4 = rhs(q + h * k3)
            q = q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not clamp01:
            return q
        if q.min() >= -BOUNDS_TOL and q.max() <= 1.0 + BOUNDS_TOL:
            return q
        nsub *= 2
    raise RuntimeError(
        f"state left [0, 1] even after {MAX_HALVINGS} step halvings; "
        "the configured step is far too coarse for these rates"
    )


def _run_realization(
    spec: SwitchedNetworkSpec,
    params: EpidemicParams,
    cfg: SimConfig,
    p0: np.ndarray,
    trial: int,
    *,
    full: bool,
    linear: bool,
):
    """Advance one switching realization, integrating the requested systems.

    Returns (times, p_full, p_linear, events, grid_mask); the trajectory
    arrays are None for systems that were not requested.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(trial,)))
    n = spec.n
    beta, delta = params.beta, params.delta
    procs = [edge_process(e) for e in spec.edges]
    m = len(procs)

    def draw_state(weights: np.ndarray) -> int:
        # Inverse-CDF draw; one uniform per call keeps the stream identical
        # between full and linearized runs.
        cum = np.cumsum(weights)
        u = rng.random() * cum[-1]
        return min(int(np.searchsorted(cum, u, side="right")), len(weights) - 1)

    adj = np.zeros((n, n))
    state = np.zeros(m, dtype=int)
    next_time = np.full(m, np.inf)
    for e, proc in enumerate(procs):
        k = draw_state(proc.stationary)
        state[e] = k
        val = proc.values[k]
        adj[proc.i - 1, proc.j - 1] = val
        adj[proc.j - 1, proc.i - 1] = val
        exit_rate = -float(proc.rate_matrix[k, k])
        if exit_rate > 0.0:
            next_time[e] = _positive_exponential(rng, 1.0 / exit_rate)

    def rhs_full(q: np.ndarray) -> np.ndarray:
        infect = beta * (adj @ q)
        return infect - delta * q - q * infect

    def rhs_linear(q: np.ndarray) -> np.ndarray:
        return beta * (adj @ q) - delta * q

    use_expm = linear and n <= EXPM_N_CAP
    eig_cache: Optional[tuple[np.ndarray, np.ndarray]] = None

    def propagate_linear(q: np.ndarray, span: float) -> np.ndarray:
        nonlocal eig_cache
        if not use_expm:
            return _rk4_span(rhs_linear, q, span, cfg.step, clamp01=False)
        if eig_cache is None:
            eig_cache = np.linalg.eigh(beta * adj - delta * np.eye(n))
        w, vecs = eig_cache
        return vecs @ (np.exp(w * span) * (vecs.T @ q))

    p_full = p0.copy() if full else None
    p_lin = p0.copy() if linear else None
    times = [0.0]
    samples_full = [p_full.copy()] if full else None
    samples_lin = [p_lin.copy()] if linear else None
    grid_flags = [True]
    events: list[SwitchEvent] = []

    t = 0.0
    grid_k = 1
    while t < cfg.horizon:
        te = float(next_time.min()) if m else math.inf
        tg = grid_k * cfg.step
        if tg > cfg.horizon:
            tg = math.inf
        t_next = min(te, tg, cfg.horizon)
        span = t_next - t
        if full:
            p_full = _rk4_span(rhs_full, p_full, span, cfg.step, clamp01=True)
            samples_full.append(p_full.copy())
        if linear:
            p_lin = propagate_linear(p_lin, span)
            samples_lin.append(p_lin.copy())
        times.append(t_next)
        grid_flags.append(t_next == tg or t_next == cfg.horizon)
        t = t_next
        if t >= cfg.horizon:
            break
        if t_next == te:
            for e in np.flatnonzero(next_time == t_next):
                proc = procs[e]
                k = state[e]
                if len(proc.values) == 2:
                    new_k = 1 - k  # two-state chains jump deterministically
                else:
                    row = proc.rate_matrix[k].copy()
                    row[k] = 0.0
                    new_k = draw_state(row)
                state[e] = new_k
                val = proc.values[new_k]
                adj[proc.i - 1, proc.j - 1] = val
                adj[proc.j - 1, proc.i - 1] = val
                events.append(
                    SwitchEvent(time=t, i=proc.i, j=proc.j, new_value=float(val))
                )
                new_exit = -float(proc.rate_matrix[new_k, new_k])
                next_time[e] = (
                    t + _positive_exponential(rng, 1.0 / new_exit)
                    if new_exit > 0.0
                    else math.inf
                )
            eig_cache = None
        if t_next == tg:
            grid_k += 1

    return (
        np.array(times),
        np.array(samples_full) if full else None,
        np.array(samples_lin) if linear else None,
        tuple(events),
        np.array(grid_flags, dtype=bool),
    )


def _check_p0(p0: Optional[np.ndarray], n: int) -> np.ndarray:
    if p0 is None:
        return np.ones(n)
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (n,):
        raise ValueError(f"p0 must have shape ({n},), got {p0.shape}")
    if p0.min() < 0.0 or p0.max() > 1.0:
        raise ValueError("p0 entries must lie in [0, 1]")
    return p0


def simulate_path(
    spec: SwitchedNetworkSpec,
    params: EpidemicParams,
    cfg: SimConfig,
    p0: Optional[np.ndarray] = None,
) -> Trajectory:
    """One realization of the full (quadratic) infection dynamics.

    ``p0`` defaults to all-ones, the worst admissible initial condition.
    Edge chains start from their stationary laws.
    """
    p0 = _check_p0(p0, spec.n)
    times, p, _, events, mask = _run_realization(
        spec, params, cfg, p0, trial=0, full=True, linear=False
    )
    return Trajectory(times=times, p=p, events=events, seed=cfg.seed, grid_mask=mask)


def simulate_linear_path(
    spec: SwitchedNetworkSpec,
    params: EpidemicParams,
    cfg: SimConfig,
    p0: Optional[np.ndarray] = None,
) -> Trajectory:
    """One realization of the linearized dynamics (no saturation term).

    With the same config and seed as :func:`simulate_path` the switching
    sequence is bit-identical, so the two paths are directly comparable.
    """
    p0 = _check_p0(p0, spec.n)
    times, _, p, events, mask = _run_realization(
        spec, params, cfg, p0, trial=0, full=False, linear=True
    )
    return Trajectory(times=times, p=p, events=events, seed=cfg.seed, grid_mask=mask)


def simulate_coupled(
    spec: SwitchedNetworkSpec,
    params: EpidemicParams,
    cfg: SimConfig,
    p0: Optional[np.ndarray] = None,
) -> CoupledResult:
    """Full and linearized dynamics driven by one switching realization.

    The linearized system dominates the full one in l1 norm when both start
    from the same p0, so ``min_margin`` below roughly -1e-7 indicates an
    integration problem.
    """
    p0 = _check_p0(p0, spec.n)
    times, pf, pl, events, mask = _run_realization(
        spec, params, cfg, p0, trial=0, full=True, linear=True
    )
    traj_full = Trajectory(
        times=times, p=pf, events=events, seed=cfg.seed, grid_mask=mask
    )
    traj_lin = Trajectory(
        times=times, p=pl, events=events, seed=cfg.seed, grid_mask=mask
    )
    margins = np.abs(pl).sum(axis=1) - np.abs(pf).sum(axis=1)
    return CoupledResult(
        full=traj_full, linear=traj_lin, min_margin=float(margins.min())
    )


@dataclass(frozen=True, eq=False)
class DecayEstimate:
    """Log-linear decay-rate fit over the second half of the horizon.

    ``rate`` is the slope of log ||p||_2 averaged across trials; -inf means
    the mean norm hit zero inside the fit window.  ``half_width`` is a 95%
    half-interval from the residual spread, reported only when the trial
    count is at least 30.
    """

    rate: float
    half_width: Optional[float]
    trials: int
    window_start: float
    grid_times: np.ndarray
    mean_norms: np.ndarray


def _decay_trial(args) -> np.ndarray:
    spec, params, cfg, p0, trial = args
    times, p, _, _, mask = _run_realization(
        spec, params, cfg, p0, trial=trial, full=True, linear=False
    )
    return np.linalg.norm(p[mask], axis=1)


def _worker_count(trials: int) -> int:
    raw = os.environ.get("EPINET_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"EPINET_THREADS must be an integer, got {raw!r}") from None
    return max(1, min(workers, trials, os.cpu_count() or 1))


def estimate_decay(
    spec: SwitchedNetworkSpec,
    params: EpidemicParams,
    cfg: SimConfig,
    p0: Optional[np.ndarray] = None,
) -> DecayEstimate:
    """Monte-Carlo decay rate of the full dynamics from all-ones (by default).

    Runs ``cfg.trials`` independent realizations, averages ||p||_2 on the
    shared sample grid, and fits a line to the log of the average over
    t >= horizon / 2.  Honors EPINET_THREADS for process-level parallelism;
    results are identical to the sequential run because trial seeds are
    derived from the trial index, not the scheduling order.
    """
    p0 = _check_p0(p0, spec.n)
    jobs = [(spec, params, cfg, p0, k) for k in range(cfg.trials)]
    workers = _worker_count(cfg.trials)
    if workers > 1:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            norms = list(pool.map(_decay_trial, jobs, chunksize=max(1, cfg.trials // (4 * workers))))
    else:
        norms = [_decay_trial(job) for job in jobs]
    lengths = {len(x) for x in norms}
    if len(lengths) != 1:
        raise RuntimeError("trials disagree on the sample grid; this is a bug")
    mean_norms = np.mean(norms, axis=0)

    grid_times = np.unique(
        np.concatenate(
            [
                np.arange(0, math.floor(cfg.horizon / cfg.step) + 1) * cfg.step,
                [cfg.horizon],
            ]
        )
    )
    grid_times = grid_times[grid_times <= cfg.horizon]
    if grid_times.size != mean_norms.size:
        raise RuntimeError("sample-grid bookkeeping mismatch; this is a bug")

    window_start = cfg.horizon / 2.0
    sel = grid_times >= window_start
    if int(sel.sum()) < 3:
        raise ValueError(
            "fewer than 3 grid points in the fit window; lower the step or "
            "raise the horizon"
        )
    tw = grid_times[sel]
    yw = mean_norms[sel]
    if yw.min() <= 0.0:
        return DecayEstimate(
            rate=-math.inf,
            half_width=None,
            trials=cfg.trials,
            window_start=window_start,
            grid_times=grid_times,
            mean_norms=mean_norms,
        )
    logy = np.log(yw)
    slope, intercept = np.polyfit(tw, logy, 1)
    half = None
    if cfg.trials >= 30 and tw.size > 2:
        resid = logy - (slope * tw + intercept)
        sigma_sq = float(resid @ resid) / (tw.size - 2)
        t_center = tw - tw.mean()
        half = 1.96 * math.sqrt(sigma_sq / float(t_center @ t_center))
    return DecayEstimate(
        rate=float(slope),
        half_width=half,
        trials=cfg.trials,
        window_start=window_start,
        grid_times=grid_times,
        mean_norms=mean_norms,
    )


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with header t,p_1,...,p_n; %.17g keeps doubles bit-faithful."""
    n = traj.p.shape[1]
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"p_{i + 1}" for i in range(n)) + "\n")
        for t, row in zip(traj.times, traj.p):
            fh.write(f"{t:.17g}," + ",".join(f"{x:.17g}" for x in row) + "\n")


def write_events_csv(traj: Trajectory, path) -> None:
    """CSV with header t,i,j,new_state listing every edge jump."""
    with open(path, "w") as fh:
        fh.write("t,i,j,new_state\n")
        for ev in traj.events:
            fh.write(f"{ev.time:.17g},{ev.i},{ev.j},{ev.new_value:.17g}\n")
