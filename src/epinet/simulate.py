"""Event-driven simulation of the epidemic over a switching network.

Edge chains jump at exponential times; between jumps the adjacency matrix is
frozen and the infection-probability ODE is integrated with fixed-step RK4
(the full system) or an exact eigendecomposition propagator (the linearized
system, for moderate n).  Integration always lands exactly on the next
breakpoint -- edge event, sample-grid time k * step, or the horizon -- so a
run samples the state on the shared uniform grid plus every switching
instant.

One lockstep core moves a batch of trials, held as (trials, n) states and
(trials, n, n) adjacency, each to its own next breakpoint per iteration.  A
single path is a batch of one; a decay estimate runs batches of at most
TRIAL_CHUNK rows and BATCH_ENTRY_CAP adjacency or norm entries and keeps
only the sum of grid norms, added in trial order, so its memory does not
grow with the trial count and its sums do not depend on the batch split.

Each trial's switching path is drawn first, then integrated.  Trial k's
initial edge states and its jumps before the horizon come from its own seed
stream, SeedSequence(seed, spawn_key=(k,)), in event order; the core applies
a batch's jumps as array updates, and the integrator draws nothing.  So one
(spec, params, config, p0) tuple maps to one bit-identical trajectory, a full
and a linearized run with one seed see the same switching sequence, and a
trial's path is the same alone or in a batch of any size.
"""
from __future__ import annotations

import heapq
import itertools
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .netmodel import EpidemicParams, SwitchedNetworkSpec, as_seed, max_vertex_weight

# Explicit specs past this many vertices are refused before any n-array (the
# initial state, a trial's n x n adjacency) is built.
DENSE_N_CAP = 10_000

# Linearized segments use an exact symmetric-eigendecomposition propagator up
# to this dimension, RK4 beyond it.
EXPM_N_CAP = 64

BOUNDS_TOL = 1e-9
MAX_HALVINGS = 20

# A decay estimate runs its trials in lockstep batches of at most this many
# rows, and of at most this many adjacency (rows * n^2, 128 MiB), grid-norm
# and expected jump-table entries, but never fewer than one row.  A single
# path, which keeps every sampled state, is refused past this many entries.
TRIAL_CHUNK = 256
BATCH_ENTRY_CAP = 1 << 24

# Every trial integrates at least horizon / step grid steps, so this caps
# the work of a trial; the tests and the benchmark stay below 10^4.
GRID_STEP_CAP = 1_000_000
# Every switching event is one more segment, sample and recorded jump, so
# the expected event count of a trial, horizon * sum_e sum_k pi_k (-Q_kk),
# is capped too; the tests and the benchmark stay below 131.
EVENT_CAP = 100_000


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
        if not self.trials >= 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        as_seed(self.seed)
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
    itself, and every switching instant in ``events``.
    """

    times: np.ndarray
    p: np.ndarray
    events: tuple[SwitchEvent, ...]


@dataclass(frozen=True, eq=False)
class CoupledResult:
    """Full and linearized paths driven by one switching realization.

    ``min_margin`` is the smallest value of ||p_lin||_1 - ||p_full||_1 over
    all samples: at least 0 but for the integrators' error, whose bound
    :func:`simulate_coupled` states.
    """

    full: Trajectory
    linear: Trajectory
    min_margin: float


def default_step(spec: SwitchedNetworkSpec, params: EpidemicParams) -> float:
    """A tenth of the fastest time constant delta + beta * (max row weight)."""
    rate = params.delta + params.beta * max_vertex_weight(spec.local, spec.edges)
    return 0.1 / rate


def _expected_events(spec: SwitchedNetworkSpec, horizon: float) -> float:
    """horizon * sum_e sum_k pi_k (-Q_kk), the mean jump count of a trial;
    a count over EVENT_CAP (or one that overflows) is refused."""
    rates = (float(e.stationary @ -np.diag(e.rate_matrix)) for e in spec.edges)
    expected = horizon * sum(rates)
    if not expected <= EVENT_CAP:
        raise ValueError(
            f"expected {expected:.3g} switching events per trial exceeds the "
            f"cap of {EVENT_CAP}; shorten the horizon or slow the edge chains"
        )
    return expected


def _schedule(first, init_cum, scale, jump_cum, rng, horizon: float, block: int):
    """The times and state codes of a trial's initial states (at t = 0) and
    of its jumps before the horizon, from :func:`_lockstep`'s edge tables and
    a heap of next times (ties by edge index).  In event order it draws a
    uniform per initial state and per jump of a chain of three or more
    states, then the hold of the state entered, redrawn if zero (none if
    frozen); with no such chain a nonzero ``block`` draws the later holds in
    blocks, the same stream."""
    draw = rng.standard_exponential

    def hold(c: int) -> float:
        x = scale[c] * draw() if scale[c] else math.inf  # frozen: no draw
        while x == 0.0:  # zero holding times would stall the event loop
            x = scale[c] * draw()
        return x

    def pick(base: int, cum: list) -> int:
        return base + min(bisect_right(cum, rng.random() * cum[-1]), len(cum) - 1)

    times, jumps, heap = [0.0] * len(init_cum), [], []
    for e, cum in enumerate(init_cum):  # heap entries: next time, edge, state
        jumps.append(pick(first[e], cum))
        heapq.heappush(heap, (hold(jumps[e]), e, jumps[e]))
    if block:
        draws = iter(lambda: rng.standard_exponential(block).tolist(), None)
        draw = itertools.chain.from_iterable(draws).__next__
    while heap and heap[0][0] < horizon:
        t, e, k = heap[0]
        cum = jump_cum[k]
        c = 2 * first[e] + 1 - k if cum is None else pick(first[e], cum)
        times.append(t)
        jumps.append(c)
        heapq.heapreplace(heap, (t + hold(c), e, c))
    return times, jumps


def _grid_times(cfg: SimConfig) -> np.ndarray:
    """Every k * step up to the horizon, then the horizon itself."""
    grid = np.arange(math.floor(cfg.horizon / cfg.step) + 2) * cfg.step
    grid = grid[grid < cfg.horizon]
    return np.append(grid, cfg.horizon)


# numpy multiplies a small array by a 0-d array faster than by a Python
# float, with the same result; the integrator is bound by such calls.
_HALF, _ONE, _TWO, _SIX = (np.asarray(x) for x in (0.5, 1.0, 2.0, 6.0))


def _rk4(f, a: np.ndarray, q: np.ndarray, h: np.ndarray, nsub: int) -> np.ndarray:
    """nsub RK4 substeps of dq/dt = f(a, q); h is the substep, one per entry."""
    h2, h6 = _HALF * h, h / _SIX
    for _ in range(nsub):
        k1 = f(a, q)
        k2 = f(a, q + h2 * k1)
        k3 = f(a, q + h2 * k2)
        k4 = f(a, q + h * k3)
        q = q + h6 * ((k1 + k4) + _TWO * (k2 + k3))
    return q


def _inside01(q: np.ndarray, axis=None):
    return ((np.minimum.reduce(q, axis=axis) >= -BOUNDS_TOL)
            & (np.maximum.reduce(q, axis=axis) <= 1.0 + BOUNDS_TOL))


def _rk4_span(f, a, q, span, clamp01: bool) -> np.ndarray:
    """One RK4 step over each row's switching segment (span is per entry),
    which never exceeds the grid gap it lies in.  When ``clamp01`` is set
    every row must stay inside [-BOUNDS_TOL, 1 + BOUNDS_TOL]; only the rows
    that leave it retry, with 2, 4, ... equal substeps, erroring out after
    MAX_HALVINGS halvings.
    """
    out = _rk4(f, a, q, span, 1)
    if not clamp01 or _inside01(out):
        return out
    rows, nsub = (~_inside01(out, axis=1)).nonzero()[0], 1
    while rows.size:
        if nsub == 1 << MAX_HALVINGS:
            raise ValueError(
                f"state left [0, 1] even after {MAX_HALVINGS} step halvings; "
                "the configured step is far too coarse for these rates"
            )
        nsub *= 2
        out[rows] = _rk4(f, a[rows], q[rows], span[rows] / nsub, nsub)
        rows = rows[~_inside01(out[rows], axis=1)]
    return out


# _inside01 refuses a full row that overflowed, _single_trial a linearized one
@np.errstate(over="ignore", invalid="ignore")
def _lockstep(spec, params, cfg, p0, trials, sample, *, full, linear, events=None):
    """Advance the realizations of ``trials`` to the horizon in lockstep.

    Row b is trial trials[b].  Its switching path is drawn first, into one
    flat table of times and state codes ending in an inf sentinel; each
    iteration applies a row's jumps due at its time and moves it over its
    own span to its next breakpoint, or compacts it out at the horizon.  At
    t = 0 and after every step, ``sample(slots, t, on_grid, grid_index,
    p_full, p_linear)`` sees the live rows: ``slots`` are their positions in
    ``trials``, ``grid_index`` numbers the grid point of rows with ``on_grid``
    set, an unrequested system is None, and no array passed there is written
    to afterwards.  Slot s's jumps go to ``events[s]``; returns the jump count.
    """
    n, horizon = spec.n, cfg.horizon
    delta = np.asarray(params.delta)
    edges = spec.edges
    expected_events = _expected_events(spec, horizon)
    first, init_cum, scale, jump_cum = [], [], [], []
    for edge in edges:  # state k of edge e has the code first[e] + k
        first.append(len(scale))
        init_cum.append(np.cumsum(edge.stationary).tolist())
        for k, row in enumerate(edge.rate_matrix):
            scale.append(1.0 / -float(row[k]) if row[k] < 0.0 else 0.0)  # 0: frozen
            jump = np.cumsum(np.where(np.arange(len(row)) == k, 0.0, row)).tolist()
            jump_cum.append(jump if len(row) > 2 else None)  # None: a flip
    block = 0 if any(len(e.values) > 2 for e in edges) else 16 + int(expected_events)
    vi, vj = spec.ends.repeat([len(e.values) for e in edges], axis=0).T  # per code
    weights = np.concatenate([np.empty(0), *(e.values for e in edges)])
    ends = list(zip((vi + 1).tolist(), (vj + 1).tolist(), weights.tolist()))  # event labels
    vv = params.beta * weights
    rows, m = len(trials), len(edges)
    jump_t, jump_c = array("d"), array("i")  # the flat table, grown in place
    for s, k in enumerate(trials):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(k,)))
        times, codes = _schedule(first, init_cum, scale, jump_cum, rng, horizon, block)
        jump_t.extend(times + [math.inf])
        jump_c.extend(codes + [0])
        if events is not None:
            jumps = zip(times[m:], codes[m:])
            events[s].extend(SwitchEvent(t, *ends[c]) for t, c in jumps)
    jump_t, jump_c = np.frombuffer(jump_t), np.frombuffer(jump_c, dtype=np.intc)
    ptr = np.r_[0, np.isinf(jump_t).nonzero()[0][:-1] + 1]  # each row's first entry
    slots = np.arange(rows)
    adj = np.zeros((rows, n, n))  # beta times each row's adjacency

    def rhs_full(a: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.matvec(a, q) * (_ONE - q) - delta * q

    def rhs_linear(a: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.matvec(a, q) - delta * q

    use_expm = linear and n <= EXPM_N_CAP
    shift = delta * np.eye(n)
    w = np.empty((rows, n)) if use_expm else None
    vecs = np.empty((rows, n, n)) if use_expm else None

    p_full = np.tile(p0, (rows, 1)) if full else None
    p_lin = np.tile(p0, (rows, 1)) if linear else None
    t = np.zeros(rows)
    te = jump_t[ptr]
    grid = _grid_times(cfg)
    grid_k = np.ones(rows, dtype=np.int64)
    sample(slots, t, t == 0.0, np.zeros(rows, dtype=np.int64), p_full, p_lin)
    # a row ends on the iteration that samples grid[-1], not before the last-th
    it, last = 0, grid.size - 1
    while rows:
        due = (t == te).nonzero()[0]
        stale = due if it else slots  # rows whose eigendecomposition is stale
        while due.size:  # the jumps at t, one per row and pass, in table order
            c = jump_c[ptr[due]]
            adj[due, vi[c], vj[c]] = adj[due, vj[c], vi[c]] = vv[c]
            ptr[due] += 1
            te[due] = jump_t[ptr[due]]
            due = due[te[due] == t[due]]
        tg = grid[grid_k]
        t_next = np.minimum(te, tg)
        # per entry: a same-shape product is faster than broadcasting a column
        span = (t_next - t).repeat(n).reshape(rows, n)
        if full:
            p_full = _rk4_span(rhs_full, adj, p_full, span, True)
        if use_expm:
            if stale.size:
                w[stale], vecs[stale] = np.linalg.eigh(adj[stale] - shift)
            p_lin = np.exp(w * span) * np.matvec(vecs.swapaxes(1, 2), p_lin)
            p_lin = np.matvec(vecs, p_lin)
        elif linear:
            p_lin = _rk4_span(rhs_linear, adj, p_lin, span, False)
        on_grid = t_next == tg
        sample(slots, t_next, on_grid, grid_k, p_full, p_lin)
        t = t_next
        grid_k = grid_k + on_grid
        it += 1
        if it >= last and (t == horizon).nonzero()[0].size:
            keep = (t < horizon).nonzero()[0]
            rows = keep.size
            slots, adj, ptr, t, te, grid_k, p_full, p_lin, w, vecs = (
                None if x is None else x[keep]
                for x in (slots, adj, ptr, t, te, grid_k, p_full, p_lin, w, vecs)
            )
    return jump_t.size - len(trials) * (1 + m)


def _check_p0(p0: Optional[np.ndarray], n: int, stored: float = 0.0) -> np.ndarray:
    """The initial state, all ones by default; every run starts here, and
    refuses an n past DENSE_N_CAP, or a path that stores ``stored`` states
    of n entries past BATCH_ENTRY_CAP in all, before any n-array."""
    if n > DENSE_N_CAP:
        raise ValueError(
            f"n={n} exceeds the dense cap {DENSE_N_CAP}; use a structured ensemble")
    if stored * n > BATCH_ENTRY_CAP:
        raise ValueError(
            f"the path would store about {stored:.3g} states of {n} entries, past the "
            f"cap of {BATCH_ENTRY_CAP} entries; raise the step or shorten the horizon")
    if p0 is None:
        return np.ones(n)
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (n,):
        raise ValueError(f"p0 must have shape ({n},), got {p0.shape}")
    if not ((p0 >= 0) & (p0 <= 1)).all():
        raise ValueError("p0 entries must lie in [0, 1]")
    return p0


def _single_trial(spec, params, cfg, p0, *, full: bool, linear: bool):
    """Trial 0 alone, as a (full, linearized) pair of trajectories or None."""
    times, paths = [], ([], [])

    def sample(slots, t, on_grid, grid_index, pf, pl):
        times.append(t[0])
        if full:
            paths[0].append(pf[0])
        if linear:
            paths[1].append(pl[0])

    events: list[list[SwitchEvent]] = [[]]
    # a sample per grid point and per expected event, for each system
    samples = math.floor(cfg.horizon / cfg.step) + 2 + _expected_events(spec, cfg.horizon)
    p0 = _check_p0(p0, spec.n, samples * (full + linear))
    _lockstep(spec, params, cfg, p0, [0], sample, full=full, linear=linear, events=events)
    if linear and not np.isfinite(paths[1][-1]).all():  # inf and NaN persist
        raise ValueError(
            f"the linearized state overflowed before the horizon {cfg.horizon:g}; "
            "shorten the horizon or lower beta"
        )
    times, jumps = np.array(times), tuple(events[0])
    return tuple(
        Trajectory(times, np.array(path), jumps) if wanted else None
        for path, wanted in zip(paths, (full, linear))
    )


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
    return _single_trial(spec, params, cfg, p0, full=True, linear=False)[0]


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
    return _single_trial(spec, params, cfg, p0, full=False, linear=True)[1]


def simulate_coupled(
    spec: SwitchedNetworkSpec,
    params: EpidemicParams,
    cfg: SimConfig,
    p0: Optional[np.ndarray] = None,
) -> CoupledResult:
    """Full and linearized dynamics driven by one switching realization.

    The linearized system dominates the full one in l1 norm when both start
    from the same p0, so ``min_margin`` is below 0 only by RK4's truncation
    against the exact linear propagator: about (r h)^5 / 120 per step h at
    rate r = delta + beta (heaviest row weight), which sums to at most about
    ||p0||_1 (r h)^4 / 250 for r h <= 0.1 (the default step's).  Three
    edgeless vertices read -1e-6 at the default step and -3.7e-9 at a
    quarter of it; a margin well below the bound indicates an integration
    problem.
    """
    full, lin = _single_trial(spec, params, cfg, p0, full=True, linear=True)
    margins = np.abs(lin.p).sum(axis=1) - np.abs(full.p).sum(axis=1)
    return CoupledResult(full=full, linear=lin, min_margin=float(margins.min()))


@dataclass(frozen=True, eq=False)
class DecayEstimate:
    """Log-linear decay-rate fit over the second half of the horizon.

    ``rate`` is the slope of log ||p||_2 averaged across trials; -inf means
    the mean norm hit zero inside the fit window.  ``half_width`` is a 95%
    half-interval from the residual spread, reported only when the trial
    count is at least 30.  ``events`` is the trials' total jump count.
    """

    rate: float
    half_width: Optional[float]
    trials: int
    events: int
    window_start: float
    grid_times: np.ndarray
    mean_norms: np.ndarray


def estimate_decay(
    spec: SwitchedNetworkSpec,
    params: EpidemicParams,
    cfg: SimConfig,
    p0: Optional[np.ndarray] = None,
) -> DecayEstimate:
    """Monte-Carlo decay rate of the full dynamics from all-ones (by default).

    Runs ``cfg.trials`` independent realizations, averages ||p||_2 on the
    shared sample grid, and fits a line to the log of the average over
    t >= horizon / 2.  Trials advance in lockstep batches bounded by
    TRIAL_CHUNK and BATCH_ENTRY_CAP; a batch's grid norms are added to the
    running sum in trial order.
    """
    p0 = _check_p0(p0, spec.n)
    grid_times = _grid_times(cfg)
    window_start = cfg.horizon / 2.0
    sel = grid_times >= window_start
    if int(sel.sum()) < 3:
        raise ValueError(
            "fewer than 3 grid points in the fit window; lower the step or "
            "raise the horizon"
        )

    table = len(spec.edges) + 1 + int(_expected_events(spec, cfg.horizon))
    width = max(spec.n**2, grid_times.size, table)
    chunk = max(1, min(TRIAL_CHUNK, BATCH_ENTRY_CAP // width))
    norms = np.zeros((min(chunk, cfg.trials), grid_times.size))
    norm_sum, events = np.zeros(grid_times.size), 0

    def sample(slots, t, on_grid, grid_index, pf, pl):
        on = on_grid.nonzero()[0]
        norms[slots[on], grid_index[on]] = np.linalg.norm(pf[on], axis=1)

    for start in range(0, cfg.trials, chunk):
        batch = range(start, min(start + chunk, cfg.trials))
        events += _lockstep(spec, params, cfg, p0, batch, sample,
                            full=True, linear=False)
        for row in norms[: len(batch)]:
            norm_sum += row
    mean_norms = norm_sum / cfg.trials

    tw = grid_times[sel]
    yw = mean_norms[sel]
    rate, half = -math.inf, None
    if yw.min() > 0.0:
        logy = np.log(yw)
        slope, intercept = np.polyfit(tw, logy, 1)
        rate = float(slope)
        if cfg.trials >= 30 and tw.size > 2:
            resid = logy - (slope * tw + intercept)
            sigma_sq = float(resid @ resid) / (tw.size - 2)
            t_center = tw - tw.mean()
            half = 1.96 * math.sqrt(sigma_sq / float(t_center @ t_center))
    return DecayEstimate(rate, half, cfg.trials, events, window_start, grid_times,
                         mean_norms)


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
