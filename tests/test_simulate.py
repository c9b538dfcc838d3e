import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from epinet import simulate
from epinet.netmodel import (
    EdgeChain,
    EpidemicParams,
    SwitchedNetworkSpec,
    WeightedEdgeChain,
)
from epinet.simulate import (
    SimConfig,
    SwitchEvent,
    default_step,
    estimate_decay,
    simulate_coupled,
    simulate_linear_path,
    simulate_path,
    write_events_csv,
    write_trajectory_csv,
)


def frozen_edge(i, j):
    # p > 0, q = 0: the stationary law is "always present", so the graph
    # never switches and the run is a pure ODE integration
    return EdgeChain(i=i, j=j, p_rate=1.0, q_rate=0.0)


def frozen_triangle():
    return SwitchedNetworkSpec(
        n=3, edges=(frozen_edge(1, 2), frozen_edge(1, 3), frozen_edge(2, 3))
    )


def switching_spec():
    return SwitchedNetworkSpec(
        n=3,
        edges=(
            EdgeChain(i=1, j=2, p_rate=2.0, q_rate=1.0),
            EdgeChain(i=1, j=3, p_rate=0.5, q_rate=1.5),
            EdgeChain(i=2, j=3, p_rate=1.0, q_rate=1.0),
        ),
    )


def full_rhs(t, p, a, beta, delta):
    infect = beta * (a @ p)
    return infect - delta * p - p * infect


def test_isolated_vertex_decays_exponentially():
    spec = SwitchedNetworkSpec(n=1, edges=())
    params = EpidemicParams(beta=1.0, delta=0.7)
    cfg = SimConfig(horizon=2.0, step=0.01, seed=0)
    traj = simulate_path(spec, params, cfg, p0=np.array([0.9]))
    # no infection term for a single vertex: dp/dt = -delta p exactly
    expected = 0.9 * np.exp(-0.7 * traj.times)
    assert np.allclose(traj.p[:, 0], expected, atol=1e-10)
    assert len(traj.events) == 0


def test_full_dynamics_matches_scipy_on_frozen_graph():
    spec = frozen_triangle()
    params = EpidemicParams(beta=1.0, delta=1.2)
    cfg = SimConfig(horizon=2.0, step=0.02, seed=1)
    p0 = np.array([0.9, 0.5, 0.2])
    traj = simulate_path(spec, params, cfg, p0=p0)
    a = np.ones((3, 3)) - np.eye(3)
    ref = solve_ivp(
        full_rhs,
        (0.0, 2.0),
        p0,
        args=(a, params.beta, params.delta),
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    err = np.abs(traj.p - ref.sol(traj.times).T).max()
    assert err < 1e-7


def test_linear_path_matches_closed_form():
    # two nodes, always-on edge, beta=delta=1: (beta A - delta I) has
    # eigenvalues 0 and -2 with symmetric/antisymmetric eigenvectors
    spec = SwitchedNetworkSpec(n=2, edges=(frozen_edge(1, 2),))
    params = EpidemicParams(beta=1.0, delta=1.0)
    cfg = SimConfig(horizon=1.5, step=0.1, seed=0)
    traj = simulate_linear_path(spec, params, cfg, p0=np.array([1.0, 0.0]))
    t = traj.times
    expected = np.stack(
        [(1.0 + np.exp(-2.0 * t)) / 2.0, (1.0 - np.exp(-2.0 * t)) / 2.0], axis=1
    )
    assert np.allclose(traj.p, expected, atol=1e-12)


def test_rerun_is_bit_identical():
    spec = switching_spec()
    params = EpidemicParams(beta=0.8, delta=1.1)
    cfg = SimConfig(horizon=4.0, step=0.05, seed=123)
    t1 = simulate_path(spec, params, cfg)
    t2 = simulate_path(spec, params, cfg)
    assert np.array_equal(t1.times, t2.times)
    assert np.array_equal(t1.p, t2.p)
    assert t1.events == t2.events


def test_different_seed_changes_events():
    spec = switching_spec()
    params = EpidemicParams(beta=0.8, delta=1.1)
    base = SimConfig(horizon=4.0, step=0.05, seed=1)
    other = SimConfig(horizon=4.0, step=0.05, seed=2)
    t1 = simulate_path(spec, params, base)
    t2 = simulate_path(spec, params, other)
    assert t1.events != t2.events


def test_full_and_linear_share_switching_sequence():
    spec = switching_spec()
    params = EpidemicParams(beta=0.8, delta=1.1)
    cfg = SimConfig(horizon=3.0, step=0.05, seed=77)
    tf = simulate_path(spec, params, cfg)
    tl = simulate_linear_path(spec, params, cfg)
    assert tf.events == tl.events
    assert np.array_equal(tf.times, tl.times)


def test_coupled_equals_separate_runs():
    spec = switching_spec()
    params = EpidemicParams(beta=0.8, delta=1.1)
    cfg = SimConfig(horizon=3.0, step=0.05, seed=9)
    res = simulate_coupled(spec, params, cfg)
    tf = simulate_path(spec, params, cfg)
    tl = simulate_linear_path(spec, params, cfg)
    assert np.array_equal(res.full.p, tf.p)
    assert np.array_equal(res.linear.p, tl.p)
    assert res.min_margin >= -1e-7


def test_linear_dominates_full_in_l1():
    rng = np.random.default_rng(4)
    for seed in range(5):
        spec = switching_spec()
        params = EpidemicParams(beta=float(rng.uniform(0.5, 2)), delta=1.0)
        cfg = SimConfig(horizon=2.0, step=0.05, seed=seed)
        p0 = rng.uniform(0.0, 1.0, size=3)
        res = simulate_coupled(spec, params, cfg, p0=p0)
        assert res.min_margin >= -1e-7


@pytest.mark.parametrize("delta", [0.1, 1.0, 5.0, 20.0])
def test_edgeless_margin_is_rk4_truncation(delta):
    # with no edges both systems decay at delta: the full one by RK4, the
    # linear one by its exact propagator, so the margin is RK4's error
    # alone, within -||p0||_1 (delta h)^4 / 250 at the default step
    # (delta h = 0.1) and above -1e-7 at a quarter of it, criterion 5's step
    spec = SwitchedNetworkSpec(n=3, edges=())
    params = EpidemicParams(beta=0.2, delta=delta)
    step = default_step(spec, params)
    assert delta * step == pytest.approx(0.1)
    margin = simulate_coupled(spec, params, SimConfig(horizon=5.0, step=step)).min_margin
    assert -3.0 * 0.1**4 / 250.0 <= margin < -5e-7
    quarter = simulate_coupled(spec, params, SimConfig(horizon=5.0, step=step / 4.0))
    assert -1e-7 < quarter.min_margin < 0.0


def test_sample_grid_structure():
    spec = switching_spec()
    params = EpidemicParams(beta=1.0, delta=1.0)
    cfg = SimConfig(horizon=1.0, step=0.3, seed=5)
    traj = simulate_path(spec, params, cfg)
    # strictly increasing times, first sample at 0, last at the horizon
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    # the samples are the uniform grid plus every event instant, no others
    expected_grid = [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]
    event_times = [ev.time for ev in traj.events]
    assert traj.events and not set(event_times) & set(expected_grid)
    assert np.array_equal(traj.times, np.union1d(expected_grid, event_times))
    for ev in traj.events:
        assert 0.0 < ev.time <= 1.0
    # events carry valid endpoints and binary values
    for ev in traj.events:
        assert 1 <= ev.i < ev.j <= 3
        assert ev.new_value in (0.0, 1.0)


def test_bounds_invariant_under_switching():
    rng = np.random.default_rng(6)
    for seed in range(8):
        spec = switching_spec()
        params = EpidemicParams(
            beta=float(rng.uniform(0.3, 3.0)), delta=float(rng.uniform(0.3, 3.0))
        )
        cfg = SimConfig(
            horizon=3.0, step=default_step(spec, params), seed=seed
        )
        traj = simulate_path(spec, params, cfg, p0=np.ones(3))
        assert traj.p.min() >= -1e-9
        assert traj.p.max() <= 1.0 + 1e-9


def test_coarse_step_still_bounded():
    # a deliberately coarse grid forces the internal step-halving retry;
    # the result must still respect the state bounds
    spec = frozen_triangle()
    params = EpidemicParams(beta=1.0, delta=40.0)
    cfg = SimConfig(horizon=1.0, step=0.5, seed=0)
    traj = simulate_path(spec, params, cfg, p0=np.ones(3))
    assert traj.p.min() >= -1e-9
    assert traj.p.max() <= 1.0 + 1e-9


def test_rk4_fourth_order_convergence():
    spec = frozen_triangle()
    params = EpidemicParams(beta=1.0, delta=1.2)
    p0 = np.array([0.9, 0.5, 0.2])
    a = np.ones((3, 3)) - np.eye(3)
    ref = solve_ivp(
        full_rhs,
        (0.0, 2.0),
        p0,
        args=(a, params.beta, params.delta),
        rtol=1e-13,
        atol=1e-15,
        dense_output=True,
    )

    def max_err(step):
        cfg = SimConfig(horizon=2.0, step=step, seed=0)
        traj = simulate_path(spec, params, cfg, p0=p0)
        return np.abs(traj.p - ref.sol(traj.times).T).max()

    e1, e2 = max_err(0.1), max_err(0.05)
    assert 8.0 <= e1 / e2 <= 32.0  # classic RK4: halving cuts error ~16x
    assert e2 < 1e-6


def test_linearized_rk4_matches_eigendecomposition(monkeypatch):
    # past EXPM_N_CAP the linearized path takes RK4 steps; with the cap
    # raised, the same switching sequence runs the exact propagator
    n = 70
    spec = SwitchedNetworkSpec(
        n=n,
        edges=tuple(
            EdgeChain(i=k + 1, j=(k + 1) % n + 1, p_rate=0.1, q_rate=0.1)
            for k in range(n)
        ),
    )
    params = EpidemicParams(beta=0.5, delta=1.0)
    p0 = np.linspace(0.1, 1.0, n)
    assert n > simulate.EXPM_N_CAP

    def gap(step):
        cfg = SimConfig(horizon=2.0, step=step, seed=1)
        rk4 = simulate_linear_path(spec, params, cfg, p0)
        monkeypatch.setattr(simulate, "EXPM_N_CAP", 100)
        exact = simulate_linear_path(spec, params, cfg, p0)
        monkeypatch.undo()
        assert rk4.events and np.array_equal(rk4.times, exact.times)
        return np.abs(rk4.p - exact.p).max()

    coarse, fine = gap(0.05), gap(0.025)
    assert coarse < 1e-6
    assert coarse / fine >= 8.0  # fourth order: halving the step cuts ~16x


def test_default_step_hand_value():
    spec = frozen_triangle()
    params = EpidemicParams(beta=2.0, delta=3.0)
    # max row weight 2 -> 0.1 / (3 + 2*2) = 1/70
    assert default_step(spec, params) == pytest.approx(0.1 / 7.0, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(horizon=0.0, step=0.1)
    with pytest.raises(ValueError):
        SimConfig(horizon=1.0, step=-0.1)
    for trials in (0, math.nan):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            SimConfig(horizon=1.0, step=0.1, trials=trials)
    spec = switching_spec()
    params = EpidemicParams(beta=1.0, delta=1.0)
    cfg = SimConfig(horizon=1.0, step=0.1)
    with pytest.raises(ValueError, match="p0"):
        simulate_path(spec, params, cfg, p0=np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="0, 1"):
        simulate_path(spec, params, cfg, p0=np.array([0.5, 1.5, 0.5]))
    # a NaN entry is refused before it reaches the integrator
    nan_p0 = np.array([math.nan, 0.5, 0.5])
    decay_cfg = SimConfig(horizon=1.0, step=0.1, trials=2)
    for run in (lambda: simulate_path(spec, params, cfg, p0=nan_p0),
                lambda: simulate_linear_path(spec, params, cfg, p0=nan_p0),
                lambda: simulate_coupled(spec, params, cfg, p0=nan_p0),
                lambda: estimate_decay(spec, params, decay_cfg, p0=nan_p0)):
        with pytest.raises(ValueError, match=r"p0 entries must lie in \[0, 1\]"):
            run()


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_config_refuses_a_seed_numpy_cannot_take(seed):
    # numpy's SeedSequence takes non-negative integers only and refuses the
    # rest with a message that names no seed; the config refuses them first
    with pytest.raises(ValueError, match=f"expected a non-negative integer, got {seed!r}"):
        SimConfig(horizon=1.0, step=0.1, seed=seed)
    assert SimConfig(horizon=1.0, step=0.1, seed=np.int64(3)).seed == 3


def test_estimate_decay_stable_instance():
    spec = switching_spec()
    params = EpidemicParams(beta=0.3, delta=2.0)
    cfg = SimConfig(horizon=8.0, step=0.05, trials=10, seed=3)
    est = estimate_decay(spec, params, cfg)
    assert est.rate < 0.0
    assert est.half_width is None  # fewer than 30 trials
    assert est.grid_times.size == est.mean_norms.size
    assert est.grid_times[0] == 0.0 and est.grid_times[-1] == 8.0
    assert est.window_start == pytest.approx(4.0)


def test_estimate_decay_half_width_with_many_trials():
    spec = switching_spec()
    params = EpidemicParams(beta=0.3, delta=2.0)
    cfg = SimConfig(horizon=4.0, step=0.1, trials=30, seed=3)
    est = estimate_decay(spec, params, cfg)
    assert est.half_width is not None and est.half_width > 0.0


def test_estimate_decay_zero_start_gives_neg_inf():
    spec = switching_spec()
    params = EpidemicParams(beta=1.0, delta=1.0)
    cfg = SimConfig(horizon=2.0, step=0.1, trials=2, seed=0)
    est = estimate_decay(spec, params, cfg, p0=np.zeros(3))
    assert est.rate == -math.inf
    assert est.half_width is None


def run_trials(spec, params, cfg, trials):
    """Run ``trials`` as one lockstep batch; per-trial times, states, events."""
    paths = [([], [], []) for _ in trials]
    events = [[] for _ in trials]

    def sample(slots, t, on_grid, grid_index, pf, pl):
        for row, slot in enumerate(slots):
            for path, value in zip(paths[slot], (t[row], pf[row], pl[row])):
                path.append(value)

    p0 = np.ones(spec.n)
    simulate._lockstep(
        spec, params, cfg, p0, trials, sample, full=True, linear=True, events=events
    )
    return {
        k: tuple(np.array(x) for x in path) + (events[slot],)
        for slot, (k, path) in enumerate(zip(trials, paths))
    }


def test_trial_path_same_alone_and_in_batch(monkeypatch):
    # a 3-state weighted edge and the coarse step of
    # test_coarse_step_still_bounded, so rows halve at different iterations
    three_state = WeightedEdgeChain(
        i=1,
        j=3,
        states=(0.0, 0.5, 1.0),
        generator=((-2.0, 1.5, 0.5), (1.0, -3.0, 2.0), (0.5, 0.5, -1.0)),
    )
    spec = SwitchedNetworkSpec(
        n=3,
        edges=(
            WeightedEdgeChain(1, 2, (0.0, 1.0), ((-2.0, 2.0), (1.0, -1.0))),
            three_state,
            WeightedEdgeChain(2, 3, (0.2, 0.9), ((-1.0, 1.0), (1.0, -1.0))),
        ),
    )
    params = EpidemicParams(beta=1.0, delta=40.0)
    cfg = SimConfig(horizon=2.0, step=0.5, seed=11)
    substeps = []
    rk4 = simulate._rk4

    def counting_rk4(f, a, q, h, nsub):
        substeps.append(nsub)
        return rk4(f, a, q, h, nsub)

    monkeypatch.setattr(simulate, "_rk4", counting_rk4)
    batch = run_trials(spec, params, cfg, range(200))
    assert max(substeps) > 1  # some rows halved their step
    assert any(ev.new_value == 0.5 for k in batch for ev in batch[k][3])
    for k in (0, 1, 57, 123, 199):
        alone = run_trials(spec, params, cfg, [k])[k]
        times, p_full, p_lin, events = batch[k]
        assert np.array_equal(alone[0], times)
        assert np.array_equal(alone[1], p_full)
        assert np.array_equal(alone[2], p_lin)
        assert alone[3] == events
    # trial 0 alone is what the public single-path functions return
    traj = simulate_path(spec, params, cfg)
    assert np.array_equal(traj.p, batch[0][1])
    assert traj.events == tuple(batch[0][3])


def test_rk4_span_rows_are_independent(monkeypatch):
    # three rows share one call; the stiff ones leave [0, 1] after one step
    # and halve, the stiffest more often, and only they take substeps.  Each
    # row must come out as it does alone.
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 1.0, size=(3, 2, 2))
    a = a + a.swapaxes(1, 2)
    q = rng.uniform(0.0, 1.0, size=(3, 2))
    span = np.repeat([0.05, 0.15, 0.5], 2).reshape(3, 2)
    calls = []
    rk4 = simulate._rk4

    def counting_rk4(f, a, q, h, nsub):
        calls.append((len(q), nsub))
        return rk4(f, a, q, h, nsub)

    def rhs(a, q):
        infect = np.matvec(a, q)
        return infect - 40.0 * q - q * infect

    monkeypatch.setattr(simulate, "_rk4", counting_rk4)
    together = simulate._rk4_span(rhs, a, q, span, True)
    assert calls[0] == (3, 1) and calls[1] == (2, 2) and calls[-1][0] == 1
    assert calls[-1][1] > 2
    for i in range(3):
        row = slice(i, i + 1)
        alone = simulate._rk4_span(rhs, a[row], q[row], span[row], True)
        assert np.array_equal(alone, together[row])


def test_one_rk4_step_per_span(monkeypatch):
    # one isolated vertex: 10 000 grid spans, one RK4 substep each, although
    # some grid gaps k * step - (k - 1) * step exceed step by rounding
    spec = SwitchedNetworkSpec(n=1, edges=())
    params = EpidemicParams(beta=1.0, delta=0.7)
    cfg = SimConfig(horizon=10.0, step=0.001, seed=0)
    substeps = []
    rk4 = simulate._rk4

    def counting_rk4(f, a, q, h, nsub):
        substeps.append(nsub)
        return rk4(f, a, q, h, nsub)

    monkeypatch.setattr(simulate, "_rk4", counting_rk4)
    traj = simulate_path(spec, params, cfg, p0=np.array([0.9]))
    assert traj.times.size == 10_001 and not traj.events
    assert sum(substeps) == 10_000
    exact = 0.9 * np.exp(-0.7 * traj.times)
    assert np.abs(traj.p[:, 0] - exact).max() <= 1e-10


def test_estimate_decay_mean_of_single_trials(monkeypatch):
    spec = switching_spec()
    params = EpidemicParams(beta=0.3, delta=2.0)
    cfg = SimConfig(horizon=4.0, step=0.1, trials=40, seed=8)
    monkeypatch.setattr(simulate, "TRIAL_CHUNK", 7)  # several batches
    est = estimate_decay(spec, params, cfg)
    single = SimConfig(horizon=4.0, step=0.1, seed=8)
    norms = []
    for k in range(cfg.trials):
        times, p_full, _, _ = run_trials(spec, params, single, [k])[k]
        on_grid = np.isin(times, est.grid_times)
        assert np.array_equal(times[on_grid], est.grid_times)
        norms.append(np.linalg.norm(p_full[on_grid], axis=1))
    expected = np.mean(norms, axis=0)
    assert np.allclose(est.mean_norms, expected, rtol=1e-14, atol=0.0)


def test_estimate_decay_needs_enough_window_points(monkeypatch):
    spec = switching_spec()
    params = EpidemicParams(beta=0.3, delta=2.0)
    ran = []
    monkeypatch.setattr(simulate, "_lockstep", lambda *args, **kw: ran.append(args))
    cfg = SimConfig(horizon=1.0, step=0.9, trials=10**6, seed=0)
    with pytest.raises(ValueError, match="fit window"):
        estimate_decay(spec, params, cfg)
    assert ran == []  # refused before any trial ran


@pytest.mark.parametrize("n, rows", [(3, 256), (256, 256), (800, 26), (5000, 1)])
def test_estimate_decay_batch_memory_bound(n, rows, monkeypatch):
    # rows * n^2 adjacency entries per batch stay under BATCH_ENTRY_CAP
    # (one row at least); counted, not allocated
    spec = SwitchedNetworkSpec(
        n=n,
        edges=(
            EdgeChain(i=1, j=2, p_rate=1.0, q_rate=1.0),
            EdgeChain(i=2, j=3, p_rate=1.0, q_rate=1.0),
        ),
    )
    batches = []
    monkeypatch.setattr(
        simulate, "_lockstep", lambda spec, params, cfg, p0, trials, *a, **kw:
        batches.append(list(trials)) or 0
    )
    cfg = SimConfig(horizon=2.0, step=0.5, trials=300, seed=0)
    estimate_decay(spec, EpidemicParams(beta=0.5, delta=1.0), cfg)
    assert max(len(b) for b in batches) == rows
    assert rows * n * n <= max(simulate.BATCH_ENTRY_CAP, n * n)
    assert [k for b in batches for k in b] == list(range(cfg.trials))


def test_estimate_decay_independent_of_batch_split(monkeypatch):
    # the README triangle; grid norms used to be summed in arrival order,
    # so mean_norms moved in the last digits with TRIAL_CHUNK
    params = EpidemicParams(beta=0.2, delta=1.5)
    cfg = SimConfig(horizon=6.0, step=0.05, trials=60, seed=0)
    runs = []
    for chunk in (1, 7, 256):
        monkeypatch.setattr(simulate, "TRIAL_CHUNK", chunk)
        runs.append(estimate_decay(switching_spec(), params, cfg))
    for est in runs[1:]:
        assert np.array_equal(est.mean_norms, runs[0].mean_norms)
        assert est.rate == runs[0].rate


def test_estimate_decay_norm_buffer_bound(monkeypatch):
    # a batch buffers rows * grid points norms, kept under BATCH_ENTRY_CAP;
    # slow edges, so that the 1025 grid points outnumber the 3 + 307 + 1
    # jump-table entries of a trial
    batches = []
    monkeypatch.setattr(
        simulate, "_lockstep", lambda spec, params, cfg, p0, trials, *a, **kw:
        batches.append(len(trials)) or 0
    )
    monkeypatch.setattr(simulate, "BATCH_ENTRY_CAP", 1 << 16)
    spec = SwitchedNetworkSpec(
        n=3,
        edges=tuple(EdgeChain(i=i, j=j, p_rate=0.1, q_rate=0.1)
                    for i, j in ((1, 2), (1, 3), (2, 3))),
    )
    cfg = SimConfig(horizon=1024.0, step=1.0, trials=300, seed=0)
    estimate_decay(spec, EpidemicParams(beta=0.5, delta=1.0), cfg)
    assert max(batches) == (1 << 16) // 1025  # grid points 0..1023 and 1024
    assert sum(batches) == cfg.trials


def test_estimate_decay_jump_table_bound(monkeypatch):
    # fast edges: 4800 expected jumps per trial, more than the 17 grid points
    # and the 9 adjacency entries; a batch's jump table, rows * (3 initial
    # states + 4800 jumps + 1 sentinel), is kept under BATCH_ENTRY_CAP
    batches = []
    monkeypatch.setattr(
        simulate, "_lockstep", lambda spec, params, cfg, p0, trials, *a, **kw:
        batches.append(len(trials)) or 0
    )
    monkeypatch.setattr(simulate, "BATCH_ENTRY_CAP", 1 << 16)
    spec = SwitchedNetworkSpec(
        n=3,
        edges=tuple(EdgeChain(i=i, j=j, p_rate=100.0, q_rate=100.0)
                    for i, j in ((1, 2), (1, 3), (2, 3))),
    )
    cfg = SimConfig(horizon=16.0, step=1.0, trials=300, seed=0)
    estimate_decay(spec, EpidemicParams(beta=0.5, delta=1.0), cfg)
    assert max(batches) == (1 << 16) // (3 + 4800 + 1)
    assert sum(batches) == cfg.trials


def test_estimate_decay_counts_every_jump(monkeypatch):
    spec = switching_spec()
    cfg = SimConfig(horizon=4.0, step=0.1, trials=20, seed=8)
    monkeypatch.setattr(simulate, "TRIAL_CHUNK", 7)  # several batches
    est = estimate_decay(spec, EpidemicParams(beta=0.3, delta=2.0), cfg)
    batch = run_trials(spec, EpidemicParams(beta=0.3, delta=2.0), cfg,
                       range(cfg.trials))
    assert est.events == sum(len(path[3]) for path in batch.values()) > 0


def scalar_switching(spec, seed, k, horizon):
    """Trial k's jumps, drawn one scalar call at a time in event order: per
    edge a uniform for the initial state, then an exponential hold; per jump
    (in time order, ties by edge index) a flip, or for three or more states a
    uniform over the jump row, then an exponential hold."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))

    def draw_state(weights):
        cum = np.cumsum(weights)
        k = np.searchsorted(cum, rng.random() * cum[-1], side="right")
        return min(int(k), len(weights) - 1)

    def hold(edge, k):
        rate = -float(edge.rate_matrix[k, k])
        x = float(rng.exponential(1.0 / rate)) if rate > 0.0 else math.inf
        while x == 0.0:
            x = float(rng.exponential(1.0 / rate))
        return x

    state, next_time, jumps = [], [], []
    for edge in spec.edges:
        state.append(draw_state(edge.stationary))
        next_time.append(hold(edge, state[-1]))
    while min(next_time, default=math.inf) < horizon:
        t = min(next_time)
        for e in [e for e, te in enumerate(next_time) if te == t]:
            edge, k = spec.edges[e], state[e]
            if len(edge.values) == 2:
                state[e] = 1 - k
            else:
                state[e] = draw_state(np.where(np.arange(len(edge.values)) == k,
                                               0.0, edge.rate_matrix[k]))
            next_time[e] = t + hold(edge, state[e])
            jumps.append(SwitchEvent(t, edge.i, edge.j, float(edge.values[state[e]])))
    return jumps


def mixed_weighted_spec():
    """Two-state chains around a three-state one (that of
    test_trial_path_same_alone_and_in_batch)."""
    return SwitchedNetworkSpec(
        n=3,
        edges=(
            WeightedEdgeChain(1, 2, (0.0, 1.0), ((-2.0, 2.0), (1.0, -1.0))),
            WeightedEdgeChain(
                1, 3, (0.0, 0.5, 1.0),
                ((-2.0, 1.5, 0.5), (1.0, -3.0, 2.0), (0.5, 0.5, -1.0)),
            ),
            WeightedEdgeChain(2, 3, (0.2, 0.9), ((-1.0, 1.0), (1.0, -1.0))),
        ),
    )


def three_state_spec():
    return SwitchedNetworkSpec(
        n=4,
        edges=(
            WeightedEdgeChain(
                1, 2, (0.0, 0.5, 1.0),
                ((-2.0, 1.5, 0.5), (1.0, -3.0, 2.0), (0.5, 0.5, -1.0)),
            ),
            WeightedEdgeChain(
                2, 3, (0.1, 0.4, 0.8),
                ((-1.0, 1.0, 0.0), (0.5, -1.0, 0.5), (0.0, 3.0, -3.0)),
            ),
            WeightedEdgeChain(
                3, 4, (0.0, 0.3, 0.7, 1.0),
                ((-1.0, 1.0, 0.0, 0.0), (0.0, -2.0, 2.0, 0.0),
                 (0.0, 0.0, -4.0, 4.0), (1.0, 0.0, 0.0, -1.0)),
            ),
        ),
    )


def frozen_edge_spec():
    # edge (1, 3) is always present and never jumps; the others switch
    return SwitchedNetworkSpec(
        n=3,
        edges=(
            EdgeChain(i=1, j=2, p_rate=2.0, q_rate=1.0),
            EdgeChain(i=1, j=3, p_rate=1.0, q_rate=0.0),
            EdgeChain(i=2, j=3, p_rate=0.5, q_rate=3.0),
        ),
    )


def fast_edge_spec():
    # 200 expected jumps over horizon 4; a binary spec draws its later holds
    # in blocks of 16 + 200, and trial 11 of seed 11 jumps 222 times
    return SwitchedNetworkSpec(
        n=2, edges=(EdgeChain(i=1, j=2, p_rate=50.0, q_rate=50.0),)
    )


@pytest.mark.parametrize(
    "make_spec",
    [switching_spec, mixed_weighted_spec, three_state_spec, frozen_edge_spec,
     fast_edge_spec],
)
def test_switching_path_follows_scalar_draw_order(make_spec):
    # the jumps the lockstep applies are those of a scalar event loop on the
    # trial's own stream, and each trial's times and both paths are the same
    # alone and in a batch
    spec = make_spec()
    params = EpidemicParams(beta=1.0, delta=1.5)
    longest = 0
    for seed in (0, 3, 11):
        cfg = SimConfig(horizon=4.0, step=0.25, seed=seed)
        batch = run_trials(spec, params, cfg, range(12))
        assert sum(len(path[3]) for path in batch.values()) > 12
        for k in (0, 5, 11):
            expected = scalar_switching(spec, seed, k, cfg.horizon)
            longest = max(longest, len(expected))
            grid = np.append(np.arange(16) * 0.25, 4.0)
            times = np.union1d(grid, [ev.time for ev in expected])
            alone = run_trials(spec, params, cfg, [k])[k]
            for path in (alone, batch[k]):
                assert path[3] == expected
                assert np.array_equal(path[0], times)
            for x, y in zip(alone[:3], batch[k][:3]):
                assert np.array_equal(x, y)
            if make_spec is frozen_edge_spec:
                assert all((ev.i, ev.j) != (1, 3) for ev in expected)
    if make_spec is fast_edge_spec:  # a checked trial needs a second block
        assert longest > 16 + int(simulate._expected_events(spec, 4.0))


def test_csv_writers(tmp_path):
    spec = switching_spec()
    params = EpidemicParams(beta=1.0, delta=1.0)
    cfg = SimConfig(horizon=1.0, step=0.25, seed=2)
    traj = simulate_path(spec, params, cfg)
    tpath = tmp_path / "trajectory.csv"
    epath = tmp_path / "events.csv"
    write_trajectory_csv(traj, tpath)
    write_events_csv(traj, epath)
    tlines = tpath.read_text().splitlines()
    assert tlines[0] == "t,p_1,p_2,p_3"
    assert len(tlines) == traj.times.size + 1
    first = tlines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    elines = epath.read_text().splitlines()
    assert elines[0] == "t,i,j,new_state"
    assert len(elines) == len(traj.events) + 1
    # byte-identical on rerun
    t2 = simulate_path(spec, params, cfg)
    tpath2 = tmp_path / "trajectory2.csv"
    write_trajectory_csv(t2, tpath2)
    assert tpath.read_bytes() == tpath2.read_bytes()
