"""Integrators: analytic oracles, cross-solver agreement, failure modes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from gnde import catalog as cat
from gnde import dynamics as dyn
from gnde import kernels
from gnde import sampling as smp
from gnde.errors import (
    DimensionMismatchError,
    DivergenceError,
    InvalidParameterError,
    NonConvergenceError,
)
from gnde.neural import Activation, FilterBank, filters_at, h_sup_certified, random_filter_bank

IDENT = Activation("identity")
TANH = Activation("tanh")


def _scalar_bank(h: float) -> FilterBank:
    return FilterBank(np.array(h).reshape(1, 1, 1, 1))


def test_scalar_exponential_dp5():
    # dX/dt = X with X(0) = 1 has X(t) = e^t
    s = np.array([[1.0]])
    z = np.array([[1.0]])
    cfg = dyn.SolverConfig(method="dp5", atol=1e-10, rtol=1e-10, eval_grid=4)
    traj = dyn.integrate(s, z, _scalar_bank(1.0), IDENT, 1.0, cfg)
    want = np.exp(traj.eval_times)
    assert np.allclose(traj.states[:, 0, 0], want, atol=1e-8, rtol=0.0)
    assert traj.states[0, 0, 0] == 1.0


def test_scalar_exponential_rk4():
    s = np.array([[1.0]])
    z = np.array([[1.0]])
    cfg = dyn.SolverConfig(method="rk4", eval_grid=4)
    traj = dyn.integrate(s, z, _scalar_bank(1.0), IDENT, 1.0, cfg)
    assert traj.states[-1, 0, 0] == pytest.approx(math.e, abs=1e-9)


def test_two_tap_scalar_rate():
    # with S = [[1]] both taps act as scalars: dX/dt = (h0 + h1) X
    s = np.array([[1.0]])
    z = np.array([[2.0]])
    bank = FilterBank(np.array([0.75, 0.5]).reshape(1, 1, 1, 2))
    cfg = dyn.SolverConfig(method="dp5", atol=1e-11, rtol=1e-11)
    traj = dyn.integrate(s, z, bank, IDENT, 1.0, cfg)
    assert traj.states[-1, 0, 0] == pytest.approx(2.0 * math.exp(1.25), abs=1e-8)


def test_time_varying_bank_analytic():
    # dX/dt = cos(pi t) X  =>  X(t) = exp(sin(pi t) / pi); horizon 2, T = 1
    s = np.array([[1.0]])
    z = np.array([[1.0]])
    coeffs = np.array([0.0, 1.0, 0.0]).reshape(1, 1, 1, 1, 3)
    bank = FilterBank(coeffs, horizon=2.0)
    cfg = dyn.SolverConfig(method="dp5", atol=1e-11, rtol=1e-11, eval_grid=2)
    traj = dyn.integrate(s, z, bank, IDENT, 1.0, cfg)
    assert traj.states[1, 0, 0] == pytest.approx(math.exp(1.0 / math.pi), abs=1e-8)
    assert traj.states[2, 0, 0] == pytest.approx(1.0, abs=1e-8)


def _tent_system(n=8, seed=4, channels=2):
    rng = np.random.default_rng(seed)
    s = smp.graph_shift(smp.sample_weighted(cat.tent(), n))
    bank = random_filter_bank(2, channels, 2, rng)
    z = rng.normal(size=(n, channels))
    return s, z, bank


def test_dp5_matches_scipy_rk45():
    s, z, bank = _tent_system()
    n, F = z.shape

    def fun(t, y):
        return kernels.layer_stack_forward(s, y.reshape(n, F), filters_at(bank, t),
                                           TANH.act_id, TANH.slope).ravel()

    ref = solve_ivp(
        fun, (0.0, 1.0), z.ravel(), method="RK45", atol=1e-11, rtol=1e-11
    )
    cfg = dyn.SolverConfig(method="dp5", atol=1e-9, rtol=1e-9, eval_grid=2)
    traj = dyn.integrate(s, z, bank, TANH, 1.0, cfg)
    gap = dyn.scaled_norm(traj.states[-1] - ref.y[:, -1].reshape(n, F))
    assert gap < 1e-7


def test_rk4_is_fourth_order():
    s, z, bank = _tent_system(seed=6)
    tight = dyn.SolverConfig(method="dp5", atol=1e-12, rtol=1e-12, eval_grid=1)
    ref = dyn.integrate(s, z, bank, TANH, 1.0, tight).states[-1]
    errs = []
    for step in (0.05, 0.025):
        cfg = dyn.SolverConfig(method="rk4", rk4_step=step, eval_grid=1)
        got = dyn.integrate(s, z, bank, TANH, 1.0, cfg).states[-1]
        errs.append(dyn.scaled_norm(got - ref))
    ratio = errs[0] / errs[1]
    # halving the step should shrink the error by about 2^4
    assert 12.0 <= ratio <= 20.0, ratio


def test_picard_matches_dp5():
    s, z, bank = _tent_system(n=12, seed=11)
    pic = dyn.SolverConfig(method="picard", eval_grid=10)
    ref = dyn.SolverConfig(method="dp5", atol=1e-11, rtol=1e-11, eval_grid=10)
    a = dyn.integrate(s, z, bank, TANH, 1.0, pic)
    b = dyn.integrate(s, z, bank, TANH, 1.0, ref)
    gap = max(
        dyn.scaled_norm(a.states[j] - b.states[j]) for j in range(a.eval_times.size)
    )
    assert gap < 1e-8
    assert a.solver_meta["method"] == "picard"


def test_picard_scale_guard():
    s = np.eye(100) / 100.0
    z = np.ones((100, 1))
    cfg = dyn.SolverConfig(method="picard")
    with pytest.raises(InvalidParameterError):
        dyn.integrate(s, z, _scalar_bank(1.0), IDENT, 1.0, cfg)
    with pytest.raises(InvalidParameterError):
        dyn.integrate(np.array([[1.0]]), np.ones((1, 1)), _scalar_bank(1.0), IDENT, 5.0, cfg)


def test_three_solver_agreement():
    s, z, bank = _tent_system(n=10, seed=20)
    results = {}
    for method in ("rk4", "dp5", "picard"):
        cfg = dyn.SolverConfig(method=method, eval_grid=5)
        results[method] = dyn.integrate(s, z, bank, TANH, 0.5, cfg)
    for a in ("rk4", "dp5"):
        for b in ("dp5", "picard"):
            gap = max(
                dyn.scaled_norm(results[a].states[j] - results[b].states[j])
                for j in range(6)
            )
            assert gap <= 1e-6, (a, b, gap)


def test_eval_grid_layout():
    s, z, bank = _tent_system(n=4)
    cfg = dyn.SolverConfig(method="rk4", eval_grid=7)
    traj = dyn.integrate(s, z, bank, TANH, 2.0, cfg)
    assert traj.eval_times.shape == (8,)
    assert traj.eval_times[0] == 0.0 and traj.eval_times[-1] == 2.0
    assert np.allclose(np.diff(traj.eval_times), 2.0 / 7.0, atol=1e-15)
    assert np.array_equal(traj.states[0], z)
    assert (traj.n, traj.F) == (4, 2)


@pytest.mark.parametrize("method", ["dp5", "rk4"])
def test_integrate_takes_a_sampled_graph(method):
    # a graph is split as its shift A / n: the trajectory is the operator's
    # bit for bit
    rng = np.random.default_rng(9)
    graph = smp.sample_weighted(cat.tent(), 6)
    bank = random_filter_bank(2, 2, 3, rng)
    z = rng.normal(size=(6, 2))
    cfg = dyn.SolverConfig(method=method, eval_grid=5)
    want = dyn.integrate(kernels.ShiftOperator(graph), z, bank, TANH, 1.0, cfg)
    got = dyn.integrate(graph, z, bank, TANH, 1.0, cfg)
    assert np.array_equal(got.states, want.states)
    assert got.solver_meta == want.solver_meta


def test_divergence_raises():
    s = np.array([[1.0]])
    z = np.array([[1.0]])
    cfg = dyn.SolverConfig(method="rk4", eval_grid=10)
    with pytest.raises(DivergenceError):
        dyn.integrate(s, z, _scalar_bank(1e3), IDENT, 1.0, cfg)


def test_rk4_step_budget():
    # the substep count is known before the first step; one beyond
    # max_steps is refused instead of run
    s, z, bank = _tent_system(n=4)
    cfg = dyn.SolverConfig(method="rk4", rk4_step=0.25, eval_grid=2, max_steps=4)
    assert dyn.integrate(s, z, bank, TANH, 1.0, cfg).solver_meta["steps"] == 4
    for step, grid in ((0.2, 2), (1e-300, 2), (5e-324, 2), (1.0, 5)):
        cfg = dyn.SolverConfig(method="rk4", rk4_step=step, eval_grid=grid, max_steps=4)
        with pytest.raises(InvalidParameterError, match="max_steps"):
            dyn.integrate(s, z, bank, TANH, 1.0, cfg)


def test_dp5_step_budget():
    s, z, bank = _tent_system()
    cfg = dyn.SolverConfig(method="dp5", atol=1e-12, rtol=1e-12, max_steps=3)
    with pytest.raises(NonConvergenceError) as err:
        dyn.integrate(s, z, bank, TANH, 1.0, cfg)
    assert err.value.last_time is not None


def test_input_validation():
    s, z, bank = _tent_system(n=5)
    cfg = dyn.SolverConfig()
    with pytest.raises(InvalidParameterError):
        dyn.integrate(s, z, bank, TANH, 0.0, cfg)
    with pytest.raises(InvalidParameterError):
        dyn.integrate(np.triu(s), z, bank, TANH, 1.0, cfg)
    with pytest.raises(InvalidParameterError):
        dyn.integrate(kernels.ShiftOperator(np.triu(s)), z, bank, TANH, 1.0, cfg)
    # each shape mismatch raises the forward map's DimensionMismatchError
    with pytest.raises(DimensionMismatchError, match="square shift, got 4x5"):
        dyn.integrate(kernels.ShiftOperator(s[:4]), z, bank, TANH, 1.0, cfg)
    with pytest.raises(DimensionMismatchError, match="square shift, got 4x5"):
        dyn.integrate(s[:4], z, bank, TANH, 1.0, cfg)
    with pytest.raises(DimensionMismatchError, match="got shape \\(5,\\)"):
        dyn.integrate(s[0], z, bank, TANH, 1.0, cfg)
    with pytest.raises(DimensionMismatchError, match="\\(5, 2\\), got shape \\(3, 2\\)"):
        dyn.integrate(s, z[:3], bank, TANH, 1.0, cfg)
    with pytest.raises(DimensionMismatchError, match="\\(5, 2\\), got shape \\(5, 1\\)"):
        dyn.integrate(s, z[:, :1], bank, TANH, 1.0, cfg)
    # every system is checked alone: 3- and 1-channel states against
    # 2-channel banks fill the 2*2 columns of each rk4 round between them
    z3 = np.concatenate([z, z[:, :1]], axis=1)
    rk4 = dyn.SolverConfig(method="rk4")
    with pytest.raises(DimensionMismatchError, match="got shape \\(5, 3\\)"):
        dyn.integrate_batch(s, [(z3, bank), (z[:, :1], bank)], TANH, 1.0, rk4)
    with pytest.raises(DimensionMismatchError, match="got shape \\(5, 1\\)"):
        dyn.integrate_batch(s, [(z, bank), (z[:, :1], bank)], TANH, 1.0, rk4)
    # and before any solver runs: picard refuses this deep bank, whose
    # (F K h_T)^L = 40^200 overflows, but the mismatch is reported first
    deep = FilterBank(np.full((200, 2, 2, 2), 10.0))
    picard = dyn.SolverConfig(method="picard")
    with pytest.raises(NonConvergenceError):
        dyn.integrate(s, z, deep, TANH, 1.0, picard)
    with pytest.raises(DimensionMismatchError, match="2-channel bank"):
        dyn.integrate(s, z[:, :1], deep, TANH, 1.0, picard)
    with pytest.raises(InvalidParameterError):
        dyn.integrate(s, z, bank, np.tanh, 1.0, cfg)
    taps3 = random_filter_bank(2, 2, 3, np.random.default_rng(1))
    with pytest.raises(InvalidParameterError, match="one \\(L, F, K\\) shape"):
        dyn.integrate_batch(s, [(z, bank), (z, taps3)], TANH, 1.0, cfg)
    assert dyn.integrate_batch(s, [], TANH, 1.0, cfg) == []
    with pytest.raises(InvalidParameterError):
        dyn.SolverConfig(method="euler")
    with pytest.raises(InvalidParameterError):
        dyn.SolverConfig(eval_grid=0)
    with pytest.raises(InvalidParameterError):
        dyn.SolverConfig(atol=0.0)
    for tol in (math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            dyn.SolverConfig(atol=tol)
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            dyn.SolverConfig(rtol=tol)
    with pytest.raises(InvalidParameterError):
        dyn.SolverConfig(rk4_step=-0.1)


def test_trajectory_equivariance_bit_exact():
    # relabeling the nodes permutes every state bit for bit, for both the
    # fixed-step and the adaptive solver (dp5's step control included)
    for n, seed in ((9, 3), (31, 4)):
        s, z, bank = _tent_system(n=n, seed=seed)
        perm = np.random.default_rng(40).permutation(n)
        for method in ("rk4", "dp5"):
            cfg = dyn.SolverConfig(method=method, eval_grid=10)
            base = dyn.integrate(s, z, bank, TANH, 1.0, cfg)
            relab = dyn.integrate(s[np.ix_(perm, perm)], z[perm], bank, TANH, 1.0, cfg)
            assert np.array_equal(base.states[:, perm], relab.states), (n, method)


def test_integrate_reuses_an_operator():
    # one operator serves several trajectories, bit-equal to fresh arrays
    s, z, bank = _tent_system(n=12, seed=7)
    op = kernels.ShiftOperator(s)
    for method in ("rk4", "dp5"):
        cfg = dyn.SolverConfig(method=method, eval_grid=5)
        for scale in (1.0, -0.5):
            want = dyn.integrate(s, scale * z, bank, TANH, 0.5, cfg)
            got = dyn.integrate(op, scale * z, bank, TANH, 0.5, cfg)
            assert np.array_equal(got.states, want.states), (method, scale)
            assert got.solver_meta == want.solver_meta


@settings(max_examples=12, deadline=None)
@given(n=st.integers(2, 14), channels=st.integers(1, 2),
       method=st.sampled_from(["rk4", "dp5", "picard"]), seed=st.integers(0, 2**32 - 1))
def test_trajectory_equivariance_random_systems(n, channels, method, seed):
    # any symmetric shift, bank and initial state: relabeling the nodes
    # permutes every state bit for bit
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, size=(n, n)) / n
    s = a + a.T
    z = rng.normal(size=(n, channels))
    bank = random_filter_bank(2, channels, 3, rng)
    perm = rng.permutation(n)
    cfg = dyn.SolverConfig(method=method, eval_grid=4)
    base = dyn.integrate(s, z, bank, TANH, 0.5, cfg)
    relab = dyn.integrate(s[np.ix_(perm, perm)], z[perm], bank, TANH, 0.5, cfg)
    assert np.array_equal(base.states[:, perm], relab.states)
    assert base.solver_meta == relab.solver_meta


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DivergenceError, NonConvergenceError) as exc:
        return exc


def _assert_batch_is_solo(op, systems, act, T, cfg):
    """Integrate the systems as one batch and each alone: every trajectory,
    solver_meta and failure must agree bit for bit.  Returns the outcomes."""
    batch = dyn.integrate_batch(op, systems, act, T, cfg)
    assert len(batch) == len(systems)
    for (z, bank), got in zip(systems, batch):
        want = _outcome(dyn.integrate, op, z, bank, act, T, cfg)
        assert type(got) is type(want)
        if isinstance(want, Exception):
            assert str(got) == str(want)
            assert getattr(got, "last_time", None) == getattr(want, "last_time", None)
        else:
            assert np.array_equal(got.eval_times, want.eval_times)
            assert np.array_equal(got.states, want.states)
            assert got.solver_meta == want.solver_meta
    return batch


def _batch_run(method, n, channels, scales, tiny, identity, max_steps, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, size=(n, n)) / n
    op = kernels.ShiftOperator(a + a.T)
    systems = []
    for b, scale in enumerate(scales):
        bank = FilterBank(scale * rng.uniform(-1.0, 1.0, size=(2, channels, channels, 3)))
        z = rng.normal(size=(n, channels))
        systems.append((1e-306 * z if b == 0 and tiny else z, bank))
    cfg = dyn.SolverConfig(method=method, eval_grid=4, rk4_step=0.05, max_steps=max_steps)
    return systems, _assert_batch_is_solo(op, systems, IDENT if identity else TANH, 0.5, cfg)


_DIFFERENT_ATTEMPTS = dict(method="dp5", n=9, channels=1, scales=[0.05, 4.0, 1.0],
                           tiny=False, identity=False, max_steps=40, seed=3)
_DIVERGES = dict(method="rk4", n=9, channels=2, scales=[1.0, 1e5, 0.05],
                 tiny=False, identity=True, max_steps=40, seed=4)
_EXCEEDS_MAX_STEPS = dict(method="dp5", n=9, channels=1, scales=[0.0, 4.0, 1e5],
                          tiny=False, identity=False, max_steps=5, seed=5)
_TINY = dict(method="dp5", n=9, channels=2, scales=[1.0, 1.0],
             tiny=True, identity=False, max_steps=40, seed=6)


@settings(max_examples=12, deadline=None)
@given(method=st.sampled_from(["rk4", "dp5", "picard"]), n=st.integers(2, 12),
       channels=st.integers(1, 2),
       scales=st.lists(st.sampled_from([0.0, 0.05, 1.0, 4.0, 1e5]), min_size=1, max_size=4),
       tiny=st.booleans(), identity=st.booleans(), max_steps=st.sampled_from([5, 40]),
       seed=st.integers(0, 2**32 - 1))
@example(**_DIFFERENT_ATTEMPTS)
@example(**_DIVERGES)
@example(**_EXCEEDS_MAX_STEPS)
@example(**_TINY)
def test_batch_is_bitwise_solo(method, n, channels, scales, tiny, identity, max_steps,
                               seed):
    # B systems on one operator, integrated in lockstep, each equal to its
    # solo run: systems leave after different numbers of dp5 attempts or
    # picard windows, fail (diverge, exceed max_steps, or miss the picard
    # fixpoint) beside healthy ones, or sit near 1e-306, where _split's
    # scale 2**(beta - e) of a column exceeds the largest float
    if method == "rk4":
        max_steps = 40  # 10 steps of 0.05; fewer is refused up front
    if method == "picard":
        # |h| = 4 cuts T = 0.5 into ~1000 one-interval windows, seconds per
        # system; 1.0 keeps several windows per system, 1e5 still fails
        scales = [1.0 if scale == 4.0 else scale for scale in scales]
    _batch_run(method, n, channels, scales, tiny, identity, max_steps, seed)


def _picard_per_point(s, z, bank, act, T, eval_grid):
    """The Picard oracle with one forward pass per fine-grid point: the
    reference that the batched windows must match bit for bit."""
    times = dyn._eval_times(T, eval_grid)
    sub = max(1, math.ceil(dyn.PICARD_GRID_PER_UNIT * T / eval_grid))
    fine = np.empty(eval_grid * sub + 1)
    for j in range(eval_grid):
        fine[j * sub : (j + 1) * sub] = times[j] + (times[j + 1] - times[j]) * (
            np.arange(sub) / sub)
    fine[-1] = times[-1]
    lam = (bank.F * bank.K * h_sup_certified(bank)) ** bank.L
    tau = min(dyn.PICARD_CONTRACTION / lam, T) if lam > 0.0 else T
    X = np.empty((fine.size, z.shape[0], z.shape[1]))
    X[0] = z
    iterations, contraction, start = 0, 0.0, 0
    while start < fine.size - 1:
        stop = start + 1
        while stop < fine.size - 1 and fine[stop + 1] - fine[start] <= tau * (1 + 1e-12):
            stop += 1
        idx = np.arange(start, stop + 1)
        X[idx[1:]] = X[start]
        prev_change = None
        for _ in range(dyn.PICARD_MAX_ITER):
            vel = np.stack([kernels.layer_stack_forward(
                s, X[i], filters_at(bank, min(fine[i], T)), act.act_id, act.slope) for i in idx])
            increments = 0.5 * np.diff(fine[idx])[:, None, None] * (vel[:-1] + vel[1:])
            new = np.cumsum(increments, axis=0) + X[start]
            change = max(dyn.scaled_norm(new[m] - X[idx[m + 1]]) for m in range(len(idx) - 1))
            X[idx[1:]] = new
            iterations += 1
            if prev_change is not None and prev_change > 0.0:
                contraction = change / prev_change
            prev_change = change
            if change < dyn.PICARD_TOL:
                break
        else:
            return NonConvergenceError(
                "picard iteration failed to reach the fixpoint tolerance",
                last_time=float(fine[start]), contraction=contraction)
        start = stop
    meta = {"method": "picard", "grid_points": fine.size, "window": tau,
            "iterations": iterations, "eval_grid": eval_grid}
    return dyn.TrajectoryRecord(times, X[::sub], meta)


@pytest.mark.parametrize("graphon, act_name", [("tent", "tanh"), ("checkerboard", "relu")])
def test_picard_matches_per_point_rhs(graphon, act_name, monkeypatch):
    # each window's velocities come from batched forward passes; states,
    # solver_meta and failures equal a per-point rhs loop bit for bit, for
    # constant and Fourier-law banks (whose taps vary across the window) and
    # for a system that cannot contract on the fine grid, whether a round
    # goes through in one pass or in groups of 7 points that straddle systems
    rng = np.random.default_rng(61)
    n, T, act = 11, 0.08, Activation(act_name)
    spec = cat.tent() if graphon == "tent" else cat.checkerboard(3)
    sample = smp.sample_weighted if graphon == "tent" else smp.sample_unweighted
    s = smp.graph_shift(sample(spec, n))
    systems = [
        (rng.normal(size=(n, 2)), random_filter_bank(2, 2, 2, rng)),
        (rng.normal(size=(n, 2)), random_filter_bank(
            2, 2, 2, rng, time_law="fourier", modes=2, horizon=T)),
        (rng.normal(size=(n, 2)), FilterBank(0.05 * rng.uniform(-1.0, 1.0, (2, 2, 2, 2)))),
        (rng.normal(size=(n, 2)), FilterBank(1e4 * rng.uniform(-1.0, 1.0, (2, 2, 2, 2)))),
    ]
    cfg = dyn.SolverConfig(method="picard", eval_grid=3)
    got = dyn.integrate_batch(s, systems, act, T, cfg)
    monkeypatch.setattr(dyn, "ROUND_ENTRIES", 7 * n * 2)
    grouped = dyn.integrate_batch(s, systems, act, T, cfg)
    for (z, bank), *results in zip(systems, got, grouped):
        with np.errstate(over="ignore", invalid="ignore"):  # as integrate_batch does
            want = _picard_per_point(s, z, bank, act, T, cfg.eval_grid)
        for result in results:
            assert type(result) is type(want)
            if isinstance(want, Exception):
                # repr, so that a NaN contraction estimate compares equal to itself
                assert repr((str(result), result.last_time, result.contraction)) == repr(
                    (str(want), want.last_time, want.contraction))
            else:
                assert result.states.tobytes() == want.states.tobytes()
                assert result.eval_times.tobytes() == want.eval_times.tobytes()
                assert result.solver_meta == want.solver_meta
    windows = [r.solver_meta["window"] for r in got if isinstance(r, dyn.TrajectoryRecord)]
    assert min(windows) < T == max(windows)  # several windows, and one window
    assert isinstance(got[-1], NonConvergenceError)


def test_batch_cases_are_reached():
    # the explicit examples above exercise what they claim to
    _, out = _batch_run(**_DIFFERENT_ATTEMPTS)
    attempts = [r.solver_meta["accepted"] + r.solver_meta["rejected"] for r in out]
    assert len(set(attempts)) == 3, attempts
    _, out = _batch_run(**_DIVERGES)
    assert [type(r) for r in out] == [dyn.TrajectoryRecord, DivergenceError,
                                      dyn.TrajectoryRecord]
    _, out = _batch_run(**_EXCEEDS_MAX_STEPS)
    assert isinstance(out[0], dyn.TrajectoryRecord)
    assert all(isinstance(r, NonConvergenceError) for r in out[1:])
    systems, out = _batch_run(**_TINY)
    assert np.abs(systems[0][0]).max() < 2.0 ** (kernels.slice_bits(9) - 1024)
    assert all(isinstance(r, dyn.TrajectoryRecord) for r in out)


def _power_split_thetas():
    """Thetas in (0, 1) whose array power (numpy's vector loop) rounds
    differently from the scalar power at exponent 2, 3 or 4 on this build:
    a power form of the weights would split them, Horner's rule does not."""
    x = np.random.default_rng(0).uniform(size=1 << 14)
    differ = np.zeros(x.size, dtype=bool)
    for k in (2, 3, 4):
        differ |= x**k != np.array([v**k for v in x.tolist()])
    return x[differ][:64].tolist() or [0.5]


_POWER_SPLIT_THETAS = _power_split_thetas()


def _dense_output_per_time(times, t, y, h, K):
    # the per-time stage-weight form: for each eval time, the weights
    # b_s(theta) by Horner's rule in Python floats, then y + h * sum_s b_s K_s
    # over the stages with a nonzero row of P, summed in stage order
    out = []
    for tj in times:
        theta = float((tj - t) / h)
        acc = None
        for s in range(7):
            p0, p1, p2, p3 = dyn._DP_P[s].tolist()
            if p0 == p1 == p2 == p3 == 0.0:
                continue
            term = ((((p3 * theta + p2) * theta + p1) * theta + p0) * theta) * K[s]
            acc = term if acc is None else acc + term
        out.append(y + h * acc)
    return np.array(out)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(16, 2048), F=st.integers(1, 3), scale=st.sampled_from([1e-6, 1.0, 1e6]),
       count=st.sampled_from([1, 1, 2, 9, 40]), split=st.booleans(),
       chunk=st.sampled_from([1, dyn.DENSE_BLOCK_ENTRIES, 1 << 40]),
       seed=st.integers(0, 2**32 - 1))
def test_dense_output_matches_per_time_form(n, F, scale, count, split, chunk, seed):
    # the chunked dense output equals the per-time stage-weight form bit for
    # bit, one time per step or many, whatever the chunk size; with t = 0 and
    # h = 1 the thetas are ones whose array and scalar powers differ
    rng = np.random.default_rng(seed)
    K = scale * rng.standard_normal((7, n, F))
    y = scale * rng.standard_normal((n, F))
    if split:
        t, h = 0.0, 1.0
        times = np.sort(rng.choice(_POWER_SPLIT_THETAS, count))
    else:
        t, h = rng.uniform(0.0, 1.0), rng.uniform(1e-4, 0.5)
        times = t + h * np.sort(rng.uniform(0.0, 1.0, count))
    want = _dense_output_per_time(times, t, y, h, K)
    got = np.empty((count, n, F))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dyn, "DENSE_BLOCK_ENTRIES", chunk)
        dyn._dense_output(got, times, t, y, h, K)
    assert got.tobytes() == want.tobytes()


def test_dense_weights_match_the_tableau():
    # the interpolant starts at y (every weight is exactly 0 at theta = 0) and
    # ends at the 5th-order step (the weights at theta = 1 are B, and the
    # FSAL stage 6 has none), to rounding in the rational coefficients of P
    assert not dyn._DP_P[1].any()
    at0 = dict(zip(dyn._DENSE_STAGES, dyn._dense_weights(0.0)))
    at1 = dict(zip(dyn._DENSE_STAGES, dyn._dense_weights(1.0)))
    assert all(w == 0.0 for w in at0.values())
    for s in range(6):
        assert abs(at1.get(s, 0.0) - dyn._DP_B[s]) <= 1e-14, s
    assert abs(at1[6]) <= 1e-15


def test_error_norm_exact_and_saturating():
    rng = np.random.default_rng(8)
    err, y = rng.normal(size=(40, 3)), rng.normal(size=(40, 3))
    perm = rng.permutation(40)
    norm = dyn._error_norm(err, y, 2.0 * y, 1e-7, 1e-7)
    assert norm == dyn._error_norm(err[perm], y[perm], 2.0 * y[perm], 1e-7, 1e-7)
    # finite squares whose sum overflows reject the step instead of raising
    big = np.full((2, 1), 1e154)
    assert dyn._error_norm(big, 0.0 * big, 0.0 * big, 1.0, 1.0) == math.inf
    # a square beyond the float range reads as inf, without a warning
    huge = np.array([[1.5e154], [1e-3]])
    assert dyn._error_norm(huge, 0.0 * huge, 0.0 * huge, 1.0, 1.0) == math.inf
    assert dyn._error_norm(huge, 0.0 * huge, 0.0 * huge, 1e-300, 1e-300) == math.inf


def test_scaled_norm_definition():
    v = np.array([[3.0, 4.0], [0.0, 0.0]])
    # frobenius 5 over sqrt(2)
    assert dyn.scaled_norm(v) == pytest.approx(5.0 / math.sqrt(2.0), abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(J=st.integers(1, 6), n=st.one_of(st.integers(1, 300), st.sampled_from([256, 2048])),
       F=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       exps=st.lists(st.integers(-500, 500), min_size=6, max_size=6),
       zeros=st.sampled_from([0.0, 0.3, 1.0]))
def test_stacked_scaled_norm_equals_per_state(J, n, F, seed, exps, zeros):
    # the stacked norms are each state's own Frobenius-over-sqrt(n) sum, bit
    # for bit, across magnitudes whose squares overflow or underflow
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((J, n, F)) * np.ldexp(1.0, exps[:J])[:, None, None]
    states[rng.random(states.shape) < zeros] = 0.0
    stacked = dyn.scaled_norm(states)
    assert stacked.shape == (J,)
    per_state = [float(np.sqrt(np.sum(x * x) / x.shape[0])) for x in states]
    assert [v.hex() for v in stacked.tolist()] == [v.hex() for v in per_state]
    assert [dyn.scaled_norm(x).hex() for x in states] == [v.hex() for v in per_state]


def test_write_trajectory(tmp_path):
    s, z, bank = _tent_system(n=3, channels=2)
    cfg = dyn.SolverConfig(method="rk4", eval_grid=4)
    traj = dyn.integrate(s, z, bank, TANH, 1.0, cfg)
    path = tmp_path / "traj.csv"
    dyn.write_trajectory(traj, path)
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode().splitlines()
    assert lines[0] == "t," + ",".join(f"x_{i}_{f}" for i in range(3) for f in range(2))
    assert len(lines) == 6
    back = np.asarray(
        [[float(x) for x in row.split(",")] for row in lines[1:]]
    )
    assert np.array_equal(back[:, 0], traj.eval_times)
    assert np.array_equal(back[:, 1:].reshape(5, 3, 2), traj.states)
    meta = (tmp_path / "traj.csv.meta.txt").read_text()
    assert "method=rk4" in meta
