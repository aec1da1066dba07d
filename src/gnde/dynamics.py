"""Initial value problem dX/dt = Phi(S; X(t); H(t)), X(0) = Z.

Three integrators: fixed-step RK4 (each eval-grid interval subdivided an
integer number of times), Dormand-Prince 5(4) with adaptive step control
and quartic dense output, and a Picard fixed-point iterator that mirrors
the contraction-mapping well-posedness argument and serves as a slow,
solver-free oracle at small scale.

All trajectories are reported on a shared uniform eval grid so that
different solvers and different node counts compare directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    DivergenceError,
    InvalidParameterError,
    NonConvergenceError,
)
from .neural import Activation, FilterBank, filters_at, h_sup_certified
from .sampling import FeatureMatrix

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0

PICARD_MAX_N = 64
PICARD_MAX_T = 2.0
PICARD_CONTRACTION = 0.4

# Dormand-Prince 5(4) tableau; B is the 5th-order weight row, E the
# embedded error weights, P the dense-output polynomial coefficients
# (quartic interpolant of the 5th-order pair).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_DP_A = [
    np.array([], dtype=np.float64),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
_DP_P = np.array(
    [
        [
            1.0,
            -8048581381 / 2820520608,
            8663915743 / 2820520608,
            -12715105075 / 11282082432,
        ],
        [0.0, 0.0, 0.0, 0.0],
        [
            0.0,
            131558114200 / 32700410799,
            -68118460800 / 10900136933,
            87487479700 / 32700410799,
        ],
        [
            0.0,
            -1754552775 / 470086768,
            14199869525 / 1410260304,
            -10690763975 / 1880347072,
        ],
        [
            0.0,
            127303824393 / 49829197408,
            -318862633887 / 49829197408,
            701980252875 / 199316789632,
        ],
        [
            0.0,
            -282668133 / 205662961,
            2019193451 / 616988883,
            -1453857185 / 822651844,
        ],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)


@dataclass(frozen=True)
class SolverConfig:
    """Integration settings; unused fields are ignored by other methods."""

    method: str = "dp5"
    eval_grid: int = 100
    rk4_step: float | None = None  # default T/200
    atol: float = 1e-7
    rtol: float = 1e-7
    initial_step: float | None = None  # default T/100
    max_steps: int = 1_000_000
    picard_grid_per_unit: int = 2048
    picard_max_iter: int = 80
    picard_tol: float = 1e-11

    def __post_init__(self):
        if self.method not in ("rk4", "dp5", "picard"):
            raise InvalidParameterError(f"unknown solver method {self.method!r}")
        if self.eval_grid < 1:
            raise InvalidParameterError("eval_grid must be >= 1")
        if self.rk4_step is not None and not self.rk4_step > 0.0:
            raise InvalidParameterError("rk4_step must be positive")
        if not (self.atol > 0.0 and self.rtol > 0.0):
            raise InvalidParameterError("tolerances must be positive")


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """States on the uniform eval grid: states[j] is the n x F state at
    eval_times[j]; states[0] is the initial feature matrix exactly."""

    eval_times: np.ndarray
    states: np.ndarray
    solver_meta: dict

    def __post_init__(self):
        for name in ("eval_times", "states"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def F(self) -> int:
        return self.states.shape[2]

    def state(self, j: int) -> FeatureMatrix:
        return FeatureMatrix(self.states[j])


def scaled_norm(v: np.ndarray) -> float:
    """L2 norm of the induced step function: Frobenius norm over sqrt(n)."""
    v = np.asarray(v)
    return float(np.sqrt(np.sum(v * v) / v.shape[0]))


def rhs(S, X, bank: FilterBank, act: Activation, t: float) -> np.ndarray:
    """Velocity field Phi(S; X; H(t)) on raw arrays."""
    vals = X.values if isinstance(X, FeatureMatrix) else X
    return kernels.layer_stack_forward(
        S, vals, filters_at(bank, t), act.act_id, act.slope
    )


def _eval_times(T: float, M: int) -> np.ndarray:
    times = np.arange(M + 1, dtype=np.float64) * (T / M)
    times[-1] = T  # guard the last grid point against rounding drift
    return times


def _prepare(S, Z, bank, act, T):
    S = np.ascontiguousarray(S, dtype=np.float64)
    Z = Z.values if isinstance(Z, FeatureMatrix) else np.ascontiguousarray(Z, np.float64)
    if not T > 0.0:
        raise InvalidParameterError("horizon T must be positive")
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidParameterError("shift array must be square")
    if not np.array_equal(S, S.T):
        raise InvalidParameterError("shift array must be symmetric")
    if Z.ndim != 2 or Z.shape[0] != S.shape[0]:
        raise InvalidParameterError("initial features must be (n, F) for the shift array")
    if bank.F != Z.shape[1]:
        raise InvalidParameterError(
            f"bank has {bank.F} channels but initial features have {Z.shape[1]}"
        )
    if not isinstance(act, Activation):
        raise InvalidParameterError("act must be an Activation")
    return S, Z


def _check_finite(y, t):
    if not np.isfinite(y).all():
        raise DivergenceError(f"non-finite state at t={float(t)!r}")


def _integrate_rk4(S, Z, bank, act, T, cfg):
    times = _eval_times(T, cfg.eval_grid)
    h_target = cfg.rk4_step if cfg.rk4_step is not None else T / 200.0
    states = np.empty((times.size, Z.shape[0], Z.shape[1]))
    states[0] = Z
    y = Z.copy()
    steps = 0
    for j in range(times.size - 1):
        t0, t1 = times[j], times[j + 1]
        span = t1 - t0
        sub = max(1, math.ceil(span / h_target - 1e-12))
        h = span / sub
        for s in range(sub):
            t = min(t0 + s * h, T)
            th = min(t0 + (s + 1) * h, T)
            tm = min(t + 0.5 * h, T)
            k1 = rhs(S, y, bank, act, t)
            k2 = rhs(S, y + (0.5 * h) * k1, bank, act, tm)
            k3 = rhs(S, y + (0.5 * h) * k2, bank, act, tm)
            k4 = rhs(S, y + h * k3, bank, act, th)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            steps += 1
        _check_finite(y, t1)
        states[j + 1] = y
    meta = {"method": "rk4", "step": h_target, "eval_grid": cfg.eval_grid, "steps": steps}
    return TrajectoryRecord(times, states, meta)


def _error_norm(err, y0, y1, atol, rtol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    q = err / scale
    return float(np.sqrt(np.mean(q * q)))


def _integrate_dp5(S, Z, bank, act, T, cfg):
    times = _eval_times(T, cfg.eval_grid)
    n, F = Z.shape
    states = np.empty((times.size, n, F))
    states[0] = Z
    next_out = 1

    t = 0.0
    y = Z.copy()
    f_cur = rhs(S, y, bank, act, 0.0)
    h = cfg.initial_step if cfg.initial_step is not None else T / 100.0
    h = min(h, T)
    accepted = 0
    rejected = 0
    K = np.empty((7, n, F))

    while t < T:
        if accepted >= cfg.max_steps:
            raise NonConvergenceError(
                f"dp5 exceeded {cfg.max_steps} accepted steps", last_time=t
            )
        h = min(h, T - t)
        if h <= 1e-14 * max(1.0, T):
            raise NonConvergenceError("dp5 step size underflow", last_time=t)

        K[0] = f_cur
        for s in range(1, 6):
            ts = min(t + _DP_C[s] * h, T)
            ys = y + h * np.tensordot(_DP_A[s], K[:s], axes=(0, 0))
            K[s] = rhs(S, ys, bank, act, ts)
        t_new = min(t + h, T)
        y_new = y + h * np.tensordot(_DP_B, K[:6], axes=(0, 0))
        K[6] = rhs(S, y_new, bank, act, t_new)

        err = h * np.tensordot(_DP_E, K, axes=(0, 0))
        if np.isfinite(err).all() and np.isfinite(y_new).all():
            norm = _error_norm(err, y, y_new, cfg.atol, cfg.rtol)
        else:
            norm = math.inf

        if norm <= 1.0:
            _check_finite(y_new, t_new)
            # Dense output over (t, t_new]: quartic interpolant in theta.
            while next_out < times.size and times[next_out] <= t_new + 1e-14 * T:
                theta = (times[next_out] - t) / h
                if times[next_out] >= t_new:
                    states[next_out] = y_new
                else:
                    powers = np.array([theta, theta**2, theta**3, theta**4])
                    states[next_out] = y + h * np.einsum(
                        "s...,sm,m->...", K, _DP_P, powers
                    )
                next_out += 1
            t = t_new
            y = y_new
            f_cur = K[6]
            accepted += 1
            factor = MAX_FACTOR if norm == 0.0 else min(MAX_FACTOR, SAFETY * norm**-0.2)
            h *= max(MIN_FACTOR, factor)
        else:
            rejected += 1
            h *= max(MIN_FACTOR, SAFETY * norm**-0.2)

    while next_out < times.size:  # T reached; flush any boundary stragglers
        states[next_out] = y
        next_out += 1
    meta = {
        "method": "dp5",
        "atol": cfg.atol,
        "rtol": cfg.rtol,
        "eval_grid": cfg.eval_grid,
        "accepted": accepted,
        "rejected": rejected,
    }
    return TrajectoryRecord(times, states, meta)


def _integrate_picard(S, Z, bank, act, T, cfg):
    n = Z.shape[0]
    if n > PICARD_MAX_N or T > PICARD_MAX_T:
        raise InvalidParameterError(
            f"picard oracle is limited to n <= {PICARD_MAX_N} and T <= {PICARD_MAX_T}"
        )
    times = _eval_times(T, cfg.eval_grid)
    M = cfg.eval_grid
    sub = max(1, math.ceil(cfg.picard_grid_per_unit * T / M))
    # Fine quadrature grid aligned with the eval grid: sub points per interval.
    fine = np.empty(M * sub + 1)
    for j in range(M):
        fine[j * sub : (j + 1) * sub] = times[j] + (times[j + 1] - times[j]) * (
            np.arange(sub) / sub
        )
    fine[-1] = times[-1]
    N = fine.size

    lam = (bank.F * bank.K * h_sup_certified(bank)) ** bank.L
    tau = min(PICARD_CONTRACTION / lam, T) if lam > 0.0 else T

    X = np.empty((N, n, Z.shape[1]))
    X[0] = Z
    iterations = 0
    contraction = 0.0
    start = 0
    while start < N - 1:
        stop = start + 1
        while stop < N - 1 and fine[stop + 1] - fine[start] <= tau * (1 + 1e-12):
            stop += 1
        idx = np.arange(start, stop + 1)
        X[idx[1:]] = X[start]  # constant initial iterate on the window
        prev_change = None
        for it in range(cfg.picard_max_iter):
            vel = np.stack(
                [rhs(S, X[i], bank, act, min(fine[i], T)) for i in idx]
            )
            dts = np.diff(fine[idx])
            increments = 0.5 * dts[:, None, None] * (vel[:-1] + vel[1:])
            new = np.cumsum(increments, axis=0) + X[start]
            change = max(
                scaled_norm(new[m] - X[idx[m + 1]]) for m in range(len(idx) - 1)
            )
            X[idx[1:]] = new
            iterations += 1
            if prev_change is not None and prev_change > 0.0:
                contraction = change / prev_change
            prev_change = change
            if change < cfg.picard_tol:
                break
        else:
            raise NonConvergenceError(
                "picard iteration failed to reach the fixpoint tolerance",
                last_time=float(fine[start]),
                contraction=contraction,
            )
        start = stop

    states = X[::sub]
    meta = {
        "method": "picard",
        "grid_points": N,
        "window": tau,
        "iterations": iterations,
        "eval_grid": cfg.eval_grid,
    }
    return TrajectoryRecord(times, states.copy(), meta)


def integrate(S, Z, bank: FilterBank, act: Activation, T: float, cfg: SolverConfig):
    """Solve the IVP and report states on the uniform eval grid."""
    S, Z = _prepare(S, Z, bank, act, T)
    if cfg.method == "rk4":
        return _integrate_rk4(S, Z, bank, act, T, cfg)
    if cfg.method == "dp5":
        return _integrate_dp5(S, Z, bank, act, T, cfg)
    return _integrate_picard(S, Z, bank, act, T, cfg)


def equivariance_check(S, Z, bank, act, T, cfg, perm) -> float:
    """Sup over the eval grid of the scaled-norm gap between permuted and
    relabeled trajectories; bounded by ~10x solver tolerance."""
    perm = np.asarray(perm)
    n = np.asarray(S).shape[0]
    if sorted(perm.tolist()) != list(range(n)):
        raise InvalidParameterError("perm must be a permutation of 0..n-1")
    base = integrate(S, Z, bank, act, T, cfg)
    Z_arr = Z.values if isinstance(Z, FeatureMatrix) else np.asarray(Z)
    S_arr = np.asarray(S)
    relab = integrate(
        np.ascontiguousarray(S_arr[np.ix_(perm, perm)]), Z_arr[perm], bank, act, T, cfg
    )
    gaps = [
        scaled_norm(base.states[j][perm] - relab.states[j])
        for j in range(base.eval_times.size)
    ]
    return float(max(gaps))


# ---------------------------------------------------------------------------
# Serialization


def write_trajectory(traj: TrajectoryRecord, path):
    """CSV with `t` plus n*F state columns x_<node>_<channel>, node-major;
    solver settings go to a `<path>.meta.txt` sidecar."""
    n, F = traj.n, traj.F
    cols = [f"x_{i}_{f}" for i in range(n) for f in range(F)]
    with open(path, "w", newline="") as fh:
        fh.write("t," + ",".join(cols) + "\n")
        for j, t in enumerate(traj.eval_times):
            flat = traj.states[j].reshape(-1)
            fh.write(repr(float(t)) + "," + ",".join(repr(float(x)) for x in flat) + "\n")
    with open(f"{path}.meta.txt", "w") as fh:
        for key in sorted(traj.solver_meta):
            fh.write(f"{key}={traj.solver_meta[key]}\n")
