"""Initial value problem dX/dt = Phi(S; X(t); H(t)), X(0) = Z.

Three integrators: fixed-step RK4 (each eval-grid interval subdivided an
integer number of times), Dormand-Prince 5(4) with adaptive step control
and quartic dense output (the step's own fixed-order stage sum, with
weights that are polynomials in the step fraction), and a Picard
fixed-point iterator that mirrors the contraction-mapping well-posedness
argument and serves as a slow, solver-free oracle at small scale.

All trajectories are reported on a shared uniform eval grid so that
different solvers and different node counts compare directly.

Systems that share one shift are integrated together (``integrate_batch``;
``integrate`` is its batch of one).  Each solver is written once, as a
generator that yields the (state, time) points whose velocities it needs
(one per RK4 or DP5 stage, a window for Picard, whose fixed start point
is asked for once per window) and is sent their velocities in order; a
lockstep driver puts every point of every live system side by side into
one (n, P*F) forward pass per round.  Each system keeps its own t, h,
stages, windows, dense output, counters and failure, and leaves the batch
when it reaches T or fails.  Its trajectory is bit-identical to a solo
run: every column of the batched forward pass equals the one-system
``kernels.layer_stack_forward`` of its own point, and everything else a
system computes reads only its own arrays.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .catalog import locked_array
from .errors import (
    DimensionMismatchError,
    DivergenceError,
    InvalidParameterError,
    NonConvergenceError,
)
from .neural import Activation, FilterBank, field_lipschitz, filters_at, h_sup_certified
from .sampling import FeatureMatrix, check_entries, write_csv

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0

PICARD_MAX_N = 64
PICARD_MAX_T = 2.0
PICARD_CONTRACTION = 0.4
PICARD_GRID_PER_UNIT = 2048
PICARD_MAX_ITER = 80
PICARD_TOL = 1e-11

#: Entries (eval times x n x F) of one dp5 dense-output chunk; bounds its
#: transient arrays below the allocator's mmap threshold.
DENSE_BLOCK_ENTRIES = 1 << 12

#: Entries (n x points x F) of one forward pass of a lockstep round.  A
#: round asking for more (a Picard window of every trial) is fed in
#: consecutive groups of points, which bounds the shift product's
#: transient arrays.  A round of rk4 or dp5 stages fits while n x trials
#: x F does (the default sweep's n_ref = 2048, 10 trials, F = 1: 20 480).
ROUND_ENTRIES = 1 << 15

# Dormand-Prince 5(4) tableau; B is the 5th-order weight row, E the
# embedded error weights, P the dense-output polynomial coefficients
# (quartic interpolant of the 5th-order pair): stage s has weight
# b_s(theta) = sum_m P[s, m] theta^(m + 1) at theta of the step.  The
# stage sums take C, A, B and E as Python floats: a float times an array
# rounds as a numpy scalar does, at a fraction of the call cost.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
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
#: The stages whose dense-output row is not zero (row 1 is), and the columns
#: of P on them: _DENSE_P[m][i] = P[_DENSE_STAGES[i], m].
_DENSE_STAGES = (0, 2, 3, 4, 5, 6)
_DENSE_P = _DP_P[list(_DENSE_STAGES)].T


@dataclass(frozen=True)
class SolverConfig:
    """Integration settings."""

    method: str = "dp5"
    eval_grid: int = 100
    rk4_step: float | None = None  # default T/200
    atol: float = 1e-7
    rtol: float = 1e-7
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.method not in _SOLVERS:
            raise InvalidParameterError(f"unknown solver method {self.method!r}")
        if self.eval_grid < 1:
            raise InvalidParameterError("eval_grid must be >= 1")
        if self.rk4_step is not None and not self.rk4_step > 0.0:
            raise InvalidParameterError("rk4_step must be positive")
        if not (0.0 < self.atol < math.inf and 0.0 < self.rtol < math.inf):
            raise InvalidParameterError("tolerances must be positive and finite")


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """States on the uniform eval grid: states[j] is the n x F state at
    eval_times[j]; states[0] is the initial feature matrix exactly."""

    eval_times: np.ndarray
    states: np.ndarray
    solver_meta: dict

    def __post_init__(self):
        for name in ("eval_times", "states"):
            object.__setattr__(self, name, locked_array(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def F(self) -> int:
        return self.states.shape[2]


def scaled_norm(v: np.ndarray):
    """L2 norm of the induced step function: Frobenius norm over sqrt(n).

    ``v`` is one (n, F) state, giving a float, or a (J, n, F) stack of
    states, giving the array of their J norms.  Each state's sum runs over
    its own contiguous n F entries, so a norm in a stack is the state's own
    norm bit for bit.
    """
    v = np.asarray(v)
    norms = np.sqrt(np.sum(v * v, axis=(-2, -1)) / v.shape[-2])
    return float(norms) if v.ndim == 2 else norms


def _eval_times(T: float, M: int) -> np.ndarray:
    times = np.arange(M + 1, dtype=np.float64) * (T / M)
    times[-1] = T  # guard the last grid point against rounding drift
    return times


def _prepare_shift(S, T):
    if not 0.0 < T < math.inf:
        raise InvalidParameterError(f"horizon T must be positive and finite, got {T!r}")
    kernels.shift_size(S)  # the forward map's refusal, before S is split
    op = kernels.as_operator(S)
    if not op.symmetric:
        raise InvalidParameterError("shift array must be symmetric")
    return op


def _prepare_system(op, Z, bank):
    # each system alone: _lockstep joins the points' columns before the
    # forward map sees them, so that map checks only their total
    Z = Z.values if isinstance(Z, FeatureMatrix) else np.ascontiguousarray(Z, np.float64)
    n, F = op.shape[0], bank.F
    if Z.shape != (n, F):
        raise DimensionMismatchError(f"the {n}x{n} shift and a {F}-channel bank need "
                                     f"initial features of shape ({n}, {F}), got shape {Z.shape}")
    return Z


def _check_finite(y, t):
    if not np.isfinite(y).all():
        raise DivergenceError(f"non-finite state at t={float(t)!r}")


def _rk4(Z, bank, T, cfg):
    """Fixed-step RK4 for one system.  A generator: it yields the list of
    (state, time) points whose velocities it needs, is sent those
    velocities in the same order, and returns the TrajectoryRecord."""
    times = _eval_times(T, cfg.eval_grid)
    h_target = cfg.rk4_step if cfg.rk4_step is not None else T / 200.0
    spans = np.diff(times)
    with np.errstate(over="ignore"):  # a huge ratio is refused just below
        subs = np.maximum(1.0, np.ceil(spans / h_target - 1e-12))
    if not subs.sum() <= cfg.max_steps:
        raise InvalidParameterError(
            f"rk4_step={h_target!r} needs more than max_steps={cfg.max_steps} steps")
    states = np.empty((times.size, Z.shape[0], Z.shape[1]))
    states[0] = Z
    y = Z.copy()
    steps = 0
    for j in range(times.size - 1):
        t0, t1 = times[j], times[j + 1]
        span = spans[j]
        sub = int(subs[j])
        h = span / sub
        for s in range(sub):
            t = min(t0 + s * h, T)
            th = min(t0 + (s + 1) * h, T)
            tm = min(t + 0.5 * h, T)
            (k1,) = yield [(y, t)]
            (k2,) = yield [(y + (0.5 * h) * k1, tm)]
            (k3,) = yield [(y + (0.5 * h) * k2, tm)]
            (k4,) = yield [(y + h * k3, th)]
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            steps += 1
        _check_finite(y, t1)
        states[j + 1] = y
    meta = {"method": "rk4", "step": h_target, "eval_grid": cfg.eval_grid, "steps": steps}
    return TrajectoryRecord(times, states, meta)


def _combine(w, K):
    """w[0]*K[0] + w[1]*K[1] + ... summed elementwise in stage order, so each
    entry rounds the same wherever its node sits (BLAS contractions do not).
    The weights are floats, or arrays that broadcast against the stages
    (one weight per eval time for the dense output)."""
    acc = w[0] * K[0]
    for i in range(1, len(w)):
        acc += w[i] * K[i]
    return acc


def _error_norm(err, y0, y1, atol, rtol):
    """RMS of the scaled error; the exactly rounded sum makes it independent
    of node order."""
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    with np.errstate(over="ignore"):  # an overflowing square reads as inf
        q = err / scale
        squares = q * q
    try:
        return math.sqrt(math.fsum(squares.ravel().tolist()) / q.size)
    except OverflowError:  # finite squares whose sum exceeds the float range
        return math.inf


def _dense_weights(theta):
    """Stage weights b_s(theta) of the dp5 dense output, one per stage of
    ``_DENSE_STAGES`` along a new last axis, by Horner's rule with
    elementwise * and + only, so every theta rounds as a lone float would."""
    p0, p1, p2, p3 = _DENSE_P
    theta = np.asarray(theta)[..., None]
    return (((p3 * theta + p2) * theta + p1) * theta + p0) * theta


def _dense_output(out, times, t, y, h, K):
    """The dp5 quartic interpolant of the step (t, t + h) from state y with
    stages K, at each of ``times``, written to ``out`` (Dormand & Prince
    1980; Hairer, Norsett & Wanner, Solving ODEs I, II.6).

    It is the step's own form with weights that depend on theta:
    y + h * sum_s b_s(theta) K_s, the weights by ``_dense_weights`` and the
    sum by ``_combine`` over the six stages whose weights are not zero.  A
    chunk of times (about ``DENSE_BLOCK_ENTRIES`` entries) is one broadcast
    sum; every operation is elementwise, so each time gets the bits of its
    own per-time sum whatever the chunk.
    """
    n, F = y.shape
    theta = (times - t) / h
    stages = [K[s] for s in _DENSE_STAGES]
    chunk = max(1, DENSE_BLOCK_ENTRIES // (n * F))
    for lo in range(0, theta.size, chunk):
        w = _dense_weights(theta[lo : lo + chunk])  # (times, stages)
        out[lo : lo + len(w)] = y + h * _combine(w.T[:, :, None, None], stages)


def _dp5(Z, bank, T, cfg):
    """Dormand-Prince 5(4) for one system, a generator like ``_rk4``."""
    times = _eval_times(T, cfg.eval_grid)
    grid = times.tolist()
    n, F = Z.shape
    states = np.empty((times.size, n, F))
    states[0] = Z
    next_out = 1

    t = 0.0
    y = Z.copy()
    (f_cur,) = yield [(y, 0.0)]
    h = T / 100.0
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
            (K[s],) = yield [(y + h * _combine(_DP_A[s], K), ts)]
        t_new = min(t + h, T)
        y_new = y + h * _combine(_DP_B, K)
        (K[6],) = yield [(y_new, t_new)]

        err = h * _combine(_DP_E, K)
        if np.isfinite(err).all() and np.isfinite(y_new).all():
            norm = _error_norm(err, y, y_new, cfg.atol, cfg.rtol)
        else:
            norm = math.inf

        if norm <= 1.0:
            _check_finite(y_new, t_new)
            # Dense output over (t, t_new]: the quartic interpolant for the
            # eval times below t_new (see _dense_output), and y_new for
            # those at or past it (within 1e-14 T).
            stop = bisect.bisect_right(grid, t_new + 1e-14 * T, next_out)
            mid = bisect.bisect_left(grid, t_new, next_out, stop)
            if mid > next_out:
                _dense_output(states[next_out:mid], times[next_out:mid], t, y, h, K)
            states[mid:stop] = y_new
            next_out = stop
            t = t_new
            y = y_new
            f_cur = K[6]
            accepted += 1
            factor = MAX_FACTOR if norm == 0.0 else min(MAX_FACTOR, SAFETY * norm**-0.2)
            h *= max(MIN_FACTOR, factor)
        else:
            rejected += 1
            h *= max(MIN_FACTOR, SAFETY * norm**-0.2)

    meta = {
        "method": "dp5",
        "atol": cfg.atol,
        "rtol": cfg.rtol,
        "eval_grid": cfg.eval_grid,
        "accepted": accepted,
        "rejected": rejected,
    }
    return TrajectoryRecord(times, states, meta)


def _picard(Z, bank, T, cfg):
    """Picard iteration for one system on windows short enough to contract, a
    generator like ``_rk4`` that asks for every point of its window at once."""
    n = Z.shape[0]
    if n > PICARD_MAX_N or T > PICARD_MAX_T:
        raise InvalidParameterError(
            f"picard oracle is limited to n <= {PICARD_MAX_N} and T <= {PICARD_MAX_T}"
        )
    h_T = h_sup_certified(bank)
    lam = field_lipschitz(bank.F, bank.K, h_T, bank.L)
    if lam == math.inf and math.isfinite(bank.F * bank.K * h_T):
        raise NonConvergenceError(f"picard windows cannot contract: the {bank.L}-layer bank's "
                                  "Lipschitz bound (F K h_T)^L exceeds the float range")
    times = _eval_times(T, cfg.eval_grid)
    sub = max(1, math.ceil(PICARD_GRID_PER_UNIT * T / cfg.eval_grid))
    # Fine quadrature grid aligned with the eval grid: sub points per
    # interval, so eval time j is fine point j * sub.
    fine = np.append(
        (times[:-1, None] + np.diff(times)[:, None] * (np.arange(sub) / sub)).ravel(),
        times[-1],
    )
    N = fine.size

    # An infinite F K h_T gives one-step windows (tau = 0).
    tau = min(PICARD_CONTRACTION / lam, T) if lam > 0.0 else T

    states = np.empty((times.size, n, Z.shape[1]))
    states[0] = Z
    x_start = Z
    iterations = 0
    contraction = 0.0
    start = 0
    while start < N - 1:
        stop = start + 1
        while stop < N - 1 and fine[stop + 1] - fine[start] <= tau * (1 + 1e-12):
            stop += 1
        # The iterate on fine points start..stop only, constant at first;
        # X[0] is fixed for the window, so its velocity is asked for in the
        # first round only and kept.
        X = np.empty((stop - start + 1, *Z.shape))
        X[:] = x_start
        v_start = None
        prev_change = None
        for _ in range(PICARD_MAX_ITER):
            first = 0 if v_start is None else 1
            got = yield [(X[m], min(fine[start + m], T)) for m in range(first, len(X))]
            if v_start is None:
                v_start = got.pop(0).copy()
            vel = np.stack([v_start, *got])
            dts = np.diff(fine[start : stop + 1])
            increments = 0.5 * dts[:, None, None] * (vel[:-1] + vel[1:])
            new = np.cumsum(increments, axis=0) + X[0]
            change = float(scaled_norm(new - X[1:]).max())
            X[1:] = new
            iterations += 1
            if prev_change is not None and prev_change > 0.0:
                contraction = change / prev_change
            prev_change = change
            if change < PICARD_TOL:
                break
        else:
            raise NonConvergenceError(
                "picard iteration failed to reach the fixpoint tolerance",
                last_time=float(fine[start]),
                contraction=contraction,
            )
        # Eval times j with start < j * sub <= stop close with this window.
        j = start // sub + 1
        states[j : stop // sub + 1] = X[j * sub - start :: sub]
        x_start = X[-1].copy()
        start = stop

    meta = {
        "method": "picard",
        "grid_points": N,
        "window": tau,
        "iterations": iterations,
        "eval_grid": cfg.eval_grid,
    }
    return TrajectoryRecord(times, states, meta)


_SOLVERS = {"rk4": _rk4, "dp5": _dp5, "picard": _picard}


def _lockstep(op, solvers, banks, act):
    """Run one solver generator per system together.  Each round puts the
    points that every live system asks about side by side into (n, P*F)
    forward passes, consecutive groups of at most ``ROUND_ENTRIES`` entries
    (and at least one point) each, and sends each system the list of its
    points' (n, F) velocities; a system leaves when it returns its record
    or fails.  Every column of a pass is that point's own forward map bit
    for bit, so the grouping changes no output."""
    results = [None] * len(solvers)
    asks = {}

    def resume(b, velocities):
        try:
            asks[b] = solvers[b].send(velocities)
        except StopIteration as done:
            results[b] = done.value
        except (DivergenceError, NonConvergenceError) as exc:
            results[b] = exc

    # A diverging state overflows in the stage sums; _check_finite and the
    # error norm refuse it.  Warnings change no bit, so they are set once.
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(len(solvers)):
            resume(b, None)
        while asks:
            live = list(asks.items())
            asks.clear()
            xs = [x for _, asked in live for x, _ in asked]
            cs = [filters_at(banks[b], t) for b, asked in live for _, t in asked]
            n, F = xs[0].shape
            size = max(1, ROUND_ENTRIES // (n * F))
            velocities = []
            for g in range(0, len(xs), size):
                X = np.concatenate(xs[g : g + size], axis=1)
                coeffs = np.stack(cs[g : g + size])
                V = kernels.layer_stack_forward_batch(op, X, coeffs, act.act_id, act.slope)
                velocities += [V[:, j : j + F] for j in range(0, V.shape[1], F)]
            for b, asked in live:
                resume(b, velocities[: len(asked)])
                del velocities[: len(asked)]
    return results


def integrate_batch(S, systems, act: Activation, T: float, cfg: SolverConfig) -> list:
    """Solve the IVPs of several systems that share one shift.

    ``systems`` is a sequence of ``(Z, bank)`` pairs whose banks share one
    (L, F, K) shape, each Z of shape (n, F); ``S`` is a
    ``kernels.ShiftOperator``, a ``sampling.SampledGraph`` or an array (a
    graph or an array is split once for the batch).  Returns one entry per
    system, in order: its TrajectoryRecord, or the DivergenceError or
    NonConvergenceError it failed with.  Every solver advances all systems
    in lockstep, one forward pass per round for every point they ask about
    (a stage of rk4 or dp5, a window of picard), while each keeps its own
    steps, error control, iterations and failure.
    """
    op = _prepare_shift(S, T)
    if not isinstance(act, Activation):
        raise InvalidParameterError("act must be an Activation")
    Zs = [_prepare_system(op, Z, bank) for Z, bank in systems]
    banks = [bank for _, bank in systems]
    if len({bank.coeffs.shape[:4] for bank in banks}) > 1:
        raise InvalidParameterError("the systems of a batch need one (L, F, K) shape")
    if Zs:
        n, F = Zs[0].shape
        check_entries(("n", n), ("channels", F), ("eval_grid", cfg.eval_grid + 1))
    solver = _SOLVERS[cfg.method]
    return _lockstep(op, [solver(Z, bank, T, cfg) for Z, bank in zip(Zs, banks)], banks, act)


def integrate(S, Z, bank: FilterBank, act: Activation, T: float, cfg: SolverConfig):
    """Solve the IVP and report states on the uniform eval grid: the batch
    of one of ``integrate_batch``, raising the failure it reports."""
    (result,) = integrate_batch(S, [(Z, bank)], act, T, cfg)
    if isinstance(result, Exception):
        raise result
    return result


# ---------------------------------------------------------------------------
# Serialization


def write_trajectory(traj: TrajectoryRecord, path):
    """CSV with `t` plus n*F state columns x_<node>_<channel>, node-major;
    solver settings go to a `<path>.meta.txt` sidecar."""
    n, F = traj.n, traj.F
    header = ["t"] + [f"x_{i}_{f}" for i in range(n) for f in range(F)]
    write_csv(path, header, ([t] + state.reshape(-1).tolist()
                             for t, state in zip(traj.eval_times.tolist(), traj.states)))
    with open(f"{path}.meta.txt", "w", newline="") as fh:
        for key in sorted(traj.solver_meta):
            fh.write(f"{key}={traj.solver_meta[key]}\n")
