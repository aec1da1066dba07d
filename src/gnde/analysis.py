"""Error metrics, theoretical constants, rate fitting, and bound checks.

The stability and transferability inequalities are implemented as
executable checks returning (holds, margin); the constants P, Q, C and
C-tilde use certified inputs (h_T upper bound, Hoelder data, feature
Lipschitz constant) so a nonnegative margin is a genuine verification up
to solver error.  Everything here is pure computation over trajectory
records; the CSV/JSON emission helpers are shared by the CLI.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import catalog, sampling
from .errors import (
    DegenerateReferenceError,
    InsufficientDataError,
    InvalidParameterError,
    LogDomainError,
)

REPORT_COLUMNS = (
    "graphon",
    "alpha_or_dim",
    "n",
    "n_ref",
    "T",
    "seed",
    "sup_rel_err",
    "abs_err",
    "bound",
    "slope_running",
    "runtime_ms",
)


@dataclass(frozen=True)
class BoundInputs:
    """Certified ingredients of the theoretical constants."""

    F: int
    K: int
    L: int
    T: float
    h_T: float
    X_sup_norm: float
    A1: float = 0.0
    alpha: float = 1.0
    A2: float = 0.0
    b: float | None = None
    eps: float | None = None

    def __post_init__(self):
        if min(self.F, self.K, self.L) < 1:
            raise InvalidParameterError("F, K, L must be positive integers")
        if self.T < 0.0 or self.h_T < 0.0 or self.A1 < 0.0 or self.A2 < 0.0:
            raise InvalidParameterError("T, h_T, A1, A2 must be nonnegative")
        if self.X_sup_norm < 0.0:
            raise InvalidParameterError("X_sup_norm must be nonnegative")
        if not (0.0 < self.alpha <= 1.0):
            raise InvalidParameterError("alpha must be in (0, 1]")
        if self.b is not None:
            if not (1.0 <= self.b < 2.0):
                raise InvalidParameterError("box dimension b must be in [1, 2)")
            if self.eps is None or not (0.0 < self.eps < 2.0 - self.b):
                raise InvalidParameterError("eps must be in (0, 2 - b)")


def _growth(inp: BoundInputs) -> float:
    return math.exp(inp.T * (inp.F * inp.K * inp.h_T) ** inp.L)


def stability_constants(inp: BoundInputs) -> tuple[float, float]:
    """P = exp(T (F K h_T)^L); Q = (P - 1) L K X_sup_norm."""
    P = _growth(inp)
    return P, (P - 1.0) * inp.L * inp.K * inp.X_sup_norm


def holder_kernel_radical(alpha: float) -> float:
    """sqrt((2^{2a+2} - 2) / ((2a+1)(2a+2))): the exact L2 cell-error factor
    of an (A1, alpha)-Hoelder kernel sampled at left endpoints."""
    return math.sqrt(
        (2.0 ** (2 * alpha + 2) - 2.0) / ((2 * alpha + 1.0) * (2 * alpha + 2.0))
    )


def kernel_sampling_bound(A1: float, alpha: float, n: int) -> float:
    """Certified bound on ||W - W_n||_{L2} for an (A1, alpha)-Hoelder kernel."""
    return A1 * holder_kernel_radical(alpha) * float(n) ** -alpha


def feature_sampling_bound(A2: float, F: int, n: int) -> float:
    """Certified bound on ||Z - Z_n||_{L2} for an A2-Lipschitz feature map."""
    return A2 * math.sqrt(F / 3.0) / float(n)


def rate_constant_weighted(inp: BoundInputs) -> float:
    """C with ||X_n - X||_C <= C n^{-alpha} for weighted sampling."""
    return _growth(inp) * (
        inp.A2 * math.sqrt(inp.F / 3.0)
        + inp.L * inp.K * inp.X_sup_norm * inp.A1 * holder_kernel_radical(inp.alpha)
    )


def rate_constant_unweighted(inp: BoundInputs) -> tuple[float, float]:
    """(C_tilde, exponent) with ||X_n - X||_C <= C_tilde n^{-exponent}."""
    if inp.b is None or inp.eps is None:
        raise InvalidParameterError("unweighted rate needs box dimension b and eps")
    c = _growth(inp) * (inp.A2 * math.sqrt(inp.F / 3.0) + inp.L * inp.K * inp.X_sup_norm)
    return c, 1.0 - (inp.b + inp.eps) / 2.0


# ---------------------------------------------------------------------------
# Trajectory distances


def _check_compatible(traj_a, traj_b):
    if traj_a.F != traj_b.F:
        raise InvalidParameterError(
            f"feature counts differ ({traj_a.F} vs {traj_b.F})"
        )
    if not np.array_equal(traj_a.eval_times, traj_b.eval_times):
        raise InvalidParameterError("trajectories must share the eval grid exactly")
    if not (np.isfinite(traj_a.states).all() and np.isfinite(traj_b.states).all()):
        raise InvalidParameterError("feature values must be finite")


def _sup_overlay_error(traj_n, traj_ref, relative: bool) -> float:
    """sup over the eval grid of the overlay L2 distance between the induced
    states, divided by the reference norm at the same t when ``relative``.

    The merged partition of the two uniform partitions is built once; each
    eval time then reduces its own cells with its own 1-D sums, exactly as
    ``sampling.overlay_l2_distance`` and ``sampling.pwc_l2_norm`` do, so the
    result equals the per-state computation bit for bit (one sum over a
    2-D array of all eval times would change the summation order).
    """
    _check_compatible(traj_n, traj_ref)
    bp_ref = sampling.uniform_breakpoints(traj_ref.n)
    ia, ib, widths = catalog.overlay_partition(
        sampling.uniform_breakpoints(traj_n.n), bp_ref
    )
    ref_widths = np.diff(bp_ref)
    worst = 0.0
    for t, x_n, x_ref in zip(traj_ref.eval_times, traj_n.states, traj_ref.states):
        d = x_n[ia] - x_ref[ib]
        dist = math.sqrt(np.sum(widths * np.sum(d * d, axis=1)))
        if relative:
            if dist == 0.0:
                continue
            denom = math.sqrt(np.sum(ref_widths * np.sum(x_ref * x_ref, axis=1)))
            if denom < 1e-12:
                raise DegenerateReferenceError(
                    f"reference trajectory norm below 1e-12 at t={t!r}", time=float(t)
                )
            dist /= denom
        worst = max(worst, dist)
    return worst


def trajectory_sup_absolute_error(traj_n, traj_ref) -> float:
    """max_t of the exact overlay L2 distance between induced states."""
    return _sup_overlay_error(traj_n, traj_ref, relative=False)


def trajectory_sup_relative_error(traj_n, traj_ref) -> float:
    """max_t overlay distance over the reference norm at the same t.

    An exactly-zero distance contributes ratio 0 whatever the reference
    norm (identical trajectories have zero error even at an equilibrium);
    the degenerate-reference guard fires only for a genuine 0-divide.
    """
    return _sup_overlay_error(traj_n, traj_ref, relative=True)


def stability_bound_check(
    traj_n, traj_ref, kernel_gap: float, feature_gap: float, P: float, Q: float,
    tol: float = 1e-6,
) -> tuple[bool, float]:
    """Does sup_t ||X_n - X_ref|| <= P*feature_gap + Q*kernel_gap hold?

    Returns (holds up to tol, margin); margin = bound - observed.
    """
    observed = trajectory_sup_absolute_error(traj_n, traj_ref)
    bound = P * feature_gap + Q * kernel_gap
    margin = bound - observed
    return margin >= -tol, margin


def transferability_gap_check(
    traj_a, traj_b, constant: float, exponent: float, tol: float = 1e-6
) -> tuple[bool, float]:
    """Does sup_t ||X_a - X_b|| <= constant*(n_a^-e + n_b^-e) hold?"""
    observed = trajectory_sup_absolute_error(traj_a, traj_b)
    bound = constant * (float(traj_a.n) ** -exponent + float(traj_b.n) ** -exponent)
    margin = bound - observed
    return margin >= -tol, margin


# ---------------------------------------------------------------------------
# Rate fitting


def fit_rate(rows) -> tuple[float, float, float]:
    """OLS of log(err) on log(n) over (n, err) rows: (slope, intercept, stderr)."""
    rows = list(rows)
    if len(rows) < 3:
        raise InsufficientDataError("rate fitting needs at least 3 rows")
    ns = np.array([float(n) for n, _ in rows])
    errs = np.array([float(e) for _, e in rows])
    if np.any(errs <= 0.0):
        raise LogDomainError("nonpositive error value; cannot fit a log-log rate")
    x = np.log(ns)
    y = np.log(errs)
    xm = x - x.mean()
    sxx = float(xm @ xm)
    if sxx == 0.0:
        raise InvalidParameterError("rate fitting needs at least two distinct n")
    slope = float(xm @ y) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = len(rows) - 2
    stderr = math.sqrt(float(resid @ resid) / dof / sxx)
    return slope, intercept, stderr


# ---------------------------------------------------------------------------
# Report emission (CSV schema shared with the CLI)


def format_cell(value) -> str:
    """Deterministic CSV cell: repr for floats, str otherwise, '' for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report_csv(rows, path):
    """Rows are dicts keyed by REPORT_COLUMNS."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(row.get(col)) for col in REPORT_COLUMNS) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def write_summary_json(summary: dict, path):
    """Sidecar summary; deterministic byte-for-byte given equal content."""
    with open(path, "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
