"""Error metrics, theoretical constants, rate fitting, and bound checks.

The stability and transferability inequalities are implemented as
executable checks returning (holds, margin); the constants P, Q and C
use certified inputs (h_T upper bound, feature Lipschitz constant) so a
nonnegative margin is a genuine verification up to solver error, and
:func:`rate_form` alone picks a regime's rate.  Everything here is pure
computation over trajectory records, apart from the summary JSON writer
the CLI shares.  The convergence report's columns are
:data:`REPORT_COLUMNS`; the report is written, like every CSV table, by
:func:`sampling.write_csv`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import catalog, neural, sampling
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
    A2: float = 0.0

    def __post_init__(self):
        if min(self.F, self.K, self.L) < 1:
            raise InvalidParameterError("F, K, L must be positive integers")
        if self.T < 0.0 or self.h_T < 0.0 or self.A2 < 0.0:
            raise InvalidParameterError("T, h_T, A2 must be nonnegative")
        if self.X_sup_norm < 0.0:
            raise InvalidParameterError("X_sup_norm must be nonnegative")


def _growth(inp: BoundInputs) -> float:
    """exp(T (F K h_T)^L), or inf where the power or the exponential
    overflows; an infinite F K h_T at T = 0 gives NaN, as 0 * inf does."""
    lam = neural.field_lipschitz(inp.F, inp.K, inp.h_T, inp.L)
    overflowed = lam == math.inf and math.isfinite(inp.F * inp.K * inp.h_T)
    try:
        return math.inf if overflowed else math.exp(inp.T * lam)
    except OverflowError:
        return math.inf


def _grown(inp: BoundInputs, factor: float) -> float:
    """_growth(inp) * factor; a zero factor gives 0 even where the growth is inf."""
    return 0.0 if factor == 0.0 else _growth(inp) * factor


def stability_constants(inp: BoundInputs) -> tuple[float, float]:
    """P = exp(T (F K h_T)^L); Q = (P - 1) L K X_sup_norm."""
    P = _growth(inp)
    return P, 0.0 if inp.X_sup_norm == 0.0 else (P - 1.0) * inp.L * inp.K * inp.X_sup_norm


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


def unweighted_exponent(b: float, eps: float | None) -> float:
    """1 - (b + eps)/2, the binary-regime rate exponent for a support
    boundary of box dimension b in [1, 2) and a slack eps in (0, 2 - b)."""
    if not (1.0 <= b < 2.0):
        raise InvalidParameterError("box dimension b must be in [1, 2)")
    if eps is None or not (0.0 < eps < 2.0 - b):
        raise InvalidParameterError("eps must be in (0, 2 - b)")
    return 1.0 - (b + eps) / 2.0


def rate_form(spec: catalog.GraphonSpec, eps: float | None):
    """(alpha_or_dim, exponent, kernel_term) of the bound C n^{-exponent},
    C being :func:`rate_constant` with that kernel term: (alpha, alpha,
    kernel_sampling_bound(A1, alpha, 1)) for a weighted (A1, alpha)-Hoelder
    kernel, (b, unweighted_exponent(b, eps), 1) for a binary kernel of
    boundary dimension b; the exponent is None where no b is known."""
    if spec.value_class == catalog.WEIGHTED:
        A1, alpha = spec.holder_meta
        return alpha, alpha, kernel_sampling_bound(A1, alpha, 1)
    b = spec.nominal_box_dim
    return b, None if b is None else unweighted_exponent(b, eps), 1.0


def rate_constant(inp: BoundInputs, kernel_term: float) -> float:
    """C with ||X_n - X||_C <= C n^{-exponent}: the growth times the sampling
    bounds at n = 1, feature_sampling_bound(A2, F, 1) + L K X_sup_norm
    kernel_term, the kernel term being :func:`rate_form`'s."""
    return _grown(inp, feature_sampling_bound(inp.A2, inp.F, 1)
                  + inp.L * inp.K * inp.X_sup_norm * kernel_term)


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


def _overlay_distances(traj_n, traj_ref, partition):
    """The overlay L2 distance between the induced states at each eval time,
    ``partition`` being ``catalog.overlay_partition`` of the two uniform
    partitions.  Each block of eval times gathers its cell values with
    ``take``, which lays the block out C-ordered, time by time and cell by
    cell, so each time's sums run over its own contiguous cells as the
    per-state sum does."""
    _check_compatible(traj_n, traj_ref)
    ia, ib, widths = partition
    states_n, states_ref = traj_n.states, traj_ref.states

    def differences(lo, hi):
        diff = states_n[lo:hi].take(ia, axis=1)
        diff -= states_ref[lo:hi].take(ib, axis=1)
        return diff

    return sampling.l2_per_row(differences, len(states_n), traj_n.F, widths)


def _partition(n, n_ref):
    return catalog.overlay_partition(sampling.uniform_breakpoints(n),
                                     sampling.uniform_breakpoints(n_ref))


def trajectory_norms(traj) -> np.ndarray:
    """L2 norm of the induced state at each eval time."""
    widths = np.diff(sampling.uniform_breakpoints(traj.n))
    states = traj.states
    return sampling.l2_per_row(lambda lo, hi: states[lo:hi].copy(),
                               len(states), traj.F, widths)


def trajectory_sup_absolute_error(traj_n, traj_ref) -> float:
    """max_t of the exact overlay L2 distance between induced states."""
    dists = _overlay_distances(traj_n, traj_ref, _partition(traj_n.n, traj_ref.n))
    return float(dists.max(initial=0.0))


def _sup_errors(dists, times, ref_norms):
    """(absolute, relative) sup of one pair's distances, or the
    DegenerateReferenceError of its first degenerate time."""
    worst_abs = float(dists.max(initial=0.0))
    moved = dists != 0.0
    degenerate = moved & (ref_norms < 1e-12)
    if degenerate.any():
        t = float(times[degenerate.argmax()])
        return DegenerateReferenceError(f"reference trajectory norm below 1e-12 at t={t!r}",
                                        time=t)
    return worst_abs, float((dists[moved] / ref_norms[moved]).max(initial=0.0))


def trajectory_sup_errors_batch(pairs) -> list:
    """(absolute, relative) sup errors of several (traj_n, traj_ref,
    ref_norms) triples from one overlay partition.

    Every ``traj_n`` has one node count and every ``traj_ref`` another, so
    the merged partition is built once for the batch.  Returns one entry
    per triple, in order: its errors, or the DegenerateReferenceError it
    failed with.  The relative error divides each distance by the
    reference norm at the same t, ``ref_norms`` being
    :func:`trajectory_norms` of ``traj_ref``.  An exactly-zero distance
    contributes ratio 0 whatever the reference norm (identical
    trajectories have zero error even at an equilibrium); the
    degenerate-reference guard fires only for a genuine 0-divide, at the
    first such time.
    """
    pairs = list(pairs)
    sizes = {(traj_n.n, traj_ref.n) for traj_n, traj_ref, _ in pairs}
    if len(sizes) > 1:
        raise InvalidParameterError("the pairs of a batch need one (n, n_ref)")
    partition = _partition(*sizes.pop()) if sizes else None
    results = []
    for traj_n, traj_ref, ref_norms in pairs:
        if len(ref_norms) != traj_ref.eval_times.size:
            raise InvalidParameterError("ref_norms must hold one norm per reference eval time")
        dists = _overlay_distances(traj_n, traj_ref, partition)
        results.append(_sup_errors(dists, traj_ref.eval_times,
                                   np.asarray(ref_norms, dtype=np.float64)))
    return results


def trajectory_sup_errors(traj_n, traj_ref, ref_norms) -> tuple[float, float]:
    """(absolute, relative) sup error from one overlay pass: the batch of
    one of :func:`trajectory_sup_errors_batch`, raising the failure it
    reports."""
    (result,) = trajectory_sup_errors_batch([(traj_n, traj_ref, ref_norms)])
    if isinstance(result, Exception):
        raise result
    return result


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
# Summary emission


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
    with open(path, "w", newline="") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
