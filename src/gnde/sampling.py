"""Deterministic graph and feature sampling from kernels.

Weighted kernels are sampled pointwise at the left-endpoint grid
u_i = i/n; binary kernels are sampled by exact cell-intersection tests.
Finite graphs and feature matrices embed back into function space as
piecewise-constant (step) functions on the uniform n-partition, and all
cross-size comparisons go through the exact overlay L2 distance on the
merged partition.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import catalog
from .errors import (
    ComplexityGuardError,
    DimensionMismatchError,
    EdgeListParseError,
    InvalidParameterError,
    WrongRegimeError,
)

WEIGHTED = "weighted"
UNWEIGHTED = "unweighted"

FOURIER = "fourier_polynomial"
HOLDER = "holder_cosine"
CONSTANT = "constant"
LINEAR = "linear"


def _locked_float(arr):
    out = np.ascontiguousarray(np.asarray(arr), dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SampledGraph:
    """Dense symmetric graph with entries in [0,1] ({0,1} when unweighted)."""

    adjacency: np.ndarray
    value_class: str

    def __post_init__(self):
        adj = _locked_float(self.adjacency)
        object.__setattr__(self, "adjacency", adj)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] < 1:
            raise InvalidParameterError("adjacency must be a square matrix")
        if not np.array_equal(adj, adj.T):
            raise InvalidParameterError("adjacency must be exactly symmetric")
        if self.value_class == WEIGHTED:
            if adj.min() < 0.0 or adj.max() > 1.0:
                raise InvalidParameterError("weighted adjacency entries must lie in [0,1]")
        elif self.value_class == UNWEIGHTED:
            if not np.isin(adj, (0.0, 1.0)).all():
                raise InvalidParameterError("unweighted adjacency entries must be 0 or 1")
        else:
            raise InvalidParameterError(f"unknown value class {self.value_class!r}")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """n x F node-feature array with finite entries."""

    values: np.ndarray

    def __post_init__(self):
        vals = _locked_float(self.values)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise InvalidParameterError("feature values must be a 2-D n x F array")
        if not np.isfinite(vals).all():
            raise InvalidParameterError("feature values must be finite")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def F(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class PiecewiseConstantFunction:
    """Step function on [0,1]: interval [b_i, b_{i+1}) carries values[i].

    ``kernel=True`` marks a two-argument step kernel on [0,1]^2 (values is
    m x m); otherwise values is m x F for an F-channel feature function.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    kernel: bool = False

    def __post_init__(self):
        bp = _locked_float(self.breakpoints)
        vals = _locked_float(self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if bp.ndim != 1 or bp.size < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise InvalidParameterError("breakpoints must run from 0.0 to 1.0")
        if np.any(np.diff(bp) <= 0.0):
            raise InvalidParameterError("breakpoints must be strictly increasing")
        m = bp.size - 1
        if vals.ndim != 2 or vals.shape[0] != m:
            raise InvalidParameterError("need one value row per interval")
        if self.kernel and vals.shape[1] != m:
            raise InvalidParameterError("kernel values must be m x m")

    @property
    def F(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class FeatureFunctionSpec:
    """Closed-form feature function Z: [0,1] -> R^F.

    kinds: ``constant`` (a = per-channel values), ``linear``
    (a + b*u per channel), ``fourier_polynomial``
    (sum_k a[f,k] cos(2 pi k u) + b[f,k] sin(2 pi k u)), and
    ``holder_cosine`` (sum_k a[f,k] cos(2 pi b[f,k] u), a lacunary series
    that is Hoelder-1/2 when a_k = b_k^{-1/2}).
    """

    kind: str
    a: np.ndarray
    b: np.ndarray
    degree: int = 0

    def __post_init__(self):
        object.__setattr__(self, "a", _locked_float(np.atleast_2d(self.a)))
        object.__setattr__(self, "b", _locked_float(np.atleast_2d(self.b)))
        if self.kind not in (FOURIER, HOLDER, CONSTANT, LINEAR):
            raise InvalidParameterError(f"unknown feature kind {self.kind!r}")
        if self.a.shape != self.b.shape:
            raise InvalidParameterError("coefficient arrays a and b must share a shape")
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()):
            raise InvalidParameterError("feature coefficients must be finite")
        if self.kind in (FOURIER, HOLDER):
            if self.degree < 1 or self.a.shape[1] != self.degree:
                raise InvalidParameterError("need one coefficient per degree 1..D")

    @property
    def F(self) -> int:
        return self.a.shape[0]

    def evaluate(self, u) -> np.ndarray:
        """Z(u) for an array of points in [0,1], shape (len(u), F)."""
        uu = np.asarray(u, dtype=np.float64).ravel()
        if uu.size and (uu.min() < 0.0 or uu.max() > 1.0):
            raise InvalidParameterError("feature argument must lie in [0, 1]")
        if self.kind == CONSTANT:
            return np.broadcast_to(self.a[:, 0], (uu.size, self.F)).copy()
        if self.kind == LINEAR:
            return self.a[:, 0][None, :] + uu[:, None] * self.b[:, 0][None, :]
        if self.kind == FOURIER:
            k = np.arange(1, self.degree + 1, dtype=np.float64)
            ang = 2.0 * math.pi * uu[:, None] * k[None, :]
            return np.cos(ang) @ self.a.T + np.sin(ang) @ self.b.T
        ang = 2.0 * math.pi * uu[:, None, None] * self.b[None, :, :]
        return np.einsum("ufd,fd->uf", np.cos(ang), self.a)

    def lipschitz_bound(self) -> float:
        """Certified sup-derivative bound, maximized over channels."""
        if self.kind == CONSTANT:
            return 0.0
        if self.kind == LINEAR:
            return float(np.max(np.abs(self.b[:, 0])))
        if self.kind == FOURIER:
            k = np.arange(1, self.degree + 1, dtype=np.float64)
            per = 2.0 * math.pi * (np.abs(self.a) + np.abs(self.b)) @ k
            return float(per.max())
        per = 2.0 * math.pi * np.sum(np.abs(self.a) * np.abs(self.b), axis=1)
        return float(per.max())

    def holder_bound(self) -> tuple[float, float]:
        """Certified (A2, beta) with ||Z(u)-Z(v)|| <= A2*sqrt(F)*|u-v|^beta per channel.

        For ``holder_cosine`` with geometric frequencies b_k = s^k and
        amplitudes a_k <= s^{-k/2}, the usual lacunary-series split gives
        beta = 1/2 with constant (2*pi + 2) * sqrt(s)/(sqrt(s) - 1); other
        kinds are plain Lipschitz (beta = 1).
        """
        if self.kind != HOLDER:
            return self.lipschitz_bound(), 1.0
        bases = self.b[:, 0]
        if np.any(bases <= 1.0):
            raise InvalidParameterError("holder_cosine frequencies need base > 1")
        consts = (2.0 * math.pi + 2.0) * np.sqrt(bases) / (np.sqrt(bases) - 1.0)
        return float(consts.max()), 0.5


def constant_feature(values) -> FeatureFunctionSpec:
    vals = np.atleast_1d(np.asarray(values, dtype=np.float64))
    col = vals[:, None]
    return FeatureFunctionSpec(CONSTANT, col, np.zeros_like(col))


def linear_feature(intercepts, slopes) -> FeatureFunctionSpec:
    a = np.atleast_1d(np.asarray(intercepts, dtype=np.float64))[:, None]
    b = np.atleast_1d(np.asarray(slopes, dtype=np.float64))[:, None]
    return FeatureFunctionSpec(LINEAR, a, b)


def random_fourier_features(channels: int, degree: int, rng) -> FeatureFunctionSpec:
    """Random trigonometric polynomial, coefficients uniform in [-1, 1]."""
    a = rng.uniform(-1.0, 1.0, size=(channels, degree))
    b = rng.uniform(-1.0, 1.0, size=(channels, degree))
    return FeatureFunctionSpec(FOURIER, a, b, degree=degree)


def random_holder_features(channels: int, degree: int, rng) -> FeatureFunctionSpec:
    """Lacunary cosine series: frequencies s^k, amplitudes s^{-k/2}, s ~ U[3,10].

    Hoelder-1/2 but lacking higher-order smoothness; used with the
    rough-kernel presets.
    """
    base = rng.uniform(3.0, 10.0, size=channels)
    k = np.arange(1, degree + 1, dtype=np.float64)
    freqs = base[:, None] ** k[None, :]
    amps = base[:, None] ** (-k[None, :] / 2.0)
    return FeatureFunctionSpec(HOLDER, amps, freqs, degree=degree)


# ---------------------------------------------------------------------------
# Sampling operations


#: Largest node count accepted for a dense n x n graph (2 GiB in float64).
MAX_DENSE_NODES = 16384


def _node_count(n) -> int:
    n = int(n)
    if n < 1:
        raise InvalidParameterError("node count must be >= 1")
    if n > MAX_DENSE_NODES:
        raise ComplexityGuardError(
            f"n={n} exceeds the dense-size limit of {MAX_DENSE_NODES} nodes "
            f"(an n x n float64 array would take {8.0 * n * n / 2**30:.3g} GiB)"
        )
    return n


def _grid(n: int) -> np.ndarray:
    n = _node_count(n)
    return np.arange(n, dtype=np.float64) / n


def sample_weighted(spec: catalog.GraphonSpec, n: int) -> SampledGraph:
    """Pointwise sample: adjacency[i][j] = W(i/n, j/n)."""
    if spec.value_class != catalog.WEIGHTED:
        raise WrongRegimeError(
            "binary kernels sample by cell intersection; use sample_unweighted"
        )
    u = _grid(n)
    adj = catalog.evaluate(spec, u[:, None], u[None, :])
    return SampledGraph(adj, WEIGHTED)


def sample_unweighted(spec: catalog.GraphonSpec, n: int) -> SampledGraph:
    """Cell sample: adjacency[i][j] = 1 iff cell I_i x I_j meets the support.

    Computed exactly in integer arithmetic on the kernel's natural k-grid:
    cell I_i covers grid columns floor(i*k/n) .. floor(((i+1)*k - 1)/n).
    """
    if spec.value_class != catalog.BINARY:
        raise WrongRegimeError(
            "weighted kernels sample by evaluation; use sample_weighted"
        )
    n = _node_count(n)
    k, pre = catalog.support_grid(spec)
    idx = np.arange(n, dtype=np.int64)
    lo = (idx * k) // n
    hi = ((idx + 1) * k - 1) // n
    counts = (
        pre[np.ix_(hi + 1, hi + 1)]
        - pre[np.ix_(lo, hi + 1)]
        - pre[np.ix_(hi + 1, lo)]
        + pre[np.ix_(lo, lo)]
    )
    return SampledGraph((counts > 0).astype(np.float64), UNWEIGHTED)


def sample_features_pointwise(z: FeatureFunctionSpec, n: int) -> FeatureMatrix:
    """Row i = Z(i/n); the weighted-regime companion of sample_weighted."""
    return FeatureMatrix(z.evaluate(_grid(n)))


def sample_features_cell_average(
    z: FeatureFunctionSpec, n: int, quad_points: int = 8
) -> FeatureMatrix:
    """Row i = mean of Z over cell I_i, by Gauss-Legendre quadrature.

    Exact for constant/linear kinds at any q >= 1; for trigonometric kinds
    the quadrature error is far below the sampling error being measured.
    """
    q = int(quad_points)
    if q < 1:
        raise InvalidParameterError("quad_points must be >= 1")
    n = int(n)
    u = _grid(n)
    nodes, weights = np.polynomial.legendre.leggauss(q)
    # Map [-1,1] nodes into each cell; the cell mean is (1/2) sum_j w_j Z(x_ij).
    pts = (u[:, None] + 0.5 / n) + (0.5 / n) * nodes[None, :]
    vals = z.evaluate(np.clip(pts.ravel(), 0.0, 1.0)).reshape(n, q, z.F)
    return FeatureMatrix(0.5 * np.tensordot(weights, vals, axes=(0, 1)))


def graph_shift(graph: SampledGraph) -> np.ndarray:
    """Shift operator S = adjacency / n (induced operator norm <= 1)."""
    return graph.adjacency / graph.n


# ---------------------------------------------------------------------------
# Induced step-function representations and overlay distances


def uniform_breakpoints(n: int) -> np.ndarray:
    """Breakpoints i/n, i = 0..n, of the uniform n-partition I_0..I_{n-1}."""
    return np.arange(n + 1, dtype=np.float64) / n


def induce_kernel(graph: SampledGraph) -> PiecewiseConstantFunction:
    """Step kernel equal to adjacency[i][j] on cell I_i x I_j."""
    return PiecewiseConstantFunction(
        uniform_breakpoints(graph.n), graph.adjacency, kernel=True
    )


def induce_features(features: FeatureMatrix) -> PiecewiseConstantFunction:
    """Step function carrying row i on interval I_i."""
    return PiecewiseConstantFunction(
        uniform_breakpoints(features.n), features.values, kernel=False
    )


def overlay_l2_distance(
    f_a: PiecewiseConstantFunction, f_b: PiecewiseConstantFunction
) -> float:
    """Exact L2(0,1) distance between two step functions.

    Integrates on the merged breakpoint partition, so partitions of
    different sizes compare without interpolation error.
    """
    if f_a.kernel or f_b.kernel:
        raise InvalidParameterError("use catalog.kernel_distance for step kernels")
    if f_a.F != f_b.F:
        raise DimensionMismatchError(
            f"feature counts differ ({f_a.F} vs {f_b.F}); cannot compare"
        )
    ia, ib, widths = catalog.overlay_partition(f_a.breakpoints, f_b.breakpoints)
    diff = f_a.values[ia] - f_b.values[ib]
    return float(math.sqrt(np.sum(widths * np.sum(diff * diff, axis=1))))


def pwc_l2_norm(f: PiecewiseConstantFunction) -> float:
    """L2 norm of a step function (or step kernel, over the square)."""
    w = np.diff(f.breakpoints)
    if f.kernel:
        return float(math.sqrt(w @ (f.values * f.values) @ w))
    return float(math.sqrt(np.sum(w * np.sum(f.values * f.values, axis=1))))


# ---------------------------------------------------------------------------
# Edge-list and feature CSV formats


def write_edge_list(graph: SampledGraph, path):
    """CSV edge list: header `n=<n>,class=<class>`, then sorted nonzero
    upper-triangle entries (diagonal included) as `i,j,weight` rows."""
    n = graph.n
    with open(path, "w", newline="") as fh:
        fh.write(f"n={n},class={graph.value_class}\n")
        fh.write("i,j,weight\n")
        iu, ju = np.triu_indices(n)
        w = graph.adjacency[iu, ju]
        keep = w != 0.0
        for i, j, wij in zip(iu[keep], ju[keep], w[keep]):
            fh.write(f"{i},{j},{float(wij)!r}\n")


def read_edge_list(path) -> SampledGraph:
    """Parse the edge-list format of :func:`write_edge_list`."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise EdgeListParseError("empty edge-list file", line=1)
    head = lines[0].strip()
    try:
        fields = dict(part.split("=", 1) for part in head.split(","))
        n = int(fields["n"])
        value_class = fields["class"]
    except (ValueError, KeyError) as exc:
        raise EdgeListParseError(f"bad header {head!r}", line=1) from exc
    if n < 1 or value_class not in (WEIGHTED, UNWEIGHTED):
        raise EdgeListParseError(f"bad header {head!r}", line=1)
    n = _node_count(n)
    adj = np.zeros((n, n), dtype=np.float64)
    start = 2 if len(lines) > 1 and lines[1].strip() == "i,j,weight" else 1
    for ln, row in enumerate(lines[start:], start=start + 1):
        if not row.strip():
            continue
        parts = row.split(",")
        try:
            i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
        except (IndexError, ValueError) as exc:
            raise EdgeListParseError(f"bad edge row {row!r}", line=ln) from exc
        if not (0 <= i <= j < n) or not math.isfinite(w):
            raise EdgeListParseError(f"edge row out of range {row!r}", line=ln)
        adj[i, j] = w
        adj[j, i] = w
    return SampledGraph(adj, value_class)


def write_feature_matrix(features: FeatureMatrix, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{c}" for c in range(features.F)])
        for row in features.values:
            writer.writerow([repr(float(x)) for x in row])


def read_feature_matrix(path) -> FeatureMatrix:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise EdgeListParseError("feature CSV needs a header and at least one row", line=1)
    try:
        vals = np.asarray([[float(x) for x in row] for row in rows[1:]], dtype=np.float64)
    except ValueError as exc:
        raise EdgeListParseError("non-numeric feature entry", line=2) from exc
    return FeatureMatrix(vals)
