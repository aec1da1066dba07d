"""Deterministic graph and feature sampling from kernels.

Weighted kernels are sampled pointwise at the left-endpoint grid
u_i = i/n; binary kernels are sampled by exact cell-intersection tests.
Finite graphs and feature matrices embed back into function space as
piecewise-constant (step) functions on the uniform n-partition, and all
cross-size comparisons go through the exact overlay L2 distance on the
merged partition.

This module also holds the one CSV cell format and writer of the package:
:func:`format_cell` writes a float as its ``repr`` and :func:`write_csv`
ends every line in "\\n".  Every table gnde writes (feature matrices,
trajectories, the convergence report, box counts, the transfer audit) goes
through :func:`write_csv`; the edge list keeps its own chunked writer, with
its weights in :func:`format_cell`'s text, and one ``np.loadtxt`` reader.
"""

from __future__ import annotations

import io
import math
import re
import warnings
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


@dataclass(frozen=True, eq=False)
class SampledGraph:
    """Dense symmetric graph with entries in [0,1] ({0,1} when unweighted).

    The adjacency is checked once, here, and locked read-only, so a
    ``SampledGraph`` vouches for its symmetry: ``kernels.ShiftOperator``
    does not check a graph again.
    """

    adjacency: np.ndarray
    value_class: str

    def __post_init__(self):
        adj = catalog.locked_array(self.adjacency)
        object.__setattr__(self, "adjacency", adj)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] < 1:
            raise InvalidParameterError("adjacency must be a square matrix")
        if self.value_class == WEIGHTED:
            if not (adj.min() >= 0.0 and adj.max() <= 1.0):  # NaN fails both
                raise InvalidParameterError("weighted adjacency entries must lie in [0,1]")
        elif self.value_class == UNWEIGHTED:
            if not np.isin(adj, (0.0, 1.0)).all():
                raise InvalidParameterError("unweighted adjacency entries must be 0 or 1")
        else:
            raise InvalidParameterError(f"unknown value class {self.value_class!r}")
        if not catalog.is_symmetric(adj):
            raise InvalidParameterError("adjacency must be exactly symmetric")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """n x F node-feature array with finite entries."""

    values: np.ndarray

    def __post_init__(self):
        vals = catalog.locked_array(self.values)
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
        bp = catalog.locked_array(self.breakpoints)
        vals = catalog.locked_array(self.values)
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
    that is Hoelder-1/2 when a_k = b_k^{-1/2}).  ``a`` and ``b`` are (F, D):
    one column per term k = 1..D (the read-only ``degree``) for the
    trigonometric kinds, D = 1 and ``degree`` 0 for the others.
    """

    kind: str
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", catalog.locked_array(np.atleast_2d(self.a)))
        object.__setattr__(self, "b", catalog.locked_array(np.atleast_2d(self.b)))
        if self.kind not in (FOURIER, HOLDER, CONSTANT, LINEAR):
            raise InvalidParameterError(f"unknown feature kind {self.kind!r}")
        if self.a.shape != self.b.shape or self.a.ndim != 2:
            raise InvalidParameterError("coefficient arrays a and b must share an (F, D) shape")
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()):
            raise InvalidParameterError("feature coefficients must be finite")
        if self.kind in (FOURIER, HOLDER):
            if self.a.shape[1] < 1:
                raise InvalidParameterError("need one coefficient per degree 1..D, D >= 1")
        elif self.a.shape[1] != 1:
            raise InvalidParameterError(f"{self.kind} features take one coefficient column")

    @property
    def F(self) -> int:
        return self.a.shape[0]

    @property
    def degree(self) -> int:
        return self.a.shape[1] if self.kind in (FOURIER, HOLDER) else 0

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
    return FeatureFunctionSpec(FOURIER, a, b)


def random_holder_features(channels: int, degree: int, rng) -> FeatureFunctionSpec:
    """Lacunary cosine series: frequencies s^k, amplitudes s^{-k/2}, s ~ U[3,10].

    Hoelder-1/2 but lacking higher-order smoothness; used with the
    rough-kernel presets.
    """
    base = rng.uniform(3.0, 10.0, size=channels)
    k = np.arange(1, degree + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing draw is refused below
        freqs = base[:, None] ** k[None, :]
    if not np.isfinite(freqs).all():
        raise InvalidParameterError(
            f"degree={degree} is too large for the holder feature: its frequency "
            f"s**{degree} overflows float64 for the drawn base s={float(base.max())!r}")
    amps = base[:, None] ** (-k[None, :] / 2.0)
    return FeatureFunctionSpec(HOLDER, amps, freqs)


# ---------------------------------------------------------------------------
# Sampling operations


#: Largest node count accepted for a dense n x n graph (2 GiB in float64).
MAX_DENSE_NODES = 16384


def node_count(n) -> int:
    """``n`` as an int, refused unless 1 <= n <= ``MAX_DENSE_NODES``."""
    n = int(n)
    if n < 1:
        raise InvalidParameterError("node count must be >= 1")
    if n > MAX_DENSE_NODES:
        raise ComplexityGuardError(
            f"n={n} exceeds the dense-size limit of {MAX_DENSE_NODES} nodes "
            f"(an n x n float64 array would take {8.0 * n * n / 2**30:.3g} GiB)"
        )
    return n


def check_entries(*axes) -> None:
    """Refuse, before allocating it, a float64 array with more entries than
    a dense ``MAX_DENSE_NODES`` graph; ``axes`` are ``(name, size)`` pairs,
    and the error names the axis where the running product crosses that."""
    entries = 1
    for name, size in axes:
        entries *= size
        if entries > MAX_DENSE_NODES**2:
            raise ComplexityGuardError(
                f"{name} sizes an array beyond the dense limit of "
                f"{MAX_DENSE_NODES**2} float64 entries (2 GiB)"
            )


def _grid(n: int) -> np.ndarray:
    n = node_count(n)
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

    Computed exactly in integer arithmetic on the kernel's k x k support
    pattern: cell I_i covers grid lines lo[i] = floor(i*k/n) .. hi[i] =
    floor(((i+1)*k - 1)/n), and the entry ORs the pattern over those lines.
    """
    if spec.value_class != catalog.BINARY:
        raise WrongRegimeError(
            "weighted kernels sample by evaluation; use sample_weighted"
        )
    n = node_count(n)
    pattern = catalog.support_pattern(spec)
    k = pattern.shape[0]
    idx = np.arange(n, dtype=np.int64)
    lo = (idx * k) // n
    hi = ((idx + 1) * k - 1) // n
    # reduceat ORs lines lo[i] .. lo[i+1]-1 (the single line lo[i] when lo
    # repeats); hi[i] adds lo[i+1] exactly when I_i straddles a grid line.
    # Rows go first, on the pattern packed 8 columns to a byte: n segments
    # over whole ceil(k/8)-byte rows (columns first ran k * n short ones),
    # unpacked to an (n, k) array (count=k drops the pad bits), then n * n
    # segments across it.
    packed = np.packbits(pattern, axis=1)
    packed = np.bitwise_or.reduceat(packed, lo, axis=0) | packed[hi]
    rows = np.unpackbits(packed, axis=1, count=k).view(bool)
    hit = np.logical_or.reduceat(rows, lo, axis=1) | rows[:, hi]
    return SampledGraph(hit.astype(np.float64), UNWEIGHTED)


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
    check_entries(("n", n), ("channels", z.F), ("quad_points", q))
    nodes, weights = np.polynomial.legendre.leggauss(q)
    # Map [-1,1] nodes into each cell; the cell mean is (1/2) sum_j w_j Z(x_ij).
    pts = (u[:, None] + 0.5 / n) + (0.5 / n) * nodes[None, :]
    vals = z.evaluate(np.clip(pts.ravel(), 0.0, 1.0)).reshape(n, q, z.F)
    return FeatureMatrix(0.5 * np.tensordot(weights, vals, axes=(0, 1)))


def sample_system(spec: catalog.GraphonSpec, n: int, features, quad_points: int = 8):
    """Graph and one feature matrix per spec in ``features``, in the regime
    the kernel's value class dictates: pointwise graph and features for
    weighted kernels, cell intersection and cell averages for binary ones.

    Returns ``(SampledGraph, [FeatureMatrix, ...])``.
    """
    if spec.value_class == catalog.WEIGHTED:
        return sample_weighted(spec, n), [sample_features_pointwise(z, n) for z in features]
    return sample_unweighted(spec, n), [
        sample_features_cell_average(z, n, quad_points) for z in features
    ]


def graph_shift(graph: SampledGraph) -> np.ndarray:
    """Shift operator S = adjacency / n (induced operator norm <= 1): the
    dense reference of ``kernels.ShiftOperator(graph)``."""
    return graph.adjacency / graph.n


# ---------------------------------------------------------------------------
# Induced step-function representations and overlay distances


uniform_breakpoints = catalog.uniform_breakpoints


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


#: Entries (rows x cells x F) of one block of :func:`l2_per_row`: 128 KiB
#: blocks ran the convergence report's error pass about a quarter faster
#: than 32 KiB ones, and 256 KiB ones were little faster but raised the
#: peak RSS by 0.5 MB (``BENCH_eval_pass.json``).
L2_BLOCK_ENTRIES = 1 << 14


def _weighted_square_sums(sq, widths):
    """sum_c widths[c] * sum_f sq[j, c, f]**2 for each row j, squaring the
    block ``sq`` in place; a block passed straight in is freed on return.
    A sum too large for float64 is inf."""
    with np.errstate(over="ignore"):
        sq *= sq
        inner = np.sum(sq, axis=2)
        inner *= widths
        return np.sum(inner, axis=1)


def l2_per_row(block, count, F, widths) -> np.ndarray:
    """sqrt(sum_c widths[c] * sum_f D[j, c, f]**2) for each row j < count:
    the L2 norms of step functions on cells of widths ``widths``, as a
    float64 array.

    ``block(lo, hi)`` returns D[lo:hi] as a new C-contiguous
    (hi - lo, widths.size, F) array, which is squared in place; a block
    holds about ``L2_BLOCK_ENTRIES`` entries, and one block's arrays are
    freed before the next is made.  Each row's channel and cell sums run
    over its own contiguous memory, as a 1-D sum does, so a row's bits do
    not depend on the block size.
    """
    step = max(1, L2_BLOCK_ENTRIES // max(1, widths.size * F))
    norms = np.empty(count)
    for lo in range(0, count, step):
        hi = min(count, lo + step)
        np.sqrt(_weighted_square_sums(block(lo, hi), widths), out=norms[lo:hi])
    return norms


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
    return float(l2_per_row(lambda lo, hi: diff[None], 1, f_a.F, widths)[0])


def pwc_l2_norm(f: PiecewiseConstantFunction) -> float:
    """L2 norm of a step function (or step kernel, over the square).

    A kernel's norm is its :func:`catalog.kernel_distance` to the zero
    kernel: the same fixed-order sum, so no BLAS call decides its bits."""
    if f.kernel:
        zero = PiecewiseConstantFunction(np.array([0.0, 1.0]), np.zeros((1, 1)), kernel=True)
        return catalog.kernel_distance(f, zero)
    return float(l2_per_row(lambda lo, hi: f.values[None].copy(), 1, f.F,
                            np.diff(f.breakpoints))[0])


# ---------------------------------------------------------------------------
# CSV tables: the edge list, feature matrices, and every table the CLI writes


def format_cell(value) -> str:
    """One CSV cell: a float (numpy's too) as its Python float ``repr``,
    which reads back to the same bits; None as the empty cell; anything
    else as ``str``."""
    if type(value) is float:  # first: trajectory rows are millions of cells
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):  # np.float64's repr is "np.float64(...)"
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    """Write a header line of column names, then one line per row of cells
    (:func:`format_cell`), each line ending in "\\n" on every platform."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(format_cell, row)) + "\n")


_WRITE_ROWS = 16384  # adjacency entries per block: larger blocks only raise the peak memory


def write_edge_list(graph: SampledGraph, path):
    """CSV edge list: header `n=<n>,class=<class>`, then sorted nonzero
    upper-triangle entries (diagonal included) as `i,j,weight` rows, the
    weight as its :func:`format_cell` text.

    The adjacency is walked in blocks of about ``_WRITE_ROWS // n`` rows:
    each block's upper triangle (``np.triu``) gives its nonzero entries in
    row-major order, each distinct weight is formatted once (``np.unique``)
    and each node id once per call, and the rows are joined from those
    tables.  The bytes are those of one cell per row: the text is a
    function of the float's bits, and the only distinct bits that
    ``np.unique`` merges, +0.0 with -0.0 and NaN with NaN, are never written
    (zeros are dropped, and a ``SampledGraph`` holds no NaN).
    """
    n = graph.n
    step = max(1, _WRITE_ROWS // n)
    ids = [str(i) for i in range(n)]
    with open(path, "w", newline="") as fh:
        fh.write(f"n={n},class={graph.value_class}\n")
        fh.write("i,j,weight\n")
        for lo in range(0, n, step):
            block = np.triu(graph.adjacency[lo : lo + step], lo)
            iu, ju = np.nonzero(block)
            values, which = np.unique(block[iu, ju], return_inverse=True)
            texts = [format_cell(x) for x in values.tolist()]
            fh.write("".join([f"{ids[i]},{ids[j]},{texts[k]}\n" for i, j, k in zip(
                (iu + lo).tolist(), ju.tolist(), which.tolist())]))


_TEXT_BYTES = bytes(range(0x20, 0x7F)) + b"\t\r\n"  # all an edge list may hold
# patterns for re's cache, not compiled at import; n has 1-19 digits for int()
_HEADER = (rb"n=0*([1-9][0-9]{0,18}),class=(weighted|unweighted)\r?(?:\n|\Z)"
           rb"(?:i,j,weight\r?(?:\n|\Z))?")
_CONTENT = rb"[^\r\n]|\r(?!\n|\Z)"  # a byte of a row: np.loadtxt skips the lines "" and "\r"
_ROW = [("i", "i8"), ("j", "i8"), ("w", "f8")]


def _loadtxt(data: bytes, start: int = 0):
    """The i, j and weight columns of the rows of ``data[start:]``; a
    ValueError or any warning (older NumPy reads "1.0" as an int) refuses."""
    with io.BytesIO(data) as fh, warnings.catch_warnings():
        warnings.simplefilter("error")
        fh.seek(start)
        return np.loadtxt(fh, dtype=_ROW, delimiter=",", comments=None, ndmin=1, unpack=True)


def _row_error(message, raw: bytes, start: int, row, path) -> EdgeListParseError:
    """The error naming row ``row`` of ``raw[start:]`` or, for None, the
    first row ``np.loadtxt`` refuses: rows are read independently, so
    bisecting over windows of rows finds it in at most one more parse."""
    first = raw.count(b"\n", 0, start) + 1
    rows = [(first + k, text) for k, text in enumerate(raw[start:].split(b"\n"))
            if text not in (b"", b"\r")]
    if row is None:
        row, hi = 0, len(rows)
        while hi - row > 1:
            mid = (row + hi) // 2
            try:
                _loadtxt(b"\n".join(text for _, text in rows[row:mid]))
                row = mid
            except (ValueError, Warning):
                hi = mid
    line, text = rows[row]
    text = text[:-1] if text.endswith(b"\r") else text
    return EdgeListParseError(f"{message} {text.decode()!r}", line=line, path=path)


def read_edge_list(path) -> SampledGraph:
    """Parse :func:`write_edge_list`'s format, also with CRLF, empty lines, no
    column line or blanks and signs around fields: one ``np.loadtxt`` call,
    then 0 <= i <= j < n, finite weights and no pair twice.  A bad byte (not
    printable ASCII, tab, CR or LF) or row raises :class:`EdgeListParseError`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    bad = raw.translate(None, _TEXT_BYTES)
    if bad:
        raise EdgeListParseError(f"byte {bad[0]:#04x} is not printable ASCII, tab, CR or LF",
                                 line=raw.count(b"\n", 0, raw.index(bad[:1])) + 1, path=path)
    head = re.match(_HEADER, raw)
    if head is None:
        first = raw.split(b"\n", 1)[0].strip().decode()
        raise EdgeListParseError(f"bad header {first!r}", line=1, path=path)
    n = node_count(int(head[1]))
    start = head.end()
    if re.compile(_CONTENT).search(raw, start) is None:
        return SampledGraph(np.zeros((n, n)), head[2].decode())
    try:
        i, j, w = _loadtxt(raw, start)
    except (ValueError, Warning):
        raise _row_error("bad edge row", raw, start, None, path) from None
    # the mask only on failure: built always, it moved edge-audit's peak RSS 69.6 -> 71.9 MB
    if not ((i >= 0).all() and (i <= j).all() and (j < n).all() and np.isfinite(w).all()):
        in_range = (i >= 0) & (i <= j) & (j < n) & np.isfinite(w)
        raise _row_error("edge row out of range", raw, start, int(np.argmin(in_range)), path)
    if not (np.diff(np.sort(i * n + j)) > 0).all():
        key = i * n + j
        order = np.argsort(key, kind="stable")
        repeats = order[1:][key[order[1:]] == key[order[:-1]]]
        raise _row_error("edge row repeats a pair", raw, start, int(repeats.min()), path)
    # after the parse frees its buffers: before, a 524 800-row read peaked 9 MB higher
    adj = np.zeros((n, n), dtype=np.float64)
    adj[i, j] = w
    adj[j, i] = w
    return SampledGraph(adj, head[2].decode())


def write_feature_matrix(features: FeatureMatrix, path):
    """CSV with columns f0 .. f<F-1>, one row per node."""
    write_csv(path, [f"f{c}" for c in range(features.F)], features.values.tolist())
