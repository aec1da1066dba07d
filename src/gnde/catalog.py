"""Analytic kernel catalog on the unit square.

Defines the shipped symmetric kernels W: [0,1]^2 -> [0,1] (tent, oscillatory,
block patterns, triadic carpets), exact support geometry for the binary
kinds, box-counting dimension estimation, homomorphism densities, and
L1/L2 kernel-distance surrogates.

Cell convention: every axis cell is half-open, [i/k, (i+1)/k), except that
the point 1.0 is folded into the last cell so the square is covered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ComplexityGuardError,
    InsufficientDataError,
    InvalidParameterError,
    LogDomainError,
    UnsupportedOperationError,
)

WEIGHTED = "weighted"
BINARY = "binary"

KIND_TENT = "tent"
KIND_OSCILLATORY = "oscillatory_lipschitz"
KIND_BLOCK = "block_pattern"
KIND_CARPET = "triadic_carpet"

#: CLI-facing names of the shipped kernels, in catalog order.
CATALOG_NAMES = (
    "tent",
    "holder-tent",
    "oscillatory",
    "hsbm",
    "checkerboard",
    "hexaflake",
    "sierpinski",
)

SIERPINSKI_DEFAULT_DEPTH = 5
# Depth 7 keeps the carpet structure unresolved across the desk-scale node
# counts (3^7 > 2048), which is what separates its measured rate from the
# axis-aligned block patterns.
HEXAFLAKE_DEFAULT_DEPTH = 7

_MAX_MESH = 4096  # finest 1/m mesh accepted by the box counters


@dataclass(frozen=True, eq=False)
class GraphonSpec:
    """Immutable description of one analytic kernel.

    ``kind`` selects the closed form; the remaining fields are kind-specific
    (``alpha`` for tent, ``frequency`` for oscillatory, ``pattern`` for block
    patterns, ``mask``/``depth`` for triadic carpets).  ``holder_meta`` is an
    optional pair (A1, alpha) certifying |W(u2,v2)-W(u1,v1)| <=
    A1*(|du|+|dv|)^alpha; ``nominal_box_dim`` records the box-counting
    dimension of the support boundary for binary kinds.
    """

    kind: str
    value_class: str
    alpha: float | None = None
    frequency: int | None = None
    pattern: np.ndarray | None = None
    mask: np.ndarray | None = None
    depth: int | None = None
    holder_meta: tuple[float, float] | None = None
    nominal_box_dim: float | None = None

    def __post_init__(self):
        if self.kind not in (KIND_TENT, KIND_OSCILLATORY, KIND_BLOCK, KIND_CARPET):
            raise InvalidParameterError(f"unknown kernel kind {self.kind!r}")
        if self.value_class not in (WEIGHTED, BINARY):
            raise InvalidParameterError(f"unknown value class {self.value_class!r}")
        if self.kind == KIND_TENT:
            if self.alpha is None or not (0.0 < self.alpha <= 1.0):
                raise InvalidParameterError("tent exponent alpha must be in (0, 1]")
        elif self.kind == KIND_OSCILLATORY:
            if self.frequency is None or int(self.frequency) < 1:
                raise InvalidParameterError("oscillation frequency must be a positive integer")
        elif self.kind == KIND_BLOCK:
            _check_binary_matrix(self.pattern, "pattern")
        elif self.kind == KIND_CARPET:
            _check_binary_matrix(self.mask, "mask")
            if self.mask.shape != (3, 3):
                raise InvalidParameterError("carpet mask must be 3x3")
            if self.depth is None or int(self.depth) < 1:
                raise InvalidParameterError("carpet depth must be >= 1")


def _check_binary_matrix(mat, name):
    if mat is None:
        raise InvalidParameterError(f"{name} matrix is required")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise InvalidParameterError(f"{name} must be a square matrix")
    if not np.isin(mat, (0, 1)).all():
        raise InvalidParameterError(f"{name} entries must be 0 or 1")
    if not np.array_equal(mat, mat.T):
        raise InvalidParameterError(f"{name} must be symmetric")


def _locked(arr, dtype=np.int8):
    out = np.ascontiguousarray(np.asarray(arr), dtype=dtype)
    out.flags.writeable = False
    return out


def tent(alpha: float = 1.0) -> GraphonSpec:
    """W(u,v) = 1 - |u-v|^alpha; Hoelder with constant A1 = 1 and exponent alpha."""
    return GraphonSpec(
        kind=KIND_TENT,
        value_class=WEIGHTED,
        alpha=float(alpha),
        holder_meta=(1.0, float(alpha)),
    )


def oscillatory(frequency: int = 20) -> GraphonSpec:
    """W(u,v) = (1 + sin(f*pi*u) sin(f*pi*v)) / 2, Lipschitz with A1 = f*pi/2."""
    f = int(frequency)
    return GraphonSpec(
        kind=KIND_OSCILLATORY,
        value_class=WEIGHTED,
        frequency=f,
        holder_meta=(f * math.pi / 2.0, 1.0),
    )


def block_pattern(pattern) -> GraphonSpec:
    """Binary kernel constant on a k x k grid: W(u,v) = pattern[floor(ku), floor(kv)]."""
    return GraphonSpec(
        kind=KIND_BLOCK,
        value_class=BINARY,
        pattern=_locked(pattern),
        nominal_box_dim=1.0,
    )


def hsbm(levels: int = 3) -> GraphonSpec:
    """Hierarchical block pattern: ``levels`` Kronecker refinements of the 2x2 identity."""
    if int(levels) < 1:
        raise InvalidParameterError("levels must be >= 1")
    base = np.eye(2, dtype=np.int8)
    pat = base
    for _ in range(int(levels) - 1):
        pat = np.kron(pat, base)
    return block_pattern(pat)


def checkerboard(cells: int = 10) -> GraphonSpec:
    """Binary parity pattern: W(u,v) = 1 iff floor(ku) + floor(kv) is even."""
    k = int(cells)
    if k < 1:
        raise InvalidParameterError("cells must be >= 1")
    idx = np.arange(k)
    pat = ((idx[:, None] + idx[None, :]) % 2 == 0).astype(np.int8)
    return block_pattern(pat)


def triadic_carpet(mask, depth: int) -> GraphonSpec:
    """Prefractal carpet: recurse ``depth`` levels on a symmetric 3x3 keep-mask."""
    mask = _locked(mask)
    r = int(mask.sum())
    dim = math.log(r) / math.log(3.0) if r > 0 else None
    if dim is not None and not (1.0 <= dim < 2.0):
        dim = None  # degenerate masks (r < 3 or r = 9) have no fractal boundary
    return GraphonSpec(
        kind=KIND_CARPET,
        value_class=BINARY,
        mask=mask,
        depth=int(depth),
        nominal_box_dim=dim,
    )


def sierpinski(depth: int = SIERPINSKI_DEFAULT_DEPTH) -> GraphonSpec:
    """Carpet keeping 8 of 9 subcells (center dropped); dim log8/log3 ~ 1.8928."""
    mask = np.ones((3, 3), dtype=np.int8)
    mask[1, 1] = 0
    return triadic_carpet(mask, depth)


def hexaflake(depth: int = HEXAFLAKE_DEFAULT_DEPTH) -> GraphonSpec:
    """Carpet keeping 7 of 9 subcells; dim log7/log3 ~ 1.7712.

    The two dropped subcells are the transpose pair (0,1)/(1,0) so the kernel
    stays symmetric in (u,v).
    """
    mask = np.ones((3, 3), dtype=np.int8)
    mask[0, 1] = 0
    mask[1, 0] = 0
    return triadic_carpet(mask, depth)


def from_name(name: str, **overrides) -> GraphonSpec:
    """Build a catalog kernel from its CLI name.

    Recognized overrides: ``alpha`` (tents), ``frequency`` (oscillatory),
    ``levels`` (hsbm), ``cells`` (checkerboard), ``depth`` (carpets).
    """
    builders = {
        "tent": lambda: tent(alpha=float(overrides.pop("alpha", 1.0))),
        "holder-tent": lambda: tent(alpha=float(overrides.pop("alpha", 0.5))),
        "oscillatory": lambda: oscillatory(frequency=int(overrides.pop("frequency", 20))),
        "hsbm": lambda: hsbm(levels=int(overrides.pop("levels", 3))),
        "checkerboard": lambda: checkerboard(cells=int(overrides.pop("cells", 10))),
        "hexaflake": lambda: hexaflake(depth=int(overrides.pop("depth", HEXAFLAKE_DEFAULT_DEPTH))),
        "sierpinski": lambda: sierpinski(depth=int(overrides.pop("depth", SIERPINSKI_DEFAULT_DEPTH))),
    }
    if name not in builders:
        raise InvalidParameterError(
            f"unknown kernel name {name!r}; choose from {', '.join(CATALOG_NAMES)}"
        )
    spec = builders[name]()
    if overrides:
        raise InvalidParameterError(
            f"parameters {sorted(overrides)} do not apply to kernel {name!r}"
        )
    return spec


# ---------------------------------------------------------------------------
# Evaluation


def _as_domain_array(x, name):
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise InvalidParameterError(f"{name} must lie in [0, 1]")
    return arr


def evaluate(spec: GraphonSpec, u, v):
    """Evaluate W(u, v); accepts scalars or broadcastable arrays.

    Symmetric in (u, v) bit-for-bit because every closed form below is
    written in terms of symmetric primitives.
    """
    uu = _as_domain_array(u, "u")
    vv = _as_domain_array(v, "v")
    scalar = np.isscalar(u) and np.isscalar(v)
    if spec.kind == KIND_TENT:
        out = 1.0 - np.abs(uu - vv) ** spec.alpha
    elif spec.kind == KIND_OSCILLATORY:
        w = spec.frequency * math.pi
        out = 0.5 * (1.0 + np.sin(w * uu) * np.sin(w * vv))
        out = np.clip(out, 0.0, 1.0)
    elif spec.kind == KIND_BLOCK:
        k = spec.pattern.shape[0]
        iu = np.minimum(np.floor(uu * k).astype(np.int64), k - 1)
        iv = np.minimum(np.floor(vv * k).astype(np.int64), k - 1)
        out = spec.pattern[iu, iv].astype(np.float64)
    else:  # KIND_CARPET
        x = np.array(uu, dtype=np.float64, copy=True)
        y = np.array(vv, dtype=np.float64, copy=True)
        keep = np.ones(np.broadcast(x, y).shape, dtype=bool)
        for _ in range(spec.depth):
            x3 = x * 3.0
            y3 = y * 3.0
            dx = np.minimum(np.floor(x3).astype(np.int64), 2)
            dy = np.minimum(np.floor(y3).astype(np.int64), 2)
            keep &= spec.mask[dx, dy].astype(bool)
            x = x3 - dx
            y = y3 - dy
        out = keep.astype(np.float64)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# Support geometry (binary kinds)


def _validate_cell(cell):
    try:
        a, b, c, d = (float(x) for x in cell)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError("cell must be 4 reals (a, b, c, d)") from exc
    if not (0.0 <= a < b <= 1.0 and 0.0 <= c < d <= 1.0):
        raise InvalidParameterError("cell [a,b)x[c,d) must satisfy 0<=a<b<=1, 0<=c<d<=1")
    return a, b, c, d


def _grid_lo(a, k):
    """First index i with (i+1)/k > a, robust at cell-aligned floats."""
    i = min(max(int(math.floor(a * k)), 0), k - 1)
    while i < k - 1 and (i + 1) / k <= a:
        i += 1
    while i > 0 and i / k > a:
        i -= 1
    return i


def _grid_hi(b, k):
    """Last index i with i/k < b, robust at cell-aligned floats."""
    i = min(max(int(math.ceil(b * k)) - 1, 0), k - 1)
    while i > 0 and i / k >= b:
        i -= 1
    while i < k - 1 and (i + 1) / k < b:
        i += 1
    return i


@lru_cache(maxsize=32)
def _block_prefix(spec: GraphonSpec):
    k = spec.pattern.shape[0]
    pre = np.zeros((k + 1, k + 1), dtype=np.int64)
    pre[1:, 1:] = np.cumsum(np.cumsum(spec.pattern, axis=0), axis=1)
    return pre


@lru_cache(maxsize=4)
def _leaf_prefix(spec: GraphonSpec):
    alive = spec.mask.astype(np.uint8)
    for _ in range(spec.depth - 1):
        alive = np.kron(alive, spec.mask.astype(np.uint8))
    m = alive.shape[0]
    pre = np.zeros((m + 1, m + 1), dtype=np.int64)
    pre[1:, 1:] = np.cumsum(np.cumsum(alive, axis=0, dtype=np.int64), axis=1)
    return pre


def _prefix_any(pre, i0, i1, j0, j1):
    s = pre[i1 + 1, j1 + 1] - pre[i0, j1 + 1] - pre[i1 + 1, j0] + pre[i0, j0]
    return s > 0


def support_grid(spec: GraphonSpec):
    """Natural grid size k and (k+1)x(k+1) 2-D prefix-sum table of the
    support indicator, for exact cell queries on binary kernels."""
    if spec.kind == KIND_BLOCK:
        return spec.pattern.shape[0], _block_prefix(spec)
    if spec.kind == KIND_CARPET:
        return 3 ** spec.depth, _leaf_prefix(spec)
    raise UnsupportedOperationError("support grid is only defined for binary kernels")


def probe_intersects(spec: GraphonSpec, cell) -> bool:
    """Generic probe rule: nudged corners, center, and an 8x8 interior lattice.

    Sound (a hit implies the cell meets the support) but incomplete; the
    shipped binary kinds never need it because they have exact tests.
    """
    a, b, c, d = _validate_cell(cell)
    b_in = np.nextafter(b, a)
    d_in = np.nextafter(d, c)
    us = [a, a, b_in, b_in, 0.5 * (a + b)]
    vs = [c, d_in, c, d_in, 0.5 * (c + d)]
    frac = (np.arange(8) + 1.0) / 9.0
    gu, gv = np.meshgrid(a + (b - a) * frac, c + (d - c) * frac)
    uu = np.concatenate([np.asarray(us), gu.ravel()])
    vv = np.concatenate([np.asarray(vs), gv.ravel()])
    return bool(np.any(evaluate(spec, uu, vv) > 0.0))


def cell_intersects_support(spec: GraphonSpec, cell) -> bool:
    """Does the half-open rectangle [a,b)x[c,d) meet the support W > 0?

    Exact for the shipped binary kinds (any rectangle, not just grid-aligned
    ones); other binary kinds would fall back to :func:`probe_intersects`.
    """
    if spec.value_class != BINARY:
        raise UnsupportedOperationError(
            "support geometry is only defined for binary kernels"
        )
    a, b, c, d = _validate_cell(cell)
    if spec.kind == KIND_BLOCK:
        k = spec.pattern.shape[0]
        pre = _block_prefix(spec)
    elif spec.kind == KIND_CARPET:
        k = 3 ** spec.depth
        pre = _leaf_prefix(spec)
    else:  # pragma: no cover - no other binary kinds are shipped
        return probe_intersects(spec, cell)
    i0, i1 = _grid_lo(a, k), _grid_hi(b, k)
    j0, j1 = _grid_lo(c, k), _grid_hi(d, k)
    return bool(_prefix_any(pre, i0, i1, j0, j1))


# ---------------------------------------------------------------------------
# Box-counting dimension


class SegmentSet:
    """The horizontal unit segment [0,1] x {0}; box dimension exactly 1."""

    name = "segment"

    def count(self, m: int) -> int:
        return int(m)


class FullSquareSet:
    """The full unit square; N_delta = m^2 exactly."""

    name = "square"

    def count(self, m: int) -> int:
        return int(m) * int(m)


class BlockBoundarySet:
    """Topological support boundary of a block pattern (a union of segments).

    A mesh cell counts iff it contains a point where the closed support and
    the closed complement meet; the segments are enumerated exactly from the
    pattern, with the outside of the unit square treated as complement.
    """

    def __init__(self, spec: GraphonSpec):
        if spec.kind != KIND_BLOCK:
            raise InvalidParameterError("BlockBoundarySet needs a block_pattern kernel")
        pat = spec.pattern
        k = pat.shape[0]
        if int(pat.sum()) == 0:
            raise InvalidParameterError("pattern has empty support")
        self.name = "block-boundary"
        self.k = k
        # Vertical pieces: (t, j) means the segment x = t/k, y in [j/k, (j+1)/k].
        vert = []
        horiz = []
        for t in range(k + 1):
            for j in range(k):
                left = pat[t - 1, j] if t > 0 else 0
                right = pat[t, j] if t < k else 0
                if left != right:
                    vert.append((t, j))
                below = pat[j, t - 1] if t > 0 else 0
                above = pat[j, t] if t < k else 0
                if below != above:
                    horiz.append((j, t))
        self._vert = vert
        self._horiz = horiz

    def count(self, m: int) -> int:
        m = int(m)
        if m > _MAX_MESH:
            raise InvalidParameterError(f"mesh finer than 1/{_MAX_MESH} is not supported")
        k = self.k
        hit = np.zeros((m, m), dtype=bool)
        for t, j in self._vert:
            col = min((t * m) // k, m - 1)
            r0 = (j * m) // k
            r1 = min(((j + 1) * m) // k, m - 1)
            hit[col, r0 : r1 + 1] = True
        for j, t in self._horiz:
            row = min((t * m) // k, m - 1)
            c0 = (j * m) // k
            c1 = min(((j + 1) * m) // k, m - 1)
            hit[c0 : c1 + 1, row] = True
        return int(hit.sum())


class CarpetSet:
    """The ideal (infinite-recursion) triadic carpet for a 3x3 keep-mask.

    The ideal set has empty interior, so it coincides with its own boundary
    for box-counting purposes; at aligned scales 3^-j the count is exactly
    r^j where r is the number of kept subcells.  Finite-depth kernels in the
    catalog are prefractal approximations of this set.
    """

    def __init__(self, mask):
        mask = _locked(mask)
        _check_binary_matrix(mask, "mask")
        if mask.shape != (3, 3):
            raise InvalidParameterError("mask must be 3x3")
        if int(mask.sum()) == 0:
            raise InvalidParameterError("mask has empty support")
        self.name = "carpet"
        self.mask = mask

    def count(self, m: int) -> int:
        m = int(m)
        if m > _MAX_MESH:
            raise InvalidParameterError(f"mesh finer than 1/{_MAX_MESH} is not supported")
        j = round(math.log(m) / math.log(3.0))
        if 3**j == m:
            alive = self.mask.astype(np.uint8)
            for _ in range(j - 1):
                alive = np.kron(alive, self.mask.astype(np.uint8))
            return int(alive.sum())
        # Non-triadic mesh: exact rational descent per cell (slow path).
        if m > 729:
            raise InvalidParameterError("non-triadic meshes are limited to m <= 729")
        total = 0
        for p in range(m):
            for q in range(m):
                if self._rect_hits(p, p + 1, q, q + 1, m):
                    total += 1
        return total

    def _rect_hits(self, a, b, c, d, den, level=0):
        if a >= b or c >= d:
            return False
        if level > 48 or (a <= 0 and b >= den and c <= 0 and d >= den):
            return True
        for su in range(3):
            a2 = max(3 * a - su * den, 0)
            b2 = min(3 * b - su * den, den)
            if a2 >= b2:
                continue
            for sv in range(3):
                if not self.mask[su, sv]:
                    continue
                c2 = max(3 * c - sv * den, 0)
                d2 = min(3 * d - sv * den, den)
                if c2 < d2 and self._rect_hits(a2, b2, c2, d2, den, level + 1):
                    return True
        return False


def support_boundary(spec: GraphonSpec):
    """Boundary descriptor of the support of a binary kernel.

    For block patterns the boundary is the exact union of grid segments.  For
    triadic carpets the descriptor represents the ideal infinite-depth set
    that the finite-depth kernel approximates (the quantity the
    ``nominal_box_dim`` field refers to).
    """
    if spec.value_class != BINARY:
        raise UnsupportedOperationError("support boundary needs a binary kernel")
    if spec.kind == KIND_BLOCK:
        return BlockBoundarySet(spec)
    return CarpetSet(spec.mask)


def default_delta_schedule(point_set) -> list[float]:
    """Mesh schedule aligned with the set's natural scale."""
    if isinstance(point_set, (CarpetSet,)):
        return [3.0**-j for j in range(3, 7)]
    return [2.0**-j for j in range(4, 10)]


def box_counting_dimension(point_set, delta_schedule):
    """Least-squares box-counting dimension of ``point_set``.

    ``point_set`` is any descriptor exposing ``count(m)`` = number of
    (1/m)-mesh cells that intersect the set.  Returns ``(estimate,
    per_delta_counts)`` where the estimate is the LS slope of log N against
    log(1/delta).
    """
    deltas = [float(d) for d in delta_schedule]
    if len(deltas) < 2:
        raise InsufficientDataError("need at least 2 mesh sizes")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise InvalidParameterError("delta schedule must be strictly decreasing")
    ms = []
    for d in deltas:
        m = round(1.0 / d)
        if m < 2 or abs(m * d - 1.0) > 1e-9:
            raise InvalidParameterError(f"delta {d!r} is not 1/m for integer m >= 2")
        ms.append(m)
    counts = [point_set.count(m) for m in ms]
    if any(c <= 0 for c in counts):
        raise LogDomainError("box count is zero at some mesh size; cannot fit a slope")
    slope = np.polyfit(np.log(ms), np.log(counts), 1)[0]
    return float(slope), counts


# ---------------------------------------------------------------------------
# Homomorphism densities


@dataclass(frozen=True)
class Motif:
    """A simple graph pattern: ``vertex_count`` vertices, undirected edges."""

    vertex_count: int
    edges: frozenset

    def __init__(self, vertex_count, edges):
        n = int(vertex_count)
        if n < 1:
            raise InvalidParameterError("motif needs at least one vertex")
        norm = set()
        for e in edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise InvalidParameterError("motif edges may not be self-loops")
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidParameterError("motif edge endpoint out of range")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "vertex_count", n)
        object.__setattr__(self, "edges", frozenset(norm))


EDGE = Motif(2, [(0, 1)])
PATH_3 = Motif(3, [(0, 1), (1, 2)])
TRIANGLE = Motif(3, [(0, 1), (1, 2), (0, 2)])
CYCLE_4 = Motif(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

_MOTIF_LIMIT = 4


def _hom_sum(motif: Motif, mat: np.ndarray) -> tuple[float, int]:
    """Sum over all vertex maps of the edge-weight product, and the number
    of motif vertices that actually appear in an edge."""
    letters = "abcd"
    used = sorted({v for e in motif.edges for v in e})
    if not used:
        return 1.0, 0
    sub = ",".join(letters[used.index(i)] + letters[used.index(j)] for i, j in sorted(motif.edges))
    total = np.einsum(sub + "->", *([mat] * len(motif.edges)), optimize=True)
    return float(total), len(used)


def hom_density_graph(motif: Motif, graph) -> float:
    """Homomorphism density of ``motif`` in a sampled graph.

    Exact enumeration over all n^|V| vertex maps, contracted tensorially.
    """
    if motif.vertex_count > _MOTIF_LIMIT:
        raise ComplexityGuardError(
            f"motif has {motif.vertex_count} vertices; exact enumeration is "
            f"limited to {_MOTIF_LIMIT}"
        )
    n = graph.n
    total, used = _hom_sum(motif, graph.adjacency)
    return total / float(n) ** used


def _kernel_on_midgrid(kernel, m: int) -> np.ndarray:
    mids = (np.arange(m) + 0.5) / m
    if isinstance(kernel, GraphonSpec):
        return evaluate(kernel, mids[:, None], mids[None, :])
    if getattr(kernel, "kernel", False):
        idx = np.searchsorted(kernel.breakpoints, mids, side="right") - 1
        idx = np.clip(idx, 0, kernel.values.shape[0] - 1)
        return kernel.values[np.ix_(idx, idx)]
    raise InvalidParameterError(
        "kernel must be a GraphonSpec or a piecewise-constant kernel function"
    )


def hom_density_graphon(motif: Motif, kernel, grid: int) -> float:
    """Homomorphism density of ``motif`` in a kernel, by midpoint quadrature.

    ``kernel`` may be a :class:`GraphonSpec` or a piecewise-constant kernel
    (e.g. an induced representation of a graph); in the latter case the
    result is exact whenever the partition size divides ``grid``.
    """
    if motif.vertex_count > _MOTIF_LIMIT:
        raise ComplexityGuardError(
            f"motif has {motif.vertex_count} vertices; exact enumeration is "
            f"limited to {_MOTIF_LIMIT}"
        )
    m = int(grid)
    if m < 1:
        raise InvalidParameterError("grid must be a positive integer")
    total, used = _hom_sum(motif, _kernel_on_midgrid(kernel, m))
    return total / float(m) ** used


# ---------------------------------------------------------------------------
# Kernel distances (upper-bound surrogates for the cut norm)


def overlay_partition(bp_a, bp_b):
    """Merged partition of two breakpoint arrays on [0,1]: (ia, ib, widths).

    Cell c of the merged partition has width widths[c] and lies inside
    cell ia[c] of ``bp_a`` and cell ib[c] of ``bp_b``.
    """
    merged = np.union1d(bp_a, bp_b)
    mids = 0.5 * (merged[:-1] + merged[1:])
    ia = np.clip(np.searchsorted(bp_a, mids, side="right") - 1, 0, bp_a.size - 2)
    ib = np.clip(np.searchsorted(bp_b, mids, side="right") - 1, 0, bp_b.size - 2)
    return ia, ib, np.diff(merged)


def _overlay_kernel_diff(ka, kb):
    ia, ib, widths = overlay_partition(ka.breakpoints, kb.breakpoints)
    diff = ka.values[np.ix_(ia, ia)] - kb.values[np.ix_(ib, ib)]
    return diff, widths


def kernel_distance(kernel_a, kernel_b, norm: str = "L2", grid: int = 256) -> float:
    """L1 or L2 distance between two kernels on [0,1]^2.

    Exact (overlay partition) when both arguments are piecewise constant;
    midpoint quadrature on a ``grid`` x ``grid`` mesh otherwise.  Both norms
    upper-bound the cut norm: ||.||_cut <= ||.||_L1 <= ||.||_L2.
    """
    if norm not in ("L1", "L2"):
        raise InvalidParameterError("norm must be 'L1' or 'L2'")
    a_pwc = getattr(kernel_a, "kernel", False)
    b_pwc = getattr(kernel_b, "kernel", False)
    if a_pwc and b_pwc:
        diff, w = _overlay_kernel_diff(kernel_a, kernel_b)
        if norm == "L1":
            return float(w @ np.abs(diff) @ w)
        return float(math.sqrt(w @ (diff * diff) @ w))
    m = int(grid)
    if m < 1:
        raise InvalidParameterError("grid must be a positive integer")
    diff = _kernel_on_midgrid(kernel_a, m) - _kernel_on_midgrid(kernel_b, m)
    if norm == "L1":
        return float(np.mean(np.abs(diff)))
    return float(math.sqrt(np.mean(diff * diff)))


# ---------------------------------------------------------------------------
# Plain-text serialization


def spec_to_text(spec: GraphonSpec) -> str:
    """Serialize a kernel spec to the flat key=value config format."""
    lines = [f"kind={spec.kind}"]
    if spec.kind == KIND_TENT:
        lines.append(f"alpha={spec.alpha!r}")
    elif spec.kind == KIND_OSCILLATORY:
        lines.append(f"frequency={spec.frequency}")
    elif spec.kind == KIND_BLOCK:
        rows = ";".join("".join(str(int(x)) for x in row) for row in spec.pattern)
        lines.append(f"pattern={rows}")
    else:
        rows = ";".join("".join(str(int(x)) for x in row) for row in spec.mask)
        lines.append(f"mask={rows}")
        lines.append(f"depth={spec.depth}")
    return "\n".join(lines) + "\n"


def spec_from_text(text: str) -> GraphonSpec:
    """Inverse of :func:`spec_to_text`."""
    fields = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParameterError(f"bad spec line {line!r}")
        key, val = line.split("=", 1)
        fields[key.strip()] = val.strip()
    kind = fields.get("kind")
    if kind == KIND_TENT:
        return tent(alpha=float(fields["alpha"]))
    if kind == KIND_OSCILLATORY:
        return oscillatory(frequency=int(fields["frequency"]))
    if kind in (KIND_BLOCK, KIND_CARPET):
        key = "pattern" if kind == KIND_BLOCK else "mask"
        try:
            rows = [[int(ch) for ch in row] for row in fields[key].split(";")]
        except (KeyError, ValueError) as exc:
            raise InvalidParameterError(f"bad {key} rows in spec text") from exc
        mat = np.asarray(rows, dtype=np.int8)
        if kind == KIND_BLOCK:
            return block_pattern(mat)
        return triadic_carpet(mat, depth=int(fields["depth"]))
    raise InvalidParameterError(f"unknown kernel kind {kind!r} in spec text")
