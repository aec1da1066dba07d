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
import numbers
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
_MAX_CARPET_DEPTH = 9  # 3^9 leaves per side: a 387 MB boolean support pattern
_MAX_PATTERN_SIDE = 3**_MAX_CARPET_DEPTH  # widest hsbm or checkerboard pattern

#: The kernel kind each ``GraphonSpec`` parameter belongs to.
_KIND_OF_PARAM = {"alpha": KIND_TENT, "frequency": KIND_OSCILLATORY, "pattern": KIND_BLOCK,
                  "mask": KIND_CARPET, "depth": KIND_CARPET}


def _positive_int(value, message):
    """``value`` as an int when it is a whole number >= 1: 2.0 becomes 2,
    while 2.5, NaN, a string or None is refused, not truncated."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError(message) from None
    if whole != value or whole < 1:
        raise InvalidParameterError(message)
    return whole


@dataclass(frozen=True, eq=False)
class GraphonSpec:
    """Immutable description of one analytic kernel.

    The fields are the defining inputs: ``kind`` selects the closed form,
    the others are kind-specific (``alpha`` for tent, ``frequency`` for
    oscillatory, ``pattern`` for block patterns, ``mask``/``depth`` for
    triadic carpets) and refused on another kind.  A pattern or mask of any
    dtype is checked to be square, symmetric and exactly 0/1, then kept as
    a read-only int8 array.  ``value_class``, ``holder_meta`` and
    ``nominal_box_dim`` are read-only properties derived from the fields.
    """

    kind: str
    alpha: float | None = None
    frequency: int | None = None
    pattern: np.ndarray | None = None
    mask: np.ndarray | None = None
    depth: int | None = None

    def __post_init__(self):
        if self.kind not in _KIND_OF_PARAM.values():
            raise InvalidParameterError(f"unknown kernel kind {self.kind!r}")
        for name, kind in _KIND_OF_PARAM.items():
            if getattr(self, name) is not None and kind != self.kind:
                raise InvalidParameterError(f"{name} does not apply to kernel kind {self.kind!r}")
        if self.kind == KIND_TENT:
            if not isinstance(self.alpha, numbers.Real) or not (0.0 < self.alpha <= 1.0):
                raise InvalidParameterError("tent exponent alpha must be in (0, 1]")
            object.__setattr__(self, "alpha", float(self.alpha))
        elif self.kind == KIND_OSCILLATORY:
            object.__setattr__(self, "frequency", _positive_int(
                self.frequency, "oscillation frequency must be a positive integer"))
        elif self.kind == KIND_BLOCK:
            object.__setattr__(self, "pattern", _binary_locked(self.pattern, "pattern"))
        else:  # KIND_CARPET
            object.__setattr__(self, "mask", _binary_locked(self.mask, "mask"))
            if self.mask.shape != (3, 3):
                raise InvalidParameterError("carpet mask must be 3x3")
            object.__setattr__(self, "depth", _positive_int(
                self.depth, "carpet depth must be a positive integer"))

    @property
    def value_class(self) -> str:
        return WEIGHTED if self.kind in (KIND_TENT, KIND_OSCILLATORY) else BINARY

    @property
    def holder_meta(self) -> tuple[float, float] | None:
        """(A1, alpha) with |W(u2,v2)-W(u1,v1)| <= A1*(|du|+|dv|)^alpha, for
        the weighted kinds."""
        if self.kind == KIND_TENT:
            return 1.0, self.alpha
        if self.kind == KIND_OSCILLATORY:
            return self.frequency * math.pi / 2.0, 1.0
        return None

    @property
    def nominal_box_dim(self) -> float | None:
        """Box dimension of a binary kernel's support boundary: 1 for a block
        pattern, log r / log 3 for a carpet keeping r subcells."""
        if self.kind == KIND_BLOCK:
            return 1.0
        if self.kind != KIND_CARPET:
            return None
        r = int(self.mask.sum())
        dim = math.log(r) / math.log(3.0) if r > 0 else 0.0
        # degenerate masks (r < 3 or r = 9) have no fractal boundary
        return dim if 1.0 <= dim < 2.0 else None


_CHECK_TILE = 128  # rows per block, and tile side, of the symmetry and pattern checks


def _mirror_tiles_equal(mat, i):
    """Whether the ``_CHECK_TILE`` rows of the square ``mat`` from row ``i``
    equal, tile by tile left of and on the diagonal, the transpose of their
    mirror tiles.

    Over the row blocks i = 0, t, 2t, ... every entry meets its mirror once,
    so together they give the verdict of ``np.array_equal(mat, mat.T)``
    (NaN is unequal to itself, -0.0 equals 0.0).  Only a tile at a time is
    read across the rows, so a power-of-two row stride does not thrash the
    cache, and no mask of more than one tile is formed.
    """
    t = _CHECK_TILE
    rows = mat[i : i + t]
    return all(np.array_equal(rows[:, j : j + t], mat[j : j + t, i : i + t].T)
               for j in range(0, i + 1, t))


def is_symmetric(mat) -> bool:
    """``mat == mat.T`` exactly, for a square 2-D array, one row block at a time."""
    return all(_mirror_tiles_equal(mat, i) for i in range(0, mat.shape[0], _CHECK_TILE))


def _binary_locked(mat, name):
    """Read-only int8 copy of a square symmetric matrix of exact 0s and 1s.

    The entries are checked in the caller's dtype before the cast, so 1.9,
    257 or NaN is refused rather than truncated or wrapped to an int8 1.
    One pass over blocks of ``_CHECK_TILE`` rows checks each block's
    entries, then its mirror tiles (``_mirror_tiles_equal``), whose entries
    are already checked.  The check holds two boolean masks of one row
    block, not of the whole matrix.
    """
    if mat is None:
        raise InvalidParameterError(f"{name} matrix is required")
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise InvalidParameterError(f"{name} must be a square matrix")
    for i in range(0, mat.shape[0], _CHECK_TILE):
        rows = mat[i : i + _CHECK_TILE]
        binary = rows == 0
        binary |= rows == 1
        if not binary.all():
            raise InvalidParameterError(f"{name} entries must be 0 or 1")
        if not _mirror_tiles_equal(mat, i):
            raise InvalidParameterError(f"{name} must be symmetric")
    return locked_array(mat, np.int8)


def locked_array(arr, dtype=np.float64):
    """``arr`` as a read-only C-contiguous ``dtype`` array.

    An argument that already is one is not copied, so the caller's own
    array is the one locked; a value object built on it locks it too."""
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.flags.writeable = False
    return out


def tent(alpha: float = 1.0) -> GraphonSpec:
    """W(u,v) = 1 - |u-v|^alpha; Hoelder with constant A1 = 1 and exponent alpha."""
    return GraphonSpec(KIND_TENT, alpha=alpha)


def oscillatory(frequency: int = 20) -> GraphonSpec:
    """W(u,v) = (1 + sin(f*pi*u) sin(f*pi*v)) / 2, Lipschitz with A1 = f*pi/2."""
    return GraphonSpec(KIND_OSCILLATORY, frequency=frequency)


def _refuse_wide_pattern(name: str, side: str):
    """A generated block pattern wider than the deepest carpet's support pattern."""
    raise ComplexityGuardError(
        f"{name} pattern side {side} exceeds the support-pattern limit of "
        f"{_MAX_PATTERN_SIDE} (3^{_MAX_CARPET_DEPTH}) cells per side"
    )


def block_pattern(pattern) -> GraphonSpec:
    """Binary kernel constant on a k x k grid: W(u,v) = pattern[floor(ku), floor(kv)]."""
    return GraphonSpec(KIND_BLOCK, pattern=pattern)


def hsbm(levels: int = 3) -> GraphonSpec:
    """Hierarchical block pattern: ``levels`` Kronecker refinements of the 2x2 identity."""
    levels = _positive_int(levels, "hsbm levels must be a positive integer")
    if levels > math.log2(_MAX_PATTERN_SIDE):
        _refuse_wide_pattern("hsbm", f"2^{levels}")
    base = np.eye(2, dtype=np.int8)
    pat = base
    for _ in range(levels - 1):
        pat = np.kron(pat, base)
    return block_pattern(pat)


def checkerboard(cells: int = 10) -> GraphonSpec:
    """Binary parity pattern: W(u,v) = 1 iff floor(ku) + floor(kv) is even."""
    k = _positive_int(cells, "checkerboard cells must be a positive integer")
    if k > _MAX_PATTERN_SIDE:
        _refuse_wide_pattern("checkerboard", str(k))
    parity = (np.arange(k) % 2).astype(np.int8)
    pat = parity[:, None] ^ parity[None, :]  # one k x k int8 array, no int64 sum
    pat ^= 1
    return block_pattern(pat)


def triadic_carpet(mask, depth: int) -> GraphonSpec:
    """Prefractal carpet: recurse ``depth`` levels on a symmetric 3x3 keep-mask."""
    return GraphonSpec(KIND_CARPET, mask=mask, depth=depth)


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
        "tent": lambda: tent(alpha=overrides.pop("alpha", 1.0)),
        "holder-tent": lambda: tent(alpha=overrides.pop("alpha", 0.5)),
        "oscillatory": lambda: oscillatory(frequency=overrides.pop("frequency", 20)),
        "hsbm": lambda: hsbm(levels=overrides.pop("levels", 3)),
        "checkerboard": lambda: checkerboard(cells=overrides.pop("cells", 10)),
        "hexaflake": lambda: hexaflake(depth=overrides.pop("depth", HEXAFLAKE_DEFAULT_DEPTH)),
        "sierpinski": lambda: sierpinski(depth=overrides.pop("depth", SIERPINSKI_DEFAULT_DEPTH)),
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
    written in terms of symmetric primitives.  A pair of scalars or 0-d
    arrays returns a float with the bits the same pair gets inside arrays.
    """
    uu = _as_domain_array(u, "u")
    vv = _as_domain_array(v, "v")
    # a point runs as a 1-element array: numpy's scalar power rounds
    # differently from its array loop
    point = uu.ndim == vv.ndim == 0
    if point:
        uu, vv = uu.reshape(1), vv.reshape(1)
    if spec.kind == KIND_TENT:
        out = uu - vv  # a new array, worked on in place
        np.abs(out, out=out)
        out **= spec.alpha  # not np.power: keeps the sqrt fast path
        np.subtract(1.0, out, out=out)
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
    return float(out[0]) if point else out


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


@lru_cache(maxsize=8)
def support_pattern(spec: GraphonSpec) -> np.ndarray:
    """Read-only k x k boolean support indicator of a binary kernel.

    Entry [i, j] is W on the grid cell [i/k, (i+1)/k) x [j/k, (j+1)/k): the
    block pattern itself, or the 3^depth x 3^depth leaves of a carpet.  A
    carpet is built level by level: level d + 1 is a zeroed (3s, 3s) array
    with a copy of level d (side s) in each block (a, b) that the mask
    keeps, one slice assignment per block.  That is kron(mask, level d), so
    level d is the d-fold Kronecker power of the mask.
    """
    if spec.kind == KIND_BLOCK:
        return locked_array(spec.pattern, bool)
    if spec.kind != KIND_CARPET:
        raise UnsupportedOperationError(
            "support pattern is only defined for block and carpet kernels"
        )
    if spec.depth > _MAX_CARPET_DEPTH:
        raise ComplexityGuardError(
            f"carpet depth {spec.depth} exceeds the support-pattern limit of "
            f"{_MAX_CARPET_DEPTH} (3^{_MAX_CARPET_DEPTH} leaves per side)"
        )
    mask = spec.mask.astype(bool)
    kept = np.argwhere(mask)
    pattern = mask
    for _ in range(spec.depth - 1):
        s = pattern.shape[0]
        level = np.zeros((3 * s, 3 * s), dtype=bool)
        for a, b in kept:
            level[a * s : (a + 1) * s, b * s : (b + 1) * s] = pattern
        pattern = level
    return locked_array(pattern, bool)


def cell_intersects_support(spec: GraphonSpec, cell) -> bool:
    """Does the half-open rectangle [a,b)x[c,d) meet the support W > 0?

    Exact for any rectangle, not just grid-aligned ones: the rectangle meets
    the support iff one of the grid cells it touches in
    :func:`support_pattern` does.  A binary kernel without a support pattern
    raises :class:`UnsupportedOperationError`.
    """
    if spec.value_class != BINARY:
        raise UnsupportedOperationError(
            "support geometry is only defined for binary kernels"
        )
    a, b, c, d = _validate_cell(cell)
    pattern = support_pattern(spec)
    k = pattern.shape[0]
    i0, i1 = _grid_lo(a, k), _grid_hi(b, k)
    j0, j1 = _grid_lo(c, k), _grid_hi(d, k)
    return bool(pattern[i0 : i1 + 1, j0 : j1 + 1].any())


# ---------------------------------------------------------------------------
# Box-counting dimension


def _mesh(m, finest=_MAX_MESH) -> int:
    """The mesh count m of a 1/m box count, refused below 1 or above ``finest``."""
    m = int(m)
    if m < 1:
        raise InvalidParameterError(f"mesh count must be >= 1, got {m}")
    if finest is not None and m > finest:
        raise InvalidParameterError(f"mesh finer than 1/{finest} is not supported")
    return m


class SegmentSet:
    """The horizontal unit segment [0,1] x {0}; box dimension exactly 1."""

    def count(self, m: int) -> int:
        return _mesh(m, finest=None)


class FullSquareSet:
    """The full unit square; N_delta = m^2 exactly."""

    def count(self, m: int) -> int:
        m = _mesh(m, finest=None)
        return m * m


class BlockBoundarySet:
    """Topological support boundary of a block pattern (a union of segments).

    A mesh cell counts iff it contains a point where the closed support and
    the closed complement meet, the outside of the unit square being
    complement.  ``horizontal[j, t]`` says that the segment y = t/k,
    x in [j/k, (j+1)/k] separates support from complement: columns 0 and k
    are the pattern's first and last columns, the interior columns are where
    adjacent pattern columns differ.  The vertical segments are
    ``horizontal.T``, because a block pattern is symmetric
    (:class:`GraphonSpec` refuses one that is not), so a count marks the
    mesh cells of the horizontal segments and adds their transpose.  The
    segments of one grid line are a column of the array, so a count reduces
    along each row of the pattern in memory order.
    """

    def __init__(self, spec: GraphonSpec):
        if spec.kind != KIND_BLOCK:
            raise InvalidParameterError("BlockBoundarySet needs a block_pattern kernel")
        pat = spec.pattern.view(bool)  # the int8 0/1 pattern, not copied
        if not pat.any():
            raise InvalidParameterError("pattern has empty support")
        k = pat.shape[0]
        horizontal = np.empty((k, k + 1), dtype=bool)
        horizontal[:, 0] = pat[:, 0]
        horizontal[:, k] = pat[:, k - 1]
        np.not_equal(pat[:, 1:], pat[:, :-1], out=horizontal[:, 1:k])
        self.k = k
        self.horizontal = horizontal

    def count(self, m: int) -> int:
        m = _mesh(m)
        k = self.k
        t = np.arange(k + 1)
        # Grid line y = t/k lies in mesh row row[t]; segment j spans mesh
        # columns c0[j]..c1[j].  All three are non-decreasing.
        row = np.minimum(t * m // k, m - 1)
        c0 = t[:-1] * m // k
        c1 = np.minimum(t[1:] * m // k, m - 1)
        starts = np.flatnonzero(np.diff(row, prepend=-1))
        in_row = np.logical_or.reduceat(self.horizontal, starts, axis=1)
        # The segments that reach mesh column c are lo[c] <= j < hi[c]; a mesh
        # row marks c iff its running segment count grows over that range.
        cols = np.arange(m)
        lo = np.searchsorted(c1, cols, side="left")
        hi = np.searchsorted(c0, cols, side="right")
        running = np.zeros((k + 1, starts.size), dtype=np.intp)
        np.cumsum(in_row, axis=0, out=running[1:])
        hit = np.zeros((m, m), dtype=bool)  # [mesh column, mesh row]
        hit[:, row[starts]] = running[hi] > running[lo]
        return int((hit | hit.T).sum())


class CarpetSet:
    """The ideal (infinite-recursion) triadic carpet for a 3x3 keep-mask.

    The ideal set has empty interior, so it coincides with its own boundary
    for box-counting purposes; at aligned scales 3^-j the count is exactly
    r^j where r is the number of kept subcells.  It is counted on those
    triadic meshes only: ``count(m)`` refuses an m that is not a power of 3
    with InvalidParameterError.  Finite-depth kernels in the catalog are
    prefractal approximations of this set.
    """

    def __init__(self, mask):
        mask = _binary_locked(mask, "mask")
        if mask.shape != (3, 3):
            raise InvalidParameterError("mask must be 3x3")
        if int(mask.sum()) == 0:
            raise InvalidParameterError("mask has empty support")
        self.mask = mask

    def count(self, m: int) -> int:
        m = _mesh(m)
        j = round(math.log(m) / math.log(3.0))
        if 3**j == m:
            return int(self.mask.sum()) ** j
        raise InvalidParameterError(
            f"a carpet is box-counted on triadic meshes only (delta = 1/3^j), got 1/{m}")


def support_boundary(spec: GraphonSpec):
    """Boundary descriptor of the support of a binary kernel.

    For block patterns the boundary is the exact union of grid segments.  For
    triadic carpets the descriptor represents the ideal infinite-depth set
    that the finite-depth kernel approximates (the quantity the
    ``nominal_box_dim`` property refers to).
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
    (1/m)-mesh cells that intersect the set.  A ``CarpetSet`` counts only
    triadic meshes, so its schedule holds deltas 1/3^j alone (as
    ``default_delta_schedule`` gives).  Returns ``(estimate,
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
    cell ia[c] of ``bp_a`` and cell ib[c] of ``bp_b``.  The merged cells
    run left to right, so ``ia`` and ``ib`` are non-decreasing: each is its
    cell indices repeated by their ``np.bincount`` run lengths.

    A merged cell is looked up by its left end, an exact breakpoint, not by
    its midpoint, which rounds onto the right end when the cell is one ulp
    wide.  The merge is a sort and a neighbour mask (``np.union1d`` would
    import ``numpy.ma`` through ``np.unique``).
    """
    merged = np.sort(np.concatenate((bp_a, bp_b), axis=None))
    merged = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
    left = merged[:-1]
    ia = np.clip(np.searchsorted(bp_a, left, side="right") - 1, 0, bp_a.size - 2)
    ib = np.clip(np.searchsorted(bp_b, left, side="right") - 1, 0, bp_b.size - 2)
    return ia, ib, np.diff(merged)


def uniform_breakpoints(n: int) -> np.ndarray:
    """Breakpoints i/n, i = 0..n, of the uniform n-partition I_0..I_{n-1}."""
    return np.arange(n + 1, dtype=np.float64) / n


_DIST_ROWS = 32  # overlay rows per block of the streamed kernel distance


def _overlay_sums(a, gas, b, gb, w, norm):
    """For each index vector ``ga`` in ``gas``: the sum over overlay cells
    (r, c) of w_r w_c |a[ga_r, ga_c] - b[gb_r, gb_c]|^p, p = 1 (L1) or 2
    (L2), in a fixed order with no (N, N) array.

    The overlay rows are taken ``_DIST_ROWS`` at a time.  Each block of
    ``b`` is gathered once and shared by every ``ga``; for each ``ga`` the
    block of ``a`` is gathered, differenced, raised to the power in place
    and weighted by the column widths, and numpy's pairwise sum along each
    row gives that row's total.  ``math.fsum`` adds each ``ga``'s
    width-weighted row totals exactly rounded.  No BLAS call is made, so
    the bits depend neither on the BLAS thread count, nor on the block
    size, nor on which other index vectors share the call; equal terms
    give exactly 0.0.
    """
    rows = [np.empty(gb.size) for _ in gas]
    for lo in range(0, gb.size, _DIST_ROWS):
        r = slice(lo, lo + _DIST_ROWS)
        bb = b[gb[r]].take(gb, axis=1)
        for ga, out in zip(gas, rows):
            d = a[ga[r]].take(ga, axis=1)
            d -= bb
            if norm == "L1":
                np.abs(d, out=d)
            else:
                d *= d
            d *= w
            out[r] = d.sum(axis=1)
    return [math.fsum((out * w).tolist()) for out in rows]


def _overlay_sum(ka, kb, norm):
    """:func:`_overlay_sums` of two step kernels on the overlay of their
    partitions."""
    ia, ib, w = overlay_partition(ka.breakpoints, kb.breakpoints)
    return _overlay_sums(ka.values, [ia], kb.values, ib, w, norm)[0]


def kernel_distance(kernel_a, kernel_b, norm: str = "L2", grid: int = 256) -> float:
    """L1 or L2 distance between two kernels on [0,1]^2.

    Exact (overlay partition) when both arguments are piecewise constant,
    summed in a fixed order row block by row block (:func:`_overlay_sums`),
    so the result does not depend on the BLAS thread count; midpoint
    quadrature on a ``grid`` x ``grid`` mesh otherwise.  Both norms
    upper-bound the cut norm: ||.||_cut <= ||.||_L1 <= ||.||_L2.  For
    induced subgraphs of one graph, :func:`subgraph_distances` gives the
    same L2 bits without cutting the subgraphs out.
    """
    if norm not in ("L1", "L2"):
        raise InvalidParameterError("norm must be 'L1' or 'L2'")
    a_pwc = getattr(kernel_a, "kernel", False)
    b_pwc = getattr(kernel_b, "kernel", False)
    if a_pwc and b_pwc:
        total = _overlay_sum(kernel_a, kernel_b, norm)
        return total if norm == "L1" else math.sqrt(total)
    m = int(grid)
    if m < 1:
        raise InvalidParameterError("grid must be a positive integer")
    diff = _kernel_on_midgrid(kernel_a, m) - _kernel_on_midgrid(kernel_b, m)
    if norm == "L1":
        return float(np.mean(np.abs(diff)))
    return float(math.sqrt(np.mean(diff * diff)))


def subgraph_distances(adjacency, node_sets) -> list[float]:
    """L2 distance from each induced k-node subgraph's step kernel to the
    whole graph's, one float per node set.

    ``adjacency`` is the n x n adjacency and ``node_sets`` holds index
    vectors of one length k >= 1.  Entry t is bit for bit
    ``kernel_distance(K_t, K)``, where K_t is the step kernel of
    ``adjacency[np.ix_(nodes_t, nodes_t)]`` on the uniform k-partition and
    K that of ``adjacency`` on the uniform n-partition: the overlay of the
    two partitions depends only on k, so each term reads the subgraph's
    entry straight from ``adjacency`` through ``nodes_t``, and the rows of
    K are gathered once per block for all node sets.  No k x k or k x n
    array is formed.
    """
    adjacency = np.asarray(adjacency)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1] or adjacency.shape[0] < 1:
        raise InvalidParameterError("adjacency must be a square matrix")
    n = adjacency.shape[0]
    sets = [np.asarray(nodes) for nodes in node_sets]
    if not sets:
        return []
    k = sets[0].size
    for nodes in sets:
        if nodes.ndim != 1 or nodes.size != k or k < 1:
            raise InvalidParameterError("node sets must be non-empty 1-D index vectors of one length")
        if nodes.dtype.kind not in "iu" or nodes.min() < 0 or nodes.max() >= n:
            raise InvalidParameterError(f"node indices must be integers in [0, {n})")
    ia, ib, w = overlay_partition(uniform_breakpoints(k), uniform_breakpoints(n))
    totals = _overlay_sums(adjacency, [nodes[ia] for nodes in sets], adjacency, ib, w, "L2")
    return [math.sqrt(total) for total in totals]
