"""Kernel catalog: closed forms, support geometry, box counting, motifs."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnde import catalog as cat
from gnde.errors import (
    ComplexityGuardError,
    InsufficientDataError,
    InvalidParameterError,
    UnsupportedOperationError,
)
from gnde.sampling import (
    FeatureMatrix,
    PiecewiseConstantFunction,
    SampledGraph,
    induce_features,
    induce_kernel,
    sample_unweighted,
    sample_weighted,
)


def test_catalog_names_build():
    assert len(cat.CATALOG_NAMES) == 7
    for name in cat.CATALOG_NAMES:
        spec = cat.from_name(name)
        assert spec.value_class in ("weighted", "binary")


def test_tent_point_values():
    spec = cat.tent()
    assert cat.evaluate(spec, 0.0, 0.0) == 1.0
    assert cat.evaluate(spec, 0.0, 1.0) == 0.0
    assert cat.evaluate(spec, 0.3, 0.7) == pytest.approx(0.6, abs=1e-15)
    half = cat.tent(alpha=0.5)
    assert cat.evaluate(half, 0.1, 0.5) == pytest.approx(1.0 - math.sqrt(0.4), abs=1e-15)
    assert half.holder_meta == (1.0, 0.5)


def _tent_reference(alpha, u, v):
    """The tent out of place on arrays, 1 - |u - v|**alpha; a point (scalars
    or 0-d arrays) as 1-element arrays, returned as a float."""
    uu, vv = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    if uu.ndim == vv.ndim == 0:
        return float(_tent_reference(alpha, uu.reshape(1), vv.reshape(1))[0])
    return 1.0 - np.abs(uu - vv) ** alpha


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.3])
def test_tent_in_place_matches_reference_bits(alpha):
    # evaluate builds the tent in one array in place; the bits are those of
    # the out-of-place closed form, and a point gives a float
    spec = cat.tent(alpha)
    rng = np.random.default_rng(13)
    u, v = rng.random(500), rng.random(500)
    pairs = [(u, v), (u[:, None], v[None, :]), (np.asarray(0.25), np.asarray(0.7))]
    for n in (7, 48, 192, 768, 2048):
        grid = np.arange(n, dtype=np.float64) / n
        pairs.append((grid[:, None], grid[None, :]))
    for a, b in pairs:
        got, want = cat.evaluate(spec, a, b), _tent_reference(alpha, a, b)
        assert type(got) is type(want)
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))
    for a, b in [(0.0, 0.0), (0.0, 1.0), (0.3, 0.7), *zip(u[:100].tolist(), v[:100].tolist())]:
        got = cat.evaluate(spec, a, b)
        assert type(got) is float
        assert np.float64(got).view(np.int64) == np.float64(
            _tent_reference(alpha, a, b)).view(np.int64)


def test_oscillatory_point_values():
    spec = cat.oscillatory(frequency=2)
    # sin(pi/2)^2 = 1 and sin(pi/2)*sin(3pi/2) = -1
    assert cat.evaluate(spec, 0.25, 0.25) == pytest.approx(1.0, abs=1e-15)
    assert cat.evaluate(spec, 0.25, 0.75) == pytest.approx(0.0, abs=1e-15)
    assert cat.evaluate(spec, 0.0, 0.37) == pytest.approx(0.5, abs=1e-15)
    assert spec.holder_meta == (math.pi, 1.0)


def test_checkerboard_and_hsbm_cells():
    cb = cat.checkerboard(cells=2)
    assert cat.evaluate(cb, 0.25, 0.25) == 1.0
    assert cat.evaluate(cb, 0.25, 0.75) == 0.0
    assert cat.evaluate(cb, 0.75, 0.75) == 1.0
    # u = 1.0 clamps into the last cell instead of indexing out of range
    assert cat.evaluate(cb, 1.0, 1.0) == 1.0
    hs = cat.hsbm(levels=3)
    assert np.array_equal(hs.pattern, np.eye(8, dtype=np.int8))
    assert cat.evaluate(hs, 0.05, 0.1) == 1.0
    assert cat.evaluate(hs, 0.05, 0.2) == 0.0


def test_carpet_point_values():
    sp1 = cat.sierpinski(depth=1)
    assert cat.evaluate(sp1, 0.5, 0.5) == 0.0
    assert cat.evaluate(sp1, 0.1, 0.1) == 1.0
    sp2 = cat.sierpinski(depth=2)
    # kept at level 1 (cell (0,0)) but center of that cell is dropped at level 2
    assert cat.evaluate(sp2, 0.5 / 3.0, 0.5 / 3.0) == 0.0
    assert cat.evaluate(sp2, 0.1 / 3.0, 0.1 / 3.0) == 1.0


def test_evaluate_symmetry_and_range():
    rng = np.random.default_rng(7)
    for name in cat.CATALOG_NAMES:
        spec = cat.from_name(name)
        u = rng.random(200)
        v = rng.random(200)
        a = cat.evaluate(spec, u, v)
        b = cat.evaluate(spec, v, u)
        assert np.array_equal(a, b), name
        assert a.min() >= 0.0 and a.max() <= 1.0, name


@settings(max_examples=150, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(0.3, 0.6137916910471019, 0.01791347207176852)
def test_evaluate_point_has_its_array_bits(alpha, u, v):
    # a pair gives the same float whether it comes as scalars, 0-d arrays or
    # array entries (numpy's scalar power rounds unlike its array loop)
    for spec in [cat.tent(alpha)] + [cat.from_name(name) for name in cat.CATALOG_NAMES]:
        entry = cat.evaluate(spec, np.array([0.25, u, 1.0]), np.array([0.5, v, 0.0]))[1]
        for pair in ((u, v), (np.array(u), np.array(v)), (np.float64(u), v)):
            got = cat.evaluate(spec, *pair)
            assert type(got) is float, spec.kind
            assert np.float64(got).tobytes() == entry.tobytes(), (spec.kind, pair)


def test_evaluate_domain_check():
    with pytest.raises(InvalidParameterError):
        cat.evaluate(cat.tent(), -0.1, 0.5)
    with pytest.raises(InvalidParameterError):
        cat.evaluate(cat.tent(), 0.5, np.array([0.2, 1.3]))


def test_from_name_overrides():
    assert cat.from_name("tent", alpha=0.5).alpha == 0.5
    assert cat.from_name("holder-tent").alpha == 0.5
    assert cat.from_name("checkerboard", cells=4).pattern.shape == (4, 4)
    assert cat.from_name("hexaflake").depth == cat.HEXAFLAKE_DEFAULT_DEPTH
    with pytest.raises(InvalidParameterError):
        cat.from_name("doughnut")
    with pytest.raises(InvalidParameterError):
        cat.from_name("tent", cells=3)


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        cat.tent(alpha=0.0)
    with pytest.raises(InvalidParameterError):
        cat.tent(alpha=1.5)
    with pytest.raises(InvalidParameterError):
        cat.oscillatory(frequency=0)
    with pytest.raises(InvalidParameterError):
        cat.checkerboard(cells=0)
    with pytest.raises(InvalidParameterError):
        cat.block_pattern(np.array([[0, 1], [0, 0]]))  # not symmetric
    with pytest.raises(InvalidParameterError):
        cat.triadic_carpet(np.ones((2, 2), dtype=np.int8), depth=2)
    # a non-integral frequency or depth is refused, not truncated
    for bad in (2.5, 0.5, math.nan, math.inf, "3", None):
        with pytest.raises(InvalidParameterError, match="frequency must be a positive integer"):
            cat.oscillatory(frequency=bad)
        with pytest.raises(InvalidParameterError, match="depth must be a positive integer"):
            cat.sierpinski(depth=bad)
    assert cat.oscillatory(frequency=np.int64(3)).frequency == 3
    assert type(cat.sierpinski(depth=np.float64(2.0)).depth) is int
    # the factories and from_name pass their parameters to the same checks,
    # uncast, so nothing is truncated or cast on the way
    refused = [
        (lambda: cat.from_name("oscillatory", frequency=2.5), "frequency must be a positive"),
        (lambda: cat.from_name("sierpinski", depth=2.7), "depth must be a positive"),
        (lambda: cat.from_name("hsbm", levels=2.5), "levels must be a positive"),
        (lambda: cat.hsbm("3"), "levels must be a positive"),
        (lambda: cat.hsbm(0), "levels must be a positive"),
        (lambda: cat.checkerboard(math.nan), "cells must be a positive"),
        (lambda: cat.tent("x"), "alpha must be in"),
        (lambda: cat.GraphonSpec("moebius"), "unknown kernel kind"),
        (lambda: cat.block_pattern(None), "pattern matrix is required"),
        (lambda: cat.block_pattern(np.ones((2, 3))), "pattern must be a square matrix"),
    ]
    for build, message in refused:
        with pytest.raises(InvalidParameterError, match=message):
            build()
    assert cat.from_name("hsbm", levels=2.0).pattern.shape == (4, 4)
    assert cat.from_name("checkerboard", cells=4.0).pattern.shape == (4, 4)


@pytest.mark.parametrize("pattern", [
    [[1.9]],                       # truncated to 1 by an int8 cast
    np.array([[257]]),             # wrapped to 1 by an int8 cast
    [[0, 1.5], [1.5, 0]],
    [[0, -1], [-1, 0]],
    [[np.nan]],
    [[1, 2], [2, 1]],
])
def test_pattern_entries_checked_before_the_cast(pattern):
    with pytest.raises(InvalidParameterError, match="entries must be 0 or 1"):
        cat.block_pattern(pattern)
    with pytest.raises(InvalidParameterError, match="entries must be 0 or 1"):
        cat.GraphonSpec(kind=cat.KIND_BLOCK, pattern=np.asarray(pattern))


def test_pattern_entries_of_any_dtype_accepted_when_binary():
    for dtype in (bool, np.int8, np.uint8, np.int64, np.float64):
        spec = cat.block_pattern(np.array([[1, 0], [0, 1]], dtype=dtype))
        assert spec.pattern.dtype == np.int8 and not spec.pattern.flags.writeable
        assert spec.pattern.tolist() == [[1, 0], [0, 1]]
    with pytest.raises(InvalidParameterError, match="entries must be 0 or 1"):
        cat.triadic_carpet(np.full((3, 3), 1.5), depth=1)
    with pytest.raises(InvalidParameterError, match="entries must be 0 or 1"):
        cat.CarpetSet(np.full((3, 3), 257))


def test_pattern_check_holds_two_bytes_per_entry():
    # np.isin on an int8 pattern took 12 bytes per entry
    k = 4000
    parity = (np.arange(k) % 2).astype(np.int8)
    pattern = parity[:, None] ^ parity[None, :]
    tracemalloc.start()
    try:
        spec = cat.block_pattern(pattern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.pattern is pattern  # an int8 pattern is locked, not copied
    assert peak <= 2 * k * k + 2**20


def test_pattern_check_holds_one_row_block():
    # the whole-matrix check held two k x k boolean masks (32 MB here); the
    # tiled pass holds two masks of one row block and one tile's comparison
    k = 4000
    parity = (np.arange(k) % 2).astype(np.int8)
    pattern = parity[:, None] ^ parity[None, :]
    tracemalloc.start()
    try:
        cat.block_pattern(pattern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * cat._CHECK_TILE * k + 2**16


def test_pattern_check_reaches_the_last_partial_tile():
    k = 2 * cat._CHECK_TILE + 5  # last row block and tile hold 5 rows
    pattern = np.eye(k, dtype=np.int8)
    for i, j in ((k - 1, k - 2), (k - 1, 0), (1, k - 1)):
        bad = pattern.copy()
        bad[i, j] = 1
        with pytest.raises(InvalidParameterError, match="must be symmetric"):
            cat.block_pattern(bad)
    for i, j, value in ((k - 1, k - 1, 2), (k - 3, 7, -1)):
        bad = pattern.astype(np.float64)
        bad[i, j] = bad[j, i] = value
        with pytest.raises(InvalidParameterError, match="entries must be 0 or 1"):
            cat.block_pattern(bad)
    assert cat.block_pattern(pattern).pattern is pattern


@st.composite
def _near_binary_patterns(draw):
    """Square patterns that are symmetric 0/1 but for a few entries, which
    may break symmetry or take a value other than 0 and 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 40))
    upper = np.triu(rng.integers(0, 2, size=(k, k)))
    pat = (upper + np.triu(upper, 1).T).astype(np.float64)
    for _ in range(draw(st.integers(0, 2))):
        i, j = rng.integers(0, k, size=2)
        pat[i, j] = draw(st.sampled_from([0.0, 1.0, 0.5, 2.0, np.nan]))
    return pat


@settings(max_examples=60, deadline=None)
@given(pattern=_near_binary_patterns(), tile=st.sampled_from([1, 2, 3, 7, 128]))
def test_pattern_check_verdict_matches_whole_matrix_check(pattern, tile):
    binary = bool(np.isin(pattern, (0.0, 1.0)).all())
    symmetric = np.array_equal(pattern, pattern.T, equal_nan=True)
    with mock.patch.object(cat, "_CHECK_TILE", tile):
        if binary and symmetric:
            assert cat.block_pattern(pattern).pattern.tolist() == pattern.tolist()
            return
        # a pattern at fault both ways may be refused for either fault
        match = ("entries must be 0 or 1" if symmetric else
                 "must be symmetric" if binary else "entries must be 0 or 1|must be symmetric")
        with pytest.raises(InvalidParameterError, match=match):
            cat.block_pattern(pattern)


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([1, 127, 128, 129, 257]), seed=st.integers(0, 2**32 - 1),
       edits=st.lists(st.sampled_from(["flip_last", "nan", "nan_diagonal", "nan_pair",
                                       "signed_zero"]), max_size=2))
def test_symmetry_check_verdict_matches_whole_matrix(n, seed, edits):
    # the tiled check against mat == mat.T on sizes around the tile side:
    # a flipped entry in the last (partial) row block or its mirror column
    # tiles, NaN (unequal to itself), and -0.0 against its mirror 0.0
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.choice([0.0, 0.5, 1.0], size=(n, n)))
    mat = upper + np.triu(upper, 1).T
    last = (n - 1) // cat._CHECK_TILE * cat._CHECK_TILE  # the last row block's first row
    for edit in edits:
        i, j = rng.integers(last, n), rng.integers(0, n)
        if rng.integers(2):
            i, j = j, i
        if edit == "flip_last":
            mat[i, j] += 0.25
        elif edit == "nan":
            mat[i, j] = np.nan
        elif edit == "nan_diagonal":
            mat[i, i] = np.nan
        elif edit == "nan_pair":
            mat[i, j] = mat[j, i] = np.nan
        else:
            mat[i, j], mat[j, i] = -0.0, 0.0
    assert cat.is_symmetric(mat) is np.array_equal(mat, mat.T)


def test_cell_intersects_support_exact():
    sp1 = cat.sierpinski(depth=1)
    # the open middle ninth is exactly the dropped cell
    assert not cat.cell_intersects_support(sp1, (0.34, 0.65, 0.34, 0.65))
    assert cat.cell_intersects_support(sp1, (0.0, 0.34, 0.0, 0.2))
    # crossing back into a kept cell by a hair flips the answer
    assert cat.cell_intersects_support(sp1, (0.30, 0.65, 0.34, 0.65))
    cb = cat.checkerboard(cells=2)
    assert cat.cell_intersects_support(cb, (0.0, 0.49, 0.0, 0.49))
    assert not cat.cell_intersects_support(cb, (0.0, 0.49, 0.51, 0.99))
    with pytest.raises(UnsupportedOperationError):
        cat.cell_intersects_support(cat.tent(), (0.0, 0.5, 0.0, 0.5))
    with pytest.raises(InvalidParameterError):
        cat.cell_intersects_support(cb, (0.5, 0.5, 0.0, 1.0))


def test_support_pattern_matches_evaluate():
    for spec in (cat.sierpinski(3), cat.hexaflake(3), cat.checkerboard(5), cat.hsbm(2)):
        pattern = cat.support_pattern(spec)
        k = pattern.shape[0]
        assert pattern.shape == (k, k) and pattern.dtype == bool
        c = (np.arange(k) + 0.5) / k
        assert np.array_equal(pattern, cat.evaluate(spec, c[:, None], c[None, :]) > 0)
        assert not pattern.flags.writeable
    with pytest.raises(UnsupportedOperationError):
        cat.support_pattern(cat.tent())


def _probe_intersects(spec, cell) -> bool:
    """Generic probe rule: nudged corners, center, and an 8x8 interior lattice.

    Sound (a hit implies the cell meets the support) but incomplete; it is the
    independent reference for :func:`cat.cell_intersects_support`.
    """
    a, b, c, d = (float(x) for x in cell)
    b_in = np.nextafter(b, a)
    d_in = np.nextafter(d, c)
    us = [a, a, b_in, b_in, 0.5 * (a + b)]
    vs = [c, d_in, c, d_in, 0.5 * (c + d)]
    frac = (np.arange(8) + 1.0) / 9.0
    gu, gv = np.meshgrid(a + (b - a) * frac, c + (d - c) * frac)
    uu = np.concatenate([np.asarray(us), gu.ravel()])
    vv = np.concatenate([np.asarray(vs), gv.ravel()])
    return bool(np.any(cat.evaluate(spec, uu, vv) > 0.0))


def test_probe_agrees_with_exact_on_random_cells():
    rng = np.random.default_rng(11)
    spec = cat.sierpinski(depth=3)
    agree = 0
    for _ in range(100):
        a, c = rng.random(2) * 0.9
        b = a + 0.02 + rng.random() * (1.0 - a - 0.02)
        d = c + 0.02 + rng.random() * (1.0 - c - 0.02)
        cell = (a, min(b, 1.0), c, min(d, 1.0))
        exact = cat.cell_intersects_support(spec, cell)
        probe = _probe_intersects(spec, cell)
        # the probe is sound: it never claims a hit that is not there
        assert not (probe and not exact)
        agree += probe == exact
    assert agree >= 90


def test_segment_and_square_dimensions():
    seg = cat.SegmentSet()
    dim, counts = cat.box_counting_dimension(seg, cat.default_delta_schedule(seg))
    assert counts == [2**j for j in range(4, 10)]
    assert dim == pytest.approx(1.0, abs=1e-12)
    sq = cat.FullSquareSet()
    dim2, counts2 = cat.box_counting_dimension(sq, cat.default_delta_schedule(sq))
    assert counts2 == [4**j for j in range(4, 10)]
    assert dim2 == pytest.approx(2.0, abs=1e-12)


def test_sierpinski_counts_and_dimension():
    bset = cat.support_boundary(cat.sierpinski())
    assert [bset.count(3**j) for j in range(1, 7)] == [8**j for j in range(1, 7)]
    assert bset.count(1) == 1  # a single mesh cell
    dim, _ = cat.box_counting_dimension(bset, cat.default_delta_schedule(bset))
    assert dim == pytest.approx(math.log(8.0) / math.log(3.0), abs=1e-12)


def test_hexaflake_counts_and_dimension():
    bset = cat.support_boundary(cat.hexaflake())
    assert [bset.count(3**j) for j in range(1, 7)] == [7**j for j in range(1, 7)]
    assert bset.count(1) == 1  # a single mesh cell
    dim, _ = cat.box_counting_dimension(bset, cat.default_delta_schedule(bset))
    assert dim == pytest.approx(math.log(7.0) / math.log(3.0), abs=1e-12)
    # the dropped pair keeps the mask, and hence the kernel, symmetric
    assert np.array_equal(cat.hexaflake().mask, cat.hexaflake().mask.T)


def test_block_boundary_counts_checkerboard():
    bset = cat.support_boundary(cat.checkerboard(cells=2))
    # two full mesh-aligned crossing lines: 4m - 5 cells at mesh 1/m
    assert [bset.count(2**j) for j in range(4, 10)] == [4 * 2**j - 5 for j in range(4, 10)]
    dim, _ = cat.box_counting_dimension(bset, cat.default_delta_schedule(bset))
    assert dim == pytest.approx(1.0, abs=0.05)


def test_block_boundary_counts_hsbm():
    bset = cat.support_boundary(cat.hsbm(levels=3))
    assert [bset.count(2**j) for j in range(4, 10)] == [53, 117, 245, 501, 1013, 2037]
    dim, _ = cat.box_counting_dimension(bset, cat.default_delta_schedule(bset))
    assert dim == pytest.approx(1.0, abs=0.05)


def _segment_loop_count(pattern, m: int) -> int:
    """Box count of a block pattern's boundary, one segment at a time.

    Every boundary segment of the k x k pattern (the outside of the square
    counting as complement) goes into a list and marks its mesh cells; the
    vertical and horizontal segments are found separately, so no symmetry
    is assumed.  The independent reference for :class:`cat.BlockBoundarySet`.
    """
    k = pattern.shape[0]
    vert = []
    horiz = []
    for t in range(k + 1):
        for j in range(k):
            left = pattern[t - 1, j] if t > 0 else 0
            right = pattern[t, j] if t < k else 0
            if left != right:
                vert.append((t, j))
            below = pattern[j, t - 1] if t > 0 else 0
            above = pattern[j, t] if t < k else 0
            if below != above:
                horiz.append((j, t))
    hit = np.zeros((m, m), dtype=bool)
    for t, j in vert:
        col = min((t * m) // k, m - 1)
        r0 = (j * m) // k
        r1 = min(((j + 1) * m) // k, m - 1)
        hit[col, r0 : r1 + 1] = True
    for j, t in horiz:
        row = min((t * m) // k, m - 1)
        c0 = (j * m) // k
        c1 = min(((j + 1) * m) // k, m - 1)
        hit[c0 : c1 + 1, row] = True
    return int(hit.sum())


@st.composite
def _symmetric_patterns(draw):
    k = draw(st.integers(1, 60))
    density = draw(st.sampled_from([0.02, 0.2, 0.5, 0.8, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((k, k)) < density)
    pattern = (upper | upper.T).astype(np.int8)
    i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    pattern[i, j] = pattern[j, i] = 1  # a nonempty support
    return pattern


@settings(max_examples=60, deadline=None)
@given(pattern=_symmetric_patterns(),
       meshes=st.lists(st.integers(1, 4096), min_size=1, max_size=4))
def test_block_boundary_counts_match_segment_loop(pattern, meshes):
    k = pattern.shape[0]
    bset = cat.BlockBoundarySet(cat.block_pattern(pattern))
    # meshes coarser than, equal to, a multiple of and finer than the pattern
    for m in [*meshes, k, 2 * k, max(1, k // 3), k + 1]:
        assert bset.count(m) == _segment_loop_count(pattern, m), (k, m)


def test_block_boundary_counts_hold_no_segment_lists():
    # checkerboard(1000) has 2 002 000 boundary segments, which the segment
    # lists held at 153 MB; the array counter holds the (k, k+1) boolean
    # boundary and, per count, a running-sum table of (k+1) x (mesh rows)
    # integers and its gathers (bounded here by three such tables)
    spec = cat.checkerboard(1000)
    deltas = [2.0**-j for j in range(4, 10)]
    tracemalloc.start()
    try:
        bset = cat.support_boundary(spec)
        counts = [bset.count(round(1 / d)) for d in deltas]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cat.default_delta_schedule(bset) == deltas
    assert counts == [256, 1024, 4096, 16384, 65536, 262144]
    k = 1000
    assert peak < 2**20 + k * (k + 1) + 3 * 8 * (k + 1) * 512


@pytest.mark.parametrize("m", [0, -1])
def test_box_counters_refuse_meshes_below_one(m):
    for point_set in (cat.SegmentSet(), cat.FullSquareSet(),
                      cat.support_boundary(cat.checkerboard(4)),
                      cat.support_boundary(cat.sierpinski())):
        with pytest.raises(InvalidParameterError, match="mesh count must be >= 1"):
            point_set.count(m)


def test_box_counters_refuse_bad_sets_and_meshes():
    with pytest.raises(InvalidParameterError, match="needs a block_pattern kernel"):
        cat.BlockBoundarySet(cat.sierpinski())
    with pytest.raises(InvalidParameterError, match="empty support"):
        cat.BlockBoundarySet(cat.block_pattern(np.zeros((2, 2))))
    with pytest.raises(InvalidParameterError, match="mask must be 3x3"):
        cat.CarpetSet(np.eye(2))
    with pytest.raises(InvalidParameterError, match="empty support"):
        cat.CarpetSet(np.zeros((3, 3)))
    with pytest.raises(InvalidParameterError, match="finer than 1/4096"):
        cat.support_boundary(cat.checkerboard(4)).count(4097)
    # a carpet is counted on triadic meshes only, below the finest mesh too
    for m in (10, 730):
        with pytest.raises(InvalidParameterError,
                           match=rf"triadic meshes only \(delta = 1/3\^j\), got 1/{m}$"):
            cat.support_boundary(cat.sierpinski()).count(m)


def test_box_dimension_schedule_validation():
    seg = cat.SegmentSet()
    with pytest.raises(InsufficientDataError):
        cat.box_counting_dimension(seg, [1.0 / 16])
    with pytest.raises(InvalidParameterError):
        cat.box_counting_dimension(seg, [1.0 / 16, 1.0 / 8])
    with pytest.raises(InvalidParameterError):
        cat.box_counting_dimension(seg, [0.3, 0.1])


def test_nominal_box_dims():
    assert cat.checkerboard().nominal_box_dim == 1.0
    assert cat.hsbm().nominal_box_dim == 1.0
    assert cat.sierpinski().nominal_box_dim == pytest.approx(math.log(8) / math.log(3))
    assert cat.hexaflake().nominal_box_dim == pytest.approx(math.log(7) / math.log(3))
    assert cat.tent().nominal_box_dim is None
    # all-kept and degenerate masks have no fractal boundary to speak of
    assert cat.triadic_carpet(np.ones((3, 3), dtype=np.int8), 2).nominal_box_dim is None


def test_spec_derives_its_dependent_attributes():
    hand = cat.GraphonSpec(kind=cat.KIND_TENT, alpha=0.5)
    assert (hand.value_class, hand.holder_meta) == ("weighted", (1.0, 0.5))
    assert hand.nominal_box_dim is None
    assert cat.GraphonSpec(kind=cat.KIND_OSCILLATORY, frequency=2).holder_meta == (math.pi, 1.0)
    for spec in (cat.hsbm(), cat.checkerboard(), cat.sierpinski(), cat.hexaflake()):
        assert (spec.value_class, spec.holder_meta) == ("binary", None)
    carpet = cat.GraphonSpec(kind=cat.KIND_CARPET, mask=np.ones((3, 3)), depth=2.0)
    assert carpet.depth == 2 and type(carpet.depth) is int
    for name in ("value_class", "holder_meta", "nominal_box_dim"):
        with pytest.raises(AttributeError):
            setattr(hand, name, None)


@pytest.mark.parametrize("kind, params, foreign", [
    (cat.KIND_TENT, {"alpha": 0.5, "depth": 3}, "depth"),
    (cat.KIND_OSCILLATORY, {"frequency": 2, "alpha": 0.5}, "alpha"),
    (cat.KIND_BLOCK, {"pattern": np.eye(2), "mask": np.eye(3)}, "mask"),
    (cat.KIND_CARPET, {"mask": np.eye(3), "depth": 2, "frequency": 3}, "frequency"),
])
def test_spec_refuses_a_parameter_of_another_kind(kind, params, foreign):
    with pytest.raises(InvalidParameterError, match=foreign):
        cat.GraphonSpec(kind=kind, **params)


def test_motif_normalization_and_validation():
    m = cat.Motif(2, [(0, 1), (1, 0)])
    assert m.edges == frozenset({(0, 1)})
    with pytest.raises(InvalidParameterError):
        cat.Motif(2, [(0, 0)])
    with pytest.raises(InvalidParameterError):
        cat.Motif(2, [(0, 2)])
    with pytest.raises(InvalidParameterError):
        cat.Motif(0, [])
    with pytest.raises(InvalidParameterError, match="grid must be a positive integer"):
        cat.hom_density_graphon(cat.EDGE, cat.tent(), 0)
    features = induce_features(FeatureMatrix(np.ones((2, 1))))  # not a kernel
    for kernel in (np.eye(2), features):
        with pytest.raises(InvalidParameterError, match="kernel must be a GraphonSpec"):
            cat.hom_density_graphon(cat.EDGE, kernel, 4)


def test_hom_density_complete_graph():
    from gnde.sampling import SampledGraph

    k3 = SampledGraph(np.ones((3, 3)) - np.eye(3), "unweighted")
    assert cat.hom_density_graph(cat.EDGE, k3) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert cat.hom_density_graph(cat.PATH_3, k3) == pytest.approx(4.0 / 9.0, abs=1e-15)
    assert cat.hom_density_graph(cat.TRIANGLE, k3) == pytest.approx(2.0 / 9.0, abs=1e-15)
    # closed 4-walks in K3: trace((J-I)^4) = 2^4 + 2 = 18 over 3^4 maps
    assert cat.hom_density_graph(cat.CYCLE_4, k3) == pytest.approx(18.0 / 81.0, abs=1e-15)


def test_hom_density_tent_closed_form():
    # midpoint quadrature of 1 - |u-v| on an m-grid sums to 2/3 + 1/(3 m^2)
    m = 256
    got = cat.hom_density_graphon(cat.EDGE, cat.tent(), m)
    assert got == pytest.approx((2.0 * m * m + 1.0) / (3.0 * m * m), abs=1e-14)


def test_hom_density_block_exact():
    cb = cat.checkerboard(cells=2)
    assert cat.hom_density_graphon(cat.EDGE, cb, 64) == pytest.approx(0.5, abs=1e-15)
    assert cat.hom_density_graphon(cat.TRIANGLE, cb, 64) == pytest.approx(0.25, abs=1e-15)


def test_hom_density_graph_matches_induced_kernel():
    spec = cat.checkerboard(cells=4)
    g = sample_unweighted(spec, 12)
    kern = induce_kernel(g)
    for motif in (cat.EDGE, cat.PATH_3, cat.TRIANGLE, cat.CYCLE_4):
        a = cat.hom_density_graph(motif, g)
        b = cat.hom_density_graphon(motif, kern, grid=24)
        assert a == pytest.approx(b, abs=1e-12), motif.edges


def test_complexity_guard():
    big = cat.Motif(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(ComplexityGuardError):
        cat.hom_density_graphon(big, cat.tent(), 16)
    from gnde.sampling import SampledGraph

    k3 = SampledGraph(np.ones((3, 3)) - np.eye(3), "unweighted")
    with pytest.raises(ComplexityGuardError):
        cat.hom_density_graph(big, k3)


def test_kernel_distance_overlay_exact():
    bp2 = np.array([0.0, 0.5, 1.0])
    from gnde.sampling import PiecewiseConstantFunction

    a = PiecewiseConstantFunction(bp2, np.array([[1.0, 0.0], [0.0, 1.0]]), kernel=True)
    z = PiecewiseConstantFunction(np.array([0.0, 1.0]), np.array([[0.0]]), kernel=True)
    assert cat.kernel_distance(a, z, norm="L1") == pytest.approx(0.5, abs=1e-15)
    assert cat.kernel_distance(a, z, norm="L2") == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert cat.kernel_distance(a, a, norm="L2") == 0.0


def test_kernel_distance_midgrid_closed_form():
    from gnde.sampling import PiecewiseConstantFunction

    z = PiecewiseConstantFunction(np.array([0.0, 1.0]), np.array([[0.0]]), kernel=True)
    m = 256
    got = cat.kernel_distance(cat.tent(), z, norm="L2", grid=m)
    # (1/m^4) [m^3 + 2 sum j^3] with the midpoint grid, -> 1/2 as m grows
    want = math.sqrt(1.0 / m + 0.5 * (1.0 - 1.0 / m) ** 2)
    assert got == pytest.approx(want, abs=1e-14)


def test_kernel_distance_l1_le_l2():
    rng = np.random.default_rng(3)
    from gnde.sampling import PiecewiseConstantFunction

    for _ in range(20):
        ma = int(rng.integers(1, 8))
        mb = int(rng.integers(1, 8))
        bpa = np.concatenate([[0.0], np.sort(rng.random(ma - 1)), [1.0]]) if ma > 1 else np.array([0.0, 1.0])
        bpb = np.concatenate([[0.0], np.sort(rng.random(mb - 1)), [1.0]]) if mb > 1 else np.array([0.0, 1.0])
        if np.any(np.diff(bpa) <= 0) or np.any(np.diff(bpb) <= 0):
            continue
        va = rng.random((ma, ma))
        vb = rng.random((mb, mb))
        a = PiecewiseConstantFunction(bpa, (va + va.T) / 2, kernel=True)
        b = PiecewiseConstantFunction(bpb, (vb + vb.T) / 2, kernel=True)
        l1 = cat.kernel_distance(a, b, norm="L1")
        l2 = cat.kernel_distance(a, b, norm="L2")
        assert l1 <= l2 + 1e-12
    with pytest.raises(InvalidParameterError):
        cat.kernel_distance(cat.tent(), cat.tent(), norm="cut")
    with pytest.raises(InvalidParameterError, match="grid must be a positive integer"):
        cat.kernel_distance(cat.tent(), cat.tent(), grid=0)


def _ix_kernel_distance(ka, kb, norm):
    """The overlay distance through two ``np.ix_`` gathers of the whole
    (N, N) difference, summed in the fixed order: each row's width-weighted
    terms by numpy's row sum, then the weighted row totals by ``math.fsum``."""
    ia, ib, w = cat.overlay_partition(ka.breakpoints, kb.breakpoints)
    diff = np.ascontiguousarray(ka.values[np.ix_(ia, ia)] - kb.values[np.ix_(ib, ib)])
    terms = np.abs(diff) if norm == "L1" else diff * diff
    total = math.fsum(((terms * w).sum(axis=1) * w).tolist())
    return total if norm == "L1" else math.sqrt(total)


def _step_kernel(rng, inner):
    """Step kernel with breakpoints 0, ``inner`` (sorted, in (0, 1)), 1 and
    values spread over six decades."""
    bp = np.concatenate([[0.0], inner[inner > 0.0], [1.0]])
    m = bp.size - 1
    vals = rng.normal(size=(m, m)) * 10.0 ** rng.integers(-3, 4, size=(m, m))
    return PiecewiseConstantFunction(bp, vals, kernel=True)


@st.composite
def _step_kernel_pairs(draw):
    """Two step kernels on non-uniform breakpoint sets of unequal sizes,
    which may share some breakpoints."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ma, mb = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    inner_a = np.unique(rng.random(ma - 1))
    shared = inner_a[rng.random(inner_a.size) < draw(st.floats(0.0, 1.0))]
    inner_b = np.unique(np.concatenate([shared, rng.random(max(mb - 1 - shared.size, 0))]))
    return _step_kernel(rng, inner_a), _step_kernel(rng, inner_b)


@settings(max_examples=40, deadline=None)
@given(pair=_step_kernel_pairs(), block_rows=st.sampled_from([1, 3, cat._DIST_ROWS, 1024]))
def test_kernel_distance_bits_match_ix_gather(pair, block_rows):
    # 1024 rows exceed every overlay here (at most 599 cells): one block
    ka, kb = pair
    with mock.patch.object(cat, "_DIST_ROWS", block_rows):
        for norm in ("L1", "L2"):
            for a, b in ((ka, kb), (kb, ka)):
                got = cat.kernel_distance(a, b, norm=norm)
                assert got.hex() == _ix_kernel_distance(a, b, norm).hex(), norm


def test_kernel_distance_bits_on_audit_subgraphs():
    # the audit's case: a uniform k-subgraph kernel against the full n one
    g = sample_weighted(cat.tent(), 96)
    full = induce_kernel(g)
    rng = np.random.default_rng(5)
    for k in (1, 17, 48, 95, 96):
        nodes = np.sort(rng.choice(96, size=k, replace=False))
        sub = induce_kernel(SampledGraph(g.adjacency[np.ix_(nodes, nodes)], g.value_class))
        for norm in ("L1", "L2"):
            assert (cat.kernel_distance(sub, full, norm=norm)
                    == _ix_kernel_distance(sub, full, norm))


def test_kernel_distance_identical_partitions_exactly_zero():
    # criterion 10 needs an exact 0.0 at proportion 1.0
    full = induce_kernel(sample_weighted(cat.tent(), 300))
    rng = np.random.default_rng(11)
    k = _step_kernel(rng, np.sort(rng.random(299)))
    copy = PiecewiseConstantFunction(k.breakpoints.copy(), k.values.copy(), kernel=True)
    for norm in ("L1", "L2"):
        assert cat.kernel_distance(full, induce_kernel(sample_weighted(cat.tent(), 300)),
                                   norm=norm) == 0.0
        assert cat.kernel_distance(k, copy, norm=norm) == 0.0
        assert cat.kernel_distance(k, k, norm=norm) == 0.0


def test_overlay_partition_one_ulp_cell():
    # the midpoint of a one-ulp cell [x, y) rounds onto y; its left end
    # places it in the cell of x
    x = np.nextafter(0.5, 1.0)
    y = np.nextafter(x, 1.0)
    at_x, at_y = np.array([0.0, x, 1.0]), np.array([0.0, y, 1.0])
    ia, ib, w = cat.overlay_partition(at_y, at_x)
    assert ia.tolist() == [0, 0, 1] and ib.tolist() == [0, 1, 1]
    assert w.tolist() == [x, y - x, 1.0 - y]
    ib, ia, _ = cat.overlay_partition(at_x, at_y)
    assert ia.tolist() == [0, 0, 1] and ib.tolist() == [0, 1, 1]


def _exact_square_sum(ka, kb):
    """sum of w_r w_c (ka - kb)^2 over the overlay cells, as a Fraction."""
    ia, ib, w = cat.overlay_partition(ka.breakpoints, kb.breakpoints)
    wf = [Fraction(x) for x in w.tolist()]
    a = [[Fraction(x) for x in row] for row in ka.values.tolist()]
    b = [[Fraction(x) for x in row] for row in kb.values.tolist()]
    ia, ib = ia.tolist(), ib.tolist()
    total = Fraction(0)
    for r in range(len(wf)):
        ar, br = a[ia[r]], b[ib[r]]
        total += wf[r] * sum(wc * (ar[ic] - br[jc]) ** 2 for wc, ic, jc in zip(wf, ia, ib))
    return total


def test_kernel_distance_square_sum_within_one_ulp_of_exact():
    rng = np.random.default_rng(17)
    g = sample_weighted(cat.tent(), 90)
    full = induce_kernel(g)
    cases = []
    for k in (7, 31, 45, 60):  # audit subgraphs: overlays of 90 to 120 cells
        nodes = np.sort(rng.choice(90, size=k, replace=False))
        cases.append((induce_kernel(SampledGraph(g.adjacency[np.ix_(nodes, nodes)],
                                                 g.value_class)), full))
    for ma, mb in ((40, 70), (75, 75), (1, 120), (100, 50)):
        cases.append((_step_kernel(rng, np.sort(rng.random(ma - 1))),
                      _step_kernel(rng, np.sort(rng.random(mb - 1)))))
    for ka, kb in cases:
        assert cat.overlay_partition(ka.breakpoints, kb.breakpoints)[2].size <= 150
        exact = _exact_square_sum(ka, kb)
        got = cat._overlay_sum(ka, kb, "L2")
        assert abs(Fraction(got) - exact) <= Fraction(math.ulp(float(exact)))


def test_kernel_distance_holds_no_overlay_square():
    # uniform 1000- and 1024-partitions overlay in N = 2016 cells; an
    # (N, N) float64 array would take 8 N^2 = 32.5 MB
    ka = induce_kernel(sample_weighted(cat.tent(), 1000))
    kb = induce_kernel(sample_weighted(cat.tent(), 1024))
    n_cells = cat.overlay_partition(ka.breakpoints, kb.breakpoints)[2].size
    assert n_cells == 2016
    tracemalloc.start()
    try:
        for norm in ("L1", "L2"):
            cat.kernel_distance(ka, kb, norm=norm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 + 4 * cat._DIST_ROWS * n_cells * 8


@st.composite
def _audit_cases(draw):
    """A weighted or 0/1 graph on n nodes and 1-5 index vectors of one
    length k, k = 1 and k = n included; the vectors are ascending, as the
    audit draws them, or in random order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    upper = np.triu(rng.random((n, n)))
    adj = upper + np.triu(upper, 1).T
    weighted = draw(st.booleans())
    if not weighted:
        adj = (adj < 0.5).astype(np.float64)
    k = draw(st.sampled_from([1, n, int(rng.integers(1, n + 1))]))
    sets = []
    for _ in range(draw(st.integers(1, 5))):
        nodes = rng.choice(n, size=k, replace=False)
        sets.append(np.sort(nodes) if draw(st.booleans()) else nodes)
    return SampledGraph(adj, "weighted" if weighted else "unweighted"), sets


@settings(max_examples=60, deadline=None)
@given(case=_audit_cases(), block_rows=st.sampled_from([1, 3, 32, 1024]))
def test_subgraph_distances_bits_match_cut_subgraphs(case, block_rows):
    g, sets = case
    full = induce_kernel(g)
    want = [cat.kernel_distance(induce_kernel(SampledGraph(
                g.adjacency[np.ix_(nodes, nodes)], g.value_class)), full)
            for nodes in sets]
    with mock.patch.object(cat, "_DIST_ROWS", block_rows):
        got = cat.subgraph_distances(g.adjacency, sets)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    # the full proportion reads exactly zero
    assert cat.subgraph_distances(g.adjacency, [np.arange(g.n)]) == [0.0]


def test_subgraph_distances_validation():
    adj = np.eye(4)
    assert cat.subgraph_distances(adj, []) == []
    for bad_adj in (np.ones(4), np.ones((2, 3)), np.ones((0, 0))):
        with pytest.raises(InvalidParameterError, match="square"):
            cat.subgraph_distances(bad_adj, [np.arange(2)])
    for sets in ([np.arange(2), np.arange(3)], [np.array([], dtype=int)],
                 [np.ones((2, 2), dtype=int)]):
        with pytest.raises(InvalidParameterError, match="one length"):
            cat.subgraph_distances(adj, sets)
    for nodes in (np.array([0, 4]), np.array([-1, 2]), np.array([0.0, 1.0])):
        with pytest.raises(InvalidParameterError, match="node indices"):
            cat.subgraph_distances(adj, [nodes])


def test_subgraph_distances_hold_no_subgraph():
    # five full-size trials: cutting each k x k subgraph out (and the k x n
    # rows first) held 8 MB per array; the overlay pass holds three
    # (_DIST_ROWS, n) row blocks at a time (0.75 MB) and the index vectors
    n = 1024
    upper = np.triu(np.random.default_rng(3).random((n, n)))
    adj = upper + np.triu(upper, 1).T
    rng = np.random.default_rng(4)
    sets = [rng.permutation(n) for _ in range(5)]
    tracemalloc.start()
    try:
        dists = cat.subgraph_distances(adj, sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dists) == 5 and min(dists) > 0.0
    assert peak < 5 * cat._DIST_ROWS * n * 8
