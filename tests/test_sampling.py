"""Graph and feature sampling, induced step functions, file formats."""

from __future__ import annotations

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnde import catalog as cat
from gnde import sampling as smp
from gnde.analysis import REPORT_COLUMNS
from gnde.errors import (
    ComplexityGuardError,
    DimensionMismatchError,
    EdgeListParseError,
    GndeError,
    InvalidParameterError,
    WrongRegimeError,
)


def test_sample_weighted_tent_n2():
    g = smp.sample_weighted(cat.tent(), 2)
    assert np.array_equal(g.adjacency, np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert g.value_class == "weighted"
    assert g.n == 2


def test_sample_regime_guards():
    with pytest.raises(WrongRegimeError):
        smp.sample_weighted(cat.checkerboard(2), 4)
    with pytest.raises(WrongRegimeError):
        smp.sample_unweighted(cat.tent(), 4)
    with pytest.raises(InvalidParameterError):
        smp.sample_weighted(cat.tent(), 0)


def test_sample_unweighted_aligned_blocks():
    g = smp.sample_unweighted(cat.checkerboard(2), 2)
    assert np.array_equal(g.adjacency, np.eye(2))
    g4 = smp.sample_unweighted(cat.checkerboard(2), 4)
    assert np.array_equal(g4.adjacency, np.kron(np.eye(2), np.ones((2, 2))))
    assert g4.value_class == "unweighted"


def test_sample_unweighted_matches_cell_queries():
    # independent float-robust path through cell_intersects_support
    cases = [(spec, n) for spec in (cat.checkerboard(2), cat.hsbm(2), cat.sierpinski(depth=2))
             for n in (3, 5, 7)]
    # hexaflake(3) has k = 27: straddling cells with k > n, n dividing k, and n > k
    cases += [(cat.hexaflake(depth=3), n) for n in (5, 27, 30)]
    cases += [(cat.hexaflake(), 30), (cat.sierpinski(depth=2), 20)]
    for spec, n in cases:
        g = smp.sample_unweighted(spec, n)
        for i in range(n):
            for j in range(n):
                cell = (i / n, (i + 1) / n, j / n, (j + 1) / n)
                want = float(cat.cell_intersects_support(spec, cell))
                assert g.adjacency[i, j] == want, (spec.kind, n, i, j)


def test_sample_system_matches_regime_samplers():
    rng = np.random.default_rng(5)
    features = [smp.random_fourier_features(2, 4, rng), smp.random_holder_features(1, 3, rng)]
    quad = 3  # not the default, so a dropped quad_points shows
    pointwise = (smp.sample_weighted, smp.sample_features_pointwise)
    cells = (smp.sample_unweighted,
             lambda z, n: smp.sample_features_cell_average(z, n, quad))
    cases = ((cat.tent(), pointwise), (cat.oscillatory(), pointwise),
             (cat.checkerboard(), cells), (cat.hexaflake(), cells))
    for spec, (sample_graph, sample_feature) in cases:
        for n in (7, 30):
            graph, feats = smp.sample_system(spec, n, features, quad)
            want = sample_graph(spec, n)
            assert graph.value_class == want.value_class
            assert np.array_equal(graph.adjacency, want.adjacency), (spec.kind, n)
            assert len(feats) == len(features)
            for z, got in zip(features, feats):
                assert np.array_equal(got.values, sample_feature(z, n).values), (spec.kind, n)


def _kron_pattern(spec):
    """The support pattern as the Kronecker powers build it."""
    if spec.kind == cat.KIND_BLOCK:
        return spec.pattern.astype(bool)
    mask = spec.mask.astype(bool)
    pattern = mask
    for _ in range(spec.depth - 1):
        pattern = np.kron(pattern, mask)
    return pattern


def _columns_first_sample(pattern, n):
    """The cell sample ORed columns first, one reduceat per axis."""
    k = pattern.shape[0]
    idx = np.arange(n, dtype=np.int64)
    lo = (idx * k) // n
    hi = ((idx + 1) * k - 1) // n
    cols = np.logical_or.reduceat(pattern, lo, axis=1) | pattern[:, hi]
    hit = np.logical_or.reduceat(cols, lo, axis=0) | cols[hi]
    return hit.astype(np.float64)


@st.composite
def _binary_specs(draw):
    kind = draw(st.sampled_from(["carpet", "hsbm", "checkerboard"]))
    if kind == "hsbm":
        return cat.hsbm(draw(st.integers(1, 6)))
    if kind == "checkerboard":
        return cat.checkerboard(draw(st.integers(1, 40)))
    upper = draw(st.lists(st.integers(0, 1), min_size=6, max_size=6))
    mask = np.zeros((3, 3), dtype=np.int8)
    mask[np.triu_indices(3)] = upper
    mask = mask | mask.T
    return cat.triadic_carpet(mask, draw(st.integers(1, 5)))


def _sizes(k):
    """n from 1 to 3k, with n dividing k, k dividing n and n > k."""
    divisors = [d for d in range(1, k + 1) if k % d == 0]
    return st.one_of(
        st.integers(1, 3 * k),
        st.sampled_from(divisors),
        st.sampled_from([k, 2 * k, 3 * k]),
        st.integers(k + 1, 3 * k),
    )


@settings(max_examples=150, deadline=None)
@given(spec=_binary_specs(), data=st.data())
def test_sample_unweighted_matches_columns_first_reference(spec, data):
    pattern = cat.support_pattern(spec)
    assert pattern.dtype == bool
    assert np.array_equal(pattern, _kron_pattern(spec))
    k = pattern.shape[0]
    for n in (data.draw(_sizes(k)) for _ in range(3)):
        got = smp.sample_unweighted(spec, n).adjacency
        want = _columns_first_sample(pattern, n)
        assert got.dtype == np.float64 and got.shape == (n, n)
        assert got.tobytes() == want.tobytes(), (k, n)


def test_sample_unweighted_row_array_is_n_by_k():
    # README sizes the sampler's row array at n x k, not n x 8*ceil(k/8)
    real = np.unpackbits
    shapes = []

    def unpack(*args, **kwargs):
        out = real(*args, **kwargs)
        shapes.append(out.shape)
        return out

    with mock.patch.object(np, "unpackbits", unpack):
        smp.sample_unweighted(cat.hexaflake(3), 10)  # k = 27
    assert shapes == [(10, 27)]


def test_sample_unweighted_aligned_induces_kernel_exactly():
    # when the block grid divides n the induced kernel IS the kernel
    for spec, n in ((cat.checkerboard(8), 16), (cat.hsbm(3), 24)):
        g = smp.sample_unweighted(spec, n)
        kern = smp.induce_kernel(g)
        assert cat.kernel_distance(kern, spec, norm="L2", grid=n) == 0.0
        assert cat.kernel_distance(kern, spec, norm="L1", grid=2 * n) == 0.0


def test_features_pointwise_linear():
    z = smp.linear_feature([0.25, -1.0], [2.0, 0.5])
    fm = smp.sample_features_pointwise(z, 5)
    u = np.arange(5) / 5.0
    want = np.stack([0.25 + 2.0 * u, -1.0 + 0.5 * u], axis=1)
    assert np.array_equal(fm.values, want)
    assert fm.F == 2 and fm.n == 5


def test_cell_average_polynomial_exact():
    z = smp.linear_feature([0.25], [2.0])
    fm = smp.sample_features_cell_average(z, 8)
    mids = (np.arange(8) + 0.5) / 8.0
    assert np.allclose(fm.values[:, 0], 0.25 + 2.0 * mids, atol=1e-15, rtol=0.0)
    zc = smp.constant_feature([3.0, -1.5])
    fc = smp.sample_features_cell_average(zc, 6, quad_points=1)
    assert np.array_equal(fc.values, np.tile([3.0, -1.5], (6, 1)))
    with pytest.raises(InvalidParameterError):
        smp.sample_features_cell_average(zc, 6, quad_points=0)


def test_cell_average_fourier_analytic():
    # one cosine mode: cell mean has the closed form n*(sin b - sin a)/(2 pi)
    z = smp.FeatureFunctionSpec("fourier_polynomial", [[1.0]], [[0.0]])
    assert z.degree == 1
    n = 8
    fm = smp.sample_features_cell_average(z, n)
    i = np.arange(n)
    want = n * (np.sin(2 * np.pi * (i + 1) / n) - np.sin(2 * np.pi * i / n)) / (2 * np.pi)
    assert np.allclose(fm.values[:, 0], want, atol=1e-9, rtol=0.0)


def test_feature_spec_validation():
    with pytest.raises(InvalidParameterError):
        smp.FeatureFunctionSpec("poly", [[1.0]], [[0.0]])
    with pytest.raises(InvalidParameterError):
        smp.FeatureFunctionSpec("linear", [[1.0, 2.0]], [[0.0]])
    # a trigonometric spec needs at least one term; its degree is its column count
    for kind in ("fourier_polynomial", "holder_cosine"):
        with pytest.raises(InvalidParameterError):
            smp.FeatureFunctionSpec(kind, np.zeros((1, 0)), np.zeros((1, 0)))
    assert smp.FeatureFunctionSpec("fourier_polynomial", [[1.0, 2.0]], [[0.0, 0.0]]).degree == 2
    # constant and linear kinds take exactly one coefficient column
    for kind in ("constant", "linear"):
        with pytest.raises(InvalidParameterError, match="one coefficient column"):
            smp.FeatureFunctionSpec(kind, [[0.0, 5.0]], [[1.0, 7.0]])
    assert smp.linear_feature([0.0], [1.0]).degree == 0
    with pytest.raises(InvalidParameterError):
        smp.FeatureFunctionSpec("linear", np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))
    with pytest.raises(InvalidParameterError):
        smp.constant_feature([np.inf])
    z = smp.constant_feature([1.0])
    with pytest.raises(InvalidParameterError):
        z.evaluate([0.5, 1.2])
    with pytest.raises(InvalidParameterError, match="2-D n x F"):
        smp.FeatureMatrix(np.ones(3))
    with pytest.raises(InvalidParameterError, match="finite"):
        smp.FeatureMatrix(np.array([[np.nan]]))


def test_lipschitz_bound_certifies_derivative():
    rng = np.random.default_rng(5)
    z = smp.random_fourier_features(3, 4, rng)
    bound = z.lipschitz_bound()
    u = np.linspace(0.0, 1.0, 2001)
    vals = z.evaluate(u)
    slopes = np.abs(np.diff(vals, axis=0) / np.diff(u)[:, None])
    assert slopes.max() <= bound + 1e-9
    assert smp.linear_feature([0.0], [3.0]).lipschitz_bound() == 3.0
    assert smp.constant_feature([9.0]).lipschitz_bound() == 0.0


def test_graph_shift_operator_norm():
    for g in (
        smp.sample_weighted(cat.tent(), 17),
        smp.sample_unweighted(cat.checkerboard(10), 13),
    ):
        s = smp.graph_shift(g)
        assert np.array_equal(s, g.adjacency / g.n)
        assert np.linalg.norm(s, 2) <= 1.0 + 1e-12


def test_overlay_distance_known_values():
    one = smp.PiecewiseConstantFunction(np.array([0.0, 1.0]), np.array([[1.0]]))
    step = smp.PiecewiseConstantFunction(np.array([0.0, 0.5, 1.0]), np.array([[1.0], [0.0]]))
    thirds = smp.PiecewiseConstantFunction(
        np.array([0.0, 1 / 3, 2 / 3, 1.0]), np.array([[1.0], [1.0], [1.0]])
    )
    assert smp.overlay_l2_distance(one, step) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert smp.overlay_l2_distance(one, thirds) == 0.0
    assert smp.overlay_l2_distance(step, step) == 0.0


def test_overlay_distance_one_ulp_cell():
    # f = 0 on [0, y), 1 on [y, 1] against g = 0 cut at x = y - ulp: only
    # [y, 1] differs, so the squared distance is 1 - y, not 1 - x
    x = np.nextafter(0.5, 1.0)
    y = np.nextafter(x, 1.0)
    f = smp.PiecewiseConstantFunction(np.array([0.0, y, 1.0]), np.array([[0.0], [1.0]]))
    g = smp.PiecewiseConstantFunction(np.array([0.0, x, 1.0]), np.zeros((2, 1)))
    assert smp.overlay_l2_distance(f, g) == math.sqrt(1.0 - y)
    assert smp.overlay_l2_distance(g, f) == math.sqrt(1.0 - y)


_INTERIOR = st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=6)


def _step(points, rng, channels=None):
    """A random step function (``channels`` columns) or step kernel (None)
    on the partition of [0,1] cut at ``points``."""
    bp = np.concatenate(([0.0], np.unique(points), [1.0]))
    m = bp.size - 1
    kernel = channels is None
    vals = rng.uniform(-1.0, 1.0, (m, m) if kernel else (m, channels))
    return smp.PiecewiseConstantFunction(bp, vals, kernel=kernel)


def _refine(f, points):
    """The same step function (or kernel) on a finer partition."""
    bp = np.union1d(f.breakpoints, points)
    cell = np.searchsorted(f.breakpoints, bp[:-1], side="right") - 1
    vals = f.values[np.ix_(cell, cell)] if f.kernel else f.values[cell]
    return smp.PiecewiseConstantFunction(bp, vals, kernel=f.kernel)


@settings(max_examples=100, deadline=None)
@given(parts=st.lists(_INTERIOR, min_size=3, max_size=3), extra=_INTERIOR,
       kernel=st.booleans(), norm=st.sampled_from(["L1", "L2"]),
       n=st.integers(1, 12), r=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_overlay_distances_are_metrics(parts, extra, kernel, norm, n, r, seed):
    # overlay_l2_distance and kernel_distance: bit-exact symmetry, the
    # triangle inequality up to rounding, and exactly 0 between a function and
    # its refinement: cut at extra points, or induced from a graph (features)
    # whose every node is blown up into r copies
    rng = np.random.default_rng(seed)
    if kernel:
        def dist(a, b):
            return cat.kernel_distance(a, b, norm=norm)
        a, b, c = (_step(points, rng) for points in parts)
        adj = rng.uniform(0.0, 1.0, (n, n))
        coarse = smp.PiecewiseConstantFunction(smp.uniform_breakpoints(n), adj, kernel=True)
        blown = smp.PiecewiseConstantFunction(
            smp.uniform_breakpoints(n * r), adj.repeat(r, 0).repeat(r, 1), kernel=True)
    else:
        dist = smp.overlay_l2_distance
        a, b, c = (_step(points, rng, channels=2) for points in parts)
        x = rng.normal(size=(n, 2))
        coarse = smp.induce_features(smp.FeatureMatrix(x))
        blown = smp.induce_features(smp.FeatureMatrix(x.repeat(r, 0)))
    d_ab = dist(a, b)
    assert d_ab.hex() == dist(b, a).hex()
    assert d_ab <= (dist(a, c) + dist(c, b)) * (1.0 + 1e-12)
    assert dist(a, _refine(a, extra)) == 0.0
    assert dist(coarse, blown) == 0.0 == dist(blown, coarse)


def test_overlay_distance_guards():
    one = smp.PiecewiseConstantFunction(np.array([0.0, 1.0]), np.array([[1.0]]))
    two = smp.PiecewiseConstantFunction(np.array([0.0, 1.0]), np.array([[1.0, 2.0]]))
    kern = smp.PiecewiseConstantFunction(np.array([0.0, 1.0]), np.array([[1.0]]), kernel=True)
    with pytest.raises(DimensionMismatchError):
        smp.overlay_l2_distance(one, two)
    with pytest.raises(InvalidParameterError):
        smp.overlay_l2_distance(one, kern)


def _random_pwc(rng, channels=1):
    m = int(rng.integers(1, 7))
    if m == 1:
        bp = np.array([0.0, 1.0])
    else:
        inner = np.sort(rng.random(m - 1))
        bp = np.concatenate([[0.0], inner, [1.0]])
        if np.any(np.diff(bp) <= 0.0):
            bp = np.linspace(0.0, 1.0, m + 1)
    return smp.PiecewiseConstantFunction(bp, rng.normal(size=(m, channels)))


def test_overlay_distance_metric_axioms():
    rng = np.random.default_rng(23)
    for _ in range(30):
        fa = _random_pwc(rng, 2)
        fb = _random_pwc(rng, 2)
        fc = _random_pwc(rng, 2)
        dab = smp.overlay_l2_distance(fa, fb)
        assert dab == pytest.approx(smp.overlay_l2_distance(fb, fa), abs=1e-13)
        assert dab >= 0.0
        dac = smp.overlay_l2_distance(fa, fc)
        dbc = smp.overlay_l2_distance(fb, fc)
        assert dac <= dab + dbc + 1e-12


def test_pwc_l2_norm_consistency():
    one = smp.PiecewiseConstantFunction(np.array([0.0, 1.0]), np.array([[1.0]]))
    zero = smp.PiecewiseConstantFunction(np.array([0.0, 1.0]), np.array([[0.0]]))
    assert smp.pwc_l2_norm(one) == 1.0
    rng = np.random.default_rng(29)
    for _ in range(10):
        f = _random_pwc(rng, 3)
        zero3 = smp.PiecewiseConstantFunction(np.array([0.0, 1.0]), np.zeros((1, 3)))
        assert smp.pwc_l2_norm(f) == pytest.approx(
            smp.overlay_l2_distance(f, zero3), abs=1e-13
        )
    kern = smp.PiecewiseConstantFunction(
        np.array([0.0, 0.5, 1.0]), np.eye(2), kernel=True
    )
    assert smp.pwc_l2_norm(kern) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert smp.pwc_l2_norm(zero) == 0.0


def test_edge_list_round_trip(tmp_path):
    for g in (
        smp.sample_weighted(cat.tent(), 7),
        smp.sample_unweighted(cat.checkerboard(10), 9),
    ):
        path = tmp_path / f"{g.value_class}.csv"
        smp.write_edge_list(g, path)
        back = smp.read_edge_list(path)
        assert back.value_class == g.value_class
        assert np.array_equal(back.adjacency, g.adjacency)


def test_edge_list_rejects_malformed(tmp_path):
    cases = {
        "empty.csv": "",
        "header.csv": "nodes=4\n0,1,1.0\n",
        "class.csv": "n=4,class=signed\n0,1,1.0\n",
        "badrow.csv": "n=4,class=unweighted\ni,j,weight\n0,one,1.0\n",
        "range.csv": "n=4,class=unweighted\ni,j,weight\n0,9,1.0\n",
        "lower.csv": "n=4,class=unweighted\ni,j,weight\n3,1,1.0\n",
        "nonfinite.csv": "n=4,class=weighted\ni,j,weight\n0,1,inf\n",
    }
    for fname, body in cases.items():
        path = tmp_path / fname
        path.write_text(body)
        with pytest.raises(EdgeListParseError):
            smp.read_edge_list(path)


def test_edge_list_parse_error_carries_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n=4,class=unweighted\ni,j,weight\n0,1,1.0\n0,oops,1.0\n")
    with pytest.raises(EdgeListParseError) as err:
        smp.read_edge_list(path)
    assert err.value.line == 4
    path.write_bytes(b"n=4,class=unweighted\ni,j,weight\n0,1,1.0\n0,\xff,1.0\n")
    with pytest.raises(EdgeListParseError) as err:  # not UTF-8
        smp.read_edge_list(path)
    assert err.value.line == 4
    # rows that np.loadtxt reads but a check refuses: the line loop names it
    path.write_bytes(b"n=4,class=weighted\ni,j,weight\n0,1,0.5\n\n2,3,nan\n")
    with pytest.raises(EdgeListParseError) as err:
        smp.read_edge_list(path)
    assert str(err.value) == f"{path}:5: edge row out of range '2,3,nan'"


_HEAD = b"n=4,class=weighted\ni,j,weight\n"
_PLAIN = {(0, 1): 0.5, (2, 3): 1.0}

# name: (bytes, outcome); the outcome of a file that reads is its class, n
# and {(i, j): weight}; of one that does not, the error type and, for an
# EdgeListParseError, the line it names
_EDGE_CASES = {
    "plain": (_HEAD + b"0,1,0.5\n2,3,1.0\n3,3,0.25\n", ("weighted", 4, {**_PLAIN, (3, 3): 0.25})),
    "unweighted": (b"n=3,class=unweighted\ni,j,weight\n0,2,1.0\n1,1,1.0\n",
                   ("unweighted", 3, {(0, 2): 1.0, (1, 1): 1.0})),
    "unsorted rows": (_HEAD + b"2,3,1.0\n0,1,0.5\n", ("weighted", 4, _PLAIN)),
    "no trailing newline": (_HEAD + b"0,1,0.5\n2,3,1.0", ("weighted", 4, _PLAIN)),
    "blank lines": (_HEAD + b"\n0,1,0.5\n\n\n2,3,1.0\n\n", ("weighted", 4, _PLAIN)),
    "whitespace-only line": (_HEAD + b"0,1,0.5\n   \n2,3,1.0\n", (EdgeListParseError, 4)),
    "spaced fields": (_HEAD + b" 0 , 1 , 0.5 \n", ("weighted", 4, {(0, 1): 0.5})),
    "id 1.0": (_HEAD + b"1.0,2,0.5\n", (EdgeListParseError, 3)),
    "id 1e0": (_HEAD + b"1e0,2,0.5\n", (EdgeListParseError, 3)),
    "id +1": (_HEAD + b"+1,2,0.5\n", ("weighted", 4, {(1, 2): 0.5})),
    "id 1_0": (b"n=12,class=weighted\ni,j,weight\n1_0,11,0.5\n", (EdgeListParseError, 3)),
    "weight 1_0.5": (_HEAD + b"0,1,0_0.5\n", (EdgeListParseError, 3)),
    "fourth column": (_HEAD + b"0,1,0.5,extra\n", (EdgeListParseError, 3)),
    "trailing comma": (_HEAD + b"0,1,0.5,\n", (EdgeListParseError, 3)),
    "repeated pair": (_HEAD + b"0,1,0.5\n2,3,1.0\n0,1,0.25\n", (EdgeListParseError, 5)),
    "pair thrice": (_HEAD + b"0,1,0.5\n0,1,0.5\n0,1,0.25\n", (EdgeListParseError, 4)),
    "CRLF": (b"n=4,class=weighted\r\ni,j,weight\r\n0,1,0.5\r\n", ("weighted", 4, {(0, 1): 0.5})),
    "CRLF body": (_HEAD + b"0,1,0.5\r\n2,3,1.0\r\n", ("weighted", 4, _PLAIN)),
    "CRLF empty line": (_HEAD + b"0,1,0.5\r\n\r\n2,3,nan\r\n", (EdgeListParseError, 5)),
    "form feed": (_HEAD + b"0,1,0.5\x0c2,3,1.0\n", (EdgeListParseError, 3)),
    "unit separator": (_HEAD + b"0,1,0.5\x1f\n", (EdgeListParseError, 3)),
    "tab": (_HEAD + b"0,\t1,0.5\n", ("weighted", 4, {(0, 1): 0.5})),
    "space separator": (_HEAD + b"0 1 0.5\n", (EdgeListParseError, 3)),
    "header only": (_HEAD, ("weighted", 4, {})),
    "header and blank lines": (_HEAD + b"\n\n", ("weighted", 4, {})),
    "no column line": (b"n=4,class=weighted\n0,1,0.5\n", ("weighted", 4, {(0, 1): 0.5})),
    "first line only": (b"n=4,class=weighted", ("weighted", 4, {})),
    "nan weight": (_HEAD + b"0,1,nan\n", (EdgeListParseError, 3)),
    "inf weight": (_HEAD + b"0,1,0.5\n1,2,-inf\n", (EdgeListParseError, 4)),
    "weight beyond 1": (_HEAD + b"0,1,1.5\n", (InvalidParameterError, None)),
    "negative weight": (_HEAD + b"0,1,-0.25\n", (InvalidParameterError, None)),
    "negative zero": (_HEAD + b"0,1,-0.0\n", ("weighted", 4, {(0, 1): -0.0})),
    "subnormal": (_HEAD + b"0,1,5e-324\n1,1,2.5e-310\n",
                  ("weighted", 4, {(0, 1): 5e-324, (1, 1): 2.5e-310})),
    "overflowing id": (_HEAD + b"0,99999999999999999999,0.5\n", (EdgeListParseError, 3)),
    "overflowing product": (_HEAD + b"4611686018427387904,3,0.5\n", (EdgeListParseError, 3)),
    "negative id": (_HEAD + b"-1,2,0.5\n", (EdgeListParseError, 3)),
    "lower triangle": (_HEAD + b"3,1,0.5\n", (EdgeListParseError, 3)),
    "id n": (_HEAD + b"0,4,0.5\n", (EdgeListParseError, 3)),
    "non-ASCII UTF-8": (_HEAD + "0,1,0.5\n1,2,é\n".encode(), (EdgeListParseError, 4)),
    "non-ASCII digit": (_HEAD + "0,١,0.5\n".encode(), (EdgeListParseError, 3)),
    "not UTF-8": (_HEAD + b"0,1,0.5\n0,\xff,1.0\n", (EdgeListParseError, 4)),
    "comment": (_HEAD + b"0,1,0.5 # note\n", (EdgeListParseError, 3)),
    "quoted": (_HEAD + b'0,1,"0.5"\n', (EdgeListParseError, 3)),
    "n=0": (b"n=0,class=weighted\ni,j,weight\n", (EdgeListParseError, 1)),
    "n with leading zeros": (b"n=0000000000000000004,class=weighted\ni,j,weight\n0,1,0.5\n",
                             ("weighted", 4, {(0, 1): 0.5})),
    "n beyond the limit": (b"n=1000000000,class=weighted\ni,j,weight\n0,1,0.5\n",
                           (ComplexityGuardError, None)),
    "empty": (b"", (EdgeListParseError, 1)),
}


def _read_bytes(raw: bytes):
    """read_edge_list of a file holding ``raw``: the graph, or the error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.csv"
        path.write_bytes(raw)
        try:
            return smp.read_edge_list(path)
        except GndeError as exc:
            return exc


def _assert_names_its_line(raw: bytes, exc: EdgeListParseError):
    """The error names a line of the file; a row error quotes that line."""
    lines = raw.split(b"\n")
    assert 1 <= exc.line <= len(lines)
    if "edge row" in str(exc):
        text = lines[exc.line - 1]
        text = text[:-1] if text.endswith(b"\r") else text
        assert str(exc).endswith(f" {text.decode()!r}")


@pytest.mark.parametrize("name", list(_EDGE_CASES))
def test_edge_list_fast_parse_agrees_with_line_loop(name):
    # read_edge_list against the table.  The name dates from two parsers (a
    # fast np.loadtxt parse and a line loop); it is kept so that each case's
    # test id stays the same.
    raw, (kind, *rest) = _EDGE_CASES[name]
    got = _read_bytes(raw)
    if isinstance(kind, str):
        n, edges = rest
        want = np.zeros((n, n))
        for (i, j), w in edges.items():
            want[i, j] = want[j, i] = w
        assert isinstance(got, smp.SampledGraph), got
        assert got.value_class == kind
        assert got.adjacency.tobytes() == want.tobytes()
    else:
        assert type(got) is kind
        if kind is EdgeListParseError:
            assert got.line == rest[0]
            _assert_names_its_line(raw, got)


@pytest.mark.parametrize("name", ["CRLF", "CRLF body", "blank lines", "no column line",
                                  "no trailing newline", "spaced fields", "id +1"])
def test_edge_list_variants_write_back_as_the_writer_layout(tmp_path, name):
    raw, (cls, n, edges) = _EDGE_CASES[name]
    path = tmp_path / "edges.csv"
    smp.write_edge_list(_read_bytes(raw), path)
    want = [f"n={n},class={cls}\n", "i,j,weight\n"]
    want += [f"{i},{j},{w!r}\n" for (i, j), w in sorted(edges.items())]
    assert path.read_bytes() == "".join(want).encode()


_ODD_IDS = ["1.0", "1e0", "+1", " 1 ", "1_0", "-0", "007", "-1", "",
            "99999999999999999999", "x", "١"]
_ODD_WEIGHTS = ["nan", "inf", "-inf", "1_0.5", "5e-324", "-0.0", "-0.25", "1.5", ".5",
                "5.", " 0.5 ", "0x1p-1", "1e400", "", "é", "1,0"]
_LINE_ENDS = ["\n"] * 4 + ["\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x1f\n", " \n",
                            "\t\n", "\n\n", "\n  \n"]


@st.composite
def _edge_list_bytes(draw):
    """Edge lists near the writer's layout: mostly well-formed rows, with a
    few odd tokens, line ends, repeats and header variants mixed in."""
    n = draw(st.integers(1, 6))
    cls = draw(st.sampled_from(["weighted", "unweighted"]))
    head = draw(st.sampled_from(
        [f"n={n},class={cls}\ni,j,weight\n"] * 10
        + [f"n={n},class={cls}\n", f"n={n},class={cls}\r\ni,j,weight\r\n",
           f"n=0{n},class={cls}\ni,j,weight\n", f"n={n},class={cls}\ni,j,weight,\n",
           f"n={n + 1},class={cls}\ni,j,weight\n"]))
    node = st.integers(0, n - 1)
    weight = (st.floats(0.0, 1.0).map(repr) if cls == "weighted"
              else st.sampled_from(["1.0", "1", "0.0"]))
    pairs = draw(st.lists(st.tuples(node, node).map(lambda p: tuple(sorted(p))),
                          max_size=8, unique=True))
    rows = [[str(i), str(j), draw(weight)] for i, j in pairs]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        spot = draw(st.integers(0, 4))
        if spot < 2:
            row[spot] = draw(st.sampled_from(_ODD_IDS) | st.integers(-2, n + 1).map(str))
        elif spot == 2:
            row[2] = draw(st.sampled_from(_ODD_WEIGHTS) | st.floats().map(repr))
        elif spot == 3:
            row.append(draw(st.sampled_from(["", "0.5", "x"])))
        else:  # the same pair again, maybe with another weight
            rows.append(row[:2] + [draw(weight)])
    ends = st.sampled_from(_LINE_ENDS) if draw(st.booleans()) else st.just("\n")
    body = "".join(",".join(row) + draw(ends) for row in rows)
    if draw(st.booleans()):
        body = body.rstrip("\n")
    return (head + body).encode()


@settings(max_examples=300, deadline=None)
@given(raw=_edge_list_bytes())
@example(raw=b"n=2,class=weighted\ni,j,weight\n0,1,0.5\n0,1,0.25\n")
@example(raw=b"n=2,class=unweighted\ni,j,weight\n0,0,1.0\n0,1,1\n1,1,1.0")
def test_edge_list_reader_is_total(raw):
    # every file reads as a graph or fails with a GndeError; a parse error
    # names one of the file's lines
    got = _read_bytes(raw)
    assert isinstance(got, (smp.SampledGraph, GndeError)), got
    if isinstance(got, EdgeListParseError):
        _assert_names_its_line(raw, got)


def _reference_edge_list(g) -> bytes:
    """The edge list one row at a time, as the format defines it."""
    out = [f"n={g.n},class={g.value_class}\n", "i,j,weight\n"]
    for i, j in zip(*np.triu_indices(g.n)):
        if g.adjacency[i, j] != 0.0:
            out.append(f"{i},{j},{float(g.adjacency[i, j])!r}\n")
    return "".join(out).encode()


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 12))
    upper = np.triu(np.ones((n, n), dtype=bool))
    if draw(st.booleans()):
        entries = st.sampled_from([0.0, 1.0])
        cls = "unweighted"
    else:
        entries = st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0]) \
            | st.floats(0.0, 1.0)
        cls = "weighted"
    values = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
    adj = np.where(upper, values.reshape(n, n), 0.0)
    return smp.SampledGraph(adj + np.triu(adj, 1).T, cls)


@settings(max_examples=80, deadline=None)
@given(g=_graphs(), chunk_rows=st.sampled_from([1, 2, 3, smp._WRITE_ROWS]))
@example(g=smp.SampledGraph(np.zeros((1, 1)), "weighted"), chunk_rows=1)
@example(g=smp.SampledGraph(np.ones((1, 1)), "unweighted"), chunk_rows=1)
@example(g=smp.SampledGraph(np.zeros((5, 5)), "unweighted"), chunk_rows=2)
@example(g=smp.SampledGraph(np.full((3, 3), 5e-324), "weighted"), chunk_rows=2)
def test_edge_list_round_trip_bits(g, chunk_rows):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(smp, "_WRITE_ROWS", chunk_rows):
        path = Path(tmp) / "edges.csv"
        smp.write_edge_list(g, path)
        raw = path.read_bytes()
        back = smp.read_edge_list(path)
    assert raw == _reference_edge_list(g)
    assert back.value_class == g.value_class
    assert back.adjacency.tobytes() == g.adjacency.tobytes()
    # what was read writes back as the same bytes
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "again.csv"
        smp.write_edge_list(back, path)
        assert path.read_bytes() == raw


@st.composite
def _pooled_graphs(draw):
    """Weighted graphs whose weights come from a few floats and their
    one-ulp neighbours, so chunks repeat weights and hold adjacent ones;
    or unweighted graphs."""
    n = draw(st.integers(1, 24))
    if draw(st.booleans()):
        pool, cls = [0.0, 1.0], "unweighted"
    else:
        base = draw(st.lists(st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1.0])
                             | st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=4))
        pool = [0.0] + [float(v) for b in base
                        for v in (np.nextafter(b, 0.0), b, np.nextafter(b, 2.0)) if 0.0 < v <= 1.0]
        cls = "weighted"
    values = np.array(draw(st.lists(st.sampled_from(pool), min_size=n * n, max_size=n * n)))
    adj = np.triu(values.reshape(n, n))
    return smp.SampledGraph(adj + np.triu(adj, 1).T, cls)


@settings(max_examples=80, deadline=None)
@given(g=_pooled_graphs(), chunk_rows=st.sampled_from([1, 3, smp._WRITE_ROWS]))
@example(g=smp.SampledGraph(np.array([[1.0, np.nextafter(1.0, 0.0)],
                                      [np.nextafter(1.0, 0.0), 1.0]]), "weighted"),
         chunk_rows=3)
def test_edge_list_write_matches_per_row_repr(g, chunk_rows):
    # the writer's per-chunk repr table against one repr per row
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(smp, "_WRITE_ROWS", chunk_rows):
        path = Path(tmp) / "edges.csv"
        smp.write_edge_list(g, path)
        assert path.read_bytes() == _reference_edge_list(g)


def test_edge_list_drops_negative_zero(tmp_path):
    # -0.0 == 0.0, so it is no edge: written as absent, read back as +0.0.
    # SampledGraph holds no other negative weight.
    g = smp.SampledGraph(np.array([[-0.0, 0.5], [0.5, 0.0]]), "weighted")
    path = tmp_path / "edges.csv"
    smp.write_edge_list(g, path)
    assert path.read_bytes() == b"n=2,class=weighted\ni,j,weight\n0,1,0.5\n"
    assert smp.read_edge_list(path).adjacency.tobytes() == np.array(
        [[0.0, 0.5], [0.5, 0.0]]).tobytes()


def test_dense_size_guard_fires_before_allocating(tmp_path):
    over = smp.MAX_DENSE_NODES + 1
    path = tmp_path / "big.csv"
    for end in (b"\n", b"\r\n"):
        path.write_bytes(b"n=%d,class=unweighted%si,j,weight%s0,1,1.0%s" % (over, end, end, end))
        with mock.patch.object(np, "zeros", side_effect=AssertionError("allocated")), \
                mock.patch.object(np, "loadtxt", side_effect=AssertionError("parsed")):
            with pytest.raises(ComplexityGuardError, match=f"n={over} exceeds"):
                smp.read_edge_list(path)
    with pytest.raises(ComplexityGuardError):
        smp.sample_weighted(cat.tent(1.0), over)
    with pytest.raises(ComplexityGuardError):
        smp.sample_unweighted(cat.from_name("hexaflake"), over)
    deep = cat.hexaflake(depth=10)
    with pytest.raises(ComplexityGuardError):  # a 3^10 x 3^10 support pattern
        smp.sample_unweighted(deep, 16)
    # evaluation and box counting need no pattern and keep working
    assert cat.evaluate(deep, 0.5, 0.5) == 1.0
    assert cat.support_boundary(deep).count(27) == 7**3
    with pytest.raises(ComplexityGuardError):
        smp.sample_features_pointwise(smp.FeatureFunctionSpec("constant", [[1.0]], [[0.0]]), over)


def test_feature_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    fm = smp.FeatureMatrix(rng.normal(size=(6, 3)))
    path = tmp_path / "features.csv"
    smp.write_feature_matrix(fm, path)
    assert path.read_bytes() == ("f0,f1,f2\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in fm.values.tolist())).encode()
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(back, fm.values)


def test_format_cell():
    assert smp.format_cell(None) == ""
    assert smp.format_cell(0.1) == "0.1"
    assert smp.format_cell(float(2)) == "2.0"
    assert smp.format_cell(42) == "42"
    assert smp.format_cell("tent") == "tent"
    # numpy scalars print as the Python values they hold
    assert smp.format_cell(np.float64(0.1)) == "0.1"
    assert smp.format_cell(np.float32(0.5)) == "0.5"
    assert smp.format_cell(np.int64(7)) == "7"


def test_write_csv(tmp_path):
    # a convergence-report table, as gnde converge writes it
    path = tmp_path / "report.csv"
    rows = [["tent", 1.0, 128, 2048, 1.0, 7, 0.125, 0.25, None, None, 3.5],
            ["hsbm", np.float64(1.5), 8, 16, 0.5, 9, None, np.float64(0.25), None, None, 0.0]]
    smp.write_csv(path, REPORT_COLUMNS, rows)
    assert path.read_bytes() == (
        ",".join(REPORT_COLUMNS) + "\n"
        "tent,1.0,128,2048,1.0,7,0.125,0.25,,,3.5\n"
        "hsbm,1.5,8,16,0.5,9,,0.25,,,0.0\n").encode()


def test_sampled_graph_validation():
    with pytest.raises(InvalidParameterError):
        smp.SampledGraph(np.array([[0.0, 1.0], [0.5, 0.0]]), "weighted")
    with pytest.raises(InvalidParameterError):
        smp.SampledGraph(np.full((2, 2), 1.5), "weighted")
    with pytest.raises(InvalidParameterError):
        smp.SampledGraph(np.full((2, 2), 0.5), "unweighted")
    with pytest.raises(InvalidParameterError):
        smp.SampledGraph(np.zeros((2, 2)), "signed")
    with pytest.raises(InvalidParameterError):
        smp.SampledGraph(np.zeros((2, 3)), "weighted")
    # NaN is out of range, whether mirrored or on the diagonal
    for value_class, message in (("weighted", "must lie in"), ("unweighted", "must be 0 or 1")):
        for nan_at in ([0, 1], [1, 0]), ([1], [1]):
            adj = np.zeros((2, 2))
            adj[nan_at] = np.nan
            with pytest.raises(InvalidParameterError, match=message):
                smp.SampledGraph(adj, value_class)


def test_pwc_validation():
    with pytest.raises(InvalidParameterError):
        smp.PiecewiseConstantFunction(np.array([0.0, 0.9]), np.array([[1.0]]))
    with pytest.raises(InvalidParameterError):
        smp.PiecewiseConstantFunction(np.array([0.0, 0.5, 0.5, 1.0]), np.ones((3, 1)))
    with pytest.raises(InvalidParameterError):
        smp.PiecewiseConstantFunction(np.array([0.0, 1.0]), np.ones((2, 1)))
    with pytest.raises(InvalidParameterError):
        smp.PiecewiseConstantFunction(np.array([0.0, 0.5, 1.0]), np.ones((2, 3)), kernel=True)
