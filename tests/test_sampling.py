"""Graph and feature sampling, induced step functions, file formats."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gnde import catalog as cat
from gnde import sampling as smp
from gnde.errors import (
    ComplexityGuardError,
    DimensionMismatchError,
    EdgeListParseError,
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
    z = smp.FeatureFunctionSpec("fourier_polynomial", [[1.0]], [[0.0]], degree=1)
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
    with pytest.raises(InvalidParameterError):
        smp.FeatureFunctionSpec("fourier_polynomial", [[1.0, 2.0]], [[0.0, 0.0]], degree=3)
    with pytest.raises(InvalidParameterError):
        smp.constant_feature([np.inf])
    z = smp.constant_feature([1.0])
    with pytest.raises(InvalidParameterError):
        z.evaluate([0.5, 1.2])


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


def test_holder_bound_certifies_increments():
    rng = np.random.default_rng(17)
    z = smp.random_holder_features(2, 6, rng)
    a2, beta = z.holder_bound()
    assert beta == 0.5
    u = rng.random(400)
    v = rng.random(400)
    zu = z.evaluate(u)
    zv = z.evaluate(v)
    gap = np.linalg.norm(zu - zv, axis=1)
    allowed = a2 * math.sqrt(z.F) * np.abs(u - v) ** beta
    assert np.all(gap <= allowed + 1e-9)


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


def test_dense_size_guard_fires_before_allocating(tmp_path):
    over = smp.MAX_DENSE_NODES + 1
    path = tmp_path / "big.csv"
    path.write_text(f"n={over},class=unweighted\ni,j,weight\n0,1,1.0\n")
    with pytest.raises(ComplexityGuardError):
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
    assert path.read_text().splitlines()[0] == "f0,f1,f2"
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(back, fm.values)


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


def test_pwc_validation():
    with pytest.raises(InvalidParameterError):
        smp.PiecewiseConstantFunction(np.array([0.0, 0.9]), np.array([[1.0]]))
    with pytest.raises(InvalidParameterError):
        smp.PiecewiseConstantFunction(np.array([0.0, 0.5, 0.5, 1.0]), np.ones((3, 1)))
    with pytest.raises(InvalidParameterError):
        smp.PiecewiseConstantFunction(np.array([0.0, 1.0]), np.ones((2, 1)))
    with pytest.raises(InvalidParameterError):
        smp.PiecewiseConstantFunction(np.array([0.0, 0.5, 1.0]), np.ones((2, 3)), kernel=True)
