"""Theoretical constants, trajectory error metrics, rate fits, reports."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnde import analysis as an
from gnde import catalog as cat
from gnde import sampling as smp
from gnde.dynamics import TrajectoryRecord
from gnde.errors import (
    DegenerateReferenceError,
    InsufficientDataError,
    InvalidParameterError,
    LogDomainError,
)


def test_stability_constants_formulas():
    inp = an.BoundInputs(F=2, K=3, L=2, T=1.5, h_T=0.4, X_sup_norm=2.0)
    p, q = an.stability_constants(inp)
    assert p == pytest.approx(math.exp(1.5 * (2 * 3 * 0.4) ** 2), rel=1e-15)
    assert q == pytest.approx((p - 1.0) * 2 * 3 * 2.0, rel=1e-15)


def test_holder_radical_against_quadrature():
    # radical(a)^2 = int_0^1 int_0^1 (u+v)^(2a) du dv, evaluated independently
    nodes, weights = np.polynomial.legendre.leggauss(60)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    for alpha in (0.3, 0.5, 0.75, 1.0):
        integrand = (u[:, None] + u[None, :]) ** (2.0 * alpha)
        want = float(w @ integrand @ w)
        assert an.holder_kernel_radical(alpha) ** 2 == pytest.approx(want, abs=1e-10)
    assert an.holder_kernel_radical(1.0) == pytest.approx(math.sqrt(7.0 / 6.0), rel=1e-15)


def test_kernel_sampling_bound_certifies_tent():
    for alpha in (0.5, 1.0):
        spec = cat.tent(alpha)
        a1, a = spec.holder_meta
        for n in (16, 32):
            g = smp.sample_weighted(spec, n)
            actual = cat.kernel_distance(smp.induce_kernel(g), spec, grid=4 * n)
            assert actual <= an.kernel_sampling_bound(a1, a, n) + 1e-9, (alpha, n)


def test_feature_sampling_bound_tight_for_linear():
    assert an.feature_sampling_bound(2.0, 3, 10) == pytest.approx(0.2, rel=1e-15)
    # a pure-slope feature attains the bound exactly: per-cell error
    # integrates to (A2/n)^2 / 3 on each of the n cells
    a2, n = 1.5, 8
    exact = a2 / (math.sqrt(3.0) * n)
    assert an.feature_sampling_bound(a2, 1, n) == pytest.approx(exact, rel=1e-15)


def test_rate_constants():
    inp = an.BoundInputs(
        F=2, K=2, L=2, T=1.0, h_T=0.5, X_sup_norm=1.5, A1=1.0, alpha=0.5, A2=2.0
    )
    p, _ = an.stability_constants(inp)
    want = p * (
        2.0 * math.sqrt(2.0 / 3.0)
        + 2 * 2 * 1.5 * 1.0 * an.holder_kernel_radical(0.5)
    )
    assert an.rate_constant_weighted(inp) == pytest.approx(want, rel=1e-15)
    rough = an.BoundInputs(
        F=2, K=2, L=2, T=1.0, h_T=0.5, X_sup_norm=1.5, A2=2.0, b=1.5, eps=0.1
    )
    c, e = an.rate_constant_unweighted(rough)
    assert e == pytest.approx(1.0 - (1.5 + 0.1) / 2.0, rel=1e-15)
    assert c == pytest.approx(p * (2.0 * math.sqrt(2.0 / 3.0) + 2 * 2 * 1.5), rel=1e-15)
    with pytest.raises(InvalidParameterError):
        an.rate_constant_unweighted(inp)


def test_bound_inputs_validation():
    ok = dict(F=1, K=1, L=1, T=1.0, h_T=1.0, X_sup_norm=1.0)
    with pytest.raises(InvalidParameterError):
        an.BoundInputs(**{**ok, "F": 0})
    with pytest.raises(InvalidParameterError):
        an.BoundInputs(**{**ok, "h_T": -0.1})
    with pytest.raises(InvalidParameterError):
        an.BoundInputs(**{**ok, "alpha": 0.0})
    with pytest.raises(InvalidParameterError):
        an.BoundInputs(**{**ok, "alpha": 1.5})
    with pytest.raises(InvalidParameterError):
        an.BoundInputs(**{**ok, "b": 2.0, "eps": 0.1})
    with pytest.raises(InvalidParameterError):
        an.BoundInputs(**{**ok, "b": 1.5, "eps": 0.6})
    with pytest.raises(InvalidParameterError):
        an.BoundInputs(**{**ok, "b": 1.5})


def _record(states):
    states = np.asarray(states, dtype=np.float64)
    times = np.arange(states.shape[0], dtype=np.float64)
    return TrajectoryRecord(times, states, {"method": "test"})


def test_trajectory_errors_cross_resolution():
    coarse = _record([[[1.0], [0.0]], [[1.0], [0.0]]])
    fine = _record([[[1.0], [1.0], [0.0], [0.0]], [[1.0], [0.0], [0.0], [0.0]]])
    # t=0: identical step functions; t=1: they differ by 1 on [1/4, 1/2)
    assert an.trajectory_sup_absolute_error(coarse, fine) == pytest.approx(0.5, abs=1e-15)
    assert an.trajectory_sup_relative_error(coarse, fine) == pytest.approx(1.0, abs=1e-14)


def test_relative_error_zero_cases():
    zero2 = _record(np.zeros((2, 2, 1)))
    zero4 = _record(np.zeros((2, 4, 1)))
    assert an.trajectory_sup_relative_error(zero2, zero4) == 0.0
    lively = _record(np.ones((2, 2, 1)))
    with pytest.raises(DegenerateReferenceError) as err:
        an.trajectory_sup_relative_error(lively, zero4)
    assert err.value.time == 0.0


@st.composite
def _trajectory_pairs(draw):
    """An (n-node, reference) trajectory pair on a shared eval grid.

    Node counts are nested (24 in 256), non-nested (7 vs 3) or arbitrary.
    Each eval time is free, has an all-zero reference, is all zero on both
    sides, or has equal induced step functions (zero distance, nonzero
    reference); the reference may also be zero at every eval time, or
    scaled to a norm below the 1e-12 guard.
    """
    n, n_ref = draw(st.one_of(
        st.sampled_from([(24, 256), (256, 24), (7, 3), (3, 7), (16, 16)]),
        st.tuples(st.integers(1, 40), st.integers(1, 40)),
    ))
    F = draw(st.integers(1, 3))
    J = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states_n = draw(st.sampled_from([1e-8, 1.0, 1e8])) * rng.standard_normal((J, n, F))
    states_ref = draw(st.sampled_from([1e-14, 1.0, 1e3])) * rng.standard_normal((J, n_ref, F))
    states_n[rng.random(states_n.shape) < 0.2] = 0.0
    for j in range(J):
        kind = draw(st.sampled_from(["free", "free", "zero_ref", "zero_both", "same"]))
        if kind == "same" and n_ref % n == 0:
            states_ref[j] = np.repeat(states_n[j], n_ref // n, axis=0)
        elif kind == "same" and n % n_ref == 0:
            states_n[j] = np.repeat(states_ref[j], n // n_ref, axis=0)
        elif kind != "free":
            states_ref[j] = 0.0
            if kind != "zero_ref":
                states_n[j] = 0.0
    if draw(st.integers(0, 3)) == 0:
        states_ref[:] = 0.0
    times = np.linspace(0.0, 1.0, J)
    return TrajectoryRecord(times, states_n, {}), TrajectoryRecord(times, states_ref, {})


@settings(max_examples=200, deadline=None)
@given(_trajectory_pairs())
def test_sup_errors_equal_per_state_overlay(pair):
    traj_n, traj_ref = pair
    dists, norms = [], []
    for x_n, x_ref in zip(traj_n.states, traj_ref.states):
        ref = smp.induce_features(smp.FeatureMatrix(x_ref))
        dists.append(smp.overlay_l2_distance(smp.induce_features(smp.FeatureMatrix(x_n)), ref))
        norms.append(smp.pwc_l2_norm(ref))
    assert an.trajectory_sup_absolute_error(traj_n, traj_ref).hex() == max(dists).hex()
    ratios = [0.0]
    for t, dist, norm in zip(traj_ref.eval_times, dists, norms):
        if dist == 0.0:
            continue
        if norm < 1e-12:
            with pytest.raises(DegenerateReferenceError) as err:
                an.trajectory_sup_relative_error(traj_n, traj_ref)
            assert err.value.time == t
            assert str(err.value) == f"reference trajectory norm below 1e-12 at t={t!r}"
            return
        ratios.append(dist / norm)
    assert an.trajectory_sup_relative_error(traj_n, traj_ref).hex() == max(ratios).hex()


def test_trajectory_compat_guards():
    a = _record(np.zeros((2, 2, 1)))
    b = _record(np.zeros((2, 2, 2)))
    with pytest.raises(InvalidParameterError):
        an.trajectory_sup_absolute_error(a, b)
    c = TrajectoryRecord(np.array([0.0, 0.5]), np.zeros((2, 2, 1)), {})
    with pytest.raises(InvalidParameterError):
        an.trajectory_sup_absolute_error(a, c)


def test_stability_bound_check():
    coarse = _record([[[1.0], [0.0]], [[1.0], [0.0]]])
    fine = _record([[[1.0], [1.0], [0.0], [0.0]], [[1.0], [0.0], [0.0], [0.0]]])
    holds, margin = an.stability_bound_check(coarse, coarse, 0.0, 0.0, P=1.0, Q=0.0)
    assert holds and margin == 0.0
    holds2, margin2 = an.stability_bound_check(
        coarse, fine, kernel_gap=0.0, feature_gap=0.1, P=1.0, Q=0.0
    )
    assert not holds2
    assert margin2 == pytest.approx(-0.4, abs=1e-12)


def test_transferability_gap_check():
    coarse = _record([[[1.0], [0.0]], [[1.0], [0.0]]])
    fine = _record([[[1.0], [1.0], [0.0], [0.0]], [[1.0], [0.0], [0.0], [0.0]]])
    holds, margin = an.transferability_gap_check(coarse, fine, constant=1.0, exponent=1.0)
    assert holds
    assert margin == pytest.approx(0.5 + 0.25 - 0.5, abs=1e-12)


def test_fit_rate_exact_power_law():
    ns = [128, 256, 512, 1024]
    rows = [(n, 3.7 * n**-0.84) for n in ns]
    slope, intercept, stderr = an.fit_rate(rows)
    assert slope == pytest.approx(-0.84, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.7), abs=1e-12)
    assert stderr <= 1e-12


def test_fit_rate_noise_and_guards():
    rng = np.random.default_rng(77)
    rows = [(n, 2.0 * n**-1.0 * math.exp(rng.normal(0.0, 0.05))) for n in (64, 128, 256, 512, 1024)]
    slope, _, stderr = an.fit_rate(rows)
    assert slope == pytest.approx(-1.0, abs=0.15)
    assert stderr > 0.0
    with pytest.raises(InsufficientDataError):
        an.fit_rate([(64, 0.1), (128, 0.05)])
    with pytest.raises(LogDomainError):
        an.fit_rate([(64, 0.1), (128, 0.0), (256, 0.01)])
    with pytest.raises(InvalidParameterError):
        an.fit_rate([(64, 0.1), (64, 0.2), (64, 0.3)])


def test_format_cell():
    assert an.format_cell(None) == ""
    assert an.format_cell(0.1) == "0.1"
    assert an.format_cell(float(2)) == "2.0"
    assert an.format_cell(42) == "42"
    assert an.format_cell("tent") == "tent"


def test_write_report_csv(tmp_path):
    path = tmp_path / "report.csv"
    rows = [
        {
            "graphon": "tent",
            "alpha_or_dim": 1.0,
            "n": 128,
            "n_ref": 2048,
            "T": 1.0,
            "seed": 7,
            "sup_rel_err": 0.125,
            "abs_err": 0.25,
            "bound": None,
            "slope_running": None,
            "runtime_ms": 3.5,
        }
    ]
    an.write_report_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(an.REPORT_COLUMNS)
    assert lines[1] == "tent,1.0,128,2048,1.0,7,0.125,0.25,,,3.5"


def test_write_summary_json_deterministic(tmp_path):
    summary = {"b": np.float64(0.5), "a": [np.int64(3), 2.0], "c": {"z": 1, "y": None}}
    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    an.write_summary_json(summary, p1)
    an.write_summary_json(summary, p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.endswith("\n")
    loaded = json.loads(text)
    assert loaded == {"b": 0.5, "a": [3, 2.0], "c": {"z": 1, "y": None}}
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
