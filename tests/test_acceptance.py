"""Acceptance criteria, one test per numbered criterion.

Criteria 1-4 read the shared desk-preset sweeps (tent, Hoelder tent,
checkerboard 8, HSBM, hexaflake; 10 trials each at master seed 42).  The
rest drive the library directly, as does criterion 3's second test, on
the kernel sampling gap that orders the binary kernels.  Tolerances are
fixed here and nowhere else; a genuine regression must turn exactly one
of these lines red.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from gnde import analysis as an
from gnde import catalog as cat
from gnde import dynamics as dyn
from gnde import kernels, neural
from gnde import sampling as smp
from gnde.cli import entry

TANH = neural.Activation("tanh")


def test_criterion_01_lipschitz_tent_rate(tent_sweep):
    _, summary = tent_sweep
    slopes = summary["per_trial_slopes"]
    assert len(slopes) == 10 and all(s is not None for s in slopes)
    assert -1.25 <= summary["mean_slope"] <= -0.80, summary["mean_slope"]


def test_criterion_02_holder_tent_rate(holder_sweep):
    _, summary = holder_sweep
    assert summary["alpha_or_dim"] == 0.5
    assert -0.70 <= summary["mean_slope"] <= -0.35, summary["mean_slope"]


def test_criterion_03_binary_dimension_ordering(
    checkerboard_sweep, hsbm_sweep, hexaflake_sweep
):
    rough = hexaflake_sweep[1]["mean_slope"]
    for name, sweep in (("checkerboard", checkerboard_sweep), ("hsbm", hsbm_sweep)):
        smooth = sweep[1]["mean_slope"]
        assert smooth <= rough - 0.1, (name, smooth, rough)


def test_criterion_03_kernel_gap_at_unaligned_sizes():
    # The exact sampling gap ||W - W_n||_L2 of a binary kernel falls like
    # n^-(2 - b)/2.  The sizes are not multiples of the 8 x 8 block
    # patterns' width, where W_n = W and the gap is 0; no random draw enters.
    ns = (101, 151, 203, 307, 409, 613, 1021, 2039)
    specs = {"checkerboard": cat.checkerboard(8), "hsbm": cat.hsbm(),
             "hexaflake": cat.hexaflake()}
    slopes = {}
    for name, spec in specs.items():
        pattern = cat.support_pattern(spec).astype(np.float64)
        w = smp.PiecewiseConstantFunction(
            cat.uniform_breakpoints(pattern.shape[0]), pattern, kernel=True)
        gaps = [cat.kernel_distance(smp.induce_kernel(smp.sample_unweighted(spec, n)), w)
                for n in ns]
        slopes[name] = an.fit_rate(zip(ns, gaps))[0]
    rough = slopes.pop("hexaflake")
    for name, slope in slopes.items():
        b = specs[name].nominal_box_dim
        assert abs(slope + (2.0 - b) / 2.0) <= 0.05, (name, slope)
        assert slope <= rough - 0.2, (name, slope, rough)


def test_criterion_04_bound_dominance(
    tent_sweep, holder_sweep, checkerboard_sweep, hsbm_sweep, hexaflake_sweep
):
    weighted = [*tent_sweep[0], *holder_sweep[0]]
    unweighted = [*checkerboard_sweep[0], *hsbm_sweep[0], *hexaflake_sweep[0]]
    checked = 0
    violations = []
    for row in weighted + [r for r in unweighted if int(r["n"]) >= 256]:
        err = float(row["abs_err"])
        bound = float(row["bound"])
        checked += 1
        if err > bound:
            violations.append((row["graphon"], row["n"], err, bound))
    assert checked == 2 * 70 + 3 * 50
    assert violations == []


def test_criterion_05_three_solver_agreement():
    rng = np.random.default_rng(4242)
    for case in range(20):
        n = int(rng.integers(2, 21))
        T = float(0.1 + 0.4 * rng.random())
        if case % 2 == 0:
            s = kernels.ShiftOperator(smp.sample_weighted(cat.tent(), n))
        else:
            s = kernels.ShiftOperator(smp.sample_unweighted(cat.checkerboard(4), n))
        L, F, K = (int(rng.integers(1, 3)) for _ in range(3))
        bank = neural.random_filter_bank(L, F, K, rng)
        z = rng.normal(size=(n, F))
        trajs = [
            dyn.integrate(s, z, bank, TANH, T, dyn.SolverConfig(method=m, eval_grid=10))
            for m in ("rk4", "dp5", "picard")
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                gap = max(
                    dyn.scaled_norm(trajs[i].states[m] - trajs[j].states[m])
                    for m in range(11)
                )
                assert gap <= 1e-6, (case, i, j, gap)


def test_criterion_06_stability_inequality():
    rng = np.random.default_rng(366)
    spec = cat.tent()
    cfg = dyn.SolverConfig(method="dp5", atol=1e-7, rtol=1e-7, eval_grid=20)
    margins = []
    for _ in range(20):
        n = int(rng.integers(8, 49))
        n_ref = int(rng.integers(64, 161))
        bank = neural.random_filter_bank(2, 1, 2, rng)
        feature = smp.random_fourier_features(1, 5, rng)
        g_n, g_ref = smp.sample_weighted(spec, n), smp.sample_weighted(spec, n_ref)
        z_n = smp.sample_features_pointwise(feature, n)
        z_ref = smp.sample_features_pointwise(feature, n_ref)
        traj_n = dyn.integrate(smp.graph_shift(g_n), z_n, bank, TANH, 1.0, cfg)
        traj_ref = dyn.integrate(smp.graph_shift(g_ref), z_ref, bank, TANH, 1.0, cfg)
        kernel_gap = cat.kernel_distance(smp.induce_kernel(g_n), smp.induce_kernel(g_ref))
        feature_gap = smp.overlay_l2_distance(
            smp.induce_features(z_n), smp.induce_features(z_ref)
        )
        x_sup = max(
            dyn.scaled_norm(traj_ref.states[j]) for j in range(traj_ref.eval_times.size)
        )
        p, q = an.stability_constants(
            an.BoundInputs(
                F=1, K=2, L=2, T=1.0,
                h_T=neural.h_sup_certified(bank), X_sup_norm=x_sup,
            )
        )
        holds, margin = an.stability_bound_check(
            traj_n, traj_ref, kernel_gap, feature_gap, p, q, tol=1e-6
        )
        margins.append(margin)
        assert holds, (n, n_ref, margin)
    assert min(margins) >= -1e-6


def _transfer_family(spec, ns, feature, rng):
    # sampled and integrated as `gnde converge` samples and integrates
    bank = neural.random_filter_bank(2, 1, 2, rng)
    cfg = dyn.SolverConfig(method="dp5", atol=1e-7, rtol=1e-7, eval_grid=20)
    trajs = {}
    for n in ns:
        g, (z,) = smp.sample_system(spec, n, [feature])
        trajs[n] = dyn.integrate(kernels.ShiftOperator(g), z, bank, TANH, 1.0, cfg)
    x_sup = max(
        dyn.scaled_norm(t.states[j])
        for t in trajs.values()
        for j in range(t.eval_times.size)
    )
    return bank, trajs, x_sup


def test_criterion_07_transferability_pairs():
    rng = np.random.default_rng(4207)
    feature = smp.random_fourier_features(1, 10, rng)
    for name, spec, ns in (("tent", cat.tent(), (64, 128, 256, 512)),
                           ("checkerboard", cat.checkerboard(), (256, 512))):
        bank, trajs, x_sup = _transfer_family(spec, ns, feature, rng)
        # the constant and exponent of the bound column `gnde converge` writes
        _, exponent, kernel_term = an.rate_form(spec, 0.1)
        inp = an.BoundInputs(
            F=1, K=2, L=2, T=1.0, h_T=neural.h_sup_certified(bank),
            X_sup_norm=x_sup, A2=feature.lipschitz_bound(),
        )
        constant = an.rate_constant(inp, kernel_term)
        for a in ns:
            for b in ns:
                holds, margin = an.transferability_gap_check(
                    trajs[a], trajs[b], constant, exponent
                )
                assert holds, (name, a, b, margin)


def test_criterion_08_box_counting_recovery():
    cases = [
        (cat.SegmentSet(), 1.0, 0.05),
        (cat.FullSquareSet(), 2.0, 0.02),
        (cat.support_boundary(cat.sierpinski(depth=5)), 1.89, 0.1),
        (cat.support_boundary(cat.hexaflake(depth=5)), 1.77, 0.1),
    ]
    for point_set, target, tol in cases:
        est, _ = cat.box_counting_dimension(point_set, cat.default_delta_schedule(point_set))
        assert abs(est - target) <= tol, (point_set, est, target)


def test_criterion_09_invariant_suites(tmp_path):
    rng = np.random.default_rng(909)

    # AS1: rho(0) = 0 and |rho(x) - rho(y)| <= |x - y|
    x, y = rng.normal(size=(2, 256))
    for kind in ("identity", "relu", "leaky_relu", "tanh"):
        act = neural.Activation(kind)
        assert act.apply(0.0) == 0.0
        assert np.all(np.abs(act.apply(x) - act.apply(y)) <= np.abs(x - y) + 1e-15)

    # forward-map Lipschitz bound (F K h_T)^L on a norm-1 shift
    s = smp.graph_shift(smp.sample_weighted(cat.tent(), 10))
    for _ in range(5):
        bank = neural.random_filter_bank(2, 2, 2, rng)
        lip = (bank.F * bank.K * neural.h_sup_certified(bank)) ** bank.L
        xa = rng.normal(size=(10, 2))
        xb = rng.normal(size=(10, 2))
        gap = np.linalg.norm(
            kernels.layer_stack_forward(s, xa, bank.coeffs, TANH.act_id, TANH.slope)
            - kernels.layer_stack_forward(s, xb, bank.coeffs, TANH.act_id, TANH.slope)
        )
        assert gap <= lip * np.linalg.norm(xa - xb) * (1 + 1e-12)

    # permutation equivariance, bit-exact
    perm = rng.permutation(10)
    coeffs = rng.uniform(-1.0, 1.0, size=(2, 2, 2, 2))
    xa = rng.normal(size=(10, 2))
    base = kernels.layer_stack_forward(s, xa, coeffs, TANH.act_id, TANH.slope)
    moved = kernels.layer_stack_forward(s[np.ix_(perm, perm)], xa[perm], coeffs,
                                        TANH.act_id, TANH.slope)
    assert np.array_equal(base[perm], moved)

    # RK4 order: halving the step cuts the error by ~2^4
    ork = np.random.default_rng(6)
    s8 = smp.graph_shift(smp.sample_weighted(cat.tent(), 8))
    bank = neural.random_filter_bank(2, 2, 2, ork)
    z = ork.normal(size=(8, 2))
    tight = dyn.SolverConfig(method="dp5", atol=1e-12, rtol=1e-12, eval_grid=1)
    ref = dyn.integrate(s8, z, bank, TANH, 1.0, tight).states[-1]
    errs = [
        dyn.scaled_norm(
            dyn.integrate(
                s8, z, bank, TANH, 1.0,
                dyn.SolverConfig(method="rk4", rk4_step=h, eval_grid=1),
            ).states[-1]
            - ref
        )
        for h in (0.05, 0.025)
    ]
    assert 12.0 <= errs[0] / errs[1] <= 20.0

    # overlay metric axioms on random step functions
    def rand_pwc():
        m = int(rng.integers(1, 6))
        bp = np.linspace(0.0, 1.0, m + 1)
        return smp.PiecewiseConstantFunction(bp, rng.normal(size=(m, 1)))

    for _ in range(10):
        fa, fb, fc = rand_pwc(), rand_pwc(), rand_pwc()
        dab = smp.overlay_l2_distance(fa, fb)
        assert dab == smp.overlay_l2_distance(fb, fa)
        assert smp.overlay_l2_distance(fa, fa) == 0.0
        assert dab <= smp.overlay_l2_distance(fa, fc) + smp.overlay_l2_distance(fc, fb) + 1e-12

    # hom-density consistency between a graph and its induced kernel
    g = smp.sample_unweighted(cat.hsbm(2), 8)
    for motif in (cat.EDGE, cat.TRIANGLE):
        assert math.isclose(
            cat.hom_density_graph(motif, g),
            cat.hom_density_graphon(motif, smp.induce_kernel(g), grid=16),
            abs_tol=1e-12,
        )

    # norm ordering L1 <= L2 on kernel pairs
    for spec_a, spec_b in ((cat.tent(), cat.checkerboard(4)), (cat.hsbm(2), cat.sierpinski(2))):
        l1 = cat.kernel_distance(spec_a, spec_b, norm="L1", grid=64)
        l2 = cat.kernel_distance(spec_a, spec_b, norm="L2", grid=64)
        assert l1 <= l2 + 1e-12

    # CSV determinism: identical config -> identical bytes (runtime_ms aside)
    cfgp = tmp_path / "det.cfg"
    cfgp.write_text("n_list=8,12,16\nn_ref=32\ntrials=1\nT=0.25\nsolver=rk4\neval_grid=10\n")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"det_{tag}.csv"
        assert entry(["converge", "--config", str(cfgp), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("runtime_ms")
        outs.append([[c for i, c in enumerate(r) if i != drop] for r in rows])
    assert outs[0] == outs[1]
    assert (tmp_path / "det_a.csv.summary.json").read_bytes() == (
        tmp_path / "det_b.csv.summary.json"
    ).read_bytes()


def test_criterion_10_audit_monotone(tmp_path):
    sample_cfg = tmp_path / "g.cfg"
    sample_cfg.write_text("graphon=tent\nn=512\n")
    edges = tmp_path / "g.csv"
    assert entry(["sample", "--config", str(sample_cfg), "--out", str(edges)]) == 0
    audit_cfg = tmp_path / "audit.cfg"
    audit_cfg.write_text(f"edge_list={edges}\naudit_trials=20\n")
    out = tmp_path / "audit.csv"
    assert entry(["transfer-audit", "--config", str(audit_cfg), "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "audit.csv.summary.json").read_text())
    props = summary["proportions"]
    means = summary["mean_rel_err"]
    assert props == [round(0.1 * k, 1) for k in range(1, 11)]
    for lo, hi in zip(means, means[1:]):
        assert hi <= lo + 1e-12, (means,)
    assert means[-1] == 0.0
