"""End-to-end CLI behavior: outputs, determinism, exit codes."""

from __future__ import annotations

import builtins
import csv
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gnde
from gnde import sampling as smp
from gnde.analysis import REPORT_COLUMNS
from gnde.cli import DEFAULTS, build_parser, entry, load_config
from gnde.errors import ConfigError


def _cfg(tmp_path, name="run.cfg", **kv):
    path = tmp_path / name
    path.write_text("".join(f"{k}={v}\n" for k, v in kv.items()))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _rows_sans_runtime(path):
    rows = _read_csv(path)
    drop = rows[0].index("runtime_ms")
    return [[c for i, c in enumerate(row) if i != drop] for row in rows]


def test_catalog_lists_kernels(capsys):
    assert entry(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("tent", "holder-tent", "oscillatory", "hsbm", "checkerboard",
                 "sierpinski", "hexaflake"):
        assert name in out
    assert len(out.strip().splitlines()) == 7


def test_sample_outputs_and_determinism(tmp_path):
    cfg = _cfg(tmp_path, graphon="checkerboard", cells="4", n="12")
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert entry(["sample", "--config", cfg, "--out", out1]) == 0
    assert entry(["sample", "--config", cfg, "--out", out2]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.features.csv").read_bytes() == (tmp_path / "b.features.csv").read_bytes()
    graph = smp.read_edge_list(out1)
    assert graph.n == 12 and graph.value_class == "unweighted"
    feats = np.loadtxt(tmp_path / "a.features.csv", delimiter=",", skiprows=1, ndmin=2)
    assert feats.shape[0] == 12


def test_sample_weighted_defaults(tmp_path):
    cfg = _cfg(tmp_path, n="6")
    out = str(tmp_path / "tent.csv")
    assert entry(["sample", "--config", cfg, "--out", out]) == 0
    graph = smp.read_edge_list(out)
    assert graph.value_class == "weighted"
    # pointwise sampling puts W(0,0) = 1 on the diagonal
    assert graph.adjacency[0, 0] == 1.0


def test_integrate_writes_trajectory(tmp_path, capsys):
    cfg = _cfg(tmp_path, n="6", T="0.5", solver="rk4", eval_grid="10")
    out = str(tmp_path / "traj.csv")
    assert entry(["integrate", "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert len(lines) == 12
    assert lines[0].startswith("t,x_0_0")
    assert "final scaled norm" in capsys.readouterr().out
    meta = (tmp_path / "traj.csv.meta.txt").read_text()
    assert "method=rk4" in meta


def test_converge_small_sweep(tmp_path):
    cfg = _cfg(
        tmp_path, graphon="tent", n_list="8,12,16", n_ref="32", trials="2",
        T="0.25", solver="rk4", eval_grid="10",
    )
    out = str(tmp_path / "conv.csv")
    assert entry(["converge", "--config", cfg, "--out", out]) == 0
    rows = _read_csv(out)
    assert rows[0] == list(REPORT_COLUMNS)
    assert len(rows) == 1 + 2 * 3
    for row in rows[1:]:
        assert row[0] == "tent"
        assert float(row[6]) > 0.0  # sup_rel_err
        assert float(row[8]) > 0.0  # bound
    summary = json.loads((tmp_path / "conv.csv.summary.json").read_text())
    assert summary["n_list"] == [8, 12, 16]
    assert len(summary["per_trial_slopes"]) == 2
    assert summary["mean_slope"] is not None
    assert summary["row_errors"] == []
    assert set(summary["per_n_mean_rel_err"]) == {"8", "12", "16"}


def test_converge_deterministic_modulo_runtime(tmp_path):
    cfg = _cfg(
        tmp_path, graphon="tent", n_list="8,12,16", n_ref="32", trials="2",
        T="0.25", solver="rk4", eval_grid="10",
    )
    out1, out2 = str(tmp_path / "c1.csv"), str(tmp_path / "c2.csv")
    assert entry(["converge", "--config", cfg, "--out", out1]) == 0
    assert entry(["converge", "--config", cfg, "--out", out2, "--threads", "3"]) == 0
    assert _rows_sans_runtime(out1) == _rows_sans_runtime(out2)
    assert (tmp_path / "c1.csv.summary.json").read_bytes() == (
        tmp_path / "c2.csv.summary.json"
    ).read_bytes()


def test_converge_seed_changes_errors(tmp_path):
    cfg = _cfg(
        tmp_path, graphon="tent", n_list="8,12,16", n_ref="32", trials="1",
        T="0.25", solver="rk4", eval_grid="10",
    )
    out1, out2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
    assert entry(["converge", "--config", cfg, "--out", out1, "--seed", "1"]) == 0
    assert entry(["converge", "--config", cfg, "--out", out2, "--seed", "2"]) == 0
    col = REPORT_COLUMNS.index("sup_rel_err")
    a = [row[col] for row in _read_csv(out1)[1:]]
    b = [row[col] for row in _read_csv(out2)[1:]]
    assert a != b


def test_converge_seed_column_reproduces_draws(tmp_path):
    # the recorded per-trial seed re-creates the bank draw for that trial
    cfg = _cfg(
        tmp_path, graphon="tent", n_list="8,12,16", n_ref="32", trials="2",
        T="0.25", solver="rk4", eval_grid="10", layers="2", channels="1", taps="2",
    )
    out = str(tmp_path / "conv.csv")
    assert entry(["converge", "--config", cfg, "--out", out]) == 0
    seeds = sorted({int(r[REPORT_COLUMNS.index("seed")]) for r in _read_csv(out)[1:]})
    assert len(seeds) == 2
    from gnde.neural import random_filter_bank

    banks = [random_filter_bank(2, 1, 2, np.random.default_rng(s)) for s in seeds]
    assert not np.array_equal(banks[0].coeffs, banks[1].coeffs)
    redo = [random_filter_bank(2, 1, 2, np.random.default_rng(s)) for s in seeds]
    for fresh, again in zip(banks, redo):
        assert np.array_equal(fresh.coeffs, again.coeffs)


def test_converge_unweighted_bound_column(tmp_path):
    cfg = _cfg(
        tmp_path, graphon="checkerboard", cells="2", n_list="8,12,16", n_ref="32",
        trials="1", T="0.25", solver="rk4", eval_grid="10", feature="linear",
    )
    out = str(tmp_path / "cb.csv")
    assert entry(["converge", "--config", cfg, "--out", out]) == 0
    rows = _read_csv(out)
    dim_col = REPORT_COLUMNS.index("alpha_or_dim")
    assert all(row[dim_col] == "1.0" for row in rows[1:])
    assert all(float(row[REPORT_COLUMNS.index("bound")]) > 0 for row in rows[1:])


def test_converge_overflowing_bound_reads_inf(tmp_path):
    # exp(T (F K h_T)^L) overflows a float for this model; every solve succeeds
    cfg = _cfg(
        tmp_path, graphon="tent", n_list="4,6,8", n_ref="12", trials="1", T="3",
        layers="3", channels="3", taps="3", eval_grid="10",
    )
    out1, out3 = str(tmp_path / "o1.csv"), str(tmp_path / "o3.csv")
    assert entry(["converge", "--config", cfg, "--out", out1, "--threads", "1"]) == 0
    assert entry(["converge", "--config", cfg, "--out", out3, "--threads", "3"]) == 0
    rows = [dict(zip(REPORT_COLUMNS, row)) for row in _read_csv(out1)[1:]]
    assert [row["bound"] for row in rows] == ["inf"] * 3
    assert all(float(row["sup_rel_err"]) > 0.0 for row in rows)
    assert _rows_sans_runtime(out1) == _rows_sans_runtime(out3)
    assert (tmp_path / "o1.csv.summary.json").read_bytes() == (
        tmp_path / "o3.csv.summary.json").read_bytes()


def test_converge_failure_rows(tmp_path, monkeypatch):
    # Forced DivergenceErrors: the references of trials 1 and 2, and trial 0
    # at n=12.  Each system's trial is found from its bank object.
    from gnde import cli, dynamics
    from gnde.errors import DivergenceError

    banks = []
    draw_bank = cli._bank_from_config

    def recording_bank(*args):
        banks.append(draw_bank(*args))
        return banks[-1]

    solve = dynamics.integrate_batch
    batches = []

    def failing_batch(S, systems, *args):
        n = S.n
        trials = [next(i for i, b in enumerate(banks) if b is bank) for _, bank in systems]
        batches.append((n, trials))
        forced = {trial for trial in trials if (trial, n) in {(1, 32), (2, 32), (0, 12)}}
        kept = iter(solve(S, [sys for sys, trial in zip(systems, trials)
                              if trial not in forced], *args))
        return [DivergenceError(f"forced at trial {trial}, n={n}") if trial in forced
                else next(kept) for trial in trials]

    monkeypatch.setattr(cli, "_bank_from_config", recording_bank)
    monkeypatch.setattr(dynamics, "integrate_batch", failing_batch)
    cfg = _cfg(
        tmp_path, graphon="tent", n_list="8,12,16,20", n_ref="32", trials="3",
        T="0.25", solver="rk4", eval_grid="10",
    )
    out = str(tmp_path / "fail.csv")
    assert entry(["converge", "--config", cfg, "--out", out]) == 0
    rows = [dict(zip(REPORT_COLUMNS, row)) for row in _read_csv(out)[1:]]
    assert [row["n"] for row in rows] == ["8", "12", "16", "20"] * 3
    seeds = [row["seed"] for row in rows]
    assert seeds == [seed for seed in seeds[::4] for _ in range(4)]
    assert len(set(seeds)) == 3
    # trial 0 fits its slope from n = 8, 16, 20; trials 1 and 2 have no reference
    computed = ["sup_rel_err", "abs_err", "bound", "slope_running", "runtime_ms"]
    blank = [[col for col in computed if row[col] == ""] for row in rows]
    assert blank == [["slope_running"], ["sup_rel_err", "abs_err", "slope_running"],
                     ["slope_running"], []] + [computed] * 8
    summary = json.loads((tmp_path / "fail.csv.summary.json").read_text())
    assert summary["row_errors"] == [
        {"trial": 1, "n": None, "stage": "reference",
         "error": "DivergenceError: forced at trial 1, n=32"},
        {"trial": 2, "n": None, "stage": "reference",
         "error": "DivergenceError: forced at trial 2, n=32"},
        {"trial": 0, "n": 12, "stage": "system",
         "error": "DivergenceError: forced at trial 0, n=12"},
    ]
    slopes = summary["per_trial_slopes"]
    assert isinstance(slopes[0], float) and slopes[1:] == [None, None]
    assert summary["mean_slope"] == slopes[0]
    assert summary["per_n_mean_rel_err"]["12"] is None
    assert summary["per_n_mean_rel_err"]["8"] == float(rows[0]["sup_rel_err"])
    # one batched solve per size, holding every trial with a reference
    assert batches == [(32, [0, 1, 2]), (8, [0]), (12, [0]), (16, [0]), (20, [0])]


def test_converge_fits_each_trial_once_per_row(tmp_path, monkeypatch):
    # A trial's slope is its last running fit: one fit per row with at least
    # three points, none after the row loop.  Zero filters give every trial
    # zero errors, so every running fit hits the log domain.
    from gnde import analysis

    fits = []
    fit_rate = analysis.fit_rate

    def counted_fit(rows):
        fits.append(len(rows))
        return fit_rate(rows)

    monkeypatch.setattr(analysis, "fit_rate", counted_fit)
    common = dict(graphon="tent", n_list="8,12,16,20", n_ref="32", trials="2",
                  T="0.25", solver="rk4", eval_grid="10")
    for name, extra in (("fit", {}),
                        ("zero", dict(feature="constant", filter_coeffs="0,0,0,0"))):
        fits.clear()
        cfg = _cfg(tmp_path, f"{name}.cfg", **common, **extra)
        out = str(tmp_path / f"{name}.csv")
        assert entry(["converge", "--config", cfg, "--out", out]) == 0
        assert fits == [3, 4] * 2
        rows = [dict(zip(REPORT_COLUMNS, row)) for row in _read_csv(out)[1:]]
        summary = json.loads((tmp_path / f"{name}.csv.summary.json").read_text())
        last = [rows[4 * trial + 3]["slope_running"] for trial in range(2)]
        if name == "fit":
            assert [repr(s) for s in summary["per_trial_slopes"]] == last
            assert summary["log_domain_trials"] == []
        else:
            assert last == ["", ""] and summary["per_trial_slopes"] == [None, None]
            assert summary["log_domain_trials"] == [0, 1]


def test_converge_computes_each_quantity_once(tmp_path, monkeypatch):
    # one overlay partition per size, one norm pass per reference, one
    # shift operator per size split straight from the sampled graph (no dense
    # shift), one batched solve per size, exactly that operator and no
    # sampled graph or adjacency alive during a solve, and every solve on the
    # main thread whatever --threads says
    import gc
    import threading
    import weakref

    from gnde import analysis, catalog, dynamics, kernels

    calls = {"partition": 0, "norms": 0, "graph_shift": 0}
    graphs, adjacencies, operators, built, threads = [], [], [], [], set()
    alive = {"batch": [], "solve": []}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    def tracked_sample(*args, sample=smp.sample_system):
        graph, feats = sample(*args)
        graphs.append(weakref.ref(graph))
        adjacencies.append(weakref.ref(graph.adjacency))
        return graph, feats

    class TrackedOperator(kernels.ShiftOperator):
        def __init__(self, S):
            super().__init__(S)
            built.append((S is graphs[-1](), self.n))
            operators.append(weakref.ref(self))

    def watched(key, fn):
        def wrapper(*args):
            gc.collect()
            alive[key].append((sum(ref() is not None for ref in operators),
                               sum(ref() is not None for ref in graphs + adjacencies)))
            threads.add(threading.current_thread())
            return fn(*args)
        return wrapper

    monkeypatch.setattr(catalog, "overlay_partition",
                        counted("partition", catalog.overlay_partition))
    monkeypatch.setattr(analysis, "trajectory_norms",
                        counted("norms", analysis.trajectory_norms))
    monkeypatch.setattr(smp, "graph_shift", counted("graph_shift", smp.graph_shift))
    monkeypatch.setattr(smp, "sample_system", tracked_sample)
    monkeypatch.setattr(kernels, "ShiftOperator", TrackedOperator)
    monkeypatch.setattr(dynamics, "integrate_batch",
                        watched("batch", dynamics.integrate_batch))
    monkeypatch.setitem(dynamics._SOLVERS, "rk4", watched("solve", dynamics._rk4))
    cfg = _cfg(
        tmp_path, graphon="tent", n_list="8,12,16", n_ref="32", trials="2",
        T="0.25", solver="rk4", eval_grid="10",
    )
    assert entry(["converge", "--config", cfg, "--out", str(tmp_path / "c.csv"),
                  "--threads", "2"]) == 0
    # one overlay partition per size, shared by the size's trials
    assert calls == {"partition": 3, "norms": 2, "graph_shift": 0}
    # one operator per size, in size order, from the sampled graph itself
    assert built == [(True, n) for n in (32, 8, 12, 16)]
    assert len(graphs) == len(adjacencies) == len(operators) == 4
    assert len(alive["batch"]) == 4 and len(alive["solve"]) == 2 * 4
    assert max(ops for ops, _ in alive["batch"]) == 1
    assert alive["solve"] == [(1, 0)] * (2 * 4)
    assert threads == {threading.main_thread()}


@pytest.mark.parametrize("command, sizes, sampled_n", [
    ("converge", dict(n_list="8,12,16", n_ref="32", trials="2"), [32, 8, 12, 16]),
    ("integrate", dict(n="16"), [16]),
])
def test_each_sampled_graph_checked_for_symmetry_once(tmp_path, monkeypatch, command,
                                                      sizes, sampled_n):
    # the SampledGraph checks its adjacency and the operator built from it
    # trusts that check: one comparison of each sampled adjacency with its
    # transpose, not one per graph and one more per operator (every size is
    # below catalog._CHECK_TILE, so a check is one whole-matrix comparison)
    from collections import Counter

    sampled, checks = [], []
    equal = np.array_equal

    def tracked_sample(*args, sample=smp.sample_system):
        graph, feats = sample(*args)
        sampled.append(graph.n)
        return graph, feats

    def counted_equal(a, b, *args, **kwargs):
        if (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.ndim == 2
                and a.shape[0] == a.shape[1] == b.shape[1] and np.shares_memory(a, b)):
            checks.append(a.shape[0])
        return equal(a, b, *args, **kwargs)

    monkeypatch.setattr(smp, "sample_system", tracked_sample)
    monkeypatch.setattr(np, "array_equal", counted_equal)
    cfg = _cfg(tmp_path, graphon="tent", T="0.25", solver="rk4", eval_grid="10", **sizes)
    assert entry([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0
    assert sampled == sampled_n
    assert Counter(checks) == Counter(sampled_n)


def test_threads_flag_parses_on_every_command():
    # --threads is accepted everywhere and changes nothing
    parser = build_parser()
    for command in ("catalog", "sample", "integrate", "converge", "boxdim",
                    "transfer-audit"):
        assert parser.parse_args([command, "--threads", "3"]).threads == 3
    assert "threads" not in DEFAULTS


def test_converge_rejects_bad_reference(tmp_path):
    cfg = _cfg(tmp_path, n_list="8,12,16", n_ref="16", trials="1")
    assert entry(["converge", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


def _write_every_output(tmp_path, out):
    """Run every command once, each writing its outputs into ``out``."""
    edges = str(out / "s.csv")
    runs = [
        ("sample", dict(n="8"), edges),
        ("integrate", dict(n="6", T="0.25", solver="rk4", eval_grid="4"), "traj.csv"),
        ("converge", dict(n_list="8,12,16", n_ref="32", trials="1", T="0.25",
                          solver="rk4", eval_grid="4"), "conv.csv"),
        ("boxdim", dict(graphon="hsbm"), "dim.csv"),
        ("transfer-audit", dict(edge_list=edges, proportions="0.5,1.0", audit_trials="2"),
         "audit.csv"),
        ("catalog", {}, "catalog.txt"),
    ]
    for command, kv, name in runs:
        cfg = _cfg(tmp_path, f"{command}.cfg", **kv)
        assert entry([command, "--config", cfg, "--out", str(out / name)]) == 0
    return edges


def test_every_output_is_lf_and_parses_back(tmp_path):
    # every file the commands write ends its lines in "\n" alone and holds
    # floats as Python reprs (never "np.float64(...)"); each CSV reads back
    out = tmp_path / "out"
    out.mkdir()
    edges = _write_every_output(tmp_path, out)
    tables = ["audit.csv", "conv.csv", "dim.csv", "s.features.csv", "traj.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        tables + ["s.csv", "audit.csv.summary.json", "conv.csv.summary.json",
                  "dim.csv.summary.json", "traj.csv.meta.txt", "catalog.txt"])
    for path in out.iterdir():
        raw = path.read_bytes()
        assert raw.endswith(b"\n") and b"\r" not in raw and b"np." not in raw, path.name
    assert smp.read_edge_list(edges).n == 8
    for name in tables:
        rows = _read_csv(out / name)
        assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows[1:]), name
    for name in ("s.features.csv", "traj.csv"):
        assert np.isfinite(np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)).all()
    for row in _read_csv(out / "conv.csv")[1:]:
        record = dict(zip(REPORT_COLUMNS, row))
        assert float(record["sup_rel_err"]) > 0.0 and int(record["n"]) in (8, 12, 16)
    assert [float(delta) for delta, _ in _read_csv(out / "dim.csv")[1:]] == [
        2.0**-j for j in range(4, 10)]
    assert all(float(row[4]) >= 0.0 for row in _read_csv(out / "audit.csv")[1:])


def test_every_write_sets_its_line_ends(tmp_path, monkeypatch):
    # a text-mode write without newline="" would end its lines in the
    # platform's line end (CRLF on Windows), which a Linux run cannot see
    opens = []

    def spy(file, mode="r", *args, **kwargs):
        opens.append((os.path.basename(file), mode, kwargs.get("newline")))
        return builtins.open(file, mode, *args, **kwargs)

    for info in pkgutil.iter_modules(gnde.__path__):
        module = importlib.import_module(f"gnde.{info.name}")
        monkeypatch.setattr(module, "open", spy, raising=False)
    out = tmp_path / "out"
    out.mkdir()
    _write_every_output(tmp_path, out)
    writes = [(name, mode, newline) for name, mode, newline in opens if set(mode) & set("wax+")]
    assert {name for name, _, _ in writes} == {p.name for p in out.iterdir()}
    assert [w for w in writes if "b" not in w[1] and w[2] != ""] == []


def test_boxdim_sierpinski(tmp_path):
    cfg = _cfg(tmp_path, graphon="sierpinski")
    out = str(tmp_path / "dim.csv")
    assert entry(["boxdim", "--config", cfg, "--out", out]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["delta", "count"]
    counts = [int(r[1]) for r in rows[1:]]
    assert counts == [8**j for j in range(3, 7)]
    summary = json.loads((tmp_path / "dim.csv.summary.json").read_text())
    assert summary["dimension_estimate"] == pytest.approx(math.log(8) / math.log(3), abs=1e-9)
    assert summary["counts"] == counts


def test_boxdim_rejects_weighted(tmp_path):
    cfg = _cfg(tmp_path, graphon="tent")
    assert entry(["boxdim", "--config", cfg, "--out", str(tmp_path / "d.csv")]) == 2


def test_boxdim_on_a_wide_block_pattern_exits_0(tmp_path):
    # hsbm levels=12 is a 4096 x 4096 pattern with about 2^25 grid segments; the
    # counter marks them with array operations, not one at a time
    cfg = _cfg(tmp_path, graphon="hsbm", levels="12")
    done = _run_module(tmp_path, "boxdim", "--config", cfg, "--out", "d.csv")
    assert done.returncode == 0, done.stderr
    counts = [int(r[1]) for r in _read_csv(tmp_path / "d.csv")[1:]]
    assert counts == [3 * m - 2 for m in (16, 32, 64, 128, 256, 512)]


def test_transfer_audit_end_to_end(tmp_path):
    graph_cfg = _cfg(tmp_path, "g.cfg", graphon="checkerboard", cells="4", n="32")
    edges = str(tmp_path / "g.csv")
    assert entry(["sample", "--config", graph_cfg, "--out", edges]) == 0
    audit_cfg = _cfg(
        tmp_path, "a.cfg", edge_list=edges, proportions="0.5,1.0", audit_trials="3"
    )
    out = str(tmp_path / "audit.csv")
    assert entry(["transfer-audit", "--config", audit_cfg, "--out", out]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["proportion", "trial", "seed", "k", "rel_err", "nodes", "note"]
    full = [r for r in rows[1:] if r[0] == "1.0"]
    assert len(full) == 3
    for row in full:
        assert row[3] == "32"
        assert row[4] == "0.0"
    half = [r for r in rows[1:] if r[0] == "0.5"]
    for row in half:
        assert row[3] == "16"
        assert float(row[4]) > 0.0
        nodes = [int(tok) for tok in row[5].split(";")]
        assert nodes == sorted(nodes) and len(nodes) == 16
    summary = json.loads((tmp_path / "audit.csv.summary.json").read_text())
    by_prop = dict(zip(summary["proportions"], summary["mean_rel_err"]))
    assert by_prop[1.0] == 0.0
    assert by_prop[0.5] > 0.0


def test_transfer_audit_determinism(tmp_path):
    graph_cfg = _cfg(tmp_path, "g.cfg", graphon="hsbm", n="24")
    edges = str(tmp_path / "g.csv")
    assert entry(["sample", "--config", graph_cfg, "--out", edges]) == 0
    audit_cfg = _cfg(tmp_path, "a.cfg", edge_list=edges, audit_trials="2")
    out1, out2 = str(tmp_path / "a1.csv"), str(tmp_path / "a2.csv")
    assert entry(["transfer-audit", "--config", audit_cfg, "--out", out1]) == 0
    assert entry(["transfer-audit", "--config", audit_cfg, "--out", out2]) == 0
    assert (tmp_path / "a1.csv").read_bytes() == (tmp_path / "a2.csv").read_bytes()


def test_transfer_audit_empty_subgraph_rows(tmp_path):
    # k = round(0.1 * 4) = 0: each trial is a row with no error, and the
    # proportion's mean and std are null
    edges = tmp_path / "g.csv"
    edges.write_text("n=4,class=weighted\ni,j,weight\n0,1,0.5\n2,3,0.25\n")
    audit_cfg = _cfg(tmp_path, "a.cfg", edge_list=str(edges), proportions="0.1,1.0",
                     audit_trials="2")
    out = str(tmp_path / "audit.csv")
    assert entry(["transfer-audit", "--config", audit_cfg, "--out", out]) == 0
    rows = _read_csv(out)[1:]
    assert [(r[0], r[1], r[3], r[4], r[5], r[6]) for r in rows[:2]] == [
        ("0.1", str(trial), "0", "", "", "empty subgraph") for trial in (0, 1)]
    assert [(r[3], r[4], r[5], r[6]) for r in rows[2:]] == [("4", "0.0", "0;1;2;3", "")] * 2
    summary = json.loads((tmp_path / "audit.csv.summary.json").read_text())
    assert summary["mean_rel_err"] == [None, 0.0]
    assert summary["std_rel_err"] == [None, 0.0]


def test_transfer_audit_edgeless_graph_exits_3(tmp_path, capsys):
    # a graph with no edges has kernel norm 0: no relative error is defined
    edges = tmp_path / "g.csv"
    edges.write_text("n=5,class=unweighted\ni,j,weight\n")
    audit_cfg = _cfg(tmp_path, "a.cfg", edge_list=str(edges))
    out = tmp_path / "audit.csv"
    capsys.readouterr()
    assert entry(["transfer-audit", "--config", audit_cfg, "--out", str(out)]) == 3
    assert "graph kernel norm below 1e-12" in capsys.readouterr().err
    assert not out.exists()


def test_transfer_audit_config_errors(tmp_path, capsys):
    no_list = _cfg(tmp_path, "n.cfg")
    assert entry(["transfer-audit", "--config", no_list, "--out", str(tmp_path / "o.csv")]) == 2
    missing = _cfg(tmp_path, "m.cfg", edge_list=str(tmp_path / "absent.csv"))
    assert entry(["transfer-audit", "--config", missing, "--out", str(tmp_path / "o.csv")]) == 2
    graph_cfg = _cfg(tmp_path, "g.cfg", graphon="hsbm", n="16")
    edges = str(tmp_path / "g.csv")
    assert entry(["sample", "--config", graph_cfg, "--out", edges]) == 0
    bad_prop = _cfg(tmp_path, "p.cfg", edge_list=edges, proportions="0.5,1.5")
    assert entry(["transfer-audit", "--config", bad_prop, "--out", str(tmp_path / "o.csv")]) == 2
    binary = tmp_path / "bin.csv"
    binary.write_bytes(b"\xff\xfe\x00\x01")
    bin_cfg = _cfg(tmp_path, "bin.cfg", edge_list=str(binary))
    assert entry(["transfer-audit", "--config", bin_cfg, "--out", str(tmp_path / "o.csv")]) == 2
    bad_row = tmp_path / "row.csv"
    bad_row.write_text("n=4,class=unweighted\ni,j,weight\n0,1,1.0\n0,oops,1.0\n")
    row_cfg = _cfg(tmp_path, "row.cfg", edge_list=str(bad_row))
    capsys.readouterr()
    assert entry(["transfer-audit", "--config", row_cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert f"{bad_row}:4: bad edge row '0,oops,1.0'" in capsys.readouterr().err


def test_oversized_graphs_exit_2(tmp_path, capsys):
    # Both sizes would need a dense 10^9 x 10^9 array; the guard fires first.
    huge = 10**9
    edges = tmp_path / "huge.csv"
    edges.write_text(f"n={huge},class=weighted\ni,j,weight\n0,1,0.5\n")
    audit_cfg = _cfg(tmp_path, "a.cfg", edge_list=str(edges))
    assert entry(["transfer-audit", "--config", audit_cfg,
                  "--out", str(tmp_path / "o.csv")]) == 2
    assert f"n={huge} exceeds the dense-size limit" in capsys.readouterr().err
    conv_cfg = _cfg(tmp_path, "c.cfg", n_list="8,12,16", n_ref=str(huge), trials="1")
    assert entry(["converge", "--config", conv_cfg,
                  "--out", str(tmp_path / "c.csv")]) == 2
    assert f"n={huge} exceeds the dense-size limit" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()
    # A depth-10 carpet would need a 3^10 x 3^10 support pattern.
    deep_cfg = _cfg(tmp_path, "d.cfg", graphon="hexaflake", depth="10", n="16",
                    n_list="8,12,16", n_ref="32", trials="1")
    for command in ("sample", "converge"):
        out = tmp_path / f"deep_{command}.csv"
        assert entry([command, "--config", deep_cfg, "--out", str(out)]) == 2
        assert "carpet depth 10 exceeds the support-pattern limit" in capsys.readouterr().err
        assert not out.exists()
    # Generated block patterns wider than that are refused before they are
    # built: np.kron would ask for 16 GiB, the parity sum for 74.5 GiB.
    for name, graphon, side in (("h.cfg", dict(graphon="hsbm", levels="40"), "2^40"),
                                ("k.cfg", dict(graphon="checkerboard", cells="100000"),
                                 "100000")):
        out = tmp_path / f"{name}.csv"
        assert entry(["integrate", "--config", _cfg(tmp_path, name, n="8", **graphon),
                      "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{graphon['graphon']} pattern side {side} exceeds the support-pattern limit" in err
        assert not out.exists()


def test_module_entry_points_run_clean(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(gnde.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for module in ("gnde", "gnde.cli"):
        done = subprocess.run([sys.executable, "-m", module, "catalog"], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (module, done.stderr)
        assert done.stderr == "", (module, done.stderr)
        assert "hexaflake" in done.stdout


def test_config_errors_exit_2(tmp_path, monkeypatch, capsys):
    from gnde import dynamics

    unknown_key = tmp_path / "u.cfg"
    unknown_key.write_text("flux_capacitor=1\n")
    assert entry(["catalog", "--config", str(unknown_key)]) == 2
    bad_line = tmp_path / "b.cfg"
    bad_line.write_text("just a line\n")
    assert entry(["catalog", "--config", str(bad_line)]) == 2
    unknown_graphon = _cfg(tmp_path, "k.cfg", graphon="moebius")
    assert entry(["sample", "--config", unknown_graphon, "--out", str(tmp_path / "s.csv")]) == 2
    bad_int = _cfg(tmp_path, "i.cfg", n="five")
    assert entry(["sample", "--config", bad_int, "--out", str(tmp_path / "s.csv")]) == 2
    assert entry(["catalog", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert entry(["catalog", "--seed", "-3"]) == 2
    negative_seed = _cfg(tmp_path, "ns.cfg", seed="-1", n="4", n_list="4,5,6", n_ref="8")
    for command in ("sample", "integrate", "converge"):
        assert entry([command, "--config", negative_seed,
                      "--out", str(tmp_path / "ns.csv")]) == 2
    infinite_T = _cfg(tmp_path, "t.cfg", T="inf", n="4", n_list="4,5,6", n_ref="8")
    for command in ("integrate", "converge"):
        assert entry([command, "--config", infinite_T,
                      "--out", str(tmp_path / "t.csv")]) == 2
    for tol in ("atol", "rtol"):  # an infinite tolerance turns error control off
        infinite_tol = _cfg(tmp_path, "tol.cfg", n="8", **{tol: "inf"})
        assert entry(["integrate", "--config", infinite_tol,
                      "--out", str(tmp_path / "tol.csv")]) == 2
        assert "tolerances must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "tol.csv").exists()
    bad_eps = _cfg(tmp_path, "e.cfg", graphon="checkerboard", cells="2", feature="linear",
                   n_list="4,5,6", n_ref="8", trials="2", T="0.25", solver="rk4",
                   eval_grid="10", eps="1.5")  # eps must lie in (0, 2 - 1)
    solves = []
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "integrate_batch", lambda *args: solves.append(args))
        assert entry(["converge", "--config", bad_eps, "--out", str(tmp_path / "e.csv")]) == 2
    assert solves == [] and not (tmp_path / "e.csv").exists()
    for repeated in ("8,8,8", "8,8,12,16"):  # a repeated size, caught before any solve
        cfg = _cfg(tmp_path, "r.cfg", graphon="tent", n_list=repeated, n_ref="32",
                   trials="2", T="0.25", solver="rk4", eval_grid="10")
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "integrate_batch", lambda *args: solves.append(args))
            assert entry(["converge", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
        assert "n_list must hold distinct positive integers" in capsys.readouterr().err
        assert solves == [] and not (tmp_path / "r.csv").exists()
    pool_size = _cfg(tmp_path, "p.cfg", threads="2")  # no longer a config key
    assert entry(["catalog", "--config", pool_size]) == 2
    no_quad = _cfg(tmp_path, "q.cfg", graphon="tent", n="4", quad_points="0")
    assert entry(["sample", "--config", no_quad, "--out", str(tmp_path / "q.csv")]) == 2
    binary = tmp_path / "bin.cfg"
    binary.write_bytes(b"\xffn=4\n")
    assert entry(["sample", "--config", str(binary), "--out", str(tmp_path / "b.csv")]) == 2
    # a value that does not parse, or does not fit its key, is named with it
    edges = tmp_path / "edges.csv"
    edges.write_bytes(b"n=4,class=weighted\n0,1,0.5\n")
    capsys.readouterr()
    for command, values, named in [
        ("integrate", {"T": "abc"}, "config key 'T': 'abc' is not a number"),
        ("transfer-audit", {"edge_list": str(edges), "proportions": "0.1,x"},
         "config key 'proportions'"),
        ("converge", {"n_list": "16,2x"}, "config key 'n_list'"),
        ("integrate", {"alpha": "x"}, "config key 'alpha': 'x' is not a number"),
        ("integrate", {"graphon": "sierpinski", "depth": "2.5"},
         "config key 'depth': '2.5' is not an integer"),
        ("integrate", {"graphon": "hsbm", "levels": "1e3"},
         "config key 'levels': '1e3' is not an integer"),
        ("integrate", {"feature": "constant", "feature_values": "1,2"},
         "feature_values needs 1 values"),
        ("integrate", {"feature": "linear", "feature_values": "1,2,3"},
         "feature_values needs 1 intercepts then 1 slopes"),
        ("integrate", {"feature": "wavelet"}, "unknown feature kind 'wavelet'"),
        ("integrate", {"feature": "holder", "degree": "700"}, "degree=700 is too large"),
        ("integrate", {"law": "periodic"}, "unknown filter law 'periodic'"),
        ("integrate", {"filter_coeffs": "1,2,3"}, "filter_coeffs needs 4 values"),
    ]:
        out = tmp_path / "v.csv"
        cfg = _cfg(tmp_path, "v.cfg", n="8", **values)
        assert entry([command, "--config", cfg, "--out", str(out)]) == 2, values
        assert capsys.readouterr().err.startswith(f"gnde: config error: {named}"), values
        assert not out.exists()


@pytest.mark.parametrize("command", ["integrate", "converge"])
def test_huge_finite_features_run_without_warnings(tmp_path, capsys, command):
    # features of 1e308 are finite but their squares are not: the scaled
    # norms and the report's error sums are inf, and nothing warns
    cfg = _cfg(tmp_path, feature="constant", feature_values="1e308", n="8",
               n_list="8,12,16", n_ref="24", trials="1", eval_grid="10")
    assert entry([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("key, extra", [
    ("eval_grid", {}), ("channels", {}), ("layers", {}), ("taps", {}),
    ("modes", {"law": "fourier"}), ("degree", {}),
    ("quad_points", {"graphon": "checkerboard"}),
])
def test_oversized_config_sizes_exit_2(tmp_path, capsys, key, extra):
    # each key sizes an array of more than 10^20 entries; the guard fires
    # before numpy is asked for it
    cfg = _cfg(tmp_path, n="4", **{key: str(10**20)}, **extra)
    out = tmp_path / "t.csv"
    assert entry(["integrate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"gnde: config error: {key} sizes an array")
    assert not out.exists()


@pytest.mark.parametrize("command, key", [("converge", "trials"),
                                          ("transfer-audit", "audit_trials")])
def test_oversized_trial_counts_exit_2(tmp_path, capsys, command, key):
    # converge holds every trial's reference trajectory, transfer-audit every
    # row's node ids: refused before the first trial is drawn
    edges = tmp_path / "edges.csv"
    edges.write_bytes(b"n=4,class=weighted\n0,1,0.5\n")
    cfg = _cfg(tmp_path, edge_list=str(edges), **{key: str(10**20)})
    out = tmp_path / "t.csv"
    start = time.process_time()
    assert entry([command, "--config", cfg, "--out", str(out)]) == 2
    assert time.process_time() - start < 1.0
    assert capsys.readouterr().err.startswith(f"gnde: config error: {key} sizes an array")
    assert not out.exists()


def test_numerical_failure_exit_3(tmp_path):
    cfg = _cfg(
        tmp_path, n="4", T="1.0", solver="rk4", eval_grid="10", layers="1",
        taps="1", channels="1", filter_coeffs="2.0", activation="identity",
        feature="constant", feature_values="1e308",
    )
    assert entry(["integrate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 3


def _run_python(tmp_path, *argv, timeout=60, **env_vars):
    env = dict(os.environ, **env_vars)
    src = os.path.dirname(os.path.dirname(os.path.abspath(gnde.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=timeout)


def _run_module(tmp_path, *argv, **kwargs):
    return _run_python(tmp_path, "-m", "gnde", *argv, **kwargs)


def test_converge_does_not_import_numpy_ma(tmp_path):
    # np.unique, and np.union1d through it, import numpy.ma (about 10 ms)
    # inside the run; nothing converge computes needs it
    cfg = _cfg(tmp_path, graphon="hexaflake", feature="linear", n_list="8,12",
               n_ref="32", trials="2", eval_grid="20")
    code = ("import sys; from gnde.cli import entry; "
            "assert entry(['converge', '--config', sys.argv[1], '--out', 'c.csv']) == 0; "
            "print('numpy.ma' in sys.modules)")
    done = _run_python(tmp_path, "-c", code, cfg)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_rk4_step_beyond_budget_exits_2(tmp_path):
    # ~5e297 substeps would run until killed; the count is refused up front
    cfg = _cfg(tmp_path, n="4", solver="rk4", rk4_step="1e-300", eval_grid="2")
    done = _run_module(tmp_path, "integrate", "--config", cfg, "--out", "t.csv")
    assert done.returncode == 2, done.stderr
    assert "max_steps" in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "t.csv").exists()


def test_dp5_underflowing_tolerances_exit_3_without_warning(tmp_path):
    cfg = _cfg(tmp_path, n="4", solver="dp5", atol="1e-300", rtol="1e-300")
    done = _run_module(tmp_path, "integrate", "--config", cfg, "--out", "t.csv")
    assert done.returncode == 3, done.stderr
    assert done.stderr == "gnde: numerical failure: dp5 step size underflow\n"


def test_picard_overflowing_lipschitz_bound_exits_3(tmp_path):
    # (F K h_T)^L overflows a float at 400 layers: no Picard window can
    # contract, which is refused before the first round
    cfg = _cfg(tmp_path, solver="picard", n="8", layers="400", channels="3", taps="3")
    done = _run_module(tmp_path, "integrate", "--config", cfg, "--out", "t.csv")
    assert done.returncode == 3, done.stderr
    assert done.stderr == (
        "gnde: numerical failure: picard windows cannot contract: the 400-layer "
        "bank's Lipschitz bound (F K h_T)^L exceeds the float range\n"
    )
    assert not (tmp_path / "t.csv").exists()
    # an infinite F K h_T overflows no power: one-step windows, as before
    zero = _cfg(tmp_path, "zero.cfg", solver="picard", n="8", layers="1", channels="3",
                taps="3", T="0.1", filter_coeffs=",".join(["1e308"] * 27),
                feature="constant", feature_values="0,0,0")
    assert entry(["integrate", "--config", zero, "--out", str(tmp_path / "z.csv")]) == 0
    assert "window=0.0\n" in (tmp_path / "z.csv.meta.txt").read_text()


@pytest.mark.parametrize("solver, failure", [
    ("rk4", "DivergenceError: non-finite state at t=1.0"),
    ("dp5", "NonConvergenceError: dp5 step size underflow"),
], ids=["rk4", "dp5"])
def test_diverging_converge_prints_no_warning(tmp_path, solver, failure):
    # every reference overflows in the solver's stage sums: the report lists
    # the failures, nothing reaches stderr, and turning warnings into errors
    # changes no byte of the report
    cfg = _cfg(tmp_path, graphon="tent", layers="1", taps="1", activation="identity",
               filter_coeffs="900", trials="2", n_list="8,12,16", n_ref="24",
               eval_grid="10", solver=solver)
    reports = []
    for warnings in ("default", "error"):
        out = f"{warnings}.csv"
        done = _run_module(tmp_path, "converge", "--config", cfg, "--out", out,
                           PYTHONWARNINGS=warnings)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        reports.append(((tmp_path / out).read_bytes(),
                        (tmp_path / f"{out}.summary.json").read_bytes()))
    assert reports[0] == reports[1]
    rows = _read_csv(tmp_path / "default.csv")
    assert len(rows) == 7 and all(row[6:] == [""] * 5 for row in rows[1:])
    summary = json.loads(reports[0][1])
    assert summary["row_errors"] == [
        {"error": failure, "n": None, "stage": "reference", "trial": t} for t in (0, 1)]

def test_converge_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a batched solve widens each product to 3 * trials * F columns, where
    # BLAS may split a GEMM over threads; the exact slice products keep the
    # bytes whatever it does.  At most 2 BLAS threads are started.
    configs = {
        "weighted": dict(graphon="tent", n_list="32,48,64", n_ref="256", trials="4",
                         eval_grid="20"),
        "binary": dict(graphon="hexaflake", feature="linear", n_list="16,24,32",
                       n_ref="128", trials="4", eval_grid="20"),
    }
    for name, kv in configs.items():
        cfg = _cfg(tmp_path, f"{name}.cfg", **kv)
        outputs = []
        for threads in ("1", "2"):
            out = f"{name}-{threads}.csv"
            done = _run_module(tmp_path, "converge", "--config", cfg, "--out", out,
                               timeout=120, OPENBLAS_NUM_THREADS=threads,
                               OMP_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
            outputs.append((_rows_sans_runtime(tmp_path / out),
                            (tmp_path / f"{out}.summary.json").read_bytes()))
        assert outputs[0] == outputs[1], name


def test_transfer_audit_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the audit's kernel distances and full-graph norm reduce through BLAS
    # matrix-vector products of up to (n + k)^2 entries, well past the size
    # OpenBLAS splits over threads.  At most 2 BLAS threads are started.
    graph_cfg = _cfg(tmp_path, "g.cfg", graphon="tent", n="384")
    audit_cfg = _cfg(tmp_path, "a.cfg", edge_list="g.csv",
                     proportions="0.3,0.7,0.9,1.0", audit_trials="2")
    outputs = []
    for threads in ("1", "2"):
        env = dict(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = _run_module(tmp_path, "sample", "--config", graph_cfg, "--out", "g.csv",
                           "--seed", "7", **env)
        assert done.returncode == 0, done.stderr
        out = f"audit-{threads}.csv"
        done = _run_module(tmp_path, "transfer-audit", "--config", audit_cfg,
                           "--out", out, "--seed", "7", timeout=120, **env)
        assert done.returncode == 0, done.stderr
        outputs.append(((tmp_path / "g.csv").read_bytes(), (tmp_path / out).read_bytes(),
                        (tmp_path / f"{out}.summary.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        entry(["warp"])


def test_comments_and_blanks_in_config(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\nn=5\n")
    out = str(tmp_path / "s.csv")
    assert entry(["sample", "--config", str(path), "--out", out]) == 0
    assert smp.read_edge_list(out).n == 5


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("load_config") / "run.cfg"


def _load_bytes(path, data: bytes):
    path.write_bytes(data)
    return load_config(str(path))


# Lines built from real keys, '=', comment marks and line breaks, so that
# near-valid files are drawn as well as noise.
_CONFIG_PIECES = st.one_of(st.sampled_from(sorted(DEFAULTS)), st.text(max_size=8),
                           st.sampled_from(["=", "#", " ", "\n", "\r", "\r\n", "\ufeff"]))


@settings(max_examples=100, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=120),
    st.lists(_CONFIG_PIECES, max_size=12).map(
        lambda pieces: "".join(pieces).encode("utf-8", "surrogatepass"))))
def test_load_config_any_input_is_an_error_or_full_config(cfg_path, data):
    # any file content gives a ConfigError or a dict with exactly DEFAULTS'
    # keys and string values; nothing else escapes
    try:
        cfg = _load_bytes(cfg_path, data)
    except ConfigError:
        return
    assert set(cfg) == set(DEFAULTS)
    assert all(isinstance(value, str) for value in cfg.values())


_SAFE_VALUE = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=16,
).map(str.strip)


@settings(max_examples=60, deadline=None)
@given(values=st.dictionaries(st.sampled_from(sorted(DEFAULTS)), _SAFE_VALUE))
def test_load_config_round_trip(cfg_path, values):
    # safe values (no line break, no surrounding blanks) written as key=value
    # lines load back unchanged, over the defaults of every key left out
    text = "".join(f"{key}={value}\n" for key, value in values.items())
    assert _load_bytes(cfg_path, text.encode("utf-8")) == {**DEFAULTS, **values}
