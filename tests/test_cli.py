"""End-to-end CLI behavior: outputs, determinism, exit codes."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

from gnde import sampling as smp
from gnde.analysis import REPORT_COLUMNS
from gnde.cli import entry


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
    feats = smp.read_feature_matrix(str(tmp_path / "a.features.csv"))
    assert feats.n == 12


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


def test_converge_rejects_bad_reference(tmp_path):
    cfg = _cfg(tmp_path, n_list="8,12,16", n_ref="16", trials="1")
    assert entry(["converge", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


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


def test_transfer_audit_config_errors(tmp_path):
    no_list = _cfg(tmp_path, "n.cfg")
    assert entry(["transfer-audit", "--config", no_list, "--out", str(tmp_path / "o.csv")]) == 2
    missing = _cfg(tmp_path, "m.cfg", edge_list=str(tmp_path / "absent.csv"))
    assert entry(["transfer-audit", "--config", missing, "--out", str(tmp_path / "o.csv")]) == 2
    graph_cfg = _cfg(tmp_path, "g.cfg", graphon="hsbm", n="16")
    edges = str(tmp_path / "g.csv")
    assert entry(["sample", "--config", graph_cfg, "--out", edges]) == 0
    bad_prop = _cfg(tmp_path, "p.cfg", edge_list=edges, proportions="0.5,1.5")
    assert entry(["transfer-audit", "--config", bad_prop, "--out", str(tmp_path / "o.csv")]) == 2


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


def test_config_errors_exit_2(tmp_path):
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


def test_numerical_failure_exit_3(tmp_path):
    cfg = _cfg(
        tmp_path, n="4", T="1.0", solver="rk4", eval_grid="10", layers="1",
        taps="1", channels="1", filter_coeffs="2.0", activation="identity",
        feature="constant", feature_values="1e308",
    )
    assert entry(["integrate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 3


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        entry(["warp"])


def test_comments_and_blanks_in_config(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\nn=5\n")
    out = str(tmp_path / "s.csv")
    assert entry(["sample", "--config", str(path), "--out", out]) == 0
    assert smp.read_edge_list(out).n == 5
