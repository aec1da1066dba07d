"""Config-driven experiment runner.

Subcommands: ``catalog``, ``sample``, ``integrate``, ``converge``,
``boxdim``, ``transfer-audit``.  Configuration is a flat key=value file;
every key has a default, so an empty file runs the tent desk preset.
Exit codes: 0 success, 2 config error, 3 numerical failure.

Determinism contract: identical config + seed produce byte-identical CSV
output, except the wall-clock ``runtime_ms`` column of the convergence
report: the wall time of the batched solve and the error pass of the
row's size (every trial of a size is integrated in one batch and scored
in one pass), divided evenly over that size's trials.  Every row carries
the derived seed that reproduces its random draws via
``numpy.random.default_rng(seed)``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import analysis, catalog, dynamics, kernels, neural, sampling
from .errors import (
    ConfigError,
    DegenerateReferenceError,
    DivergenceError,
    GndeError,
    LogDomainError,
    NonConvergenceError,
)

#: Errors that exit 3; every other GndeError is a config error (exit 2).
NUMERICAL_EXIT_ERRORS = (
    NonConvergenceError,
    DivergenceError,
    DegenerateReferenceError,
    LogDomainError,
)

#: Every recognized config key with its default value (as written in a file).
DEFAULTS = {
    "graphon": "tent",
    "alpha": "",  # per-kernel overrides; empty = catalog default
    "frequency": "",
    "levels": "",
    "cells": "",
    "depth": "",
    "n": "256",
    "n_list": "128,192,256,384,512,768,1024",
    "n_ref": "2048",
    "T": "1.0",
    "trials": "10",
    "layers": "2",
    "channels": "1",
    "taps": "2",
    "law": "constant",
    "modes": "2",
    "filter_coeffs": "",  # comma floats; overrides the random draw
    "feature": "fourier",
    "degree": "10",
    "feature_values": "",  # constant: F values; linear: F intercepts, F slopes
    "activation": "tanh",
    "leaky_slope": "0.01",
    "solver": "dp5",
    "atol": "1e-7",
    "rtol": "1e-7",
    "rk4_step": "",  # empty = T/200
    "eval_grid": "100",
    "quad_points": "8",
    "eps": "0.1",
    "seed": "42",
    "proportions": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
    "audit_trials": "20",
    "edge_list": "",
}

_GRAPHON_OVERRIDE_KEYS = ("alpha", "frequency", "levels", "cells", "depth")


def load_config(path: str | None) -> dict:
    cfg = dict(DEFAULTS)
    if path is None:
        return cfg
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not UTF-8 text") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = value.strip()
    return cfg


def _get_int(cfg, key, minimum=None):
    try:
        value = int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {cfg[key]!r} is not an integer") from exc
    if minimum is not None and value < minimum:
        raise ConfigError(f"config key {key!r} must be >= {minimum}, got {value}")
    return value


def _get_float(cfg, key):
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {cfg[key]!r} is not a number") from exc


def _get_float_list(cfg, key):
    try:
        return [float(tok) for tok in cfg[key].split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: expected comma-separated numbers") from exc


def _get_int_list(cfg, key):
    try:
        return [int(tok) for tok in cfg[key].split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: expected comma-separated integers") from exc


def _graphon_from_config(cfg) -> catalog.GraphonSpec:
    overrides = {key: (_get_float if key == "alpha" else _get_int)(cfg, key)
                 for key in _GRAPHON_OVERRIDE_KEYS if cfg[key]}
    return catalog.from_name(cfg["graphon"], **overrides)


def _feature_from_config(cfg, channels: int, rng) -> sampling.FeatureFunctionSpec:
    kind = cfg["feature"]
    degree = _get_int(cfg, "degree", minimum=1)
    # fourier and holder features draw a (channels, degree) coefficient array
    sampling.check_entries(("channels", channels),
                           ("degree", degree if kind in ("fourier", "holder") else 1))
    if kind == "fourier":
        return sampling.random_fourier_features(channels, degree, rng)
    if kind == "holder":
        return sampling.random_holder_features(channels, degree, rng)
    values = _get_float_list(cfg, "feature_values")
    if kind == "constant":
        if not values:
            values = [1.0] * channels
        if len(values) != channels:
            raise ConfigError(f"feature_values needs {channels} values for kind constant")
        return sampling.constant_feature(values)
    if kind == "linear":
        if not values:
            values = [0.0] * channels + [1.0] * channels
        if len(values) != 2 * channels:
            raise ConfigError(
                f"feature_values needs {channels} intercepts then {channels} slopes"
            )
        return sampling.linear_feature(values[:channels], values[channels:])
    raise ConfigError(
        f"unknown feature kind {kind!r}; choose fourier, holder, constant, linear"
    )


def _bank_from_config(cfg, horizon: float, rng) -> neural.FilterBank:
    L = _get_int(cfg, "layers", minimum=1)
    F = _get_int(cfg, "channels", minimum=1)
    K = _get_int(cfg, "taps", minimum=1)
    law = cfg["law"]
    if law not in (neural.CONSTANT, neural.FOURIER):
        raise ConfigError(f"unknown filter law {law!r}; choose constant or fourier")
    modes = _get_int(cfg, "modes", minimum=1) if law == neural.FOURIER else 0
    sampling.check_entries(("layers", L), ("channels", F), ("channels", F), ("taps", K),
                           ("modes", 2 * modes + 1))
    override = _get_float_list(cfg, "filter_coeffs")
    if not override:
        return neural.random_filter_bank(L, F, K, rng, time_law=law, modes=modes,
                                         horizon=horizon)
    shape = (L, F, F, K) if law == neural.CONSTANT else (L, F, F, K, 2 * modes + 1)
    want = int(np.prod(shape))
    if len(override) != want:
        raise ConfigError(
            f"filter_coeffs needs {want} values for shape {shape}, got {len(override)}"
        )
    return neural.FilterBank(np.asarray(override, dtype=np.float64).reshape(shape),
                             horizon=horizon)


def _activation_from_config(cfg) -> neural.Activation:
    return neural.Activation(cfg["activation"], slope=_get_float(cfg, "leaky_slope"))


def _solver_from_config(cfg) -> dynamics.SolverConfig:
    rk4_step = _get_float(cfg, "rk4_step") if cfg["rk4_step"] else None
    return dynamics.SolverConfig(
        method=cfg["solver"],
        eval_grid=_get_int(cfg, "eval_grid", minimum=1),
        rk4_step=rk4_step,
        atol=_get_float(cfg, "atol"),
        rtol=_get_float(cfg, "rtol"),
    )


def _master_seed(args, cfg) -> int:
    return args.seed if args.seed is not None else _get_int(cfg, "seed", minimum=0)


def _trial_seed(master: int, *path) -> int:
    seq = np.random.SeedSequence([master, *path])
    return int(seq.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# converge


def cmd_converge(args, cfg) -> int:
    spec = _graphon_from_config(cfg)
    n_list = sorted(_get_int_list(cfg, "n_list"))
    if not n_list or min(n_list) < 1 or len(set(n_list)) < len(n_list):
        raise ConfigError("n_list must hold distinct positive integers")
    n_ref = _get_int(cfg, "n_ref", minimum=2)
    if n_ref <= max(n_list):
        raise ConfigError(f"n_ref={n_ref} must exceed max(n_list)={max(n_list)}")
    trials = _get_int(cfg, "trials", minimum=1)
    T = _get_float(cfg, "T")
    channels = _get_int(cfg, "channels", minimum=1)
    quad = _get_int(cfg, "quad_points", minimum=1)
    alpha_or_dim, exponent, kernel_term = analysis.rate_form(spec, _get_float(cfg, "eps"))
    act = _activation_from_config(cfg)
    solver = _solver_from_config(cfg)
    master = _master_seed(args, cfg)
    out = args.out or "converge.csv"
    # every trial's reference trajectory is held at once
    sampling.check_entries(("n_ref", sampling.node_count(n_ref)), ("channels", channels),
                           ("eval_grid", solver.eval_grid + 1), ("trials", trials))

    # Per-trial draws: bank and feature coefficients from the recorded seed.
    draws = []
    for trial in range(trials):
        seed = _trial_seed(master, trial)
        rng = np.random.default_rng(seed)
        bank = _bank_from_config(cfg, T, rng)
        draws.append((seed, bank, _feature_from_config(cfg, channels, rng)))
    features = [feature for _, _, feature in draws]

    def _run_size(n, trial_ids, measure):
        """Integrate the listed trials at size n in one batch and measure the
        solved ones in one call: {trial: (result or None, failure message or
        None, wall ms)}.  ``measure`` maps a list of (trial, trajectory)
        pairs to one result or numerical failure each; the wall time is an
        even share of the size's solve and measure."""
        # Sampling is deterministic, so each graph is sampled once, with every
        # trial's features.  The graph, symmetric by its own validation, is
        # split straight into the operator (S = A / n is never formed, and
        # its symmetry is not checked again) and dropped before the solve.
        graph, feats = sampling.sample_system(spec, n, features, quad)
        op = kernels.ShiftOperator(graph)
        del graph
        start = time.perf_counter()
        outcomes = dict(zip(trial_ids, dynamics.integrate_batch(
            op, [(feats[trial], draws[trial][1]) for trial in trial_ids], act, T, solver)))
        solved = [(trial, traj) for trial, traj in outcomes.items()
                  if not isinstance(traj, Exception)]
        outcomes.update(zip([trial for trial, _ in solved], measure(solved)))
        share_ms = (time.perf_counter() - start) * 1e3 / max(1, len(trial_ids))
        return {trial: (None, f"{type(outcome).__name__}: {outcome}", share_ms)
                if isinstance(outcome, Exception) else (outcome, None, share_ms)
                for trial, outcome in outcomes.items()}

    def _references(solved):
        # what every other size compares against, and each trial's rate constant
        made = []
        for trial, traj in solved:
            _, bank, feature = draws[trial]
            inputs = analysis.BoundInputs(
                F=bank.F, K=bank.K, L=bank.L, T=T, h_T=neural.h_sup_certified(bank),
                X_sup_norm=float(dynamics.scaled_norm(traj.states).max()),
                A2=feature.lipschitz_bound())
            made.append((traj, analysis.trajectory_norms(traj),
                         analysis.rate_constant(inputs, kernel_term)))
        return made

    def _errors(solved):
        # every live trial of the size against its reference, in one pass
        return analysis.trajectory_sup_errors_batch(
            (traj, *refs[trial][0][:2]) for trial, traj in solved)

    # Size-major: the reference first, then each n with every live trial.
    refs = _run_size(n_ref, range(trials), _references)
    live = [trial for trial, (ref, _, _) in refs.items() if ref is not None]
    by_size = [_run_size(n, live, _errors) for n in n_list]

    row_errors = [{"trial": trial, "n": None, "stage": "reference", "error": failure}
                  for trial, (_, failure, _) in refs.items() if failure is not None]

    rows = []
    per_trial_slopes = []
    log_domain_trials = []
    rel_errs = {n: [] for n in n_list}
    for trial, (seed, _, _) in enumerate(draws):
        cells = dict(graphon=cfg["graphon"], alpha_or_dim=alpha_or_dim,
                     n_ref=n_ref, T=T, seed=seed)
        ref = refs[trial][0]
        if ref is None:
            rows.extend({**cells, "n": n} for n in n_list)
            per_trial_slopes.append(None)
            continue
        # The trial's slope is its last running fit, which saw every fit point.
        fit_points = []
        slope, log_domain = None, False
        for n, at_n in zip(n_list, by_size):
            errors, failure, runtime_ms = at_n[trial]
            bound = None if exponent is None else ref[2] * float(n) ** -exponent
            abs_err = rel = slope_running = None
            if failure is None:
                abs_err, rel = errors
                rel_errs[n].append(rel)
                fit_points.append((n, rel))
                if len(fit_points) >= 3:
                    try:
                        slope, log_domain = analysis.fit_rate(fit_points)[0], False
                    except LogDomainError:
                        slope, log_domain = None, True
                    slope_running = slope
            else:
                row_errors.append({"trial": trial, "n": n,
                                   "stage": "system", "error": failure})
            rows.append(dict(cells, n=n, sup_rel_err=rel, abs_err=abs_err, bound=bound,
                             slope_running=slope_running, runtime_ms=runtime_ms))
        per_trial_slopes.append(slope)
        if log_domain:
            log_domain_trials.append(trial)

    sampling.write_csv(out, analysis.REPORT_COLUMNS,
                       ([row.get(col) for col in analysis.REPORT_COLUMNS] for row in rows))
    valid = [s for s in per_trial_slopes if s is not None]
    per_n_mean = {str(n): float(np.mean(errs)) if errs else None
                  for n, errs in rel_errs.items()}
    summary = {
        "graphon": cfg["graphon"],
        "alpha_or_dim": alpha_or_dim,
        "n_list": n_list,
        "n_ref": n_ref,
        "T": T,
        "trials": trials,
        "master_seed": master,
        "solver": cfg["solver"],
        "feature": cfg["feature"],
        "per_trial_slopes": per_trial_slopes,
        "mean_slope": float(np.mean(valid)) if valid else None,
        "std_slope": float(np.std(valid)) if valid else None,
        "per_n_mean_rel_err": per_n_mean,
        "log_domain_trials": log_domain_trials,
        "row_errors": row_errors,
    }
    analysis.write_summary_json(summary, out + ".summary.json")
    slope_txt = "n/a" if summary["mean_slope"] is None else repr(summary["mean_slope"])
    print(f"converge: {len(rows)} rows -> {out}; mean fitted slope {slope_txt}")
    return 0


# ---------------------------------------------------------------------------
# boxdim


def cmd_boxdim(args, cfg) -> int:
    spec = _graphon_from_config(cfg)
    boundary = catalog.support_boundary(spec)
    deltas = catalog.default_delta_schedule(boundary)
    slope, counts = catalog.box_counting_dimension(boundary, deltas)
    out = args.out or "boxdim.csv"
    sampling.write_csv(out, ["delta", "count"], zip(deltas, counts))
    analysis.write_summary_json(
        {"graphon": cfg["graphon"], "dimension_estimate": slope,
         "deltas": list(deltas), "counts": [int(c) for c in counts]},
        out + ".summary.json")
    print(f"boxdim: {cfg['graphon']} dimension estimate {slope!r} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# transfer-audit


def cmd_transfer_audit(args, cfg) -> int:
    if not cfg["edge_list"]:
        raise ConfigError("transfer-audit needs edge_list=<path> in the config")
    graph = sampling.read_edge_list(cfg["edge_list"])
    proportions = _get_float_list(cfg, "proportions")
    if not proportions or any(not (0.0 < p <= 1.0) for p in proportions):
        raise ConfigError("proportions must lie in (0, 1]")
    trials = _get_int(cfg, "audit_trials", minimum=1)
    # every row keeps its node ids
    sampling.check_entries(("n", graph.n), ("proportions", len(proportions)),
                           ("audit_trials", trials))
    master = _master_seed(args, cfg)
    out = args.out or "audit.csv"

    full_norm = sampling.pwc_l2_norm(sampling.induce_kernel(graph))
    if full_norm < 1e-12:
        raise DegenerateReferenceError(
            "graph kernel norm below 1e-12; relative graphon error undefined")

    n = graph.n
    rows = []
    stats = {}
    for p_index, proportion in enumerate(proportions):
        k = int(np.floor(proportion * n + 0.5))
        seeds = [_trial_seed(master, p_index, trial) for trial in range(trials)]
        if k == 0:
            errors = []
            rows.extend((proportion, trial, seed, 0, None, "", "empty subgraph")
                        for trial, seed in enumerate(seeds))
        else:
            # Ascending ids so the full-proportion subgraph is the graph
            # itself.  Every trial of the proportion shares one overlay pass
            # over the full adjacency; no subgraph is cut out.
            node_sets = [np.sort(np.random.default_rng(seed).choice(n, size=k, replace=False))
                         for seed in seeds]
            errors = [d / full_norm
                      for d in catalog.subgraph_distances(graph.adjacency, node_sets)]
            rows.extend((proportion, trial, seed, k, err, ";".join(map(str, nodes.tolist())), "")
                        for trial, (seed, nodes, err) in enumerate(zip(seeds, node_sets, errors)))
        stats[p_index] = (
            float(np.mean(errors)) if errors else None,
            float(np.std(errors)) if errors else None,
        )

    sampling.write_csv(out, ["proportion", "trial", "seed", "k", "rel_err", "nodes", "note"],
                       rows)
    summary = {
        "edge_list": cfg["edge_list"],
        "n": n,
        "trials": trials,
        "master_seed": master,
        "proportions": [float(p) for p in proportions],
        "mean_rel_err": [stats[i][0] for i in range(len(proportions))],
        "std_rel_err": [stats[i][1] for i in range(len(proportions))],
    }
    analysis.write_summary_json(summary, out + ".summary.json")
    print(f"transfer-audit: {len(rows)} rows -> {out}")
    return 0


# ---------------------------------------------------------------------------
# sample / integrate / catalog


def _features_path(out: str) -> str:
    stem = out[:-4] if out.endswith(".csv") else out
    return stem + ".features.csv"


def cmd_sample(args, cfg) -> int:
    spec = _graphon_from_config(cfg)
    n = _get_int(cfg, "n", minimum=1)
    channels = _get_int(cfg, "channels", minimum=1)
    master = _master_seed(args, cfg)
    rng = np.random.default_rng(_trial_seed(master, 0))
    feature = _feature_from_config(cfg, channels, rng)
    out = args.out or "sample.csv"
    graph, (feats,) = sampling.sample_system(
        spec, n, [feature], _get_int(cfg, "quad_points", minimum=1))
    sampling.write_edge_list(graph, out)
    sampling.write_feature_matrix(feats, _features_path(out))
    print(f"sample: n={n} {graph.value_class} -> {out}, {_features_path(out)}")
    return 0


def cmd_integrate(args, cfg) -> int:
    spec = _graphon_from_config(cfg)
    n = _get_int(cfg, "n", minimum=1)
    channels = _get_int(cfg, "channels", minimum=1)
    T = _get_float(cfg, "T")
    master = _master_seed(args, cfg)
    rng = np.random.default_rng(_trial_seed(master, 0))
    bank = _bank_from_config(cfg, T, rng)
    feature = _feature_from_config(cfg, channels, rng)
    act = _activation_from_config(cfg)
    solver = _solver_from_config(cfg)
    graph, (feats,) = sampling.sample_system(
        spec, n, [feature], _get_int(cfg, "quad_points", minimum=1))
    op = kernels.ShiftOperator(graph)
    del graph  # the adjacency is not needed past the split
    traj = dynamics.integrate(op, feats, bank, act, T, solver)
    out = args.out or "trajectory.csv"
    dynamics.write_trajectory(traj, out)
    final_norm = dynamics.scaled_norm(traj.states[-1])
    print(f"integrate: n={n} T={T!r} final scaled norm {final_norm!r} -> {out}")
    return 0


def cmd_catalog(args, cfg) -> int:
    lines = []
    for name in catalog.CATALOG_NAMES:
        spec = catalog.from_name(name)
        parts = [spec.value_class]
        if spec.holder_meta is not None:
            parts.append(f"holder=(A1={spec.holder_meta[0]:g}, alpha={spec.holder_meta[1]:g})")
        if spec.pattern is not None:
            parts.append(f"blocks={spec.pattern.shape[0]}x{spec.pattern.shape[1]}")
        if spec.depth is not None:
            parts.append(f"depth={spec.depth}")
        if spec.nominal_box_dim is not None:
            parts.append(f"boundary_dim={spec.nominal_box_dim:.4f}")
        lines.append(f"{name}: " + ", ".join(parts))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="flat key=value config file")
    common.add_argument("--seed", type=int, default=None, help="master seed (u64)")
    common.add_argument("--out", default=None, help="output path")
    common.add_argument("--threads", type=int, default=None,
                        help="accepted for older scripts; has no effect (every "
                             "command runs in one thread)")

    parser = argparse.ArgumentParser(
        prog="gnde",
        description="Graph neural differential equations: sampling regimes, "
                    "convergence rates, and bound checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("catalog", parents=[common],
                   help="list the shipped graphon kernels").set_defaults(fn=cmd_catalog)
    sub.add_parser("sample", parents=[common],
                   help="sample a graph + features to CSV").set_defaults(fn=cmd_sample)
    sub.add_parser("integrate", parents=[common],
                   help="integrate one system and write the trajectory").set_defaults(
                       fn=cmd_integrate)
    sub.add_parser("converge", parents=[common],
                   help="run the convergence-rate experiment").set_defaults(
                       fn=cmd_converge)
    sub.add_parser("boxdim", parents=[common],
                   help="box-counting dimension of a kernel's support boundary"
                   ).set_defaults(fn=cmd_boxdim)
    sub.add_parser("transfer-audit", parents=[common],
                   help="subgraph graphon-error audit of an edge-list graph"
                   ).set_defaults(fn=cmd_transfer_audit)
    return parser


def entry(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be a nonnegative integer")
        return args.fn(args, cfg)
    except NUMERICAL_EXIT_ERRORS as exc:
        print(f"gnde: numerical failure: {exc}", file=sys.stderr)
        return 3
    except GndeError as exc:
        print(f"gnde: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gnde: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entry())
