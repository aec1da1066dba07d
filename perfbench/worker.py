"""One benchmark run in a fresh process.

Set-up is starting Python, importing numpy and gnde and writing the
workload's config files; the record holds its CPU time (``setup_cpu_s``,
from the start of the process) and its wall time from the numpy import
on (``setup_wall_s``).  The process then pins itself to one CPU, and the
timed region (``wall_s``, and the program's CPU time ``cpu_s``) calls
``gnde.cli.entry`` once per workload step while a ``SpeedSampler`` thread
times a fixed slice of work every ``SAMPLE_PERIOD_S`` on the same CPU, so
the caller can rescale ``cpu_s`` to a fixed machine speed.  With
``--trace`` the public functions of gnde's modules are wrapped first, and
after the run the layer probes time ``kernels.shift_matvec`` and
``kernels.layer_stack_forward`` with tracing removed.  The record goes to
``record.json`` in the run directory, which is also the working directory
of the CLI calls.

Usage: python worker.py --workload NAME --seed N --dir RUN_DIR [--trace]
"""

import argparse
import json
import os
import platform
import resource
import statistics
import threading
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import BLAS_THREAD_ENV, WORKLOADS

SETUP_START = time.perf_counter()

import numpy as np  # noqa: E402

from gnde import analysis, catalog, cli, dynamics, kernels, neural, sampling  # noqa: E402

TRACED_MODULES = (kernels, dynamics, analysis, sampling, catalog, cli)
PROBE_SIZES = (256, 1024, 2048)
PROBE_CHANNELS = (1, 10)
PROBE_LAYERS = 2
PROBE_TAPS = 2


def write_inputs(workload, seed: int) -> list:
    argvs = []
    for step in workload.steps:
        Path(step.config_name).write_text(
            "".join(f"{key}={value}\n" for key, value in step.config.items()))
        argvs.append([step.command, "--config", step.config_name, "--out", step.out,
                      "--seed", str(seed), "--threads", "1"])
    return argvs


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict-mode config report
        pass
    backend = getattr(kernels, "active_backend", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {key: os.environ.get(key) for key in BLAS_THREAD_ENV},
        "gnde_backend": backend() if backend is not None else "n/a",
    }


# -- speed sampling -----------------------------------------------------------

SAMPLE_PERIOD_S = 0.05
_SLICE_LOOP = 20_000
_SLICE_OPS = 40
_SLICE_V = (np.arange(512, dtype=np.float64) % 7.0) - 3.0


class SpeedSampler(threading.Thread):
    """Times a fixed slice of work (an interpreter loop and numpy operations
    on a short vector, the instruction mix of gnde's numpy path) every
    ``SAMPLE_PERIOD_S`` while the program runs.  The slice calls no gnde
    code, so a program change cannot move its time; only the speed of the
    CPU does.  Its CPU time is its own thread's, so the program's is the
    process's minus it."""

    def __init__(self):
        super().__init__(daemon=True)
        self.cpu_s = 0.0
        self.slices = 0
        self._done = threading.Event()

    def run(self):
        while not self._done.wait(SAMPLE_PERIOD_S):
            t0 = time.thread_time()
            acc = 0
            for i in range(_SLICE_LOOP):
                acc += i & 7
            v = _SLICE_V.copy()
            for _ in range(_SLICE_OPS):
                v = np.where(np.abs(v) >= 1.0, v * 0.5, v + _SLICE_V)
            self.cpu_s += time.thread_time() - t0
            self.slices += 1

    def stop(self):
        self._done.set()
        self.join()


def run_steps(argvs) -> dict:
    codes = []
    error = None
    sampler = SpeedSampler()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    sampler.start()
    for argv in argvs:
        try:
            code = cli.entry(argv)
        except Exception:  # an escaped traceback fails the run, not the benchmark
            code = None
            error = traceback.format_exc(limit=8)
        codes.append(code)
        if code != 0:
            break
    sampler.stop()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    return {
        "wall_s": wall,
        "cpu_s": cpu - sampler.cpu_s,
        "sampler_cpu_s": sampler.cpu_s,
        "sampler_slices": sampler.slices,
        "exit_codes": codes,
        "error": error,
    }


# -- tracing ------------------------------------------------------------------


def _count_shift_products(counts, args, kwargs, result):
    L, _, _, K = np.shape(args[2] if len(args) > 2 else kwargs["coeffs"])
    counts["kernels.shift_products"] += L * (K - 1)


def _count_steps(counts, args, kwargs, result):
    meta = result.solver_meta
    counts["dynamics.steps_accepted"] += meta.get("accepted", 0)
    counts["dynamics.steps_rejected"] += meta.get("rejected", 0)


def _count_edge_list_bytes(counts, args, kwargs, result):
    counts["sampling.edge_list_bytes"] += os.path.getsize(
        args[1] if len(args) > 1 else kwargs["path"])


HOOKS = {
    "kernels.layer_stack_forward": _count_shift_products,
    "dynamics.integrate": _count_steps,
    "sampling.write_edge_list": _count_edge_list_bytes,
}

ERROR_EVAL = {"analysis.trajectory_sup_relative_error",
              "analysis.trajectory_sup_absolute_error"}
GRAPH = {"sampling.sample_weighted", "sampling.sample_unweighted", "sampling.graph_shift"}
FEATURES = {"sampling.sample_features_pointwise", "sampling.sample_features_cell_average"}


def layer_metrics(tracer: Tracer, run: dict) -> dict:
    forward = {"kernels.layer_stack_forward"}
    integrate = {"dynamics.integrate"}
    distance = {"catalog.kernel_distance"}
    return {
        "kernels.forward.calls": (tracer.calls(forward), "count"),
        "kernels.forward.busy_s": (tracer.busy_s(forward), "s"),
        "kernels.shift_products": (tracer.counts["kernels.shift_products"], "count"),
        "dynamics.integrate.calls": (tracer.calls(integrate), "count"),
        "dynamics.integrate.busy_s": (tracer.busy_s(integrate), "s"),
        "dynamics.self_s": (tracer.layer_self_s("dynamics"), "s"),
        "dynamics.steps_accepted": (tracer.counts["dynamics.steps_accepted"], "count"),
        "dynamics.steps_rejected": (tracer.counts["dynamics.steps_rejected"], "count"),
        "analysis.error_eval.calls": (tracer.calls(ERROR_EVAL), "count"),
        "analysis.error_eval.busy_s": (tracer.busy_s(ERROR_EVAL), "s"),
        "sampling.graph.busy_s": (tracer.busy_s(GRAPH), "s"),
        "sampling.features.busy_s": (tracer.busy_s(FEATURES), "s"),
        "sampling.write_edge_list.busy_s": (
            tracer.busy_s({"sampling.write_edge_list"}), "s"),
        "sampling.read_edge_list.busy_s": (
            tracer.busy_s({"sampling.read_edge_list"}), "s"),
        "sampling.edge_list_bytes": (tracer.counts["sampling.edge_list_bytes"], "bytes"),
        "catalog.kernel_distance.calls": (tracer.calls(distance), "count"),
        "catalog.kernel_distance.busy_s": (tracer.busy_s(distance), "s"),
        "cli.self_s": (tracer.layer_self_s("cli"), "s"),
        "process.cpu_s": (run["cpu_s"], "s"),
    }


# -- layer probes -------------------------------------------------------------


def _median_ms(fn, min_reps=3, min_seconds=0.3, max_reps=15) -> float:
    fn()  # first call outside the timing: allocation and page faults
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (
            time.perf_counter() - start < min_seconds and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _shift(graphon: str, n: int) -> np.ndarray:
    spec = catalog.from_name(graphon)
    if spec.value_class == catalog.WEIGHTED:
        return sampling.graph_shift(sampling.sample_weighted(spec, n))
    return sampling.graph_shift(sampling.sample_unweighted(spec, n))


def probes(workload, seed: int) -> tuple:
    """The workload's own shift product, and the layer probe grid with each
    size's nominal flop count and bytes moved (computed, not measured)."""
    rng = np.random.default_rng(seed)
    graphon, n, F = workload.probe
    S = _shift(graphon, n)
    X = rng.standard_normal((n, F))
    own_ms = _median_ms(lambda: kernels.shift_matvec(S, X))

    act = neural.Activation("tanh")
    L, K = PROBE_LAYERS, PROBE_TAPS
    grid = []
    for n in PROBE_SIZES:
        S = _shift("tent", n)
        for F in PROBE_CHANNELS:
            X = rng.standard_normal((n, F))
            coeffs = rng.uniform(-1.0, 1.0, size=(L, F, F, K))
            matvec_flops = 2 * n * n * F
            matvec_bytes = 8 * (n * n + 2 * n * F)
            grid.append({
                "function": "shift_matvec", "n": n, "F": F,
                "ms": _median_ms(lambda: kernels.shift_matvec(S, X)),
                "flops_computed": matvec_flops,
                "bytes_computed": matvec_bytes,
            })
            grid.append({
                "function": "layer_stack_forward", "n": n, "F": F, "L": L, "K": K,
                "ms": _median_ms(lambda: kernels.layer_stack_forward(
                    S, X, coeffs, act.act_id, act.slope)),
                # L*(K-1) shift products, the (g, k) mixing and the activation
                "flops_computed": L * ((K - 1) * matvec_flops + 2 * F * F * K * n + n * F),
                "bytes_computed": L * ((K - 1) * matvec_bytes + 8 * (K + 1) * n * F),
            })
    return own_ms, grid


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one gnde benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    run_dir = Path(args.dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(run_dir)
    argvs = write_inputs(workload, args.seed)
    record = {"setup_wall_s": time.perf_counter() - SETUP_START,
              "setup_cpu_s": time.process_time(),
              "environment": environment()}
    # The program and the sampler share one CPU, so the sampler times the
    # CPU the program runs on; the workloads are single-threaded.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    record["environment"]["pinned_cpu"] = cpu

    if args.trace:
        tracer = Tracer(HOOKS)
        tracer.install(TRACED_MODULES)
        record.update(run_steps(argvs))
        tracer.uninstall()
        own_ms, grid = probes(workload, args.seed)
        record["layers"] = layer_metrics(tracer, record)
        record["layers"]["kernels.shift_matvec.ms"] = (own_ms, "ms")
        record["probes"] = grid
    else:
        record.update(run_steps(argvs))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path("record.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
