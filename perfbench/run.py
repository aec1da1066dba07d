"""gnde benchmark: run one workload, check its outputs, print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload tent-converge --seed 42 --seconds 35 --trace 0

The program is built from ``src/`` (byte-compiled) and every run is a
fresh ``worker.py`` process, so each run sets up anew and ``peak_rss_mb``
belongs to one run.  With ``--trace 0`` the benchmark repeats untraced
runs for about ``--seconds`` (at least one) and prints the end-to-end
metrics: ``cal_cpu_s``, the runs' CPU time rescaled to a fixed machine
speed by the speed sampler that runs beside the program in every run (see
``worker.SpeedSampler``); ``setup_s``, the median over the runs of their
set-up CPU time, rescaled by the same run's sampler; and the median
``peak_rss_mb``.  With ``--trace 1`` it makes one untraced and one traced
run of the first draw, times the layer probes, and prints the per-layer
metrics.

The rescaling is there because the machine's speed drifts: on the shared
2-CPU host the benchmark was defined on, the same draw took 1.3 to 2.7 CPU
seconds from one run to the next, and the sampler's slice slowed down with
it.  Raw wall and CPU times are in the details line.

Run ``d`` of an invocation passes ``gnde --seed`` the draw seed
``seed + d * 2**32``, so run 0 uses the benchmark seed itself.  The dp5
step count, and with it the work, depends on the filter bank drawn from
the seed; distinct draws let the mean over an invocation's runs average
that out instead of repeating one draw's luck.

Every run's outputs are checked (``checks.py``): the acceptance
invariants always, the reference outputs when the draw seed is 42, and
identity with an earlier run of the same draw (the traced run repeats
draw 0).  A failed check or a nonzero exit fails every operation of that
run.

The last line of standard output is the result object; the line before
it holds the per-run details, the environment and the notes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from workloads import BLAS_THREAD_ENV, REFERENCE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference" / f"seed{REFERENCE_SEED}.json"

# BLAS is pinned to one thread.  With the default two threads on a
# two-core machine, edge-audit's kernel_distance burns twice the CPU for a
# slightly longer wall time, and its timing then depends on other load.
BLAS_THREADS = "1"
# CPU seconds of one speed-sampler slice at the reference speed, about its
# median on the 2-CPU machine the benchmark was defined on.
SLICE_REF_S = 1.65e-3
BUDGET_S = 165.0  # a whole invocation ends within 180 s

NOTES = [
    f"BLAS threads pinned to {BLAS_THREADS} for every run ({', '.join(BLAS_THREAD_ENV)}).",
    "Determinism defect: edge-audit rel_err depends on the BLAS thread count, because "
    "catalog.kernel_distance sums through BLAS (w @ diff @ w); it is compared with "
    f"relative tolerance {checks.REL_TOL}, not by bytes.",
    "Probe flops_computed and bytes_computed are nominal counts computed from n, F, L "
    "and K, not measured.",
    "cal_cpu_s and setup_s are CPU times rescaled to a speed-sampler slice of "
    f"{SLICE_REF_S * 1e3:g} ms; raw_medians and runs hold the raw times.",
]


def draw_seed(seed: int, draw: int) -> int:
    return seed + (draw << 32)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["GNDE_BACKEND"] = "numpy"
    for key in BLAS_THREAD_ENV:
        env[key] = BLAS_THREADS
    return env


def build() -> str | None:
    """Byte-compile the program; an error message if it cannot be built."""
    if not (SRC / "gnde" / "__init__.py").is_file():
        return f"no gnde sources under {SRC}"
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "gnde")],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    return None if proc.returncode == 0 else f"compileall failed: {proc.stderr[-2000:]}"


class Bench:
    def __init__(self, workload, tmp: Path, deadline: float, reference=None):
        self.workload = workload
        self.tmp = tmp
        self.deadline = deadline
        self.reference = reference  # outputs recorded at the seed commit
        self.seen = {}  # draw seed -> outputs of its first run
        self.records = []  # (mode, record, ok, byte_identical_to_reference)
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self._count = 0

    def spawn(self, mode: str, seed: int):
        """Start one worker and wait for it; its record, or None and a reason."""
        self._count += 1
        run_dir = self.tmp / f"run-{self._count}"
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload.name,
                "--seed", str(seed), "--dir", str(run_dir)]
        if mode != "run":
            argv.append(f"--{mode}")
        try:
            proc = subprocess.run(argv, env=child_env(), cwd=ROOT, text=True,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return None, run_dir, "worker timed out"
        if proc.returncode != 0:
            return None, run_dir, f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
        return json.loads((run_dir / "record.json").read_text()), run_dir, None

    def run(self, mode: str, seed: int):
        record, run_dir, error = self.spawn(mode, seed)
        identical = None
        if error:
            problems = [error]
        else:
            problems, identical = self._check(record, run_dir, seed)
        shutil.rmtree(run_dir, ignore_errors=True)
        self.attempted += self.workload.operations()
        if problems:
            self.failed += self.workload.operations()
            self.problems += [f"run {self._count} ({mode}, seed {seed}): {p}"
                              for p in problems]
        if record is not None:
            self.records.append((mode, record, not problems, identical))
        return record

    def _check(self, record, run_dir: Path, seed: int):
        """Problems found in a run's outputs, and whether they are byte-identical
        to the reference (None when the draw has no reference)."""
        if record["exit_codes"] != [0] * len(self.workload.steps):
            return [f"exit codes {record['exit_codes']} {record['error'] or ''}"], None
        try:
            outputs = checks.read_outputs(self.workload, run_dir)
        except (OSError, ValueError) as exc:
            return [f"unreadable outputs: {exc}"], None
        problems = checks.invariants(self.workload, outputs)
        identical = None
        if seed == REFERENCE_SEED:
            problems += checks.compare(outputs, self.reference, "reference")
            identical = checks.byte_identical(outputs, self.reference)
        earlier = self.seen.setdefault(seed, outputs)
        if earlier is not outputs:
            if self.workload.final.command == "converge":
                if not checks.byte_identical(outputs, earlier):
                    problems.append("outputs differ in bytes from the earlier run")
            else:
                problems += checks.compare(outputs, earlier, "earlier run")
        return problems, identical

    def walls(self) -> list:
        return [rec["wall_s"] for m, rec, _, _ in self.records if m == "run"]


def measure(bench: Bench, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        bench.run("run", seed)
        record = bench.run("trace", seed)
        if record is None or not bench.walls():
            return {}
        metrics = {name: tuple(value) for name, value in record["layers"].items()}
        for probe in record["probes"]:
            metrics[f"probe.{probe['function']}.n{probe['n']}.f{probe['F']}.ms"] = (
                probe["ms"], "ms")
        metrics["trace.overhead_s"] = (record["wall_s"] - bench.walls()[0], "s")
        return metrics

    start = time.monotonic()
    last = 0.0
    draw = 0
    # Start another run while it would end, on the last run's pace, at most
    # half a run past --seconds, and well before the deadline.
    while draw == 0 or (time.monotonic() - start + 0.5 * last < seconds
                        and time.monotonic() + 1.5 * last + 5 < bench.deadline):
        t0 = time.monotonic()
        bench.run("run", draw_seed(seed, draw))
        last = time.monotonic() - t0
        draw += 1
    runs = [rec for m, rec, _, _ in bench.records if m == "run"]
    if not runs:
        return {}
    if not all(rec["sampler_slices"] for rec in runs):
        bench.problems.append("a run's speed sampler took no slice")
        return {}
    # Mean program CPU time of a run over the mean slice time of all runs:
    # seconds at the slice's reference speed.
    slice_s = (sum(rec["sampler_cpu_s"] for rec in runs)
               / sum(rec["sampler_slices"] for rec in runs))
    calibrated = statistics.mean(rec["cpu_s"] for rec in runs) / slice_s * SLICE_REF_S
    setup = statistics.median(
        rec["setup_cpu_s"] * rec["sampler_slices"] / rec["sampler_cpu_s"] * SLICE_REF_S
        for rec in runs)
    return {
        "cal_cpu_s": (calibrated, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (statistics.median(rec["peak_rss_mb"] for rec in runs), "MB"),
    }


def details(bench: Bench, args) -> dict:
    env = next((rec["environment"] for _, rec, _, _ in bench.records), None)
    runs = []
    for mode, rec, ok, identical in bench.records:
        row = {"mode": mode, "setup_cpu_s": rec["setup_cpu_s"],
               "setup_wall_s": rec["setup_wall_s"], "peak_rss_mb": rec["peak_rss_mb"],
               "wall_s": rec["wall_s"], "cpu_s": rec["cpu_s"], "ok": ok,
               "byte_identical_to_reference": identical}
        if rec["sampler_slices"]:
            row["slice_ms"] = rec["sampler_cpu_s"] / rec["sampler_slices"] * 1e3
        runs.append(row)
    probes = [rec["probes"] for mode, rec, _, _ in bench.records if mode == "trace"]
    raw = {key: [row[key] for row in runs if row["mode"] == "run" and key in row]
           for key in ("wall_s", "cpu_s", "slice_ms", "setup_cpu_s", "setup_wall_s")}
    return {
        "details": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "samples": {"runs": len(bench.walls())},
            "raw_medians": {key: statistics.median(values) for key, values in raw.items()
                            if values},
            "runs": runs,
            "probes": probes[0] if probes else None,
            "problems": bench.problems[:20],
            "environment": env,
            "notes": NOTES,
        }
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gnde benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2**32)")

    # SIGTERM unwinds through subprocess.run, which then kills the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + BUDGET_S
    error = build()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())[args.workload]
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    bench = Bench(WORKLOADS[args.workload], tmp, deadline, reference)
    try:
        metrics = measure(bench, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not metrics:
        print("perfbench: no run completed: " + "; ".join(bench.problems[:5]), file=sys.stderr)
        return 1
    print(json.dumps(details(bench, args)))
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
