"""The benchmark's workloads: the gnde CLI steps one run executes.

Every workload is a closed loop with one client and one process: a run is
one fresh Python process that calls ``gnde.cli.entry`` for each step in
turn, with ``--threads 1`` and the benchmark's ``--seed``.  Configs pin
every key the workload depends on, so a later change of a CLI default
does not silently change the yardstick.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The seed whose outputs were recorded in ``reference/seed42.json``.
REFERENCE_SEED = 42

#: Environment variables that set the BLAS thread count of every run.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_MODEL = {
    "layers": "2",
    "channels": "1",
    "taps": "2",
    "activation": "tanh",
    "solver": "dp5",
}


@dataclass(frozen=True)
class Step:
    """One ``gnde <command> --config <command>.cfg --out <out>`` call."""

    command: str
    config: dict
    out: str

    @property
    def config_name(self) -> str:
        return f"{self.command}.cfg"


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple
    # (graphon, n, F) of the shift that the kernels.shift_matvec.ms probe
    # multiplies: the workload's own largest shift and channel count.
    probe: tuple
    # Acceptance invariants of the converge workloads; see checks.py.
    slope_range: tuple | None = None
    bound_dominates: bool = False

    @property
    def final(self) -> Step:
        return self.steps[-1]

    def operations(self) -> int:
        """Operations one run attempts: converge counts each reference and
        each (trial, n) row; the audit counts each subgraph row."""
        cfg = self.final.config
        if self.final.command == "converge":
            trials = int(cfg["trials"])
            return trials * (1 + len(cfg["n_list"].split(",")))
        return len(cfg["proportions"].split(",")) * int(cfg["audit_trials"])


WORKLOADS = {
    w.name: w
    for w in (
        # The end-to-end converge number: the forward map (shift products)
        # takes ~70% of a run and both trials share every shift matrix.
        # Smaller than ROADMAP's n_ref=2048 run so that an invocation
        # averages over many seed draws (see README.md).
        Workload(
            name="tent-converge",
            steps=(Step("converge", {
                "graphon": "tent",
                "trials": "2",
                "n_list": "32,48,64,96,128,192,256",
                "n_ref": "512",
                "eval_grid": "100",
                **_MODEL,
            }, "report.csv"),),
            probe=("tent", 512, 1),
            slope_range=(-1.25, -0.80),
            bound_dominates=True,
        ),
        # Binary regime at small n on a dense eval grid: overlay error
        # evaluation rises to ~70% and per-step solver overhead weighs more.
        Workload(
            name="hexaflake-dense",
            steps=(Step("converge", {
                "graphon": "hexaflake",
                "feature": "linear",
                "trials": "2",
                "n_list": "16,24,32,48,64,96,128",
                "n_ref": "256",
                "eval_grid": "400",
                **_MODEL,
            }, "report.csv"),),
            probe=("hexaflake", 256, 1),
        ),
        # No ODE solve: edge-list write and parse, subgraph induction and
        # kernel_distance; a kernel or solver change must read as no change.
        Workload(
            name="edge-audit",
            steps=(
                Step("sample", {"graphon": "tent", "n": "1024", "channels": "1"},
                     "edges.csv"),
                Step("transfer-audit", {
                    "edge_list": "edges.csv",
                    "proportions": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
                    "audit_trials": "5",
                }, "audit.csv"),
            ),
            probe=("tent", 1024, 1),
        ),
    )
}
