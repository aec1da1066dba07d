"""Session fixtures: the desk-preset convergence sweeps shared by the
acceptance criteria.  Each sweep runs the real CLI once per session."""

from __future__ import annotations

import csv
import json

import pytest

from gnde.cli import entry


def _run_sweep(dirpath, name, **overrides):
    cfg = dirpath / f"{name}.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in overrides.items()))
    out = dirpath / f"{name}.csv"
    code = entry(["converge", "--config", str(cfg), "--out", str(out)])
    assert code == 0, f"sweep {name} exited {code}"
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((dirpath / f"{name}.csv.summary.json").read_text())
    return rows, summary


@pytest.fixture(scope="session")
def sweep_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweeps")


@pytest.fixture(scope="session")
def tent_sweep(sweep_dir):
    # the desk preset is the all-defaults configuration
    return _run_sweep(sweep_dir, "tent", graphon="tent")


@pytest.fixture(scope="session")
def holder_sweep(sweep_dir):
    return _run_sweep(sweep_dir, "holder", graphon="holder-tent", feature="holder")


@pytest.fixture(scope="session")
def checkerboard_sweep(sweep_dir):
    return _run_sweep(sweep_dir, "checkerboard", graphon="checkerboard",
                      cells="8", feature="linear")


@pytest.fixture(scope="session")
def hsbm_sweep(sweep_dir):
    return _run_sweep(sweep_dir, "hsbm", graphon="hsbm", feature="linear")


@pytest.fixture(scope="session")
def hexaflake_sweep(sweep_dir):
    return _run_sweep(sweep_dir, "hexaflake", graphon="hexaflake", feature="linear")
