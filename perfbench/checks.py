"""Output checks for one run of a workload.

Each run's outputs are read into a comparable form:

* the converge report CSV without its wall-clock ``runtime_ms`` column,
* the summary JSON sidecar,
* the audit CSV, whose long ``nodes`` cells are replaced by their sha256,
* the sampled edge list, by sha256 and header line.

Three checks use that form.  Against the reference recorded at the seed
commit (draw seed 42 only): integer and text cells match exactly, floats
to a relative tolerance of ``REL_TOL``.  Against an earlier run of the same
draw: converge outputs match byte for byte, the audit as against the
reference.  The acceptance invariants hold for every draw.

The audit's ``rel_err`` is compared with a tolerance, never by bytes:
``catalog.kernel_distance`` sums through BLAS, and its last digits depend
on the BLAS thread count (a determinism defect of the program).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

REL_TOL = 1e-9
LONG_CELL = 64  # cells longer than this are compared by digest


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _table(text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    cells = [[c if len(c) <= LONG_CELL else "sha256:" + _sha256(c.encode()) for c in row]
             for row in rows[1:]]
    return {"header": rows[0] if rows else [], "rows": cells}


def _without_column(text: str, column: str) -> str:
    lines = text.splitlines(keepends=True)
    if not lines:
        return text
    header = lines[0].rstrip("\n").split(",")
    if column not in header:
        return text
    drop = header.index(column)
    return "".join(
        ",".join(c for i, c in enumerate(line.rstrip("\n").split(",")) if i != drop) + "\n"
        for line in lines)


def read_outputs(workload, run_dir: Path) -> dict:
    """The comparable form of a run's outputs; raises OSError if one is missing."""
    out = workload.final.out
    summary_bytes = (run_dir / f"{out}.summary.json").read_bytes()
    outputs = {"summary": json.loads(summary_bytes), "sha256": {}}
    outputs["sha256"][f"{out}.summary.json"] = _sha256(summary_bytes)
    text = (run_dir / out).read_text()
    if workload.final.command == "converge":
        text = _without_column(text, "runtime_ms")
        outputs["sha256"][f"{out} without runtime_ms"] = _sha256(text.encode())
    else:
        outputs["sha256"][out] = _sha256(text.encode())
    outputs["table"] = _table(text)
    outputs["inputs"] = {}
    for step in workload.steps[:-1]:
        data = (run_dir / step.out).read_bytes()
        outputs["inputs"][step.out] = _sha256(data)
        outputs["inputs"][step.out + " header"] = data.split(b"\n", 1)[0].decode()
    return outputs


# -- comparison ---------------------------------------------------------------


def _is_int(text: str) -> bool:
    return text.lstrip("-").isdigit()


def _float_close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _cell_close(a: str, b: str) -> bool:
    if a == b:
        return True
    if _is_int(a) or _is_int(b):
        return False
    try:
        return _float_close(float(a), float(b))
    except ValueError:
        return False


def _json_diff(a, b, where="summary") -> list:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, int) and isinstance(b, int):
        return [] if a == b and type(a) is type(b) else [f"{where}: {a!r} != {b!r}"]
    if isinstance(a, float) and isinstance(b, float):
        return [] if _float_close(a, b) else [f"{where}: {a!r} != {b!r}"]
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [f"{where}: keys {sorted(a)} != {sorted(b)}"]
        return [d for key in a for d in _json_diff(a[key], b[key], f"{where}.{key}")]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: length {len(a)} != {len(b)}"]
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in _json_diff(x, y, f"{where}[{i}]")]
    return [] if a == b else [f"{where}: {a!r} != {b!r}"]


def compare(outputs: dict, expected: dict, label: str) -> list:
    """Differences beyond the tolerance between two runs' outputs."""
    problems = []
    table, want = outputs["table"], expected["table"]
    if table["header"] != want["header"]:
        problems.append(f"{label}: header {table['header']} != {want['header']}")
    elif len(table["rows"]) != len(want["rows"]):
        problems.append(f"{label}: {len(table['rows'])} rows != {len(want['rows'])}")
    else:
        for i, (row, ref) in enumerate(zip(table["rows"], want["rows"])):
            bad = [col for col, a, b in zip(table["header"], row, ref) if not _cell_close(a, b)]
            if bad or len(row) != len(ref):
                problems.append(f"{label}: row {i} differs in {bad or 'length'}")
    problems += [f"{label}: {d}" for d in _json_diff(outputs["summary"], expected["summary"])]
    for name, digest in expected["inputs"].items():
        if outputs["inputs"].get(name) != digest:
            problems.append(f"{label}: {name} differs")
    return problems


def byte_identical(outputs: dict, expected: dict) -> bool:
    return outputs["sha256"] == expected["sha256"]


# -- acceptance invariants ----------------------------------------------------


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def invariants(workload, outputs: dict) -> list:
    cfg = workload.final.config
    summary = outputs["summary"]
    header, rows = outputs["table"]["header"], outputs["table"]["rows"]
    col = {name: i for i, name in enumerate(header)}
    if workload.final.command == "converge":
        needed = ("sup_rel_err", "abs_err", "bound")
    else:
        needed = ("proportion", "k", "rel_err", "note")
    missing = [name for name in needed if name not in col]
    if missing or any(len(row) != len(header) for row in rows):
        return [f"malformed table: missing columns {missing} or ragged rows"]
    problems = []
    if workload.final.command == "converge":
        want_rows = workload.operations() - int(cfg["trials"])
        if len(rows) != want_rows:
            problems.append(f"{len(rows)} report rows, expected {want_rows}")
        if summary.get("row_errors") or summary.get("log_domain_trials"):
            problems.append(f"row_errors {summary.get('row_errors')!r}, "
                            f"log_domain_trials {summary.get('log_domain_trials')!r}")
        for i, row in enumerate(rows):
            if not all(_finite(row[col[c]]) for c in ("sup_rel_err", "abs_err")):
                problems.append(f"row {i}: non-finite error")
            elif workload.bound_dominates and not (
                    _finite(row[col["bound"]])
                    and float(row[col["abs_err"]]) <= float(row[col["bound"]])):
                problems.append(f"row {i}: abs_err {row[col['abs_err']]} > bound "
                                f"{row[col['bound']]}")
        if workload.slope_range is not None:
            lo, hi = workload.slope_range
            slope = summary.get("mean_slope")
            if not (isinstance(slope, float) and lo <= slope <= hi):
                problems.append(f"mean_slope {slope!r} outside [{lo}, {hi}]")
        return problems

    n = int(workload.steps[0].config["n"])
    if outputs["inputs"].get(f"{workload.steps[0].out} header") != f"n={n},class=weighted":
        problems.append("edge list header does not match the sampled graph")
    if summary.get("n") != n or len(rows) != workload.operations():
        problems.append(f"audit of n={summary.get('n')} with {len(rows)} rows, expected "
                        f"n={n} with {workload.operations()}")
    for i, row in enumerate(rows):
        k = int(row[col["k"]])
        if row[col["note"]] or k != math.floor(float(row[col["proportion"]]) * n + 0.5):
            problems.append(f"row {i}: note {row[col['note']]!r}, k={k}")
        elif not (_finite(row[col["rel_err"]]) and float(row[col["rel_err"]]) >= 0.0):
            problems.append(f"row {i}: rel_err {row[col['rel_err']]!r}")
    return problems
