"""Correctness gate: compare a job's record with the reference recorded for it."""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Absolute tolerance on every number; equal to bl_metric.LP_FEAS_TOL when the
# references were recorded.  Integers (exit codes, counts, indices), booleans (identity
# "passed", witness checks) and strings must match exactly.
TOL = 1e-9


def load_reference(workload: str, input_set: int) -> dict:
    doc = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
    return doc[str(input_set)]


def mismatches(got, want, where: str = "") -> list[str]:
    """Every place where ``got`` differs from ``want``; empty when they agree."""
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, int) and isinstance(got, int):
        return [] if got == want else [f"{where}: {got} != {want}"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if got == want or abs(got - want) <= TOL or (math.isnan(want) and math.isnan(got)):
            return []
        return [f"{where}: {got!r} differs from {want!r} by more than {TOL}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def outcome_failures(record: dict, where: str = "") -> list[str]:
    """Outcomes that fail a job whatever the reference says."""
    out = []
    if record.get("exit", 0) != 0:
        out.append(f"{where}: exit code {record['exit']}")
    for check in record.get("checks", []):
        if not check["passed"]:
            out.append(f"{where}: {check['identityName']} did not pass")
    for key in ("feasible", "unit_ball", "attains"):
        if record.get(key) is False:
            out.append(f"{where}: witness check {key} failed")
    return out
