"""The benchmark's workloads: seeded inputs, timed jobs, and the records the gate checks.

A seed selects input set ``seed % INPUT_SETS``; the reference outputs of every
input set are stored under ``reference/``.  Jobs call the package's public
functions through their modules at call time, so the tracer's wrappers see
the calls.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from trotterkit import bl_metric, cli, identities, measures, operators

from gate import TOL

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "src" / "trotterkit" / "scenarios"
INPUT_SETS = 10

# Identity-suite trials as (states, n, k, j).  The suite draws these at
# random, which makes its cost vary sevenfold between trials; fixing them
# keeps a pass equally long for every seed while the generators, metric,
# test panel and t still come from the seed.  They span the suite's range
# at max-states 6: states 2..6, n and k 1..8, 1 <= j <= nk.
IDENTITY_TRIALS = [(6, 6, 2, 7), (4, 5, 7, 18), (5, 3, 8, 12), (2, 2, 3, 3)]

NORM_SIZES = (96, 200)  # support sizes of the large BL-norm measures


@dataclass
class Job:
    """One timed call into the package, and how to turn its result into a record."""

    name: str
    run: Callable[[], object]
    record: Callable[[object], dict]


def _csv_table(path: Path) -> list:
    rows = csv.reader(line for line in path.read_text().splitlines()
                      if not line.startswith("#"))
    return [[_cell(c) for c in row] for row in rows]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _study_job(name, scenario: Path, out: Path, seed: int) -> Job:
    def record(code):
        summary = json.loads((out / "summary.json").read_text())
        # file metadata, not results
        for key in ("toolVersion", "scenarioHash"):
            summary.pop(key, None)
        return {"exit": code, "summary": summary,
                **{f: _csv_table(out / f"{f}.csv") for f in ("report", "modulus", "bounds")}}

    return Job(name, lambda: cli.run_study(str(scenario), str(out), seed), record)


def _probe_job(scenario: Path, probe: str, out: Path, seed: int) -> Job:
    def record(code):
        return {"exit": code, "table": _csv_table(out / f"{probe}.csv")}

    return Job(f"diagnostics.{scenario.stem}.{probe}",
               lambda: cli.run_diagnostics(str(scenario), probe, str(out), seed), record)


def _twelve_state_scenario(rng) -> dict:
    pts = rng.normal(size=(12, 3))
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    w = rng.uniform(0.05, 1.0, size=12)
    w /= w.sum()
    return {
        "schemaVersion": 1,
        "name": "twelve_state",
        "space": {"kind": "finite", "dist": dist.tolist()},
        "g1": {"kind": "matrix_exponential", "Q": identities.random_generator(12, rng).tolist()},
        "g2": {"kind": "matrix_exponential", "Q": identities.random_generator(12, rng).tolist()},
        "mu0": {"atoms": [{"point": i, "weight": float(w[i])} for i in range(12)]},
        "study": {"t": 1.0, "schedule": {"dyadic": 10}, "order": "g1_first", "metric": "base"},
        "witnesses": [{"kind": "random", "count": 2}, {"kind": "coordinate", "index": 0},
                      {"kind": "indicator", "subset": [0, 3, 7]}],
    }


def study_finite(s: int, work: Path) -> list[Job]:
    rng = np.random.default_rng([s, 1])
    three = SCENARIOS / "three_state.json"
    twelve = work / "twelve_state.json"
    twelve.write_text(json.dumps(_twelve_state_scenario(rng), indent=1))
    for path in (three, twelve):
        cli.load_scenario(path)
    return [_study_job("study.three_state", three, work / "three_state", s),
            _study_job("study.twelve_state", twelve, work / "twelve_state", s)] + [
        _probe_job(three, probe, work / "probes", s)
        for probe in ("equicontinuity", "feller", "semigroup")]


def study_euclidean(s: int, work: Path) -> list[Job]:
    linear, translation = SCENARIOS / "linear_flow.json", SCENARIOS / "translation.json"
    for path in (linear, translation):
        cli.load_scenario(path)
    return [_study_job("study.linear_flow", linear, work / "linear_flow", s),
            _study_job("study.translation", translation, work / "translation", s)] + [
        _probe_job(linear, probe, work / "probes", s)
        for probe in ("equicontinuity", "tightness", "feller", "semigroup", "stochastic")] + [
        _probe_job(translation, "stochastic", work / "probes", s)]


def _identity_trial(states, n, k, j, rng) -> Callable[[], list]:
    """The six checks of one identity-suite trial, with the suite's arguments."""
    pts = rng.normal(size=(states, 3))
    space = measures.StateSpace.finite(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))
    g1 = operators.SemigroupSpec.matrix_exponential(
        space, identities.random_generator(states, rng))
    g2 = operators.SemigroupSpec.matrix_exponential(
        space, identities.random_generator(states, rng))
    panel = identities.standard_test_panel(space, rng)
    t = float(rng.uniform(0.2, 1.5))

    def run():
        return [
            identities.check_lemma_a(g1, g2, t, n * k, j, panel),
            identities.check_lemma_b(g1, g2, t, n * k, min(k, n * k), panel),
            identities.check_lemma_c(g1, g2, t, n, k, panel),
            identities.check_corollary(g1, g2, t, min(n, 4), min(k, 4), panel),
            identities.check_corollary_recomposition(g1, g2, t, min(n, 3), min(k, 3), panel),
            identities.check_swap_identity(g1, g2, t / max(n, 1), n, panel),
        ]

    return run


def identity_suite(s: int, work: Path) -> list[Job]:
    rng = np.random.default_rng([s, 2])
    return [Job(f"identities.states{m}.n{n}.k{k}.j{j}", _identity_trial(m, n, k, j, rng),
                lambda checks: {"checks": [c.to_json_dict() for c in checks]})
            for m, n, k, j in IDENTITY_TRIALS]


def _generic_metric(rng, k):
    pts = rng.normal(size=(k, 3))
    return np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)


def _graph_metric(rng, k):
    """Shortest paths on a grid with edge weights in {1, 2, 3}/8.

    Integer weights over a power of two keep every sum exact, so each
    shortest path gives exact triangle equalities d_ij = d_il + d_lj.
    """
    rows = {96: 8, 200: 10}[k]
    cols = k // rows
    d = np.full((k, k), np.inf)
    np.fill_diagonal(d, 0.0)
    for i in range(k):
        r, c = divmod(i, cols)
        for nb in ([i + 1] if c + 1 < cols else []) + ([i + cols] if r + 1 < rows else []):
            d[i, nb] = d[nb, i] = float(rng.integers(1, 4))
    for m in range(k):
        d = np.minimum(d, d[:, m:m + 1] + d[m:m + 1, :])
    return d / 8.0


def _norm_job(name, family, k, rng) -> Job:
    dist = (_generic_metric if family == "generic" else _graph_metric)(rng, k)
    space = measures.StateSpace.finite(dist)
    w = rng.normal(size=k)
    w -= w.mean()  # zero net mass, as for the difference of two probability measures
    mu = measures.SignedMeasure.from_atoms(space, list(enumerate(w.tolist())))
    tv = float(np.abs(w).sum())

    def record(result):
        value, f = result
        return {"support": len(mu.pos) + len(mu.neg), "value": value,
                # the witness lies in the unit BL ball and attains the value;
                # the LP runs at unit total variation, hence the tv scale
                "feasible": bool(f.check_feasible(space, slack=TOL)),
                "unit_ball": bool(f.sup_bound + f.lip_bound <= 1.0 + TOL),
                "attains": bool(abs(f.pair(mu) - value) <= TOL * tv)}

    return Job(name, lambda: bl_metric.bl_dual_norm(mu, space), record)


def bl_norm_large(s: int, work: Path) -> list[Job]:
    rng = np.random.default_rng([s, 3])
    return [_norm_job(f"norm.{family}.k{k}", family, k, rng)
            for family in ("generic", "graph") for k in NORM_SIZES]


WORKLOADS = {
    "study_finite": study_finite,
    "study_euclidean": study_euclidean,
    "identities": identity_suite,
    "bl_norm_large": bl_norm_large,
}


def setup(workload: str, seed: int, work: Path) -> tuple[int, list[Job]]:
    """Generate the inputs of ``workload`` for ``seed``; returns (input set, jobs)."""
    s = seed % INPUT_SETS
    return s, WORKLOADS[workload](s, work)
