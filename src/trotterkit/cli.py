"""Batch driver: run studies, identity suites, and diagnostics from scenario files.

Exit codes: 0 success, 1 input/validation error (a usage error too), 2
quantitative finding (bound violation or failed exact check; reports are
still written).
All outputs are deterministic for a fixed scenario and seed: CSV uses '.'
decimals and LF line endings, JSON is emitted with sorted keys, and every
file carries a header with the scenario hash and tool version.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .bl_metric import (
    DistanceRangeError,
    EnvelopeMetric,
    FunctionWitness,
    LipschitzWitness,
    bl_distance,
    dirac_distance_exact,
    distance_blocks,
    lipschitz_constant,
    solve_blocks,
)
from .diagnostics import (
    EquicontinuityProbe,
    equicontinuity_modulus,
    feller_continuity_check,
    limit_semigroup_check,
    perturbations_and_distances,
    stochastic_continuity_check,
    tightness_probe,
)
from .identities import run_identity_suite
from .measures import (
    PositiveMeasure,
    StateSpace,
    json_atoms,
    json_integer,
    json_number,
    json_numbers,
    json_point,
    measure_from_json,
)
from .operators import SemigroupSpec, at_time, semigroup_from_json
from .splitting import (
    SplittingStudy,
    _commutator_pairs,
    _limit_pairs,
    _limit_report,
    _modulus,
    _pushed_constant,
    _pushed_pairs,
    _swap_pair,
    dyadic_cauchy_bounds,
    dyadic_sequence,
    refinement_bound_check,
    sample_scheme_family,
)


class ScenarioError(ValueError):
    pass


# The most Trotter blocks a study's schedule may ask for, summed over its
# iterate counts.  A study's time follows that sum: on a 2-vCPU x86-64 VM,
# at this bound ("dyadic": 20, "linear": 2047) the three_state study took
# 9.4 s and 8.1 s and the translation study 24 s; at 2^23 blocks
# ("dyadic": 22, "linear": 4096) three_state took 36 s and 27 s.
MAX_SCHEDULE_BLOCKS = 2 ** 21


def _schedule(path, kind: str, n) -> tuple:
    """Iterate counts 1, 2, 4, ..., 2^n ("dyadic") or 1, 2, ..., n ("linear");
    ScenarioError, prefixed with ``path``, as soon as they sum to more than
    MAX_SCHEDULE_BLOCKS."""
    schedule, blocks = [], 0
    for count in (2 ** j for j in range(n + 1)) if kind == "dyadic" else range(1, n + 1):
        blocks += count
        if blocks > MAX_SCHEDULE_BLOCKS:
            raise ScenarioError(f"{path}: a {kind} schedule count of {n} asks for more than "
                                f"{MAX_SCHEDULE_BLOCKS} Trotter blocks")
        schedule.append(count)
    return tuple(schedule)


def _flow_overflows(g: SemigroupSpec, t: float) -> bool:
    """Whether a named flow fails at some time in [0, t]: a contraction whose
    factor exp(-rate * t) overflows, or a rotation whose angle rate * t is
    not finite.  A flow that fails at an earlier time fails at t too, so t
    stands for all of [0, t]."""
    if g.kind != "map_flow":
        return False
    rate = g.flow_params.get("rate", 1.0)
    if g.flow_name == "contraction":
        try:
            math.exp(-rate * t)
        except OverflowError:
            return True
    return g.flow_name == "rotation" and not math.isfinite(rate * t)


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario file.

    Construction checks the fields that command-line overrides may change:
    ScenarioError, prefixed with ``path``, unless the schedule has at least
    3 entries, t is finite and nonnegative, order and metric are known, and
    each named flow can be evaluated at every time up to t.
    """

    path: str
    name: str
    hash: str
    space: StateSpace
    g1: SemigroupSpec
    g2: SemigroupSpec
    mu0: PositiveMeasure
    t: float
    schedule: tuple
    order: str = "g1_first"
    metric: str = "base"
    witness_specs: tuple = ()

    def __post_init__(self):
        if self.order not in ("g1_first", "g2_first"):
            raise ScenarioError(f"{self.path}: unknown order {self.order!r}")
        if self.metric not in ("base", "envelope"):
            raise ScenarioError(f"{self.path}: unknown metric {self.metric!r}")
        if len(self.schedule) < 3:
            raise ScenarioError(f"{self.path}: schedule needs at least 3 entries")
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ScenarioError(f"{self.path}: time horizon t must be finite and nonnegative, "
                                f"got {self.t!r}")
        for name, g in (("g1", self.g1), ("g2", self.g2)):
            if _flow_overflows(g, self.t):
                raise ScenarioError(f"{self.path}: {name} {g.flow_name} flow {g.flow_params} "
                                    f"overflows at time t = {self.t!r}")

    @property
    def dyadic(self) -> bool:
        return self.schedule == tuple(2 ** j for j in range(len(self.schedule)))

    with_overrides = replace  # a copy with the given fields replaced, checked again


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; raises ScenarioError on bad input."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario: {exc}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}")
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: invalid scenario: the top level is a JSON "
                            f"{type(doc).__name__}, not an object")
    if doc.get("schemaVersion") != 1:
        raise ScenarioError(f"{path}: unsupported schemaVersion {doc.get('schemaVersion')!r}")
    try:
        space_spec = doc["space"]
        if space_spec["kind"] == "finite":
            space = StateSpace.finite(json_numbers(space_spec["dist"], "distance matrix entry"))
        elif space_spec["kind"] == "euclidean":
            space = StateSpace.euclidean(json_integer(space_spec["dim"], "space dim"))
        else:
            raise ScenarioError(f"{path}: unknown space kind {space_spec['kind']!r}")
        g1 = semigroup_from_json(space, doc["g1"])
        g2 = semigroup_from_json(space, doc["g2"])
        mu0 = PositiveMeasure.from_atoms(space, json_atoms(doc["mu0"]["atoms"]))
        if not mu0.points:  # no atoms, or only zero weights (pruned)
            raise ScenarioError(f"{path}: mu0 has no mass")
        study = doc["study"]
        sched_spec = study["schedule"]
        kind = next((k for k in ("dyadic", "linear") if k in sched_spec), None)
        if kind is None:
            raise ScenarioError(f"{path}: schedule needs 'dyadic' or 'linear'")
        schedule = _schedule(path, kind,
                             json_integer(sched_spec[kind], f"{kind} schedule count"))
        t = json_number(study["t"], "time horizon t")
        witness_specs = tuple(doc.get("witnesses", []))
        for spec in witness_specs:
            _check_witness_spec(path, space, spec)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"{path}: invalid scenario: {exc}")
    return Scenario(
        path=str(path), name=doc.get("name", Path(path).stem),
        hash=hashlib.sha256(raw).hexdigest()[:16],
        space=space, g1=g1, g2=g2, mu0=mu0, t=t, schedule=schedule,
        order=study.get("order", "g1_first"), metric=study.get("metric", "base"),
        witness_specs=witness_specs)


WITNESS_KINDS = ("random", "coordinate", "indicator")


def _check_witness_spec(path, space: StateSpace, spec: dict) -> None:
    """What ``build_witnesses`` relies on: a known kind, an integer count >= 1,
    indices and centers that are points of ``space`` (numpy would wrap a
    negative index around, or broadcast a short center), a finite radius > 0."""
    kind = spec["kind"]
    if kind not in WITNESS_KINDS:
        raise ScenarioError(f"{path}: unknown witness kind {kind!r}")
    if kind == "random":
        count = spec.get("count", 1)
        if isinstance(count, (bool, str)) or int(count) != count or count < 1:
            raise ValueError(f"witness count must be an integer >= 1, got {count!r}")
    elif space.kind == "finite":
        for i in [spec["index"]] if kind == "coordinate" else spec["subset"]:
            space.point_key(i)
    elif kind == "coordinate":
        i = spec["index"]
        if isinstance(i, bool) or not (int(i) == i and 0 <= i < space.dim):
            raise ValueError(f"coordinate index {i!r} outside R^{space.dim}")
    else:
        space.point_key(json_point(spec["center"]))
        radius = json_number(spec["radius"], "indicator radius")
        if not (math.isfinite(radius) and radius > 0.0):
            raise ValueError(f"indicator radius must be finite and positive, "
                             f"got {spec['radius']!r}")


def build_witnesses(space: StateSpace, specs, rng):
    """Unit-BL-ball witnesses from scenario specs.

    Finite spaces get value tables with exactly certified bounds; Euclidean
    spaces get closed-form functions with known bounds.
    """
    out = []
    for spec in specs:
        kind = spec["kind"]
        if kind not in WITNESS_KINDS:
            raise ScenarioError(f"unknown witness kind {kind!r}")
        if kind == "random":
            for _ in range(int(spec.get("count", 1))):
                if space.kind == "finite":
                    out.append(_finite_witness(space, rng.uniform(-1.0, 1.0, space.size)))
                    continue
                w = rng.normal(size=space.dim)
                w /= np.linalg.norm(w)
                out.append(FunctionWitness(
                    fn=lambda x, _w=w: 0.5 * np.tanh(float(_w @ x)),
                    sup_bound=0.5, lip_bound=0.5, label="random_direction"))
        elif space.kind == "finite":
            v = np.zeros(space.size)
            v[list(map(int, [spec["index"]] if kind == "coordinate" else spec["subset"]))] = 1.0
            out.append(_finite_witness(space, v))
        elif kind == "coordinate":
            i = int(spec["index"])
            # tanh keeps sup = lip = 1; scale to the unit BL ball
            out.append(FunctionWitness(
                fn=lambda x, _i=i: 0.5 * np.tanh(x[_i]),
                sup_bound=0.5, lip_bound=0.5, label=f"coordinate_{i}"))
        else:
            c = np.asarray(spec["center"], dtype=float)
            r = float(spec["radius"])
            out.append(FunctionWitness(
                fn=lambda x, _c=c, _r=r: (_r / (1.0 + _r)) * max(
                    0.0, 1.0 - float(np.linalg.norm(x - _c)) / _r),
                sup_bound=r / (1.0 + r), lip_bound=1.0 / (1.0 + r),
                label="smoothed_indicator"))
    return out


def _finite_witness(space: StateSpace, values: np.ndarray) -> LipschitzWitness:
    values = np.asarray(values, dtype=float)
    sup = float(np.max(np.abs(values))) if values.size else 0.0
    lip = lipschitz_constant(values, space.dist)
    norm = sup + lip
    if norm > 0.0:
        values, sup, lip = values / norm, sup / norm, lip / norm
    return LipschitzWitness(points=tuple(range(space.size)), values=values,
                            sup_bound=sup, lip_bound=lip)


def _fmt(x) -> str:
    return repr(float(x))


def _header(scn, seed) -> str:
    return "# " + json.dumps(
        {"scenario": scn.name, "scenarioHash": scn.hash,
         "toolVersion": __version__, "seed": seed}, sort_keys=True) + "\n"


def _write_csv(path: Path, header: str, columns, rows):
    buf = io.StringIO()
    buf.write(header)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, (float, np.floating)) else v
                         for v in row])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(buf.getvalue())


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def run_study(scenario_path, out_dir, seed, overrides=None) -> int:
    overrides = overrides or {}
    changes = {}
    if overrides.get("t") is not None:
        changes["t"] = float(overrides["t"])
    kind = next((k for k in ("dyadic", "linear") if overrides.get(k) is not None), None)
    if kind is not None:
        changes["schedule"] = _schedule(scenario_path, kind, overrides[kind])
    if overrides.get("order") is not None:
        changes["order"] = {"12": "g1_first", "21": "g2_first"}[overrides["order"]]
    if overrides.get("metric") is not None:
        changes["metric"] = overrides["metric"]
    scn = load_scenario(scenario_path).with_overrides(**changes)
    if scn.t <= 0.0:  # the probes work at t = 0, but the modulus grid needs t > 0
        raise ScenarioError(f"{scn.path}: study needs a time horizon t > 0")
    max_n = scn.schedule[-1]
    depth = max(12, int(np.ceil(np.log2(max_n))) + 2)
    if scn.t / 2 ** depth == 0.0:  # a subnormal t underflows in the modulus grid
        raise ScenarioError(f"{scn.path}: study needs t / 2^{depth} > 0, got t = {scn.t!r}")

    rng = np.random.default_rng(seed)
    space, g1, g2, mu0, t = scn.space, scn.g1, scn.g2, scn.mu0, scn.t
    witnesses = build_witnesses(space, scn.witness_specs, rng)
    metric = space
    if scn.metric == "envelope":
        metric = EnvelopeMetric(base=space, family=tuple(witnesses))

    study = SplittingStudy(g1=g1, g2=g2, mu0=mu0, t=t, schedule=scn.schedule,
                           order=scn.order, metric=metric)
    # the schedule, the modulus grid, the pushed moduli and the swap pair, in
    # one solve; each group is prepared (and range-checked) as it is built,
    # so a study refuses at the first group whose atoms are out of range
    _, ref_kind, pairs = _limit_pairs(study)
    blocks = distance_blocks(pairs, metric)
    grid = t / 2.0 ** np.arange(depth + 1)
    blocks += distance_blocks(_commutator_pairs(g1, g2, mu0, grid), metric)
    family = sample_scheme_family(g1, g2, t / max_n, 5, rng, scn.order)
    blocks += distance_blocks(_pushed_pairs(g1, g2, mu0, grid, family), metric)
    blocks += distance_blocks([_swap_pair(study)], metric)
    *distances, swap = solve_blocks(blocks)
    m, g = len(pairs), len(grid)
    report = _limit_report(study, ref_kind, distances[:m])
    omega = _modulus(grid, distances[m:m + g])
    c_hat, c_flags = _pushed_constant(omega, distances[m + g:])

    violations = []
    bound_rows = []
    pairs = [(n, k) for n in (1, 2, 4, 8) for k in (2, 3, 4)]
    for wi, f in enumerate(witnesses):
        checks = refinement_bound_check(g1, g2, mu0, f, t, pairs, c_hat, omega,
                                        scn.order)
        for (n, k), (lhs, rhs) in zip(pairs, checks):
            bound_rows.append((wi, n, k, lhs, rhs))
            if lhs > rhs + 1e-12:
                violations.append({"kind": "refinement", "witness": wi,
                                   "n": n, "k": k, "lhs": lhs, "rhs": rhs})

    cauchy_rows = []
    if scn.dyadic:
        for wi, f in enumerate(witnesses):
            rs = dyadic_sequence(study, f)
            for i, j, lhs, rhs in dyadic_cauchy_bounds(rs, t, c_hat, omega):
                cauchy_rows.append((wi, i, j, lhs, rhs))
                if lhs > rhs + 1e-12:
                    violations.append({"kind": "dyadic_cauchy", "witness": wi,
                                       "i": i, "j": j, "lhs": lhs, "rhs": rhs})

    out = Path(out_dir)
    header = _header(scn, seed)

    k2 = {(n, k): (lhs, rhs) for wi, n, k, lhs, rhs in bound_rows if wi == 0 and k == 2}
    report_rows = []
    for n, d in zip(report.schedule, report.distances):
        lhs_k2, rhs_k2 = k2.get((n, 2), (float("nan"), float("nan")))
        report_rows.append((n, d, lhs_k2, rhs_k2,
                            report.fitted_rate if report.fitted_rate is not None
                            else float("nan")))
    _write_csv(out / "report.csv", header,
               ["n", "distance", "lhs_k2", "rhs_k2", "rate"], report_rows)
    _write_csv(out / "modulus.csv", header, ["t", "omega", "envelope"],
               list(zip(omega.t_grid.tolist(), omega.values.tolist(),
                        omega.monotone_envelope.tolist())))
    _write_csv(out / "bounds.csv", header,
               ["check", "witness", "a", "b", "lhs", "rhs"],
               [("refinement", wi, n, k, lhs, rhs) for wi, n, k, lhs, rhs in bound_rows]
               + [("dyadic_cauchy", wi, i, j, lhs, rhs)
                  for wi, i, j, lhs, rhs in cauchy_rows])
    _write_json(out / "summary.json", {
        "scenario": scn.name, "scenarioHash": scn.hash,
        "toolVersion": __version__, "seed": seed,
        "fittedRate": report.fitted_rate, "rateSaturated": report.rate_saturated,
        "referenceKind": report.reference_kind,
        "diniIntegral": omega.dini_integral, "C_hat": c_hat,
        "C_hat_flags": c_flags, "swapDistance": swap,
        "familySampleSize": len(family), "witnessCount": len(witnesses),
        "metric": scn.metric, "order": scn.order,
        "violations": violations,
    })
    return 2 if violations else 0


def run_identities(seed, trials, max_states, out_path) -> int:
    results, failures = run_identity_suite(seed, trials, max_states)
    payload = {
        "toolVersion": __version__, "seed": seed, "trials": trials,
        "maxStates": max_states,
        "results": [r.to_json_dict() for r in results],
        "failures": failures,
    }
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    _write_json(Path(out_path), payload)
    return 2 if failures else 0


# the stochastic probe's h grid, which does not depend on the horizon t
STOCHASTIC_H_GRID = tuple(10.0 ** -e for e in range(1, 7))


def run_diagnostics(scenario_path, probe, out_dir, seed) -> int:
    scn = load_scenario(scenario_path)
    rng = np.random.default_rng(seed)
    g1, g2, mu0, t = scn.g1, scn.g2, scn.mu0, scn.t
    if probe == "stochastic" and _flow_overflows(g1, STOCHASTIC_H_GRID[0]):
        raise ScenarioError(f"{scn.path}: g1 {g1.flow_name} flow {g1.flow_params} "
                            f"overflows at time h = {STOCHASTIC_H_GRID[0]!r}")
    out = Path(out_dir)
    header = _header(scn, seed)
    code = 0

    if probe == "equicontinuity":
        sizes = [10.0 ** -e for e in range(1, 5)]
        perts, dins = perturbations_and_distances(mu0, sizes, rng)
        family = sample_scheme_family(g1, g2, t / 8.0, 5, rng, scn.order)
        ops = [at_time(g1, t / 8.0), at_time(g2, t / 8.0)]
        eprobe = EquicontinuityProbe(mu0, tuple(perts), tuple(dins),
                                     tuple(ops) + tuple(family))
        rows = equicontinuity_modulus(eprobe)
        _write_csv(out / "equicontinuity.csv", header,
                   ["inputDistance", "outputDistance"], rows)
    elif probe == "tightness":
        family = [at_time(g1, s) for s in (0.0, t / 2.0, t)]
        tp = tightness_probe(family, mu0, [0.25 * r for r in range(1, 17)])
        rows = [(lbl, r, m) for lbl, masses in zip(tp.labels, tp.mass_outside)
                for r, m in zip(tp.radius_grid, masses)]
        _write_csv(out / "tightness.csv", header,
                   ["operator", "radius", "massOutside"], rows)
    elif probe == "semigroup":
        dp, da, sc = limit_semigroup_check(g1, g2, mu0, t / 2.0, t / 2.0, 1024,
                                           scn.order)
        _write_csv(out / "semigroup.csv", header, ["parameter", "value"],
                   [("distPower", dp), ("distAdditive", da),
                    ("selfConvergence", sc)])
    elif probe == "feller":
        rows = feller_continuity_check(g1, g2, t, mu0,
                                       [10.0 ** -e for e in range(1, 5)], 256, rng,
                                       scn.order)
        _write_csv(out / "feller.csv", header,
                   ["inputDistance", "outputDistance"], rows)
    elif probe == "stochastic":
        rows = stochastic_continuity_check(g1, mu0, STOCHASTIC_H_GRID)
        _write_csv(out / "stochastic.csv", header, ["h", "distance"], rows)
        # exact-formula check: translation lift of a unit Dirac
        if (g1.kind == "map_flow" and g1.flow_name == "translation"
                and len(mu0.points) == 1 and abs(mu0.tv - 1.0) < 1e-12):
            speed = float(np.linalg.norm(g1.flow_params.get("velocity", [1.0])))
            for h, d in rows:
                if abs(d - dirac_distance_exact(speed * h)) > 1e-9:
                    code = 2
    else:
        raise ScenarioError(f"unknown probe {probe!r}")
    return code


class _Group(click.Group):
    """The command group.  A usage error (an unknown command, option or
    choice, a missing option, a value out of range) exits 1 with click's
    message, as every input error does; click's own code for it, 2, is a
    quantitative finding here."""

    def make_context(self, *args, **kwargs):
        return _usage_exits_1(super().make_context, *args, **kwargs)

    def invoke(self, ctx):  # the subcommand and its options
        return _usage_exits_1(super().invoke, ctx)


def _usage_exits_1(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = 1
        raise


@click.group(cls=_Group)
def main():
    """Switching-scheme studies, identity suites, and diagnostics."""


def _refuse(path, reason):
    """Exit 1 with one stderr line; a ScenarioError names its file itself."""
    click.echo(reason if isinstance(reason, ScenarioError) else f"{path}: {reason}", err=True)
    sys.exit(1)


@main.command()
@click.option("--scenario", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
@click.option("--seed", default=0, type=click.IntRange(min=0))
@click.option("--t", default=None, type=float)
@click.option("--dyadic", default=None, type=int)
@click.option("--linear", default=None, type=int)
@click.option("--order", default=None, type=click.Choice(["12", "21"]))
@click.option("--metric", default=None, type=click.Choice(["base", "envelope"]))
def study(scenario, out, seed, t, dyadic, linear, order, metric):
    """Convergence study: report.csv, summary.json, modulus.csv, bounds.csv."""
    try:
        code = run_study(scenario, out, seed,
                         {"t": t, "dyadic": dyadic, "linear": linear,
                          "order": order, "metric": metric})
    except (ScenarioError, DistanceRangeError) as exc:
        _refuse(scenario, exc)
    sys.exit(code)


@main.command()
@click.option("--seed", default=0, type=click.IntRange(min=0))
@click.option("--trials", default=10, type=int)
@click.option("--max-states", default=4, type=int)
@click.option("--out", required=True, type=click.Path())
def identities(seed, trials, max_states, out):
    """Identity suite on seeded random instances; JSON results."""
    if trials < 1 or max_states < 2:
        click.echo("need trials >= 1 and max-states >= 2", err=True)
        sys.exit(1)
    sys.exit(run_identities(seed, trials, max_states, out))


@main.command()
@click.option("--scenario", required=True, type=click.Path())
@click.option("--probe", required=True,
              type=click.Choice(["equicontinuity", "tightness", "feller",
                                 "semigroup", "stochastic"]))
@click.option("--out", required=True, type=click.Path())
@click.option("--seed", default=0, type=click.IntRange(min=0))
def diagnostics(scenario, probe, out, seed):
    """Evidence tables for the structural hypotheses."""
    try:
        code = run_diagnostics(scenario, probe, out, seed)
    except (ScenarioError, DistanceRangeError) as exc:
        _refuse(scenario, exc)
    sys.exit(code)


@main.command()
@click.option("--scenario", required=True, type=click.Path(),
              help="Scenario file supplying the state space.")
@click.argument("measure_a", type=click.Path())
@click.argument("measure_b", type=click.Path())
def norm(scenario, measure_a, measure_b):
    """Ad-hoc BL distance between two measure files."""
    try:
        scn = load_scenario(scenario)
    except ScenarioError as exc:
        _refuse(scenario, exc)
    measures = []
    for path in (measure_a, measure_b):
        try:
            measures.append(measure_from_json(scn.space, Path(path).read_text()))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            _refuse(path, f"missing key {exc}" if isinstance(exc, KeyError) else exc)
    try:
        click.echo(_fmt(bl_distance(*measures, scn.space)))
    except DistanceRangeError as exc:
        _refuse(f"{measure_a}, {measure_b}", exc)
    sys.exit(0)


if __name__ == "__main__":
    main()
