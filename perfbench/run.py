"""trotterkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload one after another, each in a fresh process (see
one_pass.py), until the next pass would end after ``--seconds``; it always
runs at least MIN_PASSES.  Module-level state such as ``operators.APPLY_COUNT``
therefore never carries over between passes, and every pass pays the import
and cold caches a command-line user pays.

With ``--trace 0`` it reports the medians over passes of the end-to-end
metrics: wall_s (the jobs' times, summed), setup_s (package import, scenario
loading and validation, input generation) and peak_rss_mb.  Both times are
scaled to a fixed host speed (see speed.py); the unscaled medians are printed
too.  With ``--trace 1`` untraced and traced passes alternate, and it reports
the per-layer metrics of tracing.layer_metric_specs(): medians over the traced
passes, plus the tracing overhead (traced minus untraced median wall_s).  The
last line of output is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import NORM_CLASSES, layer_metric_specs  # noqa: E402

LAYER_UNITS = {spec["name"]: spec["unit"] for spec in layer_metric_specs()}

WORKLOADS = ("study_finite", "study_euclidean", "identities", "bl_norm_large")
MIN_PASSES = 3
HARD_LIMIT_S = 170.0  # a run must end within 180 s
# The package's matrices are at most 12 x 12, so BLAS threads buy nothing:
# with OpenBLAS's default of one thread per core, a study_finite pass on two
# cores took the same wall time within noise but 1.8 times the CPU time, and
# its duration then also depends on a second core that other processes share.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), env={**os.environ, **ONE_THREAD})
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass did not end within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"pass exited with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """(untraced passes, traced passes); with trace, the two kinds alternate."""
    start = time.perf_counter()
    plain, traced, durations = [], [], []
    while True:
        elapsed = time.perf_counter() - start
        if durations and elapsed + max(durations) > HARD_LIMIT_S:
            break
        if len(durations) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            break
        as_traced = trace and len(durations) % 2 == 1
        t0 = time.perf_counter()
        result = run_pass(workload, seed, as_traced, HARD_LIMIT_S - elapsed)
        durations.append(time.perf_counter() - t0)
        (traced if as_traced else plain).append(result)
    return plain, traced


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[dict]) -> dict:
    return {"wall_s": (_median([p["wall_s"] for p in passes]), "s"),
            "setup_s": (_median([p["setup_s"] for p in passes]), "s"),
            "peak_rss_mb": (_median([p["peak_rss_mb"] for p in passes]), "MB")}


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    out = {name: _median([p["layers"].get(name, 0.0) for p in traced]) for name in LAYER_UNITS}
    for cls in NORM_CLASSES:
        out[f"bl_metric.norm_ms.{cls}"] = _median(
            [1000.0 * p["job_s"][f"norm.{cls}"] for p in traced if f"norm.{cls}" in p["job_s"]])
    out["trace.overhead_s"] = (_median([p["wall_s"] for p in traced])
                               - _median([p["wall_s"] for p in plain]))
    return {name: (out[name], unit) for name, unit in LAYER_UNITS.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "trotterkit" / "__init__.py").is_file():
        print(f"no trotterkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        plain, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    correct = failed == 0
    for p in passes:
        for lines in p["failures"].values():
            print("FAILED " + "\n       ".join(lines))
    v = passes[0]["versions"]
    print(f"workload {args.workload}  seed {args.seed} (input set {passes[0]['input_set']})  "
          f"passes {len(plain)} untraced + {len(traced)} traced, one fresh process each")
    print(f"nproc {v['nproc']}  python {v['python']}  numpy {v['numpy']}  scipy {v['scipy']}")
    print(f"fail_ratio {failed}/{attempted} jobs = {failed / attempted:.4f}")
    for kind, group in (("untraced", plain), ("traced", traced)):
        for key in ("wall_s", "setup_s"):
            if group:
                print(f"{kind} passes {key} " + " ".join(f"{p[key]:.3f}" for p in group)
                      + f"  (unscaled median {_median([p['raw_' + key] for p in group]):.3f})")

    if args.trace:
        for p in traced:
            calls = p["layers"]["operators.apply.calls"]
            delta = p["layers"]["operators.APPLY_COUNT.delta"]
            if calls != delta:
                print(f"TRACE INCOMPLETE: traced operators.apply.calls {calls:.0f} "
                      f"!= APPLY_COUNT change {delta:.0f}")
                correct = False
        metrics = per_layer(plain, traced)
        label = f"median of {len(traced)} traced passes"
    else:
        metrics = end_to_end(plain)
        label = f"median of {len(plain)} passes"
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6f} {unit:<6} ({label})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
