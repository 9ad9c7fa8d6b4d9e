"""One benchmark pass in a fresh process.

    python3 perfbench/one_pass.py --workload NAME --seed N --trace 0|1 [--record]

Imports the package from ``src/`` of this checkout, generates the workload's
inputs, runs its jobs back to back, then checks every job's output against
the reference.  Prints one JSON line with setup_s, wall_s, peak_rss_mb, the
job times and failures, and with ``--trace 1`` the per-layer statistics.
With ``--record`` the line carries the job records instead of a verdict.

Times are scaled to a fixed host speed (see speed.py); the unscaled ones are
reported as ``raw_setup_s``, ``raw_wall_s`` and ``raw_job_s``.  Untraced
passes sample the speed during jobs as well as between them; traced passes
only between jobs, so that no sample lands in a traced span.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before the package import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import trotterkit
    import trotterkit.cli  # noqa: F401  (imports every module of the package)
    from trotterkit import operators

    if SRC not in Path(trotterkit.__file__).resolve().parents:
        raise SystemExit(f"trotterkit imported from {trotterkit.__file__}, not from {SRC}")

    import gate
    import speed
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    apply_at_install = operators.APPLY_COUNT
    work = ROOT / ".perfbench" / f"pass-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        input_set, jobs = workloads.setup(args.workload, args.seed, work)
        raw_setup_s = time.perf_counter() - T_START
        sampler = speed.SpeedSampler(during_jobs=tracer is None)
        current_speed = sampler.burst()
        setup_s = raw_setup_s * current_speed

        results, errors, raw_job_s, job_s = {}, {}, {}, {}
        for job in jobs:
            (ok, value), raw_job_s[job.name], job_s[job.name], current_speed = \
                sampler.time_job(job.run, current_speed)
            if ok:
                results[job.name] = value
            else:
                errors[job.name] = "".join(traceback.format_exception(value))

        if tracer is not None:
            tracer.active = False
        apply_delta = operators.APPLY_COUNT - apply_at_install
        records = {}
        for job in jobs:
            if job.name in results:
                try:
                    records[job.name] = job.record(results[job.name])
                except Exception:
                    errors[job.name] = traceback.format_exc()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # left to a concurrent pass if not empty
        except OSError:
            pass

    out = {"workload": args.workload, "input_set": input_set, "jobs": len(jobs),
           "setup_s": setup_s,
           "wall_s": sum(job_s.values()), "job_s": job_s,
           "raw_setup_s": raw_setup_s, "raw_wall_s": sum(raw_job_s.values()),
           "raw_job_s": raw_job_s, "speed_samples": sampler.count,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                        "scipy": scipy.__version__, "nproc": os.cpu_count()}}
    if args.record:
        out["records"] = records
        out["errors"] = errors
    else:
        reference = gate.load_reference(args.workload, input_set)
        failures = {name: [err] for name, err in errors.items()}
        for name, rec in records.items():
            found = gate.outcome_failures(rec, name)
            if name not in reference:
                found.append(f"{name}: no reference record")
            else:
                found += gate.mismatches(rec, reference[name], name)
            if found:
                failures[name] = found
        out["failures"] = failures
    if tracer is not None:
        out["layers"] = tracer.metrics(apply_delta)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
