"""Write the reference records the correctness gate compares against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs one untimed pass per input set of each named workload (all of them by
default) and stores the job records under ``reference/``.  Run it only at a
commit whose outputs are trusted: the references define a correct result.
A record with a nonzero exit code, a failed identity check or a failed
witness check is refused.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from gate import REFERENCE_DIR, outcome_failures  # noqa: E402
from run import ONE_THREAD, WORKLOADS  # noqa: E402
from workloads import INPUT_SETS  # noqa: E402


def main(names) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names:
        doc = {}
        for s in range(INPUT_SETS):
            proc = subprocess.run(
                [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
                 "--seed", str(s), "--record"],
                cwd=HERE.parent, capture_output=True, text=True, check=True,
                env={**os.environ, **ONE_THREAD})
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if out["errors"]:
                raise SystemExit(f"{workload} set {s}: {out['errors']}")
            bad = [m for name, rec in out["records"].items()
                   for m in outcome_failures(rec, name)]
            if bad:
                raise SystemExit(f"{workload} set {s}: " + "; ".join(bad))
            doc[str(s)] = out["records"]
            print(f"{workload} input set {s}: {len(out['records'])} jobs", flush=True)
        (REFERENCE_DIR / f"{workload}.json").write_text(
            json.dumps(doc, indent=None, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or WORKLOADS))
