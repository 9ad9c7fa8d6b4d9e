"""Time the dense chain runner against one ``_dense_step`` per step.

    python3 scripts/dense_chain_timing.py [--steps 2048] [--repeats 25]

Runs ``operators._apply_chain`` of this checkout on 3-state chains of
stochastic matrices, and the same chains as a loop of ``_dense_step`` calls
(the chain runner before it stacked steps), and checks that both give the
same atoms bit for bit.  Factor A feeds state 0 less than the prune cut, so
every A step prunes; "A every m" chains have one A in every m factors and B
for the rest.  "drain" chains prune twice, at steps 885 and 1334, as two
states drain into an absorbing one.  Prints, per chain, the stacks run, the
stacks whose test failed, the median time of each runner over the repeats
(run in turns), and the median and quartiles of the paired time ratios.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trotterkit import operators  # noqa: E402
from trotterkit.measures import PositiveMeasure, StateSpace  # noqa: E402


def chains(steps: int) -> dict:
    space = StateSpace.finite(np.ones((3, 3)) - np.eye(3))

    def op(matrix):
        return operators.MarkovOperatorSpec(kind="stochastic_matrix", space=space, matrix=matrix)

    A = op([[0.5, 1e-14, 0.0], [0.5, 0.7 - 1e-14, 0.2], [0.0, 0.3, 0.8]])
    B = op([[1.0, 0.0, 0.0], [0.0, 0.6, 0.1], [0.0, 0.4, 0.9]])
    D = op([[0.98, 0.0, 0.0], [0.0, 0.97, 0.0], [0.02, 0.03, 1.0]])
    mu = PositiveMeasure.from_atoms(space, [(1, 0.5), (2, 0.5)])
    out = {f"A every {m}": (((A,) + (B,) * (m - 1)) * (steps // m), mu)
           for m in (1, 2, 4, 8, 16, 32)}
    out["A never"] = ((B,) * steps, mu)
    out["drain"] = ((D,) * steps, PositiveMeasure.from_atoms(space, [(0, 0.5), (1, 0.5)]))
    return out


def step_by_step(ops, mu):
    space, v, tv = mu.space, mu.weight_vector(), mu.tv
    for P in ops:
        v, tv, idx, w = operators._dense_step(P, v, tv, space)
        space = P.space
    return PositiveMeasure(space=space, points=tuple(idx.tolist()), weights=w)


def timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=2048)
    ap.add_argument("--repeats", type=int, default=25)
    args = ap.parse_args()
    test = operators._dense_kept_steps
    stacks = []

    def counted(S, tv):
        kept, totals = test(S, tv)
        stacks.append(kept < len(S) - 1)
        return kept, totals

    operators._dense_kept_steps = counted
    print(f"{'chain':12} {'stacks':>6} {'failing':>7} {'stacked ms':>10} {'per step ms':>11}"
          f" {'ratio':>6} {'q1':>5} {'q3':>5}")
    for name, (ops, mu) in chains(args.steps).items():
        stacks.clear()
        a = operators._apply_chain(ops, mu)
        count, failing = len(stacks), sum(stacks)
        b = step_by_step(ops, mu)
        assert (a.space, a.points, a.weights.tobytes()) == (b.space, b.points, b.weights.tobytes())
        pairs = np.array([(timed(operators._apply_chain, ops, mu), timed(step_by_step, ops, mu))
                          for _ in range(args.repeats)])
        q1, ratio, q3 = np.percentile(pairs[:, 0] / pairs[:, 1], [25, 50, 75])
        t_chain, t_step = 1e3 * np.median(pairs, axis=0)
        print(f"{name:12} {count:6} {failing:7} {t_chain:10.2f} {t_step:11.2f}"
              f" {ratio:6.2f} {q1:5.2f} {q3:5.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
