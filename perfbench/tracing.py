"""Per-layer tracing from outside the package.

Each traced function is replaced by a wrapper under every name it is bound to
in the ``trotterkit`` modules: ``splitting``, ``identities``, ``diagnostics``
and ``cli`` hold their own ``from .operators import apply`` bindings, so
patching ``operators.apply`` alone would miss their calls.  Spans are
aggregated in memory per function (calls, total and self time) and handed
over when the pass ends; self time is a span's duration minus the part its
child spans cover.
"""

from __future__ import annotations

import statistics
import sys
import time
from functools import wraps

# (module, attribute path) of every traced function, grouped by layer.
SPANS = {
    "operators": ["apply", "apply_signed", "at_time", "pairing"],
    "measures": ["PositiveMeasure.from_atoms", "PositiveMeasure.from_weight_vector",
                 "linear_combine"],
    "splitting": ["trotter_iterate", "estimate_limit", "commutator_modulus",
                  "extended_commutator_constant", "refinement_bound_check",
                  "dyadic_sequence", "swap_order_limit_distance"],
    "bl_metric": ["bl_dual_norm", "linprog"],
    "identities": ["check_lemma_a", "check_lemma_b", "check_lemma_c", "check_corollary",
                   "check_corollary_recomposition", "check_swap_identity"],
    "diagnostics": ["equicontinuity_modulus", "tightness_probe", "limit_semigroup_check",
                    "feller_continuity_check", "stochastic_continuity_check",
                    "perturb_measure"],
    "cli": ["load_scenario", "build_witnesses", "run_study", "run_diagnostics"],
}

# Per-call bl_dual_norm times, one per bl_norm_large job (norm.<class>).
NORM_CLASSES = ["generic.k96", "generic.k200", "graph.k96", "graph.k200"]


def _unit_and_better(name: str) -> tuple[str, str]:
    if name.endswith("_ratio"):
        return "ratio", "higher"
    if name.endswith("_s"):
        return "s", "lower"
    if ".norm_ms." in name:
        return "ms", "lower"
    return "count", "lower"


def layer_metric_specs() -> list[dict]:
    """The ``per_layer`` entries of BENCHMARK.json, in a fixed order."""
    names = []
    for module, fns in SPANS.items():
        for fn in fns:
            names += [f"{module}.{fn}.{s}" for s in ("calls", "total_s", "self_s")]
    names += ["operators.at_time.unique_ratio", "operators.APPLY_COUNT.delta",
              "splitting.trotter_iterate.blocks", "splitting.trotter_iterate.unique_ratio",
              "bl_metric.bl_dual_norm.k_p50", "bl_metric.bl_dual_norm.k_max",
              "bl_metric.linprog.rows", "bl_metric.stage2_fallbacks"]
    names += [f"bl_metric.norm_ms.{c}" for c in NORM_CLASSES]
    names.append("trace.overhead_s")
    return [dict(zip(("name", "unit", "better"), (name, *_unit_and_better(name))))
            for name in names]


def _generator_key(g):
    q, a = getattr(g, "Q", None), getattr(g, "A", None)
    return (getattr(g, "kind", None),
            None if q is None else q.tobytes(),
            None if a is None else a.tobytes(),
            getattr(g, "flow_name", None),
            repr(getattr(g, "flow_params", None)))


def _measure_key(mu):
    return (tuple(mu.points), mu.weights.tobytes())


class Tracer:
    """Wraps the functions in SPANS and aggregates their spans in memory."""

    def __init__(self):
        self.active = False
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._child_time: list[float] = []  # one accumulator per open span
        self.at_time_keys: set = set()
        self.iterate_keys: set = set()
        self.blocks = 0
        self.support_sizes: list[int] = []
        self.lp_rows = 0
        self.stage2_fallbacks = 0
        self._lp_success: list[bool] = []

    def install(self) -> None:
        """Patch every binding of every function in SPANS; fail if one is missed."""
        modules = {name[len("trotterkit."):]: mod for name, mod in sys.modules.items()
                   if name.startswith("trotterkit.") and mod is not None}
        for module, fns in SPANS.items():
            for path in fns:
                owner = modules[module]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{module}.{path}", original)
                if outer:
                    # static methods are reached through their class only
                    setattr(owner, attr, staticmethod(wrapper))
                    continue
                bound = 0
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            bound += 1
                if bound == 0:
                    raise RuntimeError(f"{module}.{path} is bound nowhere")
        self.active = True

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        child_time = self._child_time
        before = getattr(self, "_before_" + name.split(".")[-1], None)
        after = getattr(self, "_after_" + name.split(".")[-1], None)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner
            if after is not None:
                after(result)
            return result

        return wrapper

    # hooks for the counts and ratios measured at the span boundaries

    def _before_at_time(self, g, t):
        self.at_time_keys.add((_generator_key(g), float(t)))

    def _before_trotter_iterate(self, g1, g2, t, n, mu, order="g1_first"):
        self.blocks += int(n)
        self.iterate_keys.add((_generator_key(g1), _generator_key(g2), float(t), int(n),
                               _measure_key(mu), order))

    def _before_bl_dual_norm(self, mu, metric):
        self._lp_success = []
        self.support_sizes.append(len(mu.pos) + len(mu.neg))

    def _after_bl_dual_norm(self, result):
        # the second solve picks the minimum-Lipschitz witness; on failure the
        # stage-one solution is returned without notice
        if len(self._lp_success) >= 2 and not self._lp_success[1]:
            self.stage2_fallbacks += 1

    def _before_linprog(self, c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, **kwargs):
        for a in (A_ub, A_eq):
            if a is not None:
                self.lp_rows += a.shape[0]

    def _after_linprog(self, res):
        self._lp_success.append(bool(res.success))

    def metrics(self, apply_delta: int) -> dict[str, float]:
        """Aggregated per-layer values of one pass (without the per-call norm times)."""
        out = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = float(calls)
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        at_calls = self.stats["operators.at_time"][0]
        it_calls = self.stats["splitting.trotter_iterate"][0]
        out["operators.at_time.unique_ratio"] = len(self.at_time_keys) / at_calls if at_calls else 0.0
        out["operators.APPLY_COUNT.delta"] = float(apply_delta)
        out["splitting.trotter_iterate.blocks"] = float(self.blocks)
        out["splitting.trotter_iterate.unique_ratio"] = (
            len(self.iterate_keys) / it_calls if it_calls else 0.0)
        ks = self.support_sizes
        out["bl_metric.bl_dual_norm.k_p50"] = float(statistics.median(ks)) if ks else 0.0
        out["bl_metric.bl_dual_norm.k_max"] = float(max(ks)) if ks else 0.0
        out["bl_metric.linprog.rows"] = float(self.lp_rows)
        out["bl_metric.stage2_fallbacks"] = float(self.stage2_fallbacks)
        return out
