"""Per-layer spans and work counts for the traced run, recorded from outside.

install() replaces public functions at the names their callers look them
up under (vdc.cli.build_ledger, vdc.pipeline.eval_on_axes, ...) with
wrappers that time each call as a span.  A layer's self time is its span
minus the child spans it covers.  A recording wrapper on Budget.charge
gives the work counts and, inside build_ledger, the phase boundaries: the
charge labels already name the phases.  Only the traced run calls
install(), so untraced runs time an unpatched vdc.  The benchmark runs one
thread, so one span stack serves.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute) -> span name; several import sites can share a span
SPANS = [
    ("vdc.cli", "dispatch", "cli.dispatch"),
    ("vdc.cli", "parse_poly", "mpoly.parse_poly"),
    ("vdc.cli", "weighted_count", "counting.weighted_count"),
    ("vdc.cli", "count_box_mod", "counting.count_box_mod"),
    ("vdc.counting", "eval_on_axes", "counting.eval_on_axes"),
    ("vdc.pipeline", "eval_on_axes", "counting.eval_on_axes"),
    ("vdc.cli", "build_ledger", "pipeline.build_ledger"),
    ("vdc.cli", "r_check", "geometry.r_check"),
    ("vdc.asymptotics", "r_check", "geometry.r_check"),
    ("vdc.geometry", "sing_points", "geometry.sing_points"),
    ("vdc.geometry", "sigma_sweep", "geometry.sigma_sweep"),
    ("vdc.geometry", "values_on", "geometry.values_on"),
    ("vdc.geometry", "enum_proj", "ffield.enum_proj"),
    ("vdc.cli", "prime_select", "asymptotics.prime_select"),
    ("vdc.cli", "poisson_probe", "analysis.poisson_probe"),
    ("vdc.cli", "fourier_decay_probe", "analysis.fourier_decay_probe"),
]

# (metric, unit, better); "X.s" is span X's total time, "X.self_s" its
# self time, anything else a count from the hooks below
PER_LAYER = [
    ("counting.eval_on_axes.s", "s", "lower"),
    ("counting.eval_on_axes.cells", "count", "lower"),
    ("counting.weighted_count.self_s", "s", "lower"),
    ("counting.count_box_mod.self_s", "s", "lower"),
    ("geometry.values_on.s", "s", "lower"),
    ("geometry.values_on.rows", "count", "lower"),
    ("geometry.sigma_sweep.self_s", "s", "lower"),
    ("geometry.sigma_sweep.directions", "count", "lower"),
    ("geometry.r_check.self_s", "s", "lower"),
    ("geometry.r2.y_tested", "count", "higher"),
    ("geometry.sing_points.self_s", "s", "lower"),
    ("ffield.scalar.calls", "count", "lower"),
    ("ffield.enum_proj.s", "s", "lower"),
    ("ffield.enum_proj.points", "count", "lower"),
    ("pipeline.build_ledger.self_s", "s", "lower"),
    ("pipeline.level0_s", "s", "lower"),
    ("pipeline.level1_s", "s", "lower"),
    ("pipeline.pair_table_s", "s", "lower"),
    ("pipeline.corr_pairs", "count", "lower"),
    ("pipeline.pair_windows", "count", "lower"),
    ("pipeline.second_pairs", "count", "lower"),
    ("pipeline.level2_float", "count", "lower"),
    ("pipeline.table_summarized", "count", "lower"),
    ("pipeline.object_acc", "count", "lower"),
    ("asymptotics.prime_select.self_s", "s", "lower"),
    ("asymptotics.candidates", "count", "lower"),
    ("analysis.poisson_probe.s", "s", "lower"),
    ("analysis.fourier_decay_probe.s", "s", "lower"),
    ("analysis.quadrature_points", "count", "lower"),
    ("cli.dispatch.self_s", "s", "lower"),
    ("mpoly.parse_poly.s", "s", "lower"),
    ("budget.refusals", "count", "lower"),
]

# charge label -> count metric summing the charged amounts
CHARGE_COUNTS = {
    "correlation pairs": "pipeline.corr_pairs",
    "pair-table windows": "pipeline.pair_windows",
    "second-difference pairs": "pipeline.second_pairs",
    "quadrature points": "analysis.quadrature_points",
}


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.charges = []  # (time, label, amount)
        self._children = []  # child time covered, per open span

    def metrics(self) -> dict:
        out = {}
        for name, _, _ in PER_LAYER:
            if name.endswith(".self_s"):
                out[name] = self.self_time[name[: -len(".self_s")]]
            elif name.endswith(".s"):
                out[name] = self.total[name[: -len(".s")]]
            elif name.endswith("_s"):
                out[name] = self.total[name]
            else:
                out[name] = self.counts[name]
        return out

    def _wrap(self, span: str, fn):
        hook = getattr(self, "_after_" + span.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            first_charge = len(self.charges)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = self._children.pop()
                self.total[span] += t1 - t0
                self.self_time[span] += t1 - t0 - child
                if self._children:
                    self._children[-1] += t1 - t0
            if hook is not None:
                hook(args, out, t1, first_charge)
            return out
        return wrapper

    # -- hooks: work counts taken from a span's arguments and result --------

    def _after_counting_eval_on_axes(self, args, out, t1, first):
        self.counts["counting.eval_on_axes.cells"] += out.size

    def _after_geometry_values_on(self, args, out, t1, first):
        self.counts["geometry.values_on.rows"] += args[1].shape[0]

    def _after_ffield_enum_proj(self, args, out, t1, first):
        self.counts["ffield.enum_proj.points"] += out.shape[0]

    def _after_geometry_sigma_sweep(self, args, out, t1, first):
        self.counts["geometry.sigma_sweep.directions"] += out.directions.shape[0]

    def _after_geometry_r_check(self, args, out, t1, first):
        self.counts["geometry.r2.y_tested"] += out.r2.y_tested

    def _after_asymptotics_prime_select(self, args, out, t1, first):
        # every candidate checked was either picked or skipped with a verdict
        self.counts["asymptotics.candidates"] += len(out.checks) + sum(
            1 for _, _, why in out.skipped if why != "already used")

    def _after_pipeline_build_ledger(self, args, out, t1, first):
        at = {}
        for t, label, _ in self.charges[first:]:
            at.setdefault(label, t)
        if "box grids" in at and "shift table" in at:
            self.total["pipeline.level0_s"] += at["shift table"] - at["box grids"]
        if "correlation pairs" in at:
            self.total["pipeline.level1_s"] += (
                at.get("pair-table windows", t1) - at["correlation pairs"])
        if "pair-table windows" in at:
            self.total["pipeline.pair_table_s"] += t1 - at["pair-table windows"]
        self.counts["pipeline.level2_float"] += sum(
            "level 2 ran in float64" in w for w in out.warnings)
        self.counts["pipeline.table_summarized"] += sum(
            "pair table summarized" in w for w in out.warnings)
        self.counts["pipeline.object_acc"] += int(out.corr_num.dtype == object)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module, attr, span in SPANS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self._wrap(span, getattr(mod, attr)))

        from vdc.errors import Budget, BudgetExceeded
        from vdc.ffield import Field

        charge = Budget.charge

        def recording_charge(budget, amount, what="points"):
            self.charges.append((time.perf_counter(), what, int(amount)))
            if what in CHARGE_COUNTS:
                self.counts[CHARGE_COUNTS[what]] += int(amount)
            try:
                return charge(budget, amount, what)
            except BudgetExceeded:
                self.counts["budget.refusals"] += 1
                raise

        Budget.charge = recording_charge

        for name in ("mul", "inv", "pow"):
            method = getattr(Field, name)

            def counted(*args, _method=method, **kwargs):
                self.counts["ffield.scalar.calls"] += 1
                return _method(*args, **kwargs)
            setattr(Field, name, counted)
