"""Spans around the package's public calls, recorded from outside the package.

``Tracer.install`` replaces each target function or method with a wrapper
that records one span per call: name, start, end, parent span and the
exception type if the call raised. Module-level functions are replaced in
every ``depotsim`` module that imported them, so ``from .x import f`` call
sites are covered too. ``uninstall`` puts the originals back.

Spans stay in memory. A process forked from the benchmark (a sweep worker)
drops the copies it inherited, and appends its own spans and warning counts
to a file in the spool directory each time one of its top-level spans ends,
since pool workers exit without running ``atexit`` hooks. The parent merges
the spool after each sweep.

Work a wrapper does after the call (counting LU fill, sizing output files)
is recorded as a ``trace.extra`` child of the caller, so it never inflates a
layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

#: warning templates counted by the log handler, matched on the format string
WARNING_TEMPLATES = (
    ("bound field clamped", "clamp"),
    ("hydrogen floor applied", "h_floor"),
    ("rejected", "step_rejected"),
    ("projection changed drug mass", "projection"),
)

# span record fields
PID, SID, PARENT, NAME, T0, T1, ERR, DATA = range(8)


# Data hooks take a call's result and return (span data, result to hand back).

def _fill_nnz(lu, tracer):
    return {"fill": int(lu.L.nnz + lu.U.nnz)}, _TracedLU(lu, tracer)


def _pipeline_walls(result, tracer):
    return {"short_wall_s": result.short_wall_s, "long_wall_s": result.long_wall_s,
            "retries": result.retries}, result


def _output_bytes(outdir, tracer):
    size = sum(p.stat().st_size for p in Path(outdir).rglob("*") if p.is_file())
    return {"bytes": size}, outdir


#: (span name, module, attribute path, data hook). Only the first two targets
#: are installed in an untraced run: they carry the per-scenario walls out of
#: sweep workers and cost two spans per scenario.
RECORDER_TARGETS = (
    ("orchestrator.pipeline", "depotsim.orchestrator", "Simulation.run_pipeline",
     _pipeline_walls),
    ("io.write", "depotsim.io", "write_run_outputs", _output_bytes),
)
LAYER_TARGETS = RECORDER_TARGETS + (
    ("config.load", "depotsim.config", "load_config_text", None),
    ("config.load", "depotsim.config", "load_config", None),
    ("config.validate", "depotsim.config", "SimulationConfig.validate", None),
    ("config.curve_parse", "depotsim.params", "PhCurve.from_csv", None),
    ("mesh.build", "depotsim.mesh", "build_graded_mesh", None),
    ("mesh.project", "depotsim.mesh", "project_field", None),
    ("flow.factor", "depotsim.flow", "PressureSolver.__init__", None),
    ("flow.solve", "depotsim.flow", "PressureSolver.solve", None),
    ("potential.assemble", "depotsim.potential", "assemble_potential", None),
    ("potential.solve", "depotsim.potential", "solve_potential", None),
    ("transport.advance", "depotsim.transport", "advance_species", None),
    ("assembly.matrix", "depotsim._assembly", "diffusion_matrix", None),
    ("assembly.matrix", "depotsim._assembly", "upwind_advection_matrix", None),
    ("assembly.factorize", "depotsim._assembly", "factorize", _fill_nnz),
    ("orchestrator.injection", "depotsim.orchestrator", "Simulation.run_short_term", None),
    ("orchestrator.long", "depotsim.orchestrator", "Simulation.run_long_term", None),
    ("orchestrator.reduce", "depotsim.orchestrator",
     "Simulation.reduce_to_long_term", None),
    ("orchestrator.step", "depotsim.orchestrator", "StaggeredStepper.step", None),
    ("orchestrator.attempt", "depotsim.orchestrator", "StaggeredStepper.attempt", None),
    ("metrics", "depotsim.metrics", "domain_average", None),
    ("metrics", "depotsim.metrics", "ball_average", None),
    ("metrics", "depotsim.metrics", "plume_volume", None),
    ("metrics", "depotsim.metrics", "dose_fractions", None),
    ("metrics", "depotsim.metrics", "net_charge_density", None),
    ("metrics", "depotsim.metrics", "MetricSeries.append", None),
    ("sweep.run", "depotsim.sweep", "run_sweep", None),
)


class _TracedLU:
    """SuperLU stand-in whose ``solve`` records an ``assembly.lu_solve`` span."""

    __slots__ = ("_lu", "_solve")

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._solve = tracer.wrap("assembly.lu_solve", lu.solve)

    def solve(self, *args, **kwargs):
        return self._solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _WarningCounter(logging.Handler):
    def __init__(self, tracer: "Tracer"):
        super().__init__(level=logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        self.tracer._adopt_process()
        msg = str(record.msg)
        kind = next((k for text, k in WARNING_TEMPLATES if text in msg), "other")
        self.tracer.events[kind] += 1


class Tracer:
    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.owner = os.getpid()
        self._pid = self.owner
        self.spans: list[tuple] = []
        self.events: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next = 0
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------
    def _adopt_process(self):
        pid = os.getpid()
        if pid != self._pid:  # forked worker: drop what the parent recorded
            self._pid = pid
            self.spans, self.events, self._stack, self._next = [], Counter(), [], 0

    def _record(self, sid, parent, name, t0, t1, err, data):
        self.spans.append((self._pid, sid, parent, name, t0, t1, err, data))
        if not self._stack and self._pid != self.owner:
            self._flush_to_spool()

    def wrap(self, name, fn, hook=None):
        """``fn`` wrapped so that each call records one span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._adopt_process()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._next
            tracer._next += 1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                stack.pop()
                tracer._record(sid, parent, name, t0, t1, type(exc).__name__, None)
                raise
            t1 = perf_counter()
            stack.pop()
            data = None
            if hook is not None:
                # the hook's cost belongs to the trace, not to the caller
                extra_sid = tracer._next
                tracer._next += 1
                stack.append(extra_sid)
                data, result = hook(result, tracer)
                stack.pop()
                tracer.spans.append((tracer._pid, extra_sid, parent, "trace.extra",
                                     t1, perf_counter(), None, None))
            tracer._record(sid, parent, name, t0, t1, None, data)
            return result

        return traced

    def _flush_to_spool(self):
        self.spool.mkdir(parents=True, exist_ok=True)
        line = json.dumps({"spans": self.spans, "events": dict(self.events)})
        with open(self.spool / f"worker-{self._pid}.jsonl", "a") as f:
            f.write(line + "\n")
        self.spans, self.events = [], Counter()

    def collect_spool(self):
        """Merge and delete the span files sweep workers wrote."""
        if not self.spool.is_dir():
            return
        for path in sorted(self.spool.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                self.spans.extend(tuple(s) for s in rec["spans"])
                self.events.update(rec["events"])
            path.unlink()

    def take(self):
        """Return and clear the spans and warning counts recorded so far."""
        self.collect_spool()
        spans, events = self.spans, self.events
        self.spans, self.events = [], Counter()
        return spans, events

    # -- installation -------------------------------------------------------
    def install(self, targets):
        for name, module, attr, hook in targets:
            try:
                mod = importlib.import_module(module)
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                raw = owner.__dict__[leaf] if owner_name else getattr(mod, leaf)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}.{attr}")
                continue
            if owner_name:
                self._patch_method(owner, leaf, raw, name, hook)
            else:
                self._patch_function(raw, self.wrap(name, raw, hook))
        handler = _WarningCounter(self)
        log = logging.getLogger("depotsim")
        log.addHandler(handler)
        self._restore.append((log.removeHandler, handler))

    def _patch_method(self, cls, leaf, raw, name, hook):
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, hook))
        else:
            wrapped = self.wrap(name, raw, hook)
        setattr(cls, leaf, wrapped)
        self._restore.append((setattr, cls, leaf, raw))

    def _patch_function(self, fn, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.split(".")[0] == "depotsim":
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    self._restore.append((setattr, mod, key, fn))

    def uninstall(self):
        while self._restore:
            undo, *args = self._restore.pop()
            undo(*args)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

#: per-layer metric -> unit; every traced run reports all of them
LAYER_UNITS = {
    "config.load_s": "s", "config.curve_parses": "count",
    "mesh.build_s": "s", "mesh.project_s": "s",
    "flow.factor_s": "s", "flow.solve_s": "s", "flow.solves": "count",
    "potential.assemble_s": "s", "potential.solve_s": "s", "potential.factor_s": "s",
    "transport.advance_s": "s", "transport.build_s": "s", "transport.factor_s": "s",
    "transport.rejections": "count", "transport.h_floor_events": "count",
    "assembly.factorizations": "count", "assembly.factor_s": "s",
    "assembly.lu_solve_s": "s", "assembly.lu_fill_nnz": "count",
    "orchestrator.steps_injection": "count", "orchestrator.steps_long": "count",
    "orchestrator.attempts": "count", "orchestrator.retries": "count",
    "orchestrator.step_self_s": "s", "orchestrator.reduce_s": "s",
    "orchestrator.clamps": "count",
    "metrics.s": "s", "io.write_s": "s", "io.bytes": "bytes",
    "sweep.scenario_s": "s", "sweep.utilization": "ratio",
    "trace.overhead_s": "s",
}


class SpanIndex:
    """Durations, self times and ancestry of one batch of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_key = {(s[PID], s[SID]): s for s in spans}
        self.child_time = defaultdict(float)
        for s in spans:
            if s[PARENT] is not None:
                self.child_time[(s[PID], s[PARENT])] += s[T1] - s[T0]

    def named(self, name):
        return [s for s in self.spans if s[NAME] == name]

    def ancestors(self, s):
        while s[PARENT] is not None:
            s = self.by_key.get((s[PID], s[PARENT]))
            if s is None:
                return
            yield s[NAME]

    def under(self, name, ancestor):
        return [s for s in self.named(name) if ancestor in self.ancestors(s)]

    def outermost(self, prefix):
        """Spans of one layer that are not nested in another span of it."""
        return [s for s in self.spans if s[NAME].split(".")[0] == prefix
                and not any(a.split(".")[0] == prefix for a in self.ancestors(s))]

    def self_time(self, s):
        return s[T1] - s[T0] - self.child_time[(s[PID], s[SID])]

    def roots(self):
        """Top-level spans of the work a scenario does, in any process."""
        return [s for s in self.spans if s[PARENT] is None
                and s[NAME] not in ("sweep.run", "trace.extra")]


def _total(spans):
    return sum(s[T1] - s[T0] for s in spans)


def layer_totals(spans, events) -> tuple[dict, list[str]]:
    """Per-layer totals over one batch of spans, plus cross-check problems."""
    ix = SpanIndex(spans)
    factorize = ix.named("assembly.factorize")
    attempts = ix.named("orchestrator.attempt")
    pipelines = ix.named("orchestrator.pipeline")
    rejected = sum(1 for s in attempts if s[ERR] == "NegativeConcentrationError")
    totals = {
        "config.load_s": _total(ix.outermost("config")),
        "config.curve_parses": len(ix.named("config.curve_parse")),
        "mesh.build_s": _total(ix.named("mesh.build")),
        "mesh.project_s": _total(ix.named("mesh.project")),
        "flow.factor_s": _total(ix.named("flow.factor")),
        "flow.solve_s": _total(ix.named("flow.solve")),
        "flow.solves": len(ix.named("flow.solve")),
        "potential.assemble_s": _total(ix.named("potential.assemble")),
        "potential.solve_s": sum(ix.self_time(s) for s in ix.named("potential.solve")),
        "potential.factor_s": _total(ix.under("assembly.factorize", "potential.solve")),
        "transport.advance_s": _total(ix.named("transport.advance")),
        "transport.build_s": _total(ix.under("assembly.matrix", "transport.advance")),
        "transport.factor_s": _total(ix.under("assembly.factorize", "transport.advance")),
        "transport.rejections": sum(1 for s in ix.named("transport.advance")
                                    if s[ERR] == "NegativeConcentrationError"),
        "transport.h_floor_events": events.get("h_floor", 0),
        "assembly.factorizations": len(factorize),
        "assembly.factor_s": _total(factorize),
        "assembly.lu_solve_s": _total(ix.named("assembly.lu_solve")),
        "assembly.fill_sum": sum(s[DATA]["fill"] for s in factorize if s[DATA]),
        "orchestrator.steps_injection": len(ix.under("orchestrator.step",
                                                     "orchestrator.injection")),
        "orchestrator.steps_long": len(ix.under("orchestrator.step",
                                                "orchestrator.long")),
        "orchestrator.attempts": len(attempts),
        "orchestrator.retries": rejected,
        "orchestrator.step_self_s": sum(
            ix.self_time(s) for s in ix.named("orchestrator.step") + attempts),
        "orchestrator.reduce_s": _total(ix.named("orchestrator.reduce")),
        "orchestrator.clamps": events.get("clamp", 0),
        "metrics.s": _total(ix.outermost("metrics")),
        "io.write_s": _total(ix.named("io.write")),
        "io.bytes": sum(s[DATA]["bytes"] for s in ix.named("io.write") if s[DATA]),
        "scenario_work_s": _total(ix.roots()),
        "scenarios": len(pipelines),
    }
    problems = []
    reported = sum(s[DATA]["retries"] for s in pipelines if s[DATA])
    if not rejected == events.get("step_rejected", 0) == reported:
        problems.append(f"retry counts disagree: {rejected} rejected attempts, "
                        f"{events.get('step_rejected', 0)} warnings, "
                        f"{reported} reported by the pipeline")
    return totals, problems


def per_scenario(totals: dict, wall_capacity_s: float, overhead_s: float) -> dict:
    """Per-layer metrics from summed totals of every traced unit.

    Counts and times are per scenario; ``assembly.lu_fill_nnz`` is per
    factorisation; ``sweep.utilization`` is scenario work over the worker
    seconds the traced units had (workers x unit wall).
    """
    n = max(totals["scenarios"], 1)
    out = {}
    for name in LAYER_UNITS:
        if name in totals:
            out[name] = totals[name] / n
    out["assembly.lu_fill_nnz"] = (totals["assembly.fill_sum"]
                                   / max(totals["assembly.factorizations"], 1))
    out["sweep.scenario_s"] = totals["scenario_work_s"] / n
    out["sweep.utilization"] = totals["scenario_work_s"] / wall_capacity_s
    out["trace.overhead_s"] = overhead_s
    return out
