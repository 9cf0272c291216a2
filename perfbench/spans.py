"""In-memory span recorder around qhinf's public layer entry points.

Wrappers replace module attributes; qhinf's own callers look those attributes
up at call time, so nested calls (the solves inside a bisection, the
realizability check inside certification) are caught too.  A span holds a
name, start, end, parent and the id of the operation it belongs to; counts
such as Newton steps or trajectory length are read from returned objects
after the span has closed, outside its timed interval.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from qhinf import analysis, demo, jumpsim, lmi, optics, realizability, serialize, synthesis


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_doc(self) -> dict:
        return {"op": self.op, "id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "error": self.error, "attrs": self.attrs}


def _lmi_size(problem, *_args, **_kwargs):
    return {
        "params": sum(v.n_scalars for v in problem.variables),
        "block_dim": max(c.expr.dim for c in problem.constraints),
    }


# (module, attribute, attrs from the call arguments, attrs from the result)
TARGETS = [
    (lmi, "solve_feasibility", _lmi_size,
     lambda s: {"steps": s.iterations, "status": s.status}),
    (synthesis, "synthesize", None, None),
    (synthesis, "min_attenuation", None, lambda r: {"g": float(r[0])}),
    (analysis, "verify_closed_loop", None, lambda r: {"passed": r.attenuation_ok}),
    (analysis, "coupled_mode_check", None, None),
    (realizability, "augment_jump_controller", None, None),
    (realizability, "check_controller_realizability", None, None),
    (optics, "controller_fit_report", None, None),
    (jumpsim, "estimate_attenuation", None, lambda r: {"paths": int(r.ratios.shape[0])}),
    (jumpsim, "sample_markov_path", None, lambda p: {"jumps": len(p.jump_times)}),
    (jumpsim, "propagate_moments", None, lambda t: {"rk4_steps": len(t.times) - 1}),
    (serialize, "write_doc", None, lambda p: {"bytes": Path(p).stat().st_size}),
    (demo, "run_paper_demo", None, None),
]


class Tracer:
    """Collects spans while an operation is open; idle otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op: int | None = None
        self._installed: list = []

    def _open(self, name, attrs=None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._op, len(self.spans), parent, name, 0.0, attrs=attrs or {})
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span, error: BaseException | None = None):
        span.end = time.perf_counter()
        if error is not None:
            span.error = type(error).__name__
        self._stack.pop()

    def run_op(self, op: int, name: str, fn, *args):
        """Call fn(*args) as operation ``op`` under a root span ``name``."""
        self._op = op
        span = self._open(name)
        try:
            result = fn(*args)
        except BaseException as exc:
            self._close(span, exc)
            raise
        else:
            self._close(span)
            return result
        finally:
            self._op = None

    def _wrap(self, name, fn, call_attrs, result_attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            attrs = call_attrs(*args, **kwargs) if call_attrs else None
            span = self._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, exc)
                raise
            self._close(span)
            if result_attrs:
                span.attrs.update(result_attrs(result))
            return result

        return wrapper

    def install(self):
        """Replace every binding of each target in the loaded qhinf modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "qhinf" or name.startswith("qhinf."))]
        for module, attr, call_attrs, result_attrs in TARGETS:
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapper = self._wrap(name, original, call_attrs, result_attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed.clear()


def _quantile(values, q):
    """Linear-interpolation quantile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], n_ops: int) -> dict:
    """Per-layer figures from the spans of ``n_ops`` traced operations.

    Times and counts are per operation unless the name says otherwise
    (``lmi.step_ms`` per Newton step, ``lmi.solve_s.*`` per solve, the
    ``jumpsim`` figures per path or per call).  A layer the workload never
    calls reports 0.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def self_time(s):
        return s.duration - sum(c.duration for c in children.get(s.id, ()))

    def has_ancestor(s, name):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    def lmi_below(s):
        out, todo = [], list(children.get(s.id, ()))
        while todo:
            c = todo.pop()
            if c.name == "lmi.solve_feasibility":
                out.append(c)
            else:
                todo.extend(children.get(c.id, ()))
        return out

    per_op = lambda total: _ratio(total, n_ops)  # noqa: E731
    solves = named("lmi.solve_feasibility")
    steps = sum(s.attrs.get("steps", 0) for s in solves)
    busy = sum(s.duration for s in solves)
    durations = [s.duration for s in solves]
    statuses = [s.attrs.get("status") for s in solves]
    n_feasible = statuses.count("feasible")
    n_infeasible = sum(1 for st in statuses if st and st.startswith("infeasible"))

    synth = named("synthesis.synthesize")
    searches = named("synthesis.min_attenuation") + [
        s for s in synth if not has_ancestor(s, "synthesis.min_attenuation")
    ]
    verify = named("analysis.verify_closed_loop")
    probes = named("jumpsim.estimate_attenuation")
    # only the probe's paths; fault-sim also samples one for its simulated path
    paths = [s for s in named("jumpsim.sample_markov_path")
             if has_ancestor(s, "jumpsim.estimate_attenuation")]
    props = named("jumpsim.propagate_moments")
    levels = [s.attrs["g"] for s in named("synthesis.min_attenuation") if "g" in s.attrs]

    def busy_of(name):
        return per_op(sum(s.duration for s in named(name)))

    return {
        "lmi.solves": per_op(len(solves)),
        "lmi.newton_steps": per_op(steps),
        "lmi.busy_s": per_op(busy),
        "lmi.step_ms": 1e3 * _ratio(busy, steps),
        "lmi.solve_s.p50": _quantile(durations, 0.5),
        "lmi.solve_s.p90": _quantile(durations, 0.9),
        "lmi.status.feasible": per_op(n_feasible),
        "lmi.status.infeasible": per_op(n_infeasible),
        "lmi.status.other": per_op(len(solves) - n_feasible - n_infeasible),
        "lmi.params_max": max((s.attrs["params"] for s in solves), default=0),
        "lmi.block_dim_max": max((s.attrs["block_dim"] for s in solves), default=0),
        "synthesis.solves_per_search": _ratio(
            sum(len(lmi_below(s)) for s in searches), len(searches)),
        "synthesis.feasible_ratio": _ratio(
            sum(1 for s in synth if s.error is None), len(synth)),
        "synthesis.self_s": per_op(sum(
            s.duration - sum(c.duration for c in lmi_below(s)) for s in synth)),
        "synthesis.g_star": min(levels, default=0.0),
        "analysis.verify_s": per_op(sum(s.duration for s in verify)),
        "analysis.lmi_s": per_op(sum(c.duration for s in verify for c in lmi_below(s))),
        "analysis.pass_ratio": _ratio(
            sum(1 for s in verify if s.attrs.get("passed")), len(verify)),
        "realizability.augment_s": busy_of("realizability.augment_jump_controller"),
        "realizability.check_s": busy_of("realizability.check_controller_realizability"),
        "optics.realize_s": busy_of("optics.controller_fit_report"),
        "serialize.write_s": busy_of("serialize.write_doc"),
        "serialize.bytes_written": per_op(
            sum(s.attrs.get("bytes", 0) for s in named("serialize.write_doc"))),
        "demo.self_s": per_op(sum(self_time(s) for s in named("demo.run_paper_demo"))),
        "cli.self_s": per_op(sum(self_time(s) for s in named("cli.main"))),
        "jumpsim.probe_busy_s": _ratio(
            sum(s.duration for s in probes), sum(s.attrs.get("paths", 0) for s in probes)),
        "jumpsim.sample_path_s": _ratio(sum(s.duration for s in paths), len(paths)),
        "jumpsim.jumps_per_path": _ratio(
            sum(s.attrs.get("jumps", 0) for s in paths), len(paths)),
        "jumpsim.propagate_s": _ratio(sum(s.duration for s in props), len(props)),
        "jumpsim.rk4_steps": _ratio(
            sum(s.attrs.get("rk4_steps", 0) for s in props), len(props)),
    }
