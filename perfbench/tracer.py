"""In-memory spans around the calls into each feederdispatch layer.

The tracer replaces a module or class attribute with a wrapper that records one
span per call: layer name, start, end, the enclosing span and the round the
call belongs to. Nothing under ``src/`` changes; the attributes are restored
when the tracer closes. Spans stay in memory and are written out once, when the
run ends.
"""

from __future__ import annotations

import functools
import json
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "round", "note")

    def __init__(self, name, start, parent, round_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.round = round_id
        self.note = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the wrapped callables until :meth:`close`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper. ``note(args, result)``
        may extract a small value kept on the span (a status, an iteration
        count)."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1, self.round)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def close(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self, index: int) -> float:
        """Span duration minus the time its direct children cover."""
        span = self.spans[index]
        children = sum(s.seconds for s in self.spans if s.parent == index)
        return span.seconds - children

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "columns": ["name", "start_s", "end_s", "parent",
                                           "round"],
                       "spans": [[s.name, s.start, s.end, s.parent, s.round]
                                 for s in self.spans]}, fh)
            fh.write("\n")


def _certificate(args, result):
    cert = result[1]
    return cert.status, cert.iterations, cert.kkt_residual


def install_layers(tracer: Tracer, on_mpc_solve=None) -> None:
    """Wrap the public function each layer exposes to its caller.

    The closed loop reaches its layers through the names ``sim`` imported
    (``sim.kalman_update``, ``sim.build_problem``, ``sim.solve``) and through
    ``BatteryPlant.apply_power``; the MPC reaches the barrier through
    ``solver.solve_qcqp`` and the planner the LP through ``solver.solve_lp``.
    ``feederdispatch plan`` calls the names bound in ``cli``; the library
    functions are wrapped too, for the plan built at closed-loop set-up.
    """
    from feederdispatch import cli, dayahead, forecast, sim, solver

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_history", "forecast.load_history")
    tracer.wrap(cli, "forecast_day", "forecast.forecast_day")
    tracer.wrap(forecast, "forecast_day", "forecast.forecast_day")
    tracer.wrap(cli, "plan_day", "dayahead.plan_day")
    tracer.wrap(dayahead, "plan_day", "dayahead.plan_day")
    tracer.wrap(cli, "save_plan", "dayahead.save_plan")
    tracer.wrap(solver, "solve_lp", "solver.lp", note=_certificate)
    tracer.wrap(sim, "run_day", "sim.run_day")
    tracer.wrap(sim, "kalman_update", "battery.kalman_update")
    tracer.wrap(sim, "build_problem", "mpc.build_problem")
    tracer.wrap(sim, "solve", "mpc.solve", note=on_mpc_solve)
    tracer.wrap(sim.BatteryPlant, "apply_power", "sim.plant_apply")
    tracer.wrap(solver, "solve_qcqp", "solver.qcqp", note=_certificate)
