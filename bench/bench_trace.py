"""Outside-in layer trace.

The benchmark wraps the public functions of each ``chainbench`` module with a
timing span, from its own files, and leaves the program's code untouched.
Each wrapper is installed in the namespace where the caller looks the name up
(``scenario.evaluate_state``, ``replay_driver.parse_script``, ...), because a
name imported with ``from x import f`` is not reached by patching ``x.f``.

Per span name the tracer keeps calls, inclusive seconds and self seconds
(inclusive minus the time covered by child spans). Counters record the work
each layer did, read from arguments and return values.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    spans: dict[str, SpanStats] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    # Distinct keys seen per ratio counter, e.g. (state, subquery) pairs.
    distinct: dict[str, set] = field(default_factory=dict)
    # Mutation epoch per store object: a store's state changes with every apply.
    epochs: dict[int, int] = field(default_factory=dict)
    _child_time: list[float] = field(default_factory=list)
    # Time spent outside the program (host-speed calibration), per open span.
    _excluded: list[float] = field(default_factory=list)

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        self._child_time.append(0.0)
        self._excluded.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            excluded = self._excluded.pop()
            elapsed = self.clock() - start - excluded
            children = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += elapsed
                self._excluded[-1] += excluded
            stats = self.spans.setdefault(name, SpanStats())
            stats.calls += 1
            stats.s += elapsed
            stats.self_s += elapsed - children

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` just spent outside the program out of every open span."""
        if self._excluded:
            self._excluded[-1] += seconds

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def see(self, name: str, key) -> None:
        self.distinct.setdefault(name, set()).add(key)

    def state_of(self, store) -> tuple[int, int]:
        return id(store), self.epochs.get(id(store), 0)

    def metrics(self, span_names, counter_names, ratio_names) -> dict[str, float]:
        """Flat ``<module>.<function>.<stat>`` metrics; absent spans read 0."""
        out: dict[str, float] = {}
        for name in span_names:
            stats = self.spans.get(name, SpanStats())
            out[f"{name}.s"] = stats.s
            out[f"{name}.self_s"] = stats.self_s
            out[f"{name}.calls"] = stats.calls
        for name in counter_names:
            out[name] = self.counters.get(name, 0)
        for name in ratio_names:
            span = name.rsplit(".", 1)[0]
            calls = self.spans.get(span, SpanStats()).calls
            out[name] = len(self.distinct.get(name, ())) / calls if calls else 0.0
        return out


# -- counters, called with (tracer, args, kwargs, result) after the span closes


def _store_arg(args, kwargs):
    return args[0] if args else kwargs["store"]


def _count_rows(tr: Tracer, args, kwargs, result) -> None:
    tr.add("memstore.count.rows_out", result)
    query = args[1] if len(args) > 1 else kwargs["q"]
    tr.see("memstore.count.useful_ratio", (tr.state_of(_store_arg(args, kwargs)), query))


def _count_refresh(tr: Tracer, args, kwargs, result) -> None:
    tr.add("estimator.refresh.columns", len(result.columns))
    tr.see("estimator.refresh.useful_ratio", tr.state_of(_store_arg(args, kwargs)))


def _count_mutations(tr: Tracer, args, kwargs, result) -> None:
    store = _store_arg(args, kwargs)
    tr.epochs[id(store)] = tr.epochs.get(id(store), 0) + 1
    tr.add("memstore.apply_ops.inserts", sum(result.inserts.values()))
    tr.add("memstore.apply_ops.deletes", sum(result.deletes.values()))
    tr.add("memstore.apply_ops.updates", sum(result.updates.values()))


def _count_parsed(tr: Tracer, args, kwargs, result) -> None:
    script = args[0] if args else kwargs["script"]
    tr.add("sqlstub.parse_script.statements", len(result))
    tr.add("sqlstub.parse_script.bytes", len(script.encode("utf-8")))


def _count_rendered(tr: Tracer, args, kwargs, result) -> None:
    tr.add("workload_gen.render_sql.bytes", len(result.encode("utf-8")))


COUNTERS = (
    "memstore.count.rows_out",
    "estimator.refresh.columns",
    "memstore.apply_ops.inserts",
    "memstore.apply_ops.deletes",
    "memstore.apply_ops.updates",
    "sqlstub.parse_script.statements",
    "sqlstub.parse_script.bytes",
    "workload_gen.render_sql.bytes",
)
RATIOS = ("memstore.count.useful_ratio", "estimator.refresh.useful_ratio")


@dataclass(frozen=True)
class Layer:
    """One span name and every (owner, attribute) where callers look it up."""

    name: str
    sites: tuple[tuple[object, str], ...]
    count: Callable | None = None


def layers() -> tuple[Layer, ...]:
    from chainbench import (
        estimator,
        memstore,
        replay_driver,
        reports,
        scenario,
        sqlstub,
        synth_chain,
        workload_gen,
    )
    from chainbench.ingest_slice import BalanceLedger

    return (
        Layer("synth_chain.generate", ((synth_chain, "generate"), (scenario, "generate"))),
        Layer("workload_gen.gen_initial", ((workload_gen, "gen_initial"), (scenario, "gen_initial"))),
        Layer("workload_gen.gen_batches", ((workload_gen, "gen_batches"), (scenario, "gen_batches"))),
        Layer("workload_gen.render_sql", ((workload_gen, "render_sql"),), _count_rendered),
        Layer("workload_gen.write_workload", ((workload_gen, "write_workload"),)),
        Layer("ingest_slice.BalanceLedger.touched_in_range", ((BalanceLedger, "touched_in_range"),)),
        Layer("memstore.apply_ops", ((memstore, "apply_ops"), (replay_driver, "apply_ops")), _count_mutations),
        Layer("memstore.count", ((memstore, "count"),), _count_rows),
        Layer("estimator.refresh", ((estimator, "refresh"),), _count_refresh),
        Layer("estimator.estimate", ((estimator, "estimate"),)),
        Layer("eval_harness.evaluate_state", ((scenario, "evaluate_state"),)),
        Layer("scenario.run_scenario", ((scenario, "run_scenario"),)),
        Layer("reports.write_jsonl", ((reports, "write_jsonl"),)),
        Layer("sqlstub.parse_script", ((sqlstub, "parse_script"), (replay_driver, "parse_script")), _count_parsed),
        Layer("sqlstub.to_mutations", ((replay_driver, "to_mutations"),)),
        Layer("sqlstub.SqlStubEngine.execute", ((sqlstub.SqlStubEngine, "execute"),)),
        Layer("replay_driver.replay", ((replay_driver, "replay"),)),
        Layer(
            "replay_driver.apply_script",
            ((replay_driver.MemstoreTarget, "apply_script"), (replay_driver.SqlStubTarget, "apply_script")),
        ),
    )


def _traced(tracer: Tracer, name: str, fn: Callable, count: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    return wrapper


class Patches:
    """Replaces attributes and puts the originals back, in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> bool:
        """Undo every replacement; True when each original is back in place."""
        first: dict[tuple[int, str], tuple[object, str, object]] = {}
        for owner, attr, original in self._saved:
            first.setdefault((id(owner), attr), (owner, attr, original))
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return all(vars(owner)[attr] is original for owner, attr, original in first.values())


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer site with a span; ``patches.restore()`` undoes it."""
    for layer in layers():
        for owner, attr in layer.sites:
            patches.replace(owner, attr, lambda fn, layer=layer: _traced(tracer, layer.name, fn, layer.count))
