"""Experiment machinery: subquery enumeration, the probe of one state (each
policy's catalog, then estimate vs exact count per subquery), latency
measurement, and plan-regret matrices. A Q-error drift series is the probe
run on each state in turn, as ``scenario.run_scenario`` does.

Q-error is the multiplicative estimation error max(e, a) / min(e, a) with
both operands clamped up to 1 first, so a true-zero or estimated-zero
cardinality yields a finite, symmetric value. Regret matrices compare how a
plan optimized for one state performs on another, per estimated cost (c_e)
or measured latency (c_r); against targets without plan capture the matrix
runs in recorded-measurement mode, consuming externally captured values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import estimator, memstore
from .memstore import SPJQuery, Store


@dataclass(frozen=True)
class QErrorPoint:
    state: str
    subquery: str
    estimated: float
    actual: int
    qerror: float
    policy: str  # "refreshed" | "initial"


@dataclass(frozen=True)
class PlanMeasurement:
    plan_for: str  # state the plan was optimized on (S_x)
    run_on: str  # state the plan was executed on (S_y)
    c_e: float | None = None  # optimizer-estimated cost, abstract units
    c_r: float | None = None  # measured latency, ms (median)
    reps: int = 0

    def __post_init__(self) -> None:
        if self.c_e is not None and self.c_e <= 0:
            raise ValueError("estimated cost must be positive")
        if self.c_r is not None:
            if self.c_r <= 0:
                raise ValueError("measured latency must be positive")
            if self.reps < 11:
                raise ValueError("latency measurements require reps >= 11")


class LatencyError(RuntimeError):
    pass


def qerror(estimated: float, actual: float) -> float:
    e = max(float(estimated), 1.0)
    a = max(float(actual), 1.0)
    return max(e, a) / min(e, a)


def enumerate_subqueries(q: SPJQuery, max_tables: int) -> list[SPJQuery]:
    """Every connected induced subquery with 1..max_tables tables.

    Each subquery keeps all filters applicable to its tables and all join
    edges internal to it, in a canonical order (table-set lexicographic).
    A ``max_tables`` below 1 is refused: it would leave nothing to probe.
    """
    if max_tables < 1:
        raise ValueError(f"max_tables must be >= 1, got {max_tables}")
    aliases = sorted(q.alias_map)
    adj: dict[str, set[str]] = {a: set() for a in aliases}
    for e in q.joins:
        adj[e.left_alias].add(e.right_alias)
        adj[e.right_alias].add(e.left_alias)

    found: set[frozenset[str]] = {frozenset((a,)) for a in aliases}
    frontier = list(found)
    while frontier:
        current = frontier.pop()
        if len(current) >= max_tables:
            continue
        for member in current:
            for neighbor in adj[member]:
                if neighbor in current:
                    continue
                grown = current | {neighbor}
                if grown not in found:
                    found.add(grown)
                    frontier.append(grown)

    amap = q.alias_map
    subsets = sorted(tuple(sorted(s)) for s in found if len(s) <= max_tables)
    out = []
    for subset in subsets:
        members = set(subset)
        out.append(
            SPJQuery(
                tables=tuple((a, amap[a]) for a in subset),
                joins=tuple(e for e in q.joins if e.left_alias in members and e.right_alias in members),
                filters=tuple(f for f in q.filters if f.alias in members),
            )
        )
    return out


class ProbeColumns(NamedTuple):
    """The (table, column) pairs the estimates of a probe read, by role."""

    filtered: frozenset[tuple[str, str]]  # filters read full statistics
    join_only: frozenset[tuple[str, str]]  # join edges read only the distinct count


def probe_columns(subqueries: Iterable[SPJQuery]) -> ProbeColumns:
    """The columns a catalog must cover to estimate every one of ``subqueries``.

    A foreign-key join reads its parent's row count
    (``estimator.foreign_key_parent``), so its columns are in neither set
    unless another edge or a filter reads them.
    """
    filtered: set[tuple[str, str]] = set()
    joined: set[tuple[str, str]] = set()
    for q in subqueries:
        amap = q.alias_map
        filtered.update((amap[f.alias], f.column) for f in q.filters)
        for e in q.joins:
            left, right = (amap[e.left_alias], e.left_column), (amap[e.right_alias], e.right_column)
            if estimator.foreign_key_parent(left, right) is None:
                joined.update((left, right))
    return ProbeColumns(frozenset(filtered), frozenset(joined - filtered))


def evaluate_state(
    label: str,
    store: Store,
    subqueries: Sequence[SPJQuery],
    catalogs: Mapping[str, estimator.StatsCatalog],
) -> list[QErrorPoint]:
    """The probe: estimate vs exact count for each subquery on one frozen
    state, under each policy's catalog (``{policy: catalog}``).

    Points come per policy, in ``catalogs`` order, then per subquery. The
    exact count does not depend on the policy, so each distinct subquery is
    counted once; the counts share base relations, each filtered once for
    this call and dropped when it returns. Each estimate is kept on its
    catalog (``StatsCatalog.estimates``), so a catalog that serves several
    policies or states estimates each subquery once.
    """
    relations: dict = {}
    actual: dict[SPJQuery, int] = {}
    for sub in subqueries:
        if sub not in actual:
            actual[sub] = memstore.count(store, sub, relations)
    points = []
    for policy, catalog in catalogs.items():
        memo = catalog.estimates
        for sub in subqueries:
            est = memo.get(sub)
            if est is None:
                est = memo[sub] = estimator.estimate(catalog, sub)
            points.append(
                QErrorPoint(
                    state=label,
                    subquery=sub.label(),
                    estimated=est,
                    actual=actual[sub],
                    qerror=qerror(est, actual[sub]),
                    policy=policy,
                )
            )
    return points


def policy_catalogs(
    policies: Iterable[str],
    label: str,
    store: Store,
    initial: estimator.StatsCatalog | None,
    n_buckets: int,
    columns: ProbeColumns,
) -> dict[str, estimator.StatsCatalog]:
    """The catalog each policy probes one state with.

    ``refreshed`` rebuilds on this state; ``initial`` keeps ``initial``, the
    first state's catalog, and is given None on the first state. There one
    build serves both policies, since a rebuild on an unchanged store is
    identical.
    """
    catalogs: dict[str, estimator.StatsCatalog] = {}
    built = None
    for policy in policies:
        if policy == "initial" and initial is not None:
            catalogs[policy] = initial
            continue
        if built is None:
            built = estimator.refresh(
                store, label=label, n_buckets=n_buckets, columns=columns.filtered, distinct=columns.join_only
            )
        catalogs[policy] = built
    return catalogs


@dataclass(frozen=True)
class LatencyResult:
    median_ms: float
    samples: tuple[float, ...]


def measure_latency(executor, query_text: str, reps: int = 11) -> LatencyResult:
    """Median (lower-middle) of ``reps`` sequential executions, all samples kept.

    Executors exposing ``timed_execute(sql) -> ms`` report their own timings;
    otherwise ``execute(sql)`` is timed with a wall clock.
    """
    if reps < 11:
        raise ValueError(f"reps must be >= 11, got {reps}")
    samples: list[float] = []
    timed = getattr(executor, "timed_execute", None)
    for attempt in range(reps):
        try:
            if timed is not None:
                samples.append(float(timed(query_text)))
            else:
                start = time.perf_counter()
                executor.execute(query_text)
                samples.append((time.perf_counter() - start) * 1000.0)
        except Exception as exc:
            raise LatencyError(f"execution failed at attempt {attempt}: {exc}") from exc
    ordered = sorted(samples)
    median = ordered[(len(ordered) - 1) // 2]
    return LatencyResult(median_ms=median, samples=tuple(samples))


TIE_TOLERANCE = 0.005


@dataclass
class RegretMatrix:
    """Square table of cost ratios: cell (x, y) = C(P(S_x), S_y) / C(P(S_y), S_y)."""

    states: tuple[str, ...]
    metric: str  # "ce" | "cr"
    ratios: dict[tuple[str, str], float]

    def ratio(self, plan_for: str, run_on: str) -> float:
        return self.ratios[(plan_for, run_on)]

    def cell_text(self, plan_for: str, run_on: str) -> str:
        if plan_for == run_on:
            return "-"
        r = self.ratios[(plan_for, run_on)]
        if abs(r - 1.0) <= TIE_TOLERANCE:
            return "1.00×"
        if r > 1.0:
            return f"↓{r:.2f}×"  # regression
        return f"↑{1.0 / r:.2f}×"  # speedup

    def rows(self) -> list[list[str]]:
        header = ["plan"] + list(self.states)
        out = [header]
        for x in self.states:
            out.append([f"P({x})"] + [self.cell_text(x, y) for y in self.states])
        return out


def regret_matrix(measurements: Iterable[PlanMeasurement], metric: str) -> RegretMatrix:
    """Build the regret matrix from (plan state, run state) measurements.

    Requires one measurement per (plan, state) pair for the chosen metric,
    including the diagonal denominators C(P(S_y), S_y).
    """
    if metric not in ("ce", "cr"):
        raise ValueError(f"unknown metric {metric!r}")
    pick: Callable[[PlanMeasurement], float | None] = (lambda m: m.c_e) if metric == "ce" else (lambda m: m.c_r)
    values: dict[tuple[str, str], float] = {}
    states: set[str] = set()
    for m in measurements:
        states.add(m.plan_for)
        states.add(m.run_on)
        v = pick(m)
        if v is not None:
            values[(m.plan_for, m.run_on)] = v
    ordered = tuple(sorted(states))
    ratios: dict[tuple[str, str], float] = {}
    for y in ordered:
        if (y, y) not in values:
            raise ValueError(f"missing measurement for plan P({y}) on state {y} ({metric})")
        base = values[(y, y)]
        for x in ordered:
            if x == y:
                continue
            if (x, y) not in values:
                raise ValueError(f"missing measurement for plan P({x}) on state {y} ({metric})")
            ratios[(x, y)] = values[(x, y)] / base
    return RegretMatrix(states=ordered, metric=metric, ratios=ratios)
