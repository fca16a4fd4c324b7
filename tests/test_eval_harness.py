import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainbench import estimator, memstore
from chainbench.eval_harness import (
    LatencyError,
    PlanMeasurement,
    QErrorPoint,
    enumerate_subqueries,
    evaluate_state,
    measure_latency,
    policy_catalogs,
    probe_columns,
    qerror,
    regret_matrix,
)
from chainbench.memstore import Filter, SPJQuery, Store
from chainbench.query_assets import q1_spj
from chainbench.synth_chain import SynthConfig, generate
from chainbench.workload_gen import WorkloadConfig, gen_batches, gen_initial

from util import brute_force_connected_subsets, nested_loop_count, random_spj


def test_q1_enumeration_counts():
    subs = enumerate_subqueries(q1_spj(), 3)
    assert len(subs) == 13
    sizes = sorted(len(s.tables) for s in subs)
    assert sizes.count(1) == 5 and sizes.count(2) == 4 and sizes.count(3) == 4


def test_q1_enumeration_matches_brute_force():
    q = q1_spj()
    edges = [(e.left_alias, e.right_alias) for e in q.joins]
    expected = brute_force_connected_subsets(sorted(q.alias_map), edges, 3)
    got = [frozenset(a for a, _ in s.tables) for s in enumerate_subqueries(q, 3)]
    assert sorted(map(sorted, got)) == sorted(map(sorted, expected))
    assert len(got) == len(set(got))


def test_enumeration_max_tables_one():
    subs = enumerate_subqueries(q1_spj(), 1)
    assert [s.label() for s in subs] == ["a", "c", "tk", "tk_tx", "tx"]
    assert all(not s.joins for s in subs)


def test_enumeration_two_table_query():
    q = SPJQuery.build(
        tables={"tx": "transactions", "a": "addresses"},
        joins=[("tx", "from_address", "a", "address")],
    )
    subs = enumerate_subqueries(q, 3)
    assert len(subs) == 3  # both singles plus the join


def test_enumeration_keeps_applicable_filters():
    subs = {s.label(): s for s in enumerate_subqueries(q1_spj(), 2)}
    single_tx = subs["tx"]
    assert [f.column for f in single_tx.filters] == ["nonce"]
    pair = subs["tk⨝tk_tx"]
    assert {f.alias for f in pair.filters} == {"tk", "tk_tx"}
    assert len(pair.joins) == 1


def test_enumeration_matches_brute_force_random_graphs():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randrange(2, 7)
        aliases = [f"t{i}" for i in range(n)]
        tables = {a: "blocks" for a in aliases}
        edges = []
        for i in range(1, n):  # random spanning tree keeps the graph connected
            j = rng.randrange(i)
            edges.append((aliases[i], "hash", aliases[j], "hash"))
        q = SPJQuery.build(tables=tables, joins=edges)
        for max_tables in (1, 2, 3, n):
            got = {frozenset(a for a, _ in s.tables) for s in enumerate_subqueries(q, max_tables)}
            expected = set(
                brute_force_connected_subsets(aliases, [(e[0], e[2]) for e in edges], max_tables)
            )
            assert got == expected


def test_qerror_basics():
    assert qerror(100, 100) == 1.0
    assert qerror(0, 0) == 1.0
    assert qerror(50, 287) == pytest.approx(5.74)
    assert qerror(0.5, 0) == 1.0  # both clamp up to 1


def test_qerror_symmetry_and_lower_bound():
    rng = random.Random(17)
    for _ in range(1000):
        e = rng.uniform(0, 10**6)
        a = rng.randrange(0, 10**6)
        assert qerror(e, a) == qerror(a, e)
        assert qerror(e, a) >= 1.0


def test_probe_columns_split_q1_by_role():
    cols = probe_columns([q1_spj()])
    assert ("transactions", "nonce") in cols.filtered
    assert ("addresses", "eth_balance") in cols.filtered
    assert ("tokens", "address") in cols.join_only
    assert len(cols.filtered) == 5 and len(cols.join_only) == 8
    assert not cols.filtered & cols.join_only


class ScriptedExecutor:
    def __init__(self, samples):
        self.samples = list(samples)
        self.cursor = 0

    def timed_execute(self, sql):
        value = self.samples[self.cursor % len(self.samples)]
        self.cursor += 1
        return value


def test_measure_latency_median():
    result = measure_latency(ScriptedExecutor([5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 11]), "Q", reps=11)
    assert result.median_ms == 6
    assert len(result.samples) == 11


def test_measure_latency_enforces_min_reps():
    with pytest.raises(ValueError, match="reps"):
        measure_latency(ScriptedExecutor([1] * 11), "Q", reps=5)


def test_measure_latency_deterministic_executor():
    r1 = measure_latency(ScriptedExecutor(range(1, 12)), "Q", reps=11)
    r2 = measure_latency(ScriptedExecutor(range(1, 12)), "Q", reps=11)
    assert r1.median_ms == r2.median_ms


def test_measure_latency_reports_failing_attempt():
    class Flaky:
        def __init__(self):
            self.n = 0

        def timed_execute(self, sql):
            self.n += 1
            if self.n == 4:
                raise RuntimeError("boom")
            return 1.0

    with pytest.raises(LatencyError, match="attempt 3"):
        measure_latency(Flaky(), "Q", reps=11)


def test_measure_latency_even_reps_lower_middle():
    result = measure_latency(ScriptedExecutor(range(1, 13)), "Q", reps=12)
    assert result.median_ms == 6  # lower-middle of 1..12


def _fixture_measurements():
    ms = []
    states = ["S1", "S2", "S3", "S4"]
    ce = {
        ("S1", "S1"): 1000.0, ("S2", "S1"): 2650.0, ("S3", "S1"): 2650.0, ("S4", "S1"): 2650.0,
        ("S1", "S2"): 1080.0, ("S2", "S2"): 1000.0, ("S3", "S2"): 1000.0, ("S4", "S2"): 1000.0,
        ("S1", "S3"): 1750.0, ("S2", "S3"): 1000.0, ("S3", "S3"): 1000.0, ("S4", "S3"): 1000.0,
        ("S1", "S4"): 15701.91, ("S2", "S4"): 6689.42, ("S3", "S4"): 6689.42, ("S4", "S4"): 6689.42,
    }
    for x in states:
        for y in states:
            ms.append(PlanMeasurement(plan_for=x, run_on=y, c_e=ce[(x, y)]))
    return ms


def test_regret_matrix_cells():
    matrix = regret_matrix(_fixture_measurements(), "ce")
    assert matrix.cell_text("S1", "S4") == "↓2.35×"
    assert matrix.cell_text("S2", "S1") == "↓2.65×"
    assert matrix.cell_text("S2", "S3") == "1.00×"
    assert matrix.cell_text("S1", "S1") == "-"
    assert matrix.ratio("S1", "S4") == pytest.approx(15701.91 / 6689.42)


def test_regret_matrix_speedup_direction():
    ms = [
        PlanMeasurement("S1", "S1", c_e=23.2),
        PlanMeasurement("S2", "S1", c_e=20.0),
        PlanMeasurement("S1", "S2", c_e=5.0),
        PlanMeasurement("S2", "S2", c_e=5.0),
    ]
    matrix = regret_matrix(ms, "ce")
    assert matrix.cell_text("S2", "S1") == "↑1.16×"
    assert matrix.cell_text("S1", "S2") == "1.00×"


def test_regret_matrix_missing_pair():
    ms = _fixture_measurements()[:-1]
    with pytest.raises(ValueError, match="missing measurement"):
        regret_matrix(ms, "ce")


def test_regret_matrix_requires_reps_for_latency():
    with pytest.raises(ValueError, match="reps"):
        PlanMeasurement("S1", "S1", c_r=12.5, reps=5)


@pytest.mark.parametrize("max_tables", [0, -1])
def test_enumeration_refuses_max_tables_below_one(max_tables):
    with pytest.raises(ValueError, match=f"^max_tables must be >= 1, got {max_tables}$"):
        enumerate_subqueries(q1_spj(), max_tables)


def test_drift_single_state_policies_coincide():
    # Each policy builds its own catalog on the first state: the two agree.
    ds = generate(SynthConfig(seed=20, n_blocks=30, mean_tx_per_block=10, address_pool=40, n_tokens=4))
    store = Store.from_dataset(ds)
    subqueries = enumerate_subqueries(q1_spj(), 2)
    columns = probe_columns(subqueries)
    series = {}
    for policy in ("initial", "refreshed"):
        catalogs = policy_catalogs((policy,), "W1", store, None, 100, columns)
        points = evaluate_state("W1", store, subqueries, catalogs)
        series[policy] = [(p.subquery, p.estimated, p.actual, p.qerror) for p in points]
    assert series["initial"] == series["refreshed"]


def test_drift_unchanged_store_series_constant():
    ds = generate(SynthConfig(seed=20, n_blocks=30, mean_tx_per_block=10, address_pool=40, n_tokens=4))
    store = Store.from_dataset(ds)
    q = SPJQuery.build(
        tables={"tk_tx": "token_transactions"},
        filters=[Filter("tk_tx", "value", "range", (10**9, 10**10))],
    )
    subqueries = enumerate_subqueries(q, 1)
    columns = probe_columns(subqueries)
    for policy in ("refreshed", "initial"):
        initial, points = None, []
        for label in ("W1", "W2", "W3"):
            catalogs = policy_catalogs((policy,), label, store, initial, 100, columns)
            initial = catalogs.get("initial")
            points += evaluate_state(label, store, subqueries, catalogs)
        assert len(points) == 3
        assert len({(p.estimated, p.actual, p.qerror) for p in points}) == 1


def _self_join(kind: str, first: int, second: int) -> SPJQuery:
    """Two aliases on one table, with equal filters when ``first == second``."""
    if kind == "addresses":
        return SPJQuery.build(
            tables={"tx": "transactions", "a1": "addresses", "a2": "addresses"},
            joins=[("tx", "from_address", "a1", "address"), ("tx", "to_address", "a2", "address")],
            filters=[
                Filter("a1", "eth_balance", "ge", 10 ** (16 + first)),
                Filter("a2", "eth_balance", "ge", 10 ** (16 + second)),
            ],
        )
    return SPJQuery.build(
        tables={"b1": "blocks", "b2": "blocks"},
        joins=[("b1", "hash", "b2", "hash")],
        filters=[
            Filter("b1", "number", "range", (0, 5 * first + 4)),
            Filter("b2", "number", "range", (0, 5 * second + 4)),
        ],
    )


def _per_policy_points(label, store, subqueries, catalogs) -> list[QErrorPoint]:
    """The probe as a plain loop: every policy estimates and counts every subquery."""
    points = []
    for policy, catalog in catalogs.items():
        for sub in subqueries:
            est = estimator.estimate(catalog, sub)
            actual = memstore.count(store, sub)
            points.append(QErrorPoint(label, sub.label(), est, actual, qerror(est, actual), policy))
    return points


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    granularity=st.integers(1, 6),
    expire=st.booleans(),
    prefix=st.integers(0, 20),
    query_seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=5),
    self_joins=st.lists(
        st.tuples(st.sampled_from(("addresses", "blocks")), st.integers(0, 5), st.integers(0, 5) | st.none()),
        max_size=3,
    ),
    repeat_first=st.booleans(),
    initial_first=st.booleans(),
)
def test_probe_counts_once_and_matches_the_per_policy_loop(
    seed, granularity, expire, prefix, query_seeds, self_joins, repeat_first, initial_first
):
    ds = generate(SynthConfig(seed=seed, n_blocks=30, mean_tx_per_block=6, address_pool=30, n_tokens=4))
    cfg = WorkloadConfig(init_blocks=15, granularity=granularity, expire=expire)
    store = Store()
    memstore.apply(store, gen_initial(ds, cfg))
    initial = estimator.refresh(store, label="W1")
    pairs, _ = gen_batches(ds, cfg)
    for pair in pairs[:prefix]:
        if pair.expire is not None:
            memstore.apply(store, pair.expire)
        memstore.apply(store, pair.upsert)

    # A second draw of None gives the same filter on both aliases.
    subqueries = [random_spj(random.Random(s)) for s in query_seeds]
    subqueries += [_self_join(kind, a, a if b is None else b) for kind, a, b in self_joins]
    if repeat_first:
        subqueries.append(subqueries[0])
    catalogs = {"initial": initial, "refreshed": estimator.refresh(store, label="Wn")}
    if not initial_first:
        catalogs = dict(reversed(catalogs.items()))

    with mock.patch.object(memstore, "count", wraps=memstore.count) as counted:
        points = evaluate_state("Wn", store, subqueries, catalogs)
    assert counted.call_count == len(set(subqueries))
    assert points == _per_policy_points("Wn", store, subqueries, catalogs)
    for point, sub in zip(points, subqueries * len(catalogs)):
        assert point.actual == memstore.count(store, sub) == nested_loop_count(store, sub), sub
