"""The three benchmark workloads: one pass of each, and the reference its
outputs are checked against.

Every workload is a closed loop with one caller: each batch starts when the
previous one has finished. A pass builds its inputs from the seed alone, runs
the program end to end, and returns its timings plus what the correctness
gate needs. Verification happens outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench_metrics import Calibrator
from bench_trace import Patches, Tracer, install

from chainbench import memstore, replay_driver, reports, scenario, synth_chain, workload_gen
from chainbench.chain_model import SCHEMA
from chainbench.synth_chain import SynthConfig
from chainbench.workload_gen import WorkloadConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict  # SynthConfig fields other than the seed
    init_blocks: int
    granularity: int
    target: str | None  # replay target kind; None runs the drift scenario
    # Spans that must fire at least once in a traced pass of this workload.
    exercises: tuple[str, ...]

    @property
    def batches(self) -> int:
        return math.ceil((self.synth["n_blocks"] - self.init_blocks) / self.granularity)

    @property
    def units(self) -> int:
        """Units one pass applies: batches (load included) on the scenario,
        SQL files (load, then expire and upsert per batch) on replay."""
        return 1 + self.batches if self.target is None else 1 + 2 * self.batches

    def synth_config(self, seed: int) -> SynthConfig:
        return SynthConfig(seed=seed, **self.synth)

    def workload_config(self) -> WorkloadConfig:
        return WorkloadConfig(self.init_blocks, self.granularity, expire=True)


_SETUP_SPANS = (
    "synth_chain.generate",
    "workload_gen.gen_initial",
    "workload_gen.gen_batches",
    "ingest_slice.BalanceLedger.touched_in_range",
)
_REPLAY_SPANS = _SETUP_SPANS + (
    "workload_gen.render_sql",
    "workload_gen.write_workload",
    "sqlstub.parse_script",
    "replay_driver.replay",
    "replay_driver.apply_script",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="drift-window",
            why="the paper's window-drift experiment: reads dominate (exact count, statistics refresh) beside few large structured writes; no SQL text, so stmts_per_s is mutations over total_s",
            synth={
                "n_blocks": 1000,
                "mean_tx_per_block": 20,
                "address_pool": 800,
                "token_value_drift": 0.00125,
                "token_value_mu0": 7.0,
            },
            init_blocks=500,
            granularity=50,
            target=None,
            exercises=_SETUP_SPANS
            + (
                "scenario.run_scenario",
                "memstore.apply_ops",
                "memstore.count",
                "estimator.refresh",
                "estimator.estimate",
                "eval_harness.evaluate_state",
                "reports.write_jsonl",
            ),
        ),
        Workload(
            name="replay-fine",
            why="writes only, through the SQL-text route onto the structured store, in 300 one-block batches: parse and per-file overhead dominate",
            synth={"n_blocks": 600, "mean_tx_per_block": 10},
            init_blocks=300,
            granularity=1,
            target="memstore",
            exercises=_REPLAY_SPANS + ("sqlstub.to_mutations", "memstore.apply_ops"),
        ),
        Workload(
            name="stub-expire",
            why="the only workload on the SQL stub engine, whose keyed DELETE and NULL-out scan the whole table",
            synth={"n_blocks": 200, "mean_tx_per_block": 15},
            init_blocks=100,
            granularity=5,
            target="sqlstub",
            exercises=_REPLAY_SPANS + ("sqlstub.SqlStubEngine.execute",),
        ),
    )
}


@dataclass
class PassResult:
    total_s: float = 0.0  # wall time of the pass, verification excluded
    setup_s: float = 0.0  # synthesis, batch generation and rendering, initial load
    update_s: float = 0.0  # time stmts_per_s divides by: replay on replay workloads, the whole pass on the scenario
    statements: int = 0  # mutations applied; one SQL statement each in the rendered form
    batch_ms: list[float] = field(default_factory=list)  # per batch: expire plus upsert
    probe_ms: list[float] = field(default_factory=list)  # per state: refresh, estimate, count
    state_rows: int = 0  # rows in the final state
    output: str = ""  # sha256 of the pass's checked output
    restored: bool = True  # every patched attribute was put back
    scale: float = 1.0  # host-speed factor for this pass's times (bench_metrics.Calibrator)


def _drift_manifest(w: Workload, seed: int) -> scenario.ExperimentManifest:
    return scenario.ExperimentManifest.from_dict(
        {
            "kind": "window-drift",
            "source": {"kind": "synth", "config": {"seed": seed, **w.synth}},
            "workload": {"init_blocks": w.init_blocks, "granularity": w.granularity, "expire": True},
            "policies": ["refreshed", "initial"],
            "queries": ["Q1"],
            "max_tables": 3,
        }
    )


def _drift_pass(w: Workload, seed: int, out: Path, patches: Patches, cal: Calibrator) -> PassResult:
    # State boundaries come from timestamps taken around memstore.apply (the
    # load, then expire and upsert per batch) and at the report write that
    # follows the last probe: a few dozen calls per pass. The mutation count
    # for stmts_per_s comes from the same wrapper.
    applies: list[tuple[float, float]] = []
    stores: list[memstore.Store] = []
    report_at: list[float] = []
    counts: list[int] = []

    def clock_apply(fn):
        def apply(store, batch):
            start = time.perf_counter()
            result = fn(store, batch)
            applies.append((start, time.perf_counter()))
            stores.append(store)
            counts.append(len(batch.ops))
            return result

        return apply

    def clock_report(fn):
        def write_jsonl(records, path):
            if not report_at:
                report_at.append(time.perf_counter())
            return fn(records, path)

        return write_jsonl

    def calibrate_probe(fn):
        # Calibration points go before probes, outside the batch timings.
        def evaluate_state(*args, **kwargs):
            cal.point()
            return fn(*args, **kwargs)

        return evaluate_state

    manifest = _drift_manifest(w, seed)
    patches.replace(memstore, "apply", clock_apply)
    patches.replace(reports, "write_jsonl", clock_report)
    patches.replace(scenario, "evaluate_state", calibrate_probe)
    cal.point(force=True)
    start = time.perf_counter()
    result = scenario.run_scenario(manifest, out)
    end = time.perf_counter()
    cal.point(force=True)

    # Applies come as load, then (expire, upsert) per batch; a probe runs
    # after the load and after each upsert, and the report follows the last.
    load_end = applies[0][1]
    group_ends = [load_end] + [b for _, b in applies[2::2]]
    group_starts = [a for a, _ in applies[1::2]] + report_at
    # stmts_per_s divides by the whole pass, not by the applies alone: most of
    # an apply's time is garbage collection of the whole heap, and which
    # collections land inside an apply differs from seed to seed, so the
    # applies' own time (about 0.3 s a pass) spread past any usable bound.
    total_s = end - start - cal.within(start, end)
    res = PassResult(total_s=total_s, setup_s=load_end - start - cal.within(start, load_end), update_s=total_s)
    res.statements = sum(counts)
    res.batch_ms = [t["ms"] for t in result.timings if t["batch"] > 0]
    res.probe_ms = [(b - a - cal.within(a, b)) * 1000.0 for a, b in zip(group_ends, group_starts)]
    res.state_rows = sum(stores[-1].row_count(t) for t in SCHEMA)
    res.output = hashlib.sha256((out / "report" / "qerror_points.jsonl").read_bytes()).hexdigest()
    return res


@dataclass(frozen=True)
class Reference:
    output: str | None  # digest every pass must reproduce; None when none is recorded
    statements: int | None = None  # statements one replay pass applies


RECORDED = Path(__file__).with_name("digests.json")


def recorded_digests() -> dict[str, dict[str, str]]:
    """sha256 of report/qerror_points.jsonl per workload and seed."""
    return json.loads(RECORDED.read_text(encoding="utf-8")) if RECORDED.exists() else {}


def multiset_digest(multisets: dict[str, dict[tuple, int]]) -> str:
    """Order-independent digest of table multisets."""
    h = hashlib.sha256()
    for table in sorted(multisets):
        h.update(table.encode())
        for row, n in sorted((repr(r), n) for r, n in multisets[table].items()):
            h.update(f"{row}\x00{n}\n".encode())
    return h.hexdigest()


def reference(w: Workload, seed: int) -> Reference:
    """What every pass of ``w`` on ``seed`` must reproduce.

    For the scenario, the recorded digest of its Q-error points. For replay,
    the structured apply of gen_initial plus gen_batches, which the SQL-text
    route must reach table for table.
    """
    if w.target is None:
        return Reference(recorded_digests().get(w.name, {}).get(str(seed)))
    ds = synth_chain.generate(w.synth_config(seed))
    cfg = w.workload_config()
    load = workload_gen.gen_initial(ds, cfg)
    pairs, _ = workload_gen.gen_batches(ds, cfg)
    store = memstore.Store()
    memstore.apply(store, load)
    statements = len(load.ops)
    for pair in pairs:
        memstore.apply(store, pair.expire)
        memstore.apply(store, pair.upsert)
        statements += len(pair.expire.ops) + len(pair.upsert.ops)
    return Reference(multiset_digest(store.table_multisets()), statements)


def _replay_pass(w: Workload, seed: int, out: Path, patches: Patches, cal: Calibrator) -> PassResult:
    marks: dict[int, float] = {}

    def calibrate_render(fn):
        # Calibration points while the SQL files are rendered and written.
        def render_sql(*args, **kwargs):
            cal.point()
            return fn(*args, **kwargs)

        return render_sql

    def after_batch(index, _target):
        # Hooks run between batches, outside the replay report's batch timings.
        marks.setdefault(index, time.perf_counter())
        cal.point()

    patches.replace(workload_gen, "render_sql", calibrate_render)
    cal.point(force=True)
    start = time.perf_counter()
    ds = synth_chain.generate(w.synth_config(seed))
    cal.point()
    workload_gen.write_workload(ds, w.workload_config(), out)
    target = replay_driver.MemstoreTarget() if w.target == "memstore" else replay_driver.SqlStubTarget()
    cal.point()
    replay_start = time.perf_counter()
    report = replay_driver.replay(target, out, hooks=[replay_driver.Hook(after_batch)])
    end = time.perf_counter()
    cal.point(force=True)

    res = PassResult(
        total_s=end - start - cal.within(start, end),
        setup_s=marks[0] - start - cal.within(start, marks[0]),
        update_s=end - replay_start - cal.within(replay_start, end),
    )
    per_batch: dict[int, float] = {}
    for entry in report.applied:
        if entry["index"] > 0:
            per_batch[entry["index"]] = per_batch.get(entry["index"], 0.0) + entry["ms"]
    res.batch_ms = [per_batch[i] for i in sorted(per_batch)]
    multisets = target.store.table_multisets() if w.target == "memstore" else target.engine.table_multisets()
    res.state_rows = sum(sum(rows.values()) for rows in multisets.values())
    res.output = multiset_digest(multisets)
    return res


def run_pass(w: Workload, seed: int, out: Path, tracer: Tracer | None = None) -> PassResult:
    """One end-to-end pass into the empty directory ``out``; traced when a
    tracer is given. Every pass calibrates the host speed as it goes; its
    times and spans exclude the calibration."""
    patches = Patches()
    cal = Calibrator(on_point=tracer.exclude if tracer is not None else None)
    try:
        if tracer is not None:
            install(tracer, patches)
        if w.target is None:
            res = _drift_pass(w, seed, out, patches, cal)
        else:
            res = _replay_pass(w, seed, out, patches, cal)
    finally:
        restored = patches.restore()
    res.restored = restored
    res.scale = cal.scale()
    return res
