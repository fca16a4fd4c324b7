"""Command-line surface.

Subcommands map one-to-one onto the library: ``synth`` (generate an export),
``ingest`` (parse + validate), ``slice`` (extract a window), ``gen-updates``
(initial load + update batches), ``replay`` (apply a workload to a target),
``run-queries`` (execute the structured workload on a state), ``probe-card``
(estimate-vs-actual points for one state), ``plan-matrix`` (regret matrix
from recorded measurements), and ``scenario`` (full manifest-driven run).

``--log-level LEVEL``, given before the subcommand, sets the level of the
library's loggers (``chainbench.ingest_slice``, ``chainbench.workload_gen``)
for the run and writes their records to stderr, one message per line. Without
it, logging is left as the interpreter has it.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from . import estimator, memstore, reports
from .chain_model import TABLE_NAMES, validate_dataset
from .eval_harness import (
    enumerate_subqueries,
    evaluate_state,
    measure_latency,
    probe_columns,
    regret_matrix,
)
from .gcpause import collector_paused
from .ingest_slice import ExportError, load_export, read_export, write_export
from .query_assets import load_workload, schema_sql
from .replay_driver import ReplayError, connect_target, manifest_hash, replay
from .scenario import POLICIES, load_manifest, run_scenario
from .synth_chain import SynthConfig, generate
from .workload_gen import WorkloadConfig, write_workload


# Each synth flag and the SynthConfig field it sets; its default and type
# are the field's default and that default's type.
_SYNTH_FLAGS = (
    ("--seed", "seed"),
    ("--blocks", "n_blocks"),
    ("--start-number", "start_number"),
    ("--start-timestamp", "start_timestamp"),
    ("--block-interval", "block_interval"),
    ("--tx-per-block", "mean_tx_per_block"),
    ("--pool", "address_pool"),
    ("--zipf-s", "address_zipf_s"),
    ("--tokens", "n_tokens"),
    ("--token-zipf-s", "token_zipf_s"),
    ("--token-tx-prob", "token_tx_prob"),
    ("--contract-fraction", "contract_fraction"),
    ("--withdrawal-rate", "withdrawal_rate"),
    ("--initial-balance", "initial_balance"),
    ("--token-value-drift", "token_value_drift"),
    ("--token-value-mu0", "token_value_mu0"),
)


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = SynthConfig(**{name: getattr(args, name) for _, name in _SYNTH_FLAGS})
    ds = generate(cfg)
    manifest = write_export(ds, args.out)
    reports.write_run_record(args.out, "synth", {"config": cfg.__dict__})
    print(f"wrote export to {args.out}: {manifest['tables']}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    ds = read_export(args.export)  # every row as read: a slice would drop orphans
    if not ds.blocks:
        raise ExportError("export has no blocks")
    report = validate_dataset(ds)
    for table in TABLE_NAMES:
        print(f"{table}: {len(ds.table(table))} rows")
    print(report)
    if not report.ok and args.strict:
        return 1
    return 0


def _cmd_slice(args: argparse.Namespace) -> int:
    ds = load_export(args.export, args.lo, args.hi)
    write_export(ds, args.out)
    reports.write_run_record(args.out, "slice", {"export": str(args.export), "lo": args.lo, "hi": args.hi})
    print(f"slice [{args.lo}, {args.hi}]: {len(ds.blocks)} blocks, {len(ds.transactions)} transactions")
    return 0


def _cmd_gen_updates(args: argparse.Namespace) -> int:
    ds = load_export(args.export)
    cfg = WorkloadConfig(init_blocks=args.init, granularity=args.granularity, expire=args.expire)
    manifest = write_workload(ds, cfg, args.out)
    if args.schema:
        (Path(args.out) / "create.sql").write_text(schema_sql(), encoding="utf-8")
    reports.write_run_record(
        args.out,
        "gen-updates",
        {"export": str(args.export), "init_blocks": args.init, "granularity": args.granularity, "expire": args.expire},
    )
    n = len(manifest.batches)
    expire_note = f", {n} expire scripts" if cfg.expire else ""
    print(f"wrote workload.sql (the load, {n} upsert scripts{expire_note}) and its index scripts.json to {args.out}")
    return 0


def _check_writable(path: Path) -> None:
    """Refuse a report path that cannot be written before the replay runs; a
    file made only to check it is removed again. The default report needs no
    check: it lies in the workload directory, where ``replay`` creates its
    checkpoint log before it applies any script."""
    fresh = not path.exists()
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise ReplayError(f"cannot write the report {path}: {exc.strerror}") from None
    if fresh:
        path.unlink()


def _cmd_replay(args: argparse.Namespace) -> int:
    target = connect_target(args.target)
    if args.resume and not target.durable:
        raise ReplayError(
            f"cannot resume on target {target.kind}: it keeps no state between processes, "
            "so this process would start from an empty store; replay from the start instead"
        )
    if args.report:
        _check_writable(Path(args.report))
    report = replay(target, args.workload, realtime=args.realtime, from_checkpoint=args.resume)
    out_path = Path(args.report) if args.report else Path(args.workload) / "replay_report.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    reports.write_run_record(
        out_path.parent,
        "replay",
        {
            "workload_manifest_sha256": manifest_hash(args.workload),
            "target": target.kind,
            "mode": "max-speed" if args.realtime is None else "realtime",
            "scale": args.realtime,
            "resume": args.resume,
        },
    )
    print(f"applied {len(report.applied)} scripts against {target.kind}; report at {out_path}")
    return 0


class _CountExecutor:
    """Adapts structured counting to the SQL-executor timing protocol."""

    def __init__(self, store, spj_by_text):
        self.store = store
        self.spj_by_text = spj_by_text

    def execute(self, query_text: str):
        return memstore.count(self.store, self.spj_by_text[query_text])


def _cmd_run_queries(args: argparse.Namespace) -> int:
    assets = load_workload(args.queries)
    wanted = set(args.ids.split(",")) if args.ids else None
    unknown = sorted((wanted or set()) - {asset.id for asset in assets})
    if unknown:
        raise ValueError(f"unknown query id {', '.join(map(repr, unknown))}")
    store = memstore.Store.from_dataset(load_export(args.export))
    rows = []
    for asset in assets:
        if wanted and asset.id not in wanted:
            continue
        if asset.spj is None:
            status = "external body" if asset.external else "needs a SQL executor"
            rows.append((asset.id, "-", status))
            continue
        if args.median:
            executor = _CountExecutor(store, {asset.id: asset.spj})
            latency = measure_latency(executor, asset.id, reps=11)
            result = memstore.count(store, asset.spj)
            rows.append((asset.id, str(result), f"median {latency.median_ms:.1f} ms over 11 reps"))
        else:
            start = time.perf_counter()
            result = memstore.count(store, asset.spj)
            elapsed = (time.perf_counter() - start) * 1000.0
            rows.append((asset.id, str(result), f"{elapsed:.1f} ms"))
    for qid, result, note in rows:
        print(f"{qid}\t{result}\t{note}")
    return 0


def _cmd_probe_card(args: argparse.Namespace) -> int:
    assets = {a.id: a for a in load_workload()}
    asset = assets.get(args.query)
    if asset is None or asset.spj is None:
        raise ValueError(f"query {args.query!r} has no structured form to probe")
    subqueries = enumerate_subqueries(asset.spj, args.max_tables)
    store = memstore.Store.from_dataset(load_export(args.export, args.lo, args.hi))
    if args.catalog:
        catalog = estimator.load_catalog(args.catalog)
    else:
        columns = probe_columns(subqueries)
        catalog = estimator.refresh(store, label=args.label, columns=columns.filtered, distinct=columns.join_only)
    if args.save_catalog:
        estimator.save_catalog(catalog, args.save_catalog)
    points = evaluate_state(args.label, store, subqueries, {args.policy: catalog})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reports.write_jsonl(points, out / "qerror_points.jsonl")
    reports.write_series_csv(points, out / "qerror_series.csv")
    reports.write_run_record(
        out,
        "probe-card",
        {
            "export": str(args.export),
            "query": args.query,
            "max_tables": args.max_tables,
            "policy": args.policy,
            "label": args.label,
            "catalog": bool(args.catalog),
        },
    )
    print(f"{len(points)} points -> {out / 'qerror_points.jsonl'}")
    return 0


def _cmd_plan_matrix(args: argparse.Namespace) -> int:
    measurements = reports.read_plan_measurements(args.measurements)
    matrix = regret_matrix(measurements, args.metric)
    reports.write_matrix_csv(matrix, args.out)
    reports.write_run_record(
        Path(args.out).parent,
        "plan-matrix",
        {"measurements": str(args.measurements), "metric": args.metric},
    )
    for row in matrix.rows():
        print(",".join(row))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    out_dir = args.out or manifest.output_dir
    if not out_dir:
        raise ValueError("no output directory: pass --out or set output_dir in the manifest")
    result = run_scenario(manifest, out_dir)
    reports.write_run_record(out_dir, "scenario", manifest.reproducible_inputs())
    print(f"{len(result.state_labels)} states, {len(result.points)} points -> {Path(out_dir) / 'report'}")
    return 0


_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chainbench", description=__doc__)
    parser.add_argument(
        "--log-level", type=str.upper, choices=_LOG_LEVELS, metavar="LEVEL",
        help=f"level of the library's log messages on stderr: one of {', '.join(_LOG_LEVELS)}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset export")
    defaults = SynthConfig()
    for flag, name in _SYNTH_FLAGS:
        default = getattr(defaults, name)
        p.add_argument(flag, dest=name, type=type(default), default=default)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse an export and validate integrity")
    p.add_argument("--export", required=True)
    p.add_argument("--strict", action="store_true", help="exit 1 on any violation")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("slice", help="extract a block window with closure")
    p.add_argument("--export", required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_slice)

    p = sub.add_parser("gen-updates", help="generate load + upsert/expire batches")
    p.add_argument("--export", required=True)
    p.add_argument("--init", type=int, required=True, help="blocks in the initial state")
    p.add_argument("--granularity", type=int, default=1, help="blocks per batch")
    p.add_argument("--expire", action="store_true", help="keep a constant-size moving window")
    p.add_argument("--schema", action="store_true", help="also write create.sql")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_updates)

    p = sub.add_parser("replay", help="apply a workload directory to a target")
    p.add_argument("--workload", required=True)
    p.add_argument("--target", choices=("memstore", "sqlstub"), default="memstore")
    p.add_argument("--realtime", type=float, metavar="SCALE", help="pace by timestamp gaps divided by SCALE")
    p.add_argument("--resume", action="store_true", help="resume from the checkpoint (durable targets only)")
    p.add_argument("--report", help="where to write the replay report JSON")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("run-queries", help="run the structured query workload on a state")
    p.add_argument("--export", required=True)
    p.add_argument("--queries", help="directory of user query files")
    p.add_argument("--ids", help="comma-separated query ids")
    p.add_argument("--median", action="store_true", help="report the median of 11 repetitions")
    p.set_defaults(func=_cmd_run_queries)

    p = sub.add_parser("probe-card", help="estimate-vs-actual cardinality points on one state")
    p.add_argument("--export", required=True)
    p.add_argument("--lo", type=int)
    p.add_argument("--hi", type=int)
    p.add_argument("--query", default="Q1")
    p.add_argument("--max-tables", type=int, default=3)
    p.add_argument("--policy", choices=POLICIES, default="refreshed")
    p.add_argument("--label", default="S1", help="state label for the emitted points")
    p.add_argument("--catalog", help="reuse a saved statistics catalog (stale-policy replay)")
    p.add_argument("--save-catalog", help="save the catalog used")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_probe_card)

    p = sub.add_parser("plan-matrix", help="regret matrix from recorded plan measurements")
    p.add_argument("--measurements", required=True, help="JSONL of plan/state measurements")
    p.add_argument("--metric", choices=("ce", "cr"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plan_matrix)

    p = sub.add_parser("scenario", help="run a full experiment manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="output directory (overrides the manifest)")
    p.set_defaults(func=_cmd_scenario)

    return parser


@contextmanager
def _logging_at(level: str | None) -> Iterator[None]:
    """The package logger at ``level``, with a stderr handler, for the
    duration; both are put back afterwards. None leaves logging alone."""
    if level is None:
        yield
        return
    logger = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    previous = logger.level
    logger.setLevel(level)
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous)


@collector_paused
def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _logging_at(args.log_level):
        try:
            return args.func(args)
        except Exception as exc:  # runtime failure -> exit 1 with a message
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
