import hashlib
import json
import logging
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import chainbench
from chainbench import estimator, memstore
from chainbench.chain_model import TABLE_NAMES, ChainDataset
from chainbench.cli import main
from chainbench.eval_harness import enumerate_subqueries, probe_columns
from chainbench.ingest_slice import load_export, read_export, write_export
from chainbench.query_assets import q1_spj
from chainbench.synth_chain import SynthConfig

from util import addr, read_scripts, tiny_dataset, with_balance


def _synth(tmp_path, name="export", blocks=40, extra=()):
    out = tmp_path / name
    rc = main(
        [
            "synth", "--seed", "5", "--blocks", str(blocks), "--tx-per-block", "5",
            "--pool", "40", "--tokens", "4", "--out", str(out), *extra,
        ]
    )
    assert rc == 0
    return out


def test_synth_writes_export_and_run_record(tmp_path):
    out = _synth(tmp_path)
    assert (out / "blocks.csv").exists()
    assert (out / "manifest.json").exists()
    record = json.loads((out / "run.json").read_text())
    assert record["subcommand"] == "synth"
    assert record["inputs"]["config"]["seed"] == 5


def test_synth_without_tuning_flags_builds_the_default_config(tmp_path, monkeypatch):
    built = []

    def generate(cfg):
        built.append(cfg)
        return ChainDataset((), (), (), (), (), (), ())

    monkeypatch.setattr(chainbench.cli, "generate", generate)
    assert main(["synth", "--out", str(tmp_path)]) == 0
    (cfg,) = built
    for name, value in vars(SynthConfig()).items():
        assert type(getattr(cfg, name)) is type(value) and getattr(cfg, name) == value, name
    assert json.loads((tmp_path / "run.json").read_text())["inputs"]["config"] == vars(SynthConfig())


def test_ingest_ok(tmp_path, capsys):
    out = _synth(tmp_path)
    assert main(["ingest", "--export", str(out), "--strict"]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_ingest_strict_refuses_a_transaction_whose_block_is_missing(tmp_path, capsys):
    out = _synth(tmp_path, blocks=30)
    ds = read_export(out)
    orphan = ds.transactions[0]._replace(hash=b"\xee" * 32, block_hash=b"\xdd" * 32)
    write_export(replace(ds, transactions=(*ds.transactions, orphan)), out)
    assert main(["ingest", "--export", str(out), "--strict"]) == 1
    printed = capsys.readouterr().out
    assert f"transactions: {len(ds.transactions) + 1} rows" in printed
    assert printed.endswith(f"transactions: block_hash dangling (0x{'ee' * 32})\n")


@pytest.mark.parametrize("command", ("ingest", "slice"))
def test_an_export_with_no_blocks_is_refused(tmp_path, capsys, command):
    export = tmp_path / "empty"
    write_export(ChainDataset((), (), (), (), (), (), ()), export)
    bounds = ["--lo", "0", "--hi", "5", "--out", str(tmp_path / "sliced")] if command == "slice" else []
    assert main([command, "--export", str(export), *bounds]) == 1
    assert capsys.readouterr().err == "error: export has no blocks\n"


def test_ingest_lists_every_schema_table(tmp_path, capsys):
    out = _synth(tmp_path)
    assert main(["ingest", "--export", str(out)]) == 0
    listed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines() if line.endswith(" rows")]
    assert listed == list(TABLE_NAMES)


def test_slice_subcommand(tmp_path):
    out = _synth(tmp_path)
    sliced = tmp_path / "sliced"
    assert main(["slice", "--export", str(out), "--lo", "10", "--hi", "29", "--out", str(sliced)]) == 0
    manifest = json.loads((sliced / "manifest.json").read_text())
    assert manifest["block_range"] == [10, 29]


def test_gen_updates_file_layout(tmp_path):
    out = _synth(tmp_path)
    wl = tmp_path / "workload"
    rc = main(
        ["gen-updates", "--export", str(out), "--init", "20", "--granularity", "5", "--expire", "--schema", "--out", str(wl)]
    )
    assert rc == 0
    files = sorted(p.name for p in wl.iterdir())
    assert files == ["create.sql", "manifest.json", "run.json", "scripts.json", "workload.sql"]
    names = list(read_scripts(wl))
    assert names[0] == "load.sql"
    assert sum(name.startswith("upserts-") for name in names) == 4
    assert sum(name.startswith("expire-") for name in names) == 4


def test_gen_updates_moving_window_shape(tmp_path):
    # 2,000 blocks, initial 1,000, granularity 100 with expiration: ten
    # upsert scripts, ten expire scripts, one manifest.
    export = tmp_path / "big"
    assert main(["synth", "--seed", "2", "--blocks", "2000", "--tx-per-block", "1", "--pool", "30", "--tokens", "3", "--out", str(export)]) == 0
    wl = tmp_path / "wl"
    assert main(["gen-updates", "--export", str(export), "--init", "1000", "--granularity", "100", "--expire", "--out", str(wl)]) == 0
    names = list(read_scripts(wl))
    assert sum(name.startswith("upserts-") for name in names) == 10
    assert sum(name.startswith("expire-") for name in names) == 10
    manifest = json.loads((wl / "manifest.json").read_text())
    assert manifest["batch_count"] == 10
    assert manifest["initial"] == {"lo": 0, "hi": 999}


def test_replay_subcommand(tmp_path):
    out = _synth(tmp_path)
    wl = tmp_path / "workload"
    main(["gen-updates", "--export", str(out), "--init", "20", "--granularity", "10", "--out", str(wl)])
    assert main(["replay", "--workload", str(wl), "--target", "memstore"]) == 0
    report = json.loads((wl / "replay_report.json").read_text())
    assert [entry["index"] for entry in report["applied"]] == [0, 1, 2]


@pytest.mark.parametrize(
    "flags, mode, scale", [((), "max-speed", None), (("--realtime", "1e9"), "realtime", 1e9)], ids=["max-speed", "realtime"]
)
def test_replay_records_its_pacing_in_run_json(tmp_path, flags, mode, scale):
    out = _synth(tmp_path)
    wl = tmp_path / "workload"
    main(["gen-updates", "--export", str(out), "--init", "20", "--granularity", "10", "--out", str(wl)])
    assert main(["replay", "--workload", str(wl), *flags]) == 0
    inputs = json.loads((wl / "run.json").read_text())["inputs"]
    assert (inputs["mode"], inputs["scale"]) == (mode, scale)


@pytest.mark.parametrize("last_batch", [None, 1])
@pytest.mark.parametrize("target", ["memstore", "sqlstub"])
def test_replay_resume_refuses_in_process_targets(tmp_path, capsys, target, last_batch):
    out = _synth(tmp_path)
    wl = tmp_path / "workload"
    main(["gen-updates", "--export", str(out), "--init", "20", "--granularity", "5", "--expire", "--out", str(wl)])
    assert main(["replay", "--workload", str(wl), "--target", target]) == 0
    ckpt_path = wl / "replay.ckpt.json"
    if last_batch is not None:  # a replay halted after batch 1: its last record names it
        ckpt = json.loads(ckpt_path.read_text().splitlines()[-1])
        ckpt["last_batch"] = last_batch
        with open(ckpt_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(ckpt, sort_keys=True) + "\n")
    before = ckpt_path.read_bytes()
    (wl / "replay_report.json").unlink()
    capsys.readouterr()
    assert main(["replay", "--workload", str(wl), "--target", target, "--resume"]) == 1
    err = capsys.readouterr().err
    assert f"target {target}" in err and "keeps no state between processes" in err
    assert ckpt_path.read_bytes() == before
    assert not (wl / "replay_report.json").exists()


def test_replay_refuses_an_unwritable_report_path_before_replaying(tmp_path, capsys, monkeypatch):
    out = _synth(tmp_path)
    wl = tmp_path / "wl"
    main(["gen-updates", "--export", str(out), "--init", "20", "--granularity", "10", "--out", str(wl)])
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["replay", "--workload", "wl", "--report", "nodir/r.json"]) == 1
    assert "nodir/r.json" in capsys.readouterr().err
    assert not (wl / "replay.ckpt.json").exists()
    assert not (tmp_path / "nodir").exists()


def test_a_failed_replay_leaves_no_report_file(tmp_path, capsys):
    out = _synth(tmp_path)
    wl = tmp_path / "wl"
    main(["gen-updates", "--export", str(out), "--init", "20", "--granularity", "10", "--out", str(wl)])
    (wl / "scripts.json").unlink()
    report = tmp_path / "r.json"
    assert main(["replay", "--workload", str(wl), "--report", str(report)]) == 1
    assert "gen-updates" in capsys.readouterr().err
    assert not report.exists()


def test_run_queries_counts_q1(tmp_path, capsys):
    out = _synth(tmp_path)
    assert main(["run-queries", "--export", str(out), "--ids", "Q1,Q2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    q1_line = next(line for line in lines if line.startswith("Q1\t"))
    assert q1_line.split("\t")[1].isdigit()
    q2_line = next(line for line in lines if line.startswith("Q2\t"))
    assert "SQL executor" in q2_line


def test_run_queries_median_mode(tmp_path, capsys):
    out = _synth(tmp_path)
    assert main(["run-queries", "--export", str(out), "--ids", "Q1", "--median"]) == 0
    q1_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert q1_line.startswith("Q1\t")
    assert "median" in q1_line and "11 reps" in q1_line


def test_probe_card_point_count(tmp_path):
    out = _synth(tmp_path)
    probe = tmp_path / "probe"
    rc = main(
        ["probe-card", "--export", str(out), "--query", "Q1", "--max-tables", "3", "--policy", "initial", "--out", str(probe)]
    )
    assert rc == 0
    lines = (probe / "qerror_points.jsonl").read_text().strip().splitlines()
    assert len(lines) == 13
    point = json.loads(lines[0])
    assert point["policy"] == "initial"


def test_probe_card_refuses_max_tables_below_one_before_reading_the_export(tmp_path, capsys):
    probe = tmp_path / "probe"
    assert main(["probe-card", "--export", str(tmp_path / "none"), "--max-tables", "0", "--out", str(probe)]) == 1
    assert capsys.readouterr().err == "error: max_tables must be >= 1, got 0\n"
    assert not probe.exists()


@pytest.mark.parametrize(
    "policy, digest",
    [
        ("initial", "8e6854d52ac690640d77be2e372a104404e5f66361d0546bd17358b6217e13a4"),
        ("refreshed", "55692545eef64f532067c1a5e784087cffb1a24b6cb1c215286951251b24d2af"),
    ],
)
def test_probe_card_points_are_pinned(tmp_path, policy, digest):
    # sha256 recorded before the probe loops were merged into evaluate_state.
    out = tmp_path / "export"
    assert main(["synth", "--seed", "5", "--blocks", "80", "--tx-per-block", "8", "--pool", "40", "--tokens", "4", "--out", str(out)]) == 0
    probe = tmp_path / "probe"
    rc = main(["probe-card", "--export", str(out), "--lo", "10", "--hi", "69", "--policy", policy, "--out", str(probe)])
    assert rc == 0
    points = probe / "qerror_points.jsonl"
    assert hashlib.sha256(points.read_bytes()).hexdigest() == digest


def test_probe_card_catalog_round_trip(tmp_path):
    out = tmp_path / "export"
    assert main(["synth", "--seed", "5", "--blocks", "80", "--tx-per-block", "8", "--pool", "40", "--tokens", "4", "--out", str(out)]) == 0
    probe = ["probe-card", "--export", str(out), "--lo", "10", "--hi", "69"]
    saved = tmp_path / "catalog.json"
    assert main([*probe, "--save-catalog", str(saved), "--out", str(tmp_path / "built")]) == 0
    assert main([*probe, "--catalog", str(saved), "--out", str(tmp_path / "loaded")]) == 0
    built = (tmp_path / "built" / "qerror_points.jsonl").read_bytes()
    assert hashlib.sha256(built).hexdigest() == "55692545eef64f532067c1a5e784087cffb1a24b6cb1c215286951251b24d2af"
    assert (tmp_path / "loaded" / "qerror_points.jsonl").read_bytes() == built
    data = json.loads(saved.read_text())
    assert len(data["columns"]) == 5 and len(data["distinct"]) == 8

    # The older form, full statistics for every column the probe reads, still loads.
    store = memstore.Store.from_dataset(load_export(out, 10, 69))
    columns = probe_columns(enumerate_subqueries(q1_spj(), 3))
    full = tmp_path / "full.json"
    estimator.save_catalog(estimator.refresh(store, label="S", columns=columns.filtered | columns.join_only), full)
    assert "distinct" not in json.loads(full.read_text())
    assert main([*probe, "--catalog", str(full), "--out", str(tmp_path / "full")]) == 0
    assert (tmp_path / "full" / "qerror_points.jsonl").read_bytes() == built


def test_probe_card_names_a_column_missing_from_the_catalog_unquoted(tmp_path, capsys):
    out = _synth(tmp_path)
    probe = ["probe-card", "--export", str(out), "--query", "Q1"]
    saved = tmp_path / "catalog.json"
    assert main([*probe, "--max-tables", "1", "--save-catalog", str(saved), "--out", str(tmp_path / "one")]) == 0
    capsys.readouterr()
    assert main([*probe, "--max-tables", "3", "--catalog", str(saved), "--out", str(tmp_path / "three")]) == 1
    assert capsys.readouterr().err == "error: no statistics for transactions.to_address\n"


def test_plan_matrix_reproduces_recorded_cells(tmp_path, capsys):
    from importlib import resources

    sample = resources.files("chainbench").joinpath("assets/plan_measurements_sample.jsonl")
    expected = {
        "ce": [
            "plan,S1,S2,S3,S4",
            "P(S1),-,↓1.08×,↓1.75×,↓2.35×",
            "P(S2),↓2.65×,-,1.00×,1.00×",
            "P(S3),↓2.65×,1.00×,-,1.00×",
            "P(S4),↓2.65×,1.00×,1.00×,-",
        ],
        "cr": [
            "plan,S1,S2,S3,S4",
            "P(S1),-,↓2.16×,↓1.42×,↓1.81×",
            "P(S2),↑1.16×,-,↓1.03×,1.00×",
            "P(S3),↑1.16×,↓1.07×,-,1.00×",
            "P(S4),↑1.16×,↓1.07×,↓1.03×,-",
        ],
    }
    for metric, rows in expected.items():
        out = tmp_path / f"matrix_{metric}.csv"
        assert main(["plan-matrix", "--measurements", str(sample), "--metric", metric, "--out", str(out)]) == 0
        assert out.read_text().strip().splitlines() == rows


def test_scenario_subcommand(tmp_path):
    manifest = {
        "kind": "window-drift",
        "source": {"kind": "synth", "config": {"seed": 4, "n_blocks": 60, "mean_tx_per_block": 5, "address_pool": 40, "n_tokens": 4}},
        "workload": {"init_blocks": 30, "granularity": 10, "expire": True},
        "policies": ["refreshed", "initial"],
        "queries": ["Q1"],
        "max_tables": 2,
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / "run1"
    assert main(["scenario", "--manifest", str(mpath), "--out", str(out)]) == 0
    points = (out / "report" / "qerror_points.jsonl").read_text().strip().splitlines()
    # 4 states x 2 policies x 9 subqueries (5 singles + 4 pairs)
    assert len(points) == 4 * 2 * 9
    assert (out / "report" / "qerror_series.csv").exists()
    assert (out / "logs" / "timing.json").exists()
    assert (out / "run.json").exists()


def test_unknown_subcommand_usage_exit():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_runtime_failure_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert main(["ingest", "--export", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


def _inconsistent_export(tmp_path):
    """An export whose balance snapshot leaves an address negative mid-way."""
    export = tmp_path / "inconsistent"
    write_export(with_balance(tiny_dataset(), addr(1), 10), export)
    return export


def _gen_updates(export, out, *flags):
    return [*flags, "gen-updates", "--export", str(export), "--init", "1", "--out", str(out)]


def test_log_level_error_silences_the_ledgers_negative_balance_warning(tmp_path, capsys, caplog):
    export = _inconsistent_export(tmp_path)
    assert main(_gen_updates(export, tmp_path / "default")) == 0
    assert any(record.getMessage().startswith("ledger: balance of ") for record in caplog.records)
    caplog.clear()
    capsys.readouterr()
    logger = logging.getLogger("chainbench")
    before = (logger.level, list(logger.handlers))
    assert main(_gen_updates(export, tmp_path / "quiet", "--log-level", "ERROR")) == 0
    assert caplog.records == []
    assert capsys.readouterr().err == ""
    assert main(_gen_updates(export, tmp_path / "loud", "--log-level", "warning")) == 0
    assert "ledger: balance of 0x" + addr(1).hex() + " negative at block" in capsys.readouterr().err
    assert (logger.level, list(logger.handlers)) == before


def test_without_log_level_stderr_is_what_warning_level_writes(tmp_path):
    # In a fresh interpreter the warnings reach stderr through logging's
    # last-resort handler; --log-level WARNING writes the same bytes.
    export = _inconsistent_export(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(chainbench.__file__).parents[1])}
    err = []
    for name, flags in (("default", ()), ("warning", ("--log-level", "WARNING"))):
        argv = [sys.executable, "-m", "chainbench.cli", *_gen_updates(export, tmp_path / name, *flags)]
        err.append(subprocess.run(argv, env=env, capture_output=True, check=True).stderr)
    assert b"ledger: balance of " in err[0]
    assert err[0] == err[1]


def test_an_unknown_log_level_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--log-level", "LOUD", "ingest", "--export", str(tmp_path)])
    assert exited.value.code == 2
    assert "--log-level" in capsys.readouterr().err
