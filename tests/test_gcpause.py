"""The entry points pause the cyclic collector and give the caller's state back."""

import dataclasses
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainbench
from chainbench import reports, scenario, synth_chain, workload_gen
from chainbench.cli import main
from chainbench.gcpause import collector_paused
from chainbench.memstore import BatchRejected
from chainbench.replay_driver import Hook, MemstoreTarget, ReplayError, SqlStubTarget, replay
from chainbench.scenario import ExperimentManifest, run_scenario
from chainbench.sqlstub import SqlParseError
from chainbench.synth_chain import SynthConfig, generate
from chainbench.workload_gen import WorkloadConfig, write_workload

from util import edit_script

_SYNTH = {"seed": 32, "n_blocks": 80, "mean_tx_per_block": 6, "address_pool": 40, "n_tokens": 4}
_WORKLOAD = {"init_blocks": 40, "granularity": 20, "expire": True}
_MANIFEST = {
    "kind": "window-drift",
    "source": {"kind": "synth", "config": _SYNTH},
    "workload": _WORKLOAD,
    "queries": ["Q1"],
    "max_tables": 2,
}


@pytest.fixture(scope="module")
def dataset():
    return generate(SynthConfig(**_SYNTH))


@pytest.fixture()
def workload_dir(dataset, tmp_path):
    wdir = tmp_path / "workload"
    write_workload(dataset, WorkloadConfig(**_WORKLOAD), wdir)
    return wdir


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def prior(request):
    """Sets the collector state a test starts from, and puts the session's back."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _spy(monkeypatch, owner, name, seen):
    """Replace ``owner.name`` with a call that first records the collector state."""
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def _run_scenario(tmp_path, dataset, monkeypatch, seen):
    _spy(monkeypatch, reports, "write_jsonl", seen)
    run_scenario(ExperimentManifest.from_dict(_MANIFEST), tmp_path / "out")


def _replay(tmp_path, dataset, monkeypatch, seen):
    wdir = tmp_path / "workload"
    write_workload(dataset, WorkloadConfig(**_WORKLOAD), wdir)
    replay(MemstoreTarget(), wdir, hooks=[Hook(lambda i, target: seen.append(gc.isenabled()))])


def _write_workload(tmp_path, dataset, monkeypatch, seen):
    _spy(monkeypatch, workload_gen, "render_sql", seen)
    write_workload(dataset, WorkloadConfig(**_WORKLOAD), tmp_path / "workload")


def _generate(tmp_path, dataset, monkeypatch, seen):
    _spy(monkeypatch, synth_chain, "_poisson", seen)
    generate(SynthConfig(**_SYNTH))


def _cli_main(tmp_path, dataset, monkeypatch, seen):
    # The run record is written after run_scenario has returned inside main,
    # so the spy sees main's own pause outlast the nested one.
    _spy(monkeypatch, reports, "write_run_record", seen)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(_MANIFEST))
    assert main(["scenario", "--manifest", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "entry",
    [_run_scenario, _replay, _write_workload, _generate, _cli_main],
    ids=["run_scenario", "replay", "write_workload", "generate", "cli.main"],
)
def test_an_entry_point_pauses_the_collector_and_restores_it(entry, prior, tmp_path, dataset, monkeypatch):
    seen = []
    entry(tmp_path, dataset, monkeypatch, seen)
    assert seen and not any(seen)
    assert gc.isenabled() is prior


def test_run_scenario_restores_the_collector_after_batch_rejected(prior, tmp_path, monkeypatch):
    real = scenario.gen_initial

    def duplicated_load(ds, cfg):
        load = real(ds, cfg)
        return dataclasses.replace(load, ops=load.ops + load.ops[:1])

    monkeypatch.setattr(scenario, "gen_initial", duplicated_load)
    with pytest.raises(BatchRejected):
        run_scenario(ExperimentManifest.from_dict(_MANIFEST), tmp_path / "out")
    assert gc.isenabled() is prior


@pytest.mark.parametrize("target", [MemstoreTarget, SqlStubTarget])
def test_replay_restores_the_collector_after_a_parse_error(target, prior, workload_dir):
    edit_script(workload_dir, "upserts-000001.sql", lambda text: text + "INSERT INTO Nowhere (x) VALUES (1);\n")
    with pytest.raises(ReplayError, match="unknown table") as failed:
        replay(target(), workload_dir)
    assert isinstance(failed.value.__cause__.__cause__, SqlParseError)
    assert gc.isenabled() is prior


def test_replay_restores_the_collector_after_a_hook_fails(prior, workload_dir):
    def explode(index, target):
        raise RuntimeError("probe failed")

    with pytest.raises(ReplayError, match="hook failed after batch 0"):
        replay(MemstoreTarget(), workload_dir, hooks=[Hook(explode)])
    assert gc.isenabled() is prior


def test_cli_main_restores_the_collector_after_a_failure_and_a_usage_error(prior, workload_dir, capsys):
    edit_script(workload_dir, "load.sql", lambda _: "DROP TABLE Blocks;\n")
    assert main(["replay", "--workload", str(workload_dir)]) == 1
    assert "unsupported statement" in capsys.readouterr().err
    assert gc.isenabled() is prior
    with pytest.raises(SystemExit):
        main(["replay"])
    assert gc.isenabled() is prior


def test_a_paused_call_inside_another_keeps_the_collector_off_until_the_outer_returns(prior):
    seen = []

    @collector_paused
    def inner():
        seen.append(("inner", gc.isenabled()))

    @collector_paused
    def outer():
        inner()
        seen.append(("outer, after inner", gc.isenabled()))

    outer()
    assert seen == [("inner", False), ("outer, after inner", False)]
    assert gc.isenabled() is prior


_IMPORT_CHECK = """
import gc, importlib, pkgutil, sys
(gc.enable if sys.argv[1] == "on" else gc.disable)()
gc.set_threshold(1234, 56, 7)
import chainbench
for module in pkgutil.iter_modules(chainbench.__path__):
    importlib.import_module("chainbench." + module.name)
print(gc.isenabled(), gc.get_threshold())
"""


@pytest.mark.parametrize("state", ["on", "off"])
def test_importing_chainbench_leaves_the_collector_alone(state):
    env = {**os.environ, "PYTHONPATH": str(Path(chainbench.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHECK, state], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == f"{state == 'on'} (1234, 56, 7)"


# The pause is safe only while the harness makes almost no reference cycles:
# nothing frees them until the entry point returns. Each json.dump with an
# indent leaves one, the pure-Python encoder's nested closures (33 objects on
# CPython 3.11; the scenario writes timing.json that way). A cycle per row,
# statement or batch would pass this bound many times over.
_CYCLE_BOUND = 50


@pytest.mark.parametrize(
    "run",
    [
        lambda wdir: run_scenario(ExperimentManifest.from_dict(_MANIFEST), wdir.parent / "out"),
        lambda wdir: replay(MemstoreTarget(), wdir),
        lambda wdir: replay(SqlStubTarget(), wdir),
    ],
    ids=["run_scenario", "replay-memstore", "replay-sqlstub"],
)
def test_a_paused_run_leaves_almost_no_cyclic_garbage(run, workload_dir):
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run(workload_dir)
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found < _CYCLE_BOUND
