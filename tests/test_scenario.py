import hashlib
import json
import weakref

import pytest

from chainbench import estimator, memstore, scenario
from chainbench.chain_model import ChainDataset
from chainbench.ingest_slice import ExportError, write_export
from chainbench.scenario import (
    ExperimentManifest,
    ManifestError,
    dataset_from_source,
    run_scenario,
)
from chainbench.synth_chain import SynthConfig, generate


def test_manifest_validation_errors():
    with pytest.raises(ManifestError, match="kind"):
        ExperimentManifest.from_dict({"kind": "nope", "source": {}})
    with pytest.raises(ManifestError, match="workload"):
        ExperimentManifest.from_dict({"kind": "window-drift", "source": {"kind": "synth"}})
    with pytest.raises(ManifestError, match="slices"):
        ExperimentManifest.from_dict({"kind": "slice-compare", "source": {"kind": "synth"}})
    with pytest.raises(ManifestError, match="policy"):
        ExperimentManifest.from_dict(
            {
                "kind": "window-drift",
                "source": {"kind": "synth"},
                "workload": {"init_blocks": 5, "granularity": 1},
                "policies": ["stale"],
            }
        )
    with pytest.raises(ManifestError, match="^n_buckets must be >= 1, got 0$"):
        ExperimentManifest.from_dict(
            {
                "kind": "window-drift",
                "source": {"kind": "synth"},
                "workload": {"init_blocks": 5, "granularity": 1},
                "n_buckets": 0,
            }
        )


def test_a_run_with_max_tables_below_one_is_refused_before_any_data(monkeypatch, tmp_path):
    def no_data(source):
        raise AssertionError("the dataset was built")

    monkeypatch.setattr(scenario, "dataset_from_source", no_data)
    manifest = ExperimentManifest.from_dict(
        {
            "kind": "window-drift",
            "source": {"kind": "synth", "config": {"seed": 4, "n_blocks": 12}},
            "workload": {"init_blocks": 8, "granularity": 2},
            "max_tables": 0,
        }
    )
    with pytest.raises(ValueError, match="^max_tables must be >= 1, got 0$"):
        run_scenario(manifest, tmp_path)


def test_reproducible_inputs_exclude_output_dir():
    m = ExperimentManifest.from_dict(
        {
            "kind": "window-drift",
            "source": {"kind": "synth", "config": {"seed": 1}},
            "workload": {"init_blocks": 5, "granularity": 1},
            "output_dir": "/somewhere",
        }
    )
    assert "output_dir" not in m.reproducible_inputs()


def test_dataset_from_export_source(tmp_path):
    ds = generate(SynthConfig(seed=3, n_blocks=20, mean_tx_per_block=3, address_pool=20, n_tokens=2))
    write_export(ds, tmp_path)
    loaded = dataset_from_source({"kind": "export", "dir": str(tmp_path)})
    assert loaded.block_range == (0, 19)


def test_an_export_source_with_no_blocks_is_refused(tmp_path):
    write_export(ChainDataset((), (), (), (), (), (), ()), tmp_path)
    with pytest.raises(ExportError, match="^export has no blocks$"):
        dataset_from_source({"kind": "export", "dir": str(tmp_path)})


def test_slice_compare_scenario(tmp_path):
    manifest = ExperimentManifest.from_dict(
        {
            "kind": "slice-compare",
            "source": {
                "kind": "synth",
                "config": {"seed": 31, "n_blocks": 120, "mean_tx_per_block": 8, "address_pool": 50, "n_tokens": 5},
            },
            "slices": [
                {"lo": 0, "hi": 29, "label": "S1"},
                {"lo": 40, "hi": 69, "label": "S2"},
                {"lo": 90, "hi": 119, "label": "S3"},
            ],
            "policies": ["refreshed"],
            "queries": ["Q1"],
            "max_tables": 2,
        }
    )
    result = run_scenario(manifest, tmp_path / "out")
    assert result.state_labels == ["S1", "S2", "S3"]
    assert len(result.points) == 3 * 9  # 5 singles + 4 pairs per state
    assert all(p.policy == "refreshed" for p in result.points)
    lines = (tmp_path / "out" / "report" / "qerror_points.jsonl").read_text().strip().splitlines()
    assert len(lines) == len(result.points)


def test_slice_compare_points_are_pinned(tmp_path):
    # sha256 recorded before the probe loops were merged into evaluate_state;
    # "initial" listed first checks that points keep the manifest's policy order.
    manifest = ExperimentManifest.from_dict(
        {
            "kind": "slice-compare",
            "source": {
                "kind": "synth",
                "config": {"seed": 31, "n_blocks": 120, "mean_tx_per_block": 8, "address_pool": 50, "n_tokens": 5},
            },
            "slices": [
                {"lo": 0, "hi": 39, "label": "S1"},
                {"lo": 40, "hi": 79, "label": "S2"},
                {"lo": 70, "hi": 119, "label": "S3"},
            ],
            "policies": ["initial", "refreshed"],
            "queries": ["Q1"],
            "max_tables": 3,
        }
    )
    result = run_scenario(manifest, tmp_path / "out")
    assert len(result.points) == 3 * 2 * 13
    assert any(p.actual > 0 for p in result.points if len(p.subquery.split("⨝")) > 1)
    digest = hashlib.sha256((tmp_path / "out" / "report" / "qerror_points.jsonl").read_bytes()).hexdigest()
    assert digest == "45b2781a9c3b25c572534aafaf811ae043ec9114ea9db0717ff527fe4e110948"


def test_window_drift_scenario_policies(tmp_path):
    manifest = ExperimentManifest.from_dict(
        {
            "kind": "window-drift",
            "source": {
                "kind": "synth",
                "config": {"seed": 32, "n_blocks": 80, "mean_tx_per_block": 6, "address_pool": 40, "n_tokens": 4},
            },
            "workload": {"init_blocks": 40, "granularity": 20, "expire": True},
            "policies": ["refreshed", "initial"],
            "queries": ["Q1"],
            "max_tables": 1,
        }
    )
    result = run_scenario(manifest, tmp_path / "out")
    assert result.state_labels == ["W1", "W2", "W3"]
    assert len(result.points) == 3 * 2 * 5
    w1_refreshed = {p.subquery: p for p in result.points if p.state == "W1" and p.policy == "refreshed"}
    w1_initial = {p.subquery: p for p in result.points if p.state == "W1" and p.policy == "initial"}
    for sub, point in w1_refreshed.items():
        assert point.estimated == w1_initial[sub].estimated  # same catalog on state one


def test_unknown_query_id_rejected(tmp_path):
    manifest = ExperimentManifest.from_dict(
        {
            "kind": "window-drift",
            "source": {"kind": "synth", "config": {"seed": 1, "n_blocks": 10, "mean_tx_per_block": 2, "address_pool": 10, "n_tokens": 2}},
            "workload": {"init_blocks": 5, "granularity": 5},
            "queries": ["Q99"],
        }
    )
    with pytest.raises(ManifestError, match="Q99"):
        run_scenario(manifest, tmp_path / "out")


def test_query_without_structured_form_rejected(tmp_path):
    manifest = ExperimentManifest.from_dict(
        {
            "kind": "window-drift",
            "source": {"kind": "synth", "config": {"seed": 1, "n_blocks": 10, "mean_tx_per_block": 2, "address_pool": 10, "n_tokens": 2}},
            "workload": {"init_blocks": 5, "granularity": 5},
            "queries": ["Q2"],
        }
    )
    with pytest.raises(ManifestError, match="structured form"):
        run_scenario(manifest, tmp_path / "out")


def test_every_probe_reaches_the_patched_refresh_count_and_evaluate_state(monkeypatch, tmp_path):
    # The bench tracer wraps estimator.refresh, memstore.count and
    # scenario.evaluate_state; each caller must look the name up when it is
    # called, and refresh's result must keep its ``columns`` mapping.
    calls = []

    def spy(site, real):
        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((site, len(result.columns)) if site == "refresh" else site)
            return result

        return wrapper

    monkeypatch.setattr(estimator, "refresh", spy("refresh", estimator.refresh))
    monkeypatch.setattr(memstore, "count", spy("count", memstore.count))
    monkeypatch.setattr(scenario, "evaluate_state", spy("evaluate_state", scenario.evaluate_state))
    manifest = ExperimentManifest.from_dict(
        {
            "kind": "window-drift",
            "source": {"kind": "synth", "config": {"seed": 4, "n_blocks": 12, "mean_tx_per_block": 3, "address_pool": 12}},
            "workload": {"init_blocks": 8, "granularity": 2, "expire": True},
            "max_tables": 1,
        }
    )
    result = run_scenario(manifest, tmp_path)
    # Three states; both policies share the first state's build, and Q1 has
    # five single-table subqueries, each counted once per state.
    assert result.state_labels == ["W1", "W2", "W3"]
    assert calls.count("evaluate_state") == 3
    # Only Q1's five filter columns get full statistics.
    assert calls.count(("refresh", 5)) == 3
    assert calls.count("count") == 3 * 5


def test_a_drift_run_holds_no_applied_batch(monkeypatch, tmp_path):
    # A window-drift run keeps its window, not its history: the load and
    # every batch are freed once applied, before the next probe. The
    # collector is paused, but batches hold no cycles, so reference counting
    # frees them as soon as the run lets go.
    applied: list[weakref.ref] = []
    probes = []

    def keep_ref(apply):
        def wrapper(store, batch):
            applied.append(weakref.ref(batch))
            return apply(store, batch)

        return wrapper

    def check(evaluate_state):
        def wrapper(label, *args, **kwargs):
            probes.append((label, len(applied)))
            assert [ref() for ref in applied] == [None] * len(applied), label
            return evaluate_state(label, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(memstore, "apply", keep_ref(memstore.apply))
    monkeypatch.setattr(scenario, "evaluate_state", check(scenario.evaluate_state))
    manifest = ExperimentManifest.from_dict(
        {
            "kind": "window-drift",
            "source": {"kind": "synth", "config": {"seed": 4, "n_blocks": 30, "mean_tx_per_block": 4, "address_pool": 15}},
            "workload": {"init_blocks": 12, "granularity": 6, "expire": True},
            "max_tables": 1,
        }
    )
    run_scenario(manifest, tmp_path)
    # The load, then an expire and an upsert per batch, each probed after.
    assert probes == [("W1", 1), ("W2", 3), ("W3", 5), ("W4", 7)]
