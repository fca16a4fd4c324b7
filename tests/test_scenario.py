import hashlib
import json
import weakref

import pytest

from chainbench import estimator, memstore, scenario, workload_gen
from chainbench.chain_model import ChainDataset
from chainbench.ingest_slice import BlockView, ExportError, block_view, write_export
from chainbench.scenario import (
    ExperimentManifest,
    ManifestError,
    dataset_from_source,
    run_scenario,
)
from chainbench.synth_chain import SynthConfig, generate
from chainbench.workload_gen import WorkloadConfig, write_workload


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
    drift = {"kind": "window-drift", "source": {"kind": "synth"}, "workload": {"init_blocks": 5, "granularity": 1}}
    compare = {"kind": "slice-compare", "source": {"kind": "synth"}}
    refusals = [
        ({**drift, "max_tables": 0}, "^max_tables must be >= 1, got 0$"),
        ({**drift, "policies": []}, "^manifest needs at least one policy$"),
        ({**drift, "queries": []}, "^manifest needs at least one query$"),
        ({**drift, "workload": {"granularity": 1}}, "^window-drift workload needs 'init_blocks'$"),
        ({**drift, "workload": {"init_blocks": 5}}, "^window-drift workload needs 'granularity'$"),
        ({**compare, "slices": [{"hi": 20}]}, "^slice 1 needs 'lo'$"),
        ({**compare, "slices": [{"lo": 0, "hi": 20}, {"lo": 30}]}, "^slice 2 needs 'hi'$"),
        ({**compare, "slices": [{"lo": 21, "hi": 20}]}, "^slice lo 21 > hi 20$"),
        # The first slice's default label is S1.
        ({**compare, "slices": [{"lo": 0, "hi": 20}, {"lo": 30, "hi": 40, "label": "S1"}]}, "^two slices are labelled 'S1'$"),
        ({**compare, "slices": [{"lo": 0, "hi": 20, "label": "a"}, {"lo": 30, "hi": 40, "label": "a"}]}, "^two slices are labelled 'a'$"),
        # A manifest integer that is not one is named by its key.
        ({**drift, "max_tables": "a"}, "^max_tables must be an integer, got 'a'$"),
        ({**drift, "n_buckets": None}, "^n_buckets must be an integer, got None$"),
        ({**drift, "workload": {"init_blocks": "x", "granularity": 1}}, "^window-drift workload 'init_blocks' must be an integer, got 'x'$"),
        ({**drift, "workload": {"init_blocks": 5, "granularity": [1]}}, r"^window-drift workload 'granularity' must be an integer, got \[1\]$"),
        ({**compare, "slices": [{"lo": "a", "hi": 3}]}, "^slice 1 'lo' must be an integer, got 'a'$"),
        ({**compare, "slices": [{"lo": 0, "hi": 20}, {"lo": 30, "hi": "4.5"}]}, "^slice 2 'hi' must be an integer, got '4.5'$"),
        # The source is checked here too, not when the run builds its dataset.
        ({**drift, "source": {"kind": "csv"}}, "^unknown dataset source kind 'csv'$"),
        ({**drift, "source": {"kind": "export"}}, "^export source needs 'dir'$"),
        ({**drift, "source": {"kind": "synth", "config": {"n_blokcs": 10}}}, "^synth source config: .*'n_blokcs'$"),
        ({**drift, "source": {"kind": "synth", "config": {"n_blocks": 0}}}, "^synth source config: n_blocks must be >= 1$"),
    ]
    for data, message in refusals:
        with pytest.raises(ManifestError, match=message):
            ExperimentManifest.from_dict(data)


def test_a_run_with_max_tables_below_one_is_refused_before_any_data(monkeypatch, tmp_path):
    def no_data(source):
        raise AssertionError("the dataset was built")

    monkeypatch.setattr(scenario, "dataset_from_source", no_data)
    # Built directly: from_dict refuses it already.
    manifest = ExperimentManifest(
        kind="window-drift",
        source={"kind": "synth", "config": {"seed": 4, "n_blocks": 12}},
        workload={"init_blocks": 8, "granularity": 2},
        max_tables=0,
    )
    with pytest.raises(ValueError, match="^max_tables must be >= 1, got 0$"):
        run_scenario(manifest, tmp_path)
    assert not (tmp_path / "report").exists() and not (tmp_path / "logs").exists()


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


def test_reproducible_inputs_keep_slices_as_given():
    slices = [{"lo": 0, "hi": 20}, {"lo": 30, "hi": 40, "label": ""}]
    m = ExperimentManifest.from_dict({"kind": "slice-compare", "source": {"kind": "synth"}, "slices": slices})
    assert m.reproducible_inputs()["slices"] == slices


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


def test_unknown_query_id_rejected():
    with pytest.raises(ManifestError, match="Q99"):
        ExperimentManifest.from_dict(
            {
                "kind": "window-drift",
                "source": {"kind": "synth", "config": {"seed": 1, "n_blocks": 10, "mean_tx_per_block": 2, "address_pool": 10, "n_tokens": 2}},
                "workload": {"init_blocks": 5, "granularity": 5},
                "queries": ["Q99"],
            }
        )


def test_query_without_structured_form_rejected():
    with pytest.raises(ManifestError, match="structured form"):
        ExperimentManifest.from_dict(
            {
                "kind": "window-drift",
                "source": {"kind": "synth", "config": {"seed": 1, "n_blocks": 10, "mean_tx_per_block": 2, "address_pool": 10, "n_tokens": 2}},
                "workload": {"init_blocks": 5, "granularity": 5},
                "queries": ["Q2"],
            }
        )


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


def test_each_run_reaches_the_patched_generators_once_through_one_view(monkeypatch, tmp_path):
    # The bench tracer wraps gen_initial and gen_batches where scenario and
    # workload_gen look them up; a drift run and write_workload each call
    # both once, with one shared block view, and slice-compare cuts every
    # slice from one view.
    calls = []

    def spy(site, real):
        def wrapper(source, *args):
            calls.append((site, source))
            return real(source, *args)

        return wrapper

    for module in (scenario, workload_gen):
        for name in ("gen_initial", "gen_batches"):
            monkeypatch.setattr(module, name, spy(f"{module.__name__}.{name}", getattr(module, name)))
    monkeypatch.setattr(scenario, "extract_slice", spy("extract_slice", scenario.extract_slice))
    source = {"kind": "synth", "config": {"seed": 4, "n_blocks": 12, "mean_tx_per_block": 3, "address_pool": 12}}
    drift = {"kind": "window-drift", "source": source, "workload": {"init_blocks": 8, "granularity": 2}, "max_tables": 1}
    run_scenario(ExperimentManifest.from_dict(drift), tmp_path / "drift")
    write_workload(generate(SynthConfig(**source["config"])), WorkloadConfig(8, 2, expire=True), tmp_path / "wl")
    slices = [{"lo": 0, "hi": 5}, {"lo": 4, "hi": 11}, {"lo": 9, "hi": 9}]
    compare = {"kind": "slice-compare", "source": source, "slices": slices, "max_tables": 1}
    run_scenario(ExperimentManifest.from_dict(compare), tmp_path / "compare")
    sites = [site for site, _ in calls]
    assert sites == [
        "chainbench.scenario.gen_initial",
        "chainbench.scenario.gen_batches",
        "chainbench.workload_gen.gen_initial",
        "chainbench.workload_gen.gen_batches",
        *["extract_slice"] * 3,
    ]
    views = [source for _, source in calls]
    assert all(isinstance(view, BlockView) for view in views)
    assert views[0] is views[1] and views[2] is views[3] and views[4] is views[5] is views[6]


class _Bundles(list):
    """A list a weak reference can follow."""


_DRIFT = {"kind": "window-drift", "workload": {"init_blocks": 12, "granularity": 6, "expire": True}}
_COMPARE = {"kind": "slice-compare", "slices": [{"lo": 0, "hi": 9}, {"lo": 5, "hi": 29}]}


@pytest.mark.parametrize(
    "kind, hook, reached",
    [(_DRIFT, (memstore, "apply"), 7), (_COMPARE, (scenario, "policy_catalogs"), 2)],
    ids=["drift-first-apply", "compare-first-probe"],
)
def test_a_run_drops_its_block_view_before_its_store_is_used(monkeypatch, tmp_path, kind, hook, reached):
    # The grouping the load and the batches (or the slices) share is as large
    # as the dataset's rows; held through the applies and probes, it would
    # raise the run's peak memory. The collector is paused, so only reference
    # counting frees it.
    bundles: list[weakref.ref] = []
    alive = []

    def keep_ref(source):
        view = block_view(source)
        view = view._replace(bundles=_Bundles(view.bundles))
        bundles.append(weakref.ref(view.bundles))
        return view

    def check(fn):
        def wrapper(*args):
            alive.append([ref() is not None for ref in bundles])
            return fn(*args)

        return wrapper

    monkeypatch.setattr(scenario, "block_view", keep_ref)
    monkeypatch.setattr(*hook, check(getattr(*hook)))
    source = {"kind": "synth", "config": {"seed": 4, "n_blocks": 30, "mean_tx_per_block": 4, "address_pool": 15}}
    run_scenario(ExperimentManifest.from_dict({**kind, "source": source, "max_tables": 1}), tmp_path)
    assert alive[0] == [False]
    assert len(alive) == reached


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
