"""Experiment manifests and the end-to-end scenario runner.

Two scenario kinds are supported:

- ``window-drift``: build one dataset, load an initial window, then apply the
  generated expire+upsert batches; between batches, probe cardinality
  estimates against exact counts under the configured statistics policies.
- ``slice-compare``: materialize several (possibly disconnected) windows of
  one dataset as independent states and probe each one.

Deterministic outputs land under ``report/`` (byte-identical across runs of
the same manifest); wall-clock timings land under ``logs/``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from . import memstore, reports
from .chain_model import ChainDataset
from .eval_harness import QErrorPoint, enumerate_subqueries, evaluate_state, policy_catalogs, probe_columns
from .gcpause import collector_paused
from .ingest_slice import block_view, extract_slice, load_export
from .memstore import SPJQuery, Store
from .query_assets import load_workload
from .synth_chain import SynthConfig, generate
from .workload_gen import WorkloadConfig, gen_batches, gen_initial

POLICIES = ("refreshed", "initial")


class ManifestError(ValueError):
    pass


@dataclass
class ExperimentManifest:
    kind: str  # "window-drift" | "slice-compare"
    source: dict
    policies: tuple[str, ...] = POLICIES
    queries: tuple[str, ...] = ("Q1",)
    max_tables: int = 3
    n_buckets: int = 100
    omit_accurate: bool = False
    workload: dict | None = None  # window-drift: init_blocks / granularity / expire
    slices: tuple[dict, ...] = ()  # slice-compare: {lo, hi, label}
    output_dir: str | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentManifest":
        kind = data.get("kind")
        if kind not in ("window-drift", "slice-compare"):
            raise ManifestError(f"unknown scenario kind {kind!r}")
        if "source" not in data:
            raise ManifestError("manifest needs a 'source'")
        _source(data["source"])
        m = cls(
            kind=kind,
            source=data["source"],
            policies=tuple(data.get("policies", POLICIES)),
            queries=tuple(data.get("queries", ("Q1",))),
            max_tables=_integer(data.get("max_tables", 3), "max_tables"),
            n_buckets=_integer(data.get("n_buckets", 100), "n_buckets"),
            omit_accurate=bool(data.get("omit_accurate", False)),
            workload=data.get("workload"),
            slices=tuple(data.get("slices", ())),
            output_dir=data.get("output_dir"),
        )
        if not m.policies:
            raise ManifestError("manifest needs at least one policy")
        for policy in m.policies:
            if policy not in POLICIES:
                raise ManifestError(f"unknown policy {policy!r}")
        if not m.queries:
            raise ManifestError("manifest needs at least one query")
        _spj_queries(m.queries)
        if m.max_tables < 1:
            raise ManifestError(f"max_tables must be >= 1, got {m.max_tables}")
        if m.n_buckets < 1:
            raise ManifestError(f"n_buckets must be >= 1, got {m.n_buckets}")
        if m.kind == "window-drift":
            _workload_config(m.workload)
        else:
            _slices(m.slices)
        return m

    def reproducible_inputs(self) -> dict:
        """Manifest content for run.json; output locations excluded."""
        return {
            "kind": self.kind,
            "source": self.source,
            "policies": list(self.policies),
            "queries": list(self.queries),
            "max_tables": self.max_tables,
            "n_buckets": self.n_buckets,
            "omit_accurate": self.omit_accurate,
            "workload": self.workload,
            "slices": list(self.slices),
        }


def load_manifest(path: str | Path) -> ExperimentManifest:
    with open(path, encoding="utf-8") as fh:
        return ExperimentManifest.from_dict(json.load(fh))


def dataset_from_source(source: dict) -> ChainDataset:
    return _source(source)()


def _integer(value, name: str) -> int:
    """A manifest integer; ``name`` says where it sits."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ManifestError(f"{name} must be an integer, got {value!r}") from None


# Each of the next four reads one manifest section: ``from_dict`` calls it to
# check the section, ``run_scenario`` to use it.
def _source(source: dict) -> Callable[[], ChainDataset]:
    """What builds the source's dataset, once its kind and settings are checked."""
    kind = source.get("kind") if isinstance(source, dict) else None
    if kind == "synth":
        try:  # an unknown key is a TypeError, a bad value a ValueError or TypeError
            return partial(generate, SynthConfig(**source.get("config", {})))
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"synth source config: {exc}") from None
    if kind == "export":
        if "dir" not in source:
            raise ManifestError("export source needs 'dir'")
        return partial(load_export, source["dir"])
    raise ManifestError(f"unknown dataset source kind {kind!r}")


def _spj_queries(queries: tuple[str, ...]) -> dict[str, SPJQuery]:
    assets = {a.id: a for a in load_workload()}
    out: dict[str, SPJQuery] = {}
    for qid in queries:
        asset = assets.get(qid)
        if asset is None:
            raise ManifestError(f"unknown query id {qid!r}")
        if asset.spj is None:
            raise ManifestError(f"query {qid} has no structured form; it cannot be probed on the in-memory store")
        out[qid] = asset.spj
    return out


def _workload_config(workload: dict | None) -> WorkloadConfig:
    if not workload:
        raise ManifestError("window-drift needs a 'workload' section")
    for key in ("init_blocks", "granularity"):
        if key not in workload:
            raise ManifestError(f"window-drift workload needs {key!r}")
    init_blocks, granularity = (
        _integer(workload[key], f"window-drift workload {key!r}") for key in ("init_blocks", "granularity")
    )
    return WorkloadConfig(init_blocks, granularity, bool(workload.get("expire")))


def _slices(slices: tuple[dict, ...]) -> list[tuple[int, int, str]]:
    """Each slice's (lo, hi, label); the n-th slice's label defaults to ``S<n>``."""
    if not slices:
        raise ManifestError("slice-compare needs a 'slices' list")
    out: list[tuple[int, int, str]] = []
    for i, entry in enumerate(slices, 1):
        for key in ("lo", "hi"):
            if key not in entry:
                raise ManifestError(f"slice {i} needs {key!r}")
        lo, hi = (_integer(entry[key], f"slice {i} {key!r}") for key in ("lo", "hi"))
        label = entry.get("label") or f"S{i}"
        if lo > hi:
            raise ManifestError(f"slice lo {lo} > hi {hi}")
        if any(label == seen for *_, seen in out):
            raise ManifestError(f"two slices are labelled {label!r}")
        out.append((lo, hi, label))
    return out


@dataclass
class ScenarioResult:
    points: list[QErrorPoint] = field(default_factory=list)
    state_labels: list[str] = field(default_factory=list)
    timings: list[dict] = field(default_factory=list)


@collector_paused
def run_scenario(manifest: ExperimentManifest, out_dir: str | Path) -> ScenarioResult:
    spj_by_id = _spj_queries(manifest.queries)
    subqueries = []
    for qid in sorted(spj_by_id):
        subqueries.extend(enumerate_subqueries(spj_by_id[qid], manifest.max_tables))
    columns = probe_columns(subqueries)

    out = Path(out_dir)
    report_dir = out / "report"
    logs_dir = out / "logs"
    report_dir.mkdir(parents=True, exist_ok=True)
    logs_dir.mkdir(parents=True, exist_ok=True)

    result = ScenarioResult()
    ds = dataset_from_source(manifest.source)

    initial_catalog = None

    def probe(label: str, store: Store) -> None:
        nonlocal initial_catalog
        result.state_labels.append(label)
        catalogs = policy_catalogs(manifest.policies, label, store, initial_catalog, manifest.n_buckets, columns)
        initial_catalog = catalogs.get("initial")
        result.points.extend(evaluate_state(label, store, subqueries, catalogs))

    if manifest.kind == "window-drift":
        cfg = _workload_config(manifest.workload)
        # One grouping of the dataset by block serves the load and the
        # batches; it is dropped before the first apply. The state holds what
        # a batch inserted, so an applied batch is dropped before the next
        # probe: the run holds its window, not its history. Each free falls
        # outside the timed apply. ``ds`` stays: it still holds the rows an
        # expire deletes, so none is freed inside one.
        view = block_view(ds)
        load = gen_initial(view, cfg)
        pairs, _ = gen_batches(view, cfg)
        del view
        store = Store()
        start = time.perf_counter()
        memstore.apply(store, load)
        result.timings.append({"batch": 0, "ms": (time.perf_counter() - start) * 1000.0})
        del load
        probe("W1", store)
        pairs.reverse()
        for i in range(1, len(pairs) + 1):
            pair = pairs.pop()
            start = time.perf_counter()
            if pair.expire is not None:
                memstore.apply(store, pair.expire)
            memstore.apply(store, pair.upsert)
            result.timings.append({"batch": i, "ms": (time.perf_counter() - start) * 1000.0})
            del pair
            probe(f"W{i + 1}", store)
    else:  # slice-compare: every slice is cut from one grouping, dropped before the first probe
        view = block_view(ds)
        slices = _slices(manifest.slices)
        states = [extract_slice(view, lo, hi) for lo, hi, _ in slices][::-1]
        del view
        for *_, label in slices:
            probe(label, Store.from_dataset(states.pop()))

    reports.write_jsonl(result.points, report_dir / "qerror_points.jsonl")
    reports.write_series_csv(result.points, report_dir / "qerror_series.csv", omit_accurate=manifest.omit_accurate)
    with open(logs_dir / "timing.json", "w", encoding="utf-8") as fh:
        json.dump(result.timings, fh, indent=2)
        fh.write("\n")
    return result
