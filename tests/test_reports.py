import json

import pytest

from chainbench.eval_harness import QErrorPoint, regret_matrix
from chainbench.reports import (
    accurate_subqueries,
    read_plan_measurements,
    write_jsonl,
    write_matrix_csv,
    write_run_record,
    write_series_csv,
)


def _points():
    return [
        QErrorPoint("W1", "tx", 100.0, 100, 1.0, "refreshed"),
        QErrorPoint("W2", "tx", 100.0, 100, 1.0, "refreshed"),
        QErrorPoint("W1", "tk_tx", 50.0, 100, 2.0, "refreshed"),
        QErrorPoint("W2", "tk_tx", 50.0, 200, 4.0, "refreshed"),
    ]


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "points.jsonl"
    write_jsonl(_points(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [QErrorPoint(**json.loads(line)) for line in lines] == _points()


def test_accurate_subqueries_cutoff():
    assert accurate_subqueries(_points()) == {"tx"}


def test_series_csv_omission_filter(tmp_path):
    kept = tmp_path / "all.csv"
    filtered = tmp_path / "filtered.csv"
    write_series_csv(_points(), kept)
    write_series_csv(_points(), filtered, omit_accurate=True)
    assert "tx" in kept.read_text()
    body = filtered.read_text()
    assert "tk_tx" in body
    assert "\ntx" not in body.replace("tk_tx", "")  # the accurate series is suppressed


def test_plan_measurements_reader_validates(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"plan_for": "S1", "run_on": "S1", "c_r": 5.0, "reps": 3}) + "\n")
    with pytest.raises(ValueError, match="reps"):
        read_plan_measurements(path)


def test_sample_measurements_asset_round_trips():
    from importlib import resources

    src = resources.files("chainbench").joinpath("assets/plan_measurements_sample.jsonl")
    measurements = read_plan_measurements(str(src))
    assert len(measurements) == 16
    matrix = regret_matrix(measurements, "cr")
    assert matrix.cell_text("S1", "S4") == "↓1.81×"


def test_matrix_csv_layout(tmp_path):
    from importlib import resources

    src = resources.files("chainbench").joinpath("assets/plan_measurements_sample.jsonl")
    matrix = regret_matrix(read_plan_measurements(str(src)), "ce")
    out = tmp_path / "m.csv"
    write_matrix_csv(matrix, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "plan,S1,S2,S3,S4"
    assert lines[1].startswith("P(S1),-,")


def test_run_record_excludes_paths(tmp_path):
    write_run_record(tmp_path, "synth", {"seed": 1})
    record = json.loads((tmp_path / "run.json").read_text())
    assert record["subcommand"] == "synth"
    assert record["inputs"] == {"seed": 1}
    assert "output" not in json.dumps(record).lower()
