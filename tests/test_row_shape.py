"""Rows are SCHEMA's named tuples, and only plain tuples leave the engines."""

import dataclasses

from chainbench import chain_model, reports
from chainbench.chain_model import ROW_TYPES, SCHEMA, TABLE_NAMES
from chainbench.replay_driver import MemstoreTarget, SqlStubTarget, replay
from chainbench.scenario import ExperimentManifest, run_scenario
from chainbench.synth_chain import SynthConfig, generate
from chainbench.workload_gen import WorkloadConfig, write_workload

from util import read_scripts

_CLASS_NAMES = {
    "blocks": "Block",
    "addresses": "AddressRow",
    "transactions": "Transaction",
    "contracts": "Contract",
    "tokens": "Token",
    "token_transactions": "TokenTransaction",
    "withdrawals": "Withdrawal",
}


def test_every_row_type_has_its_tables_schema_columns():
    assert tuple(ROW_TYPES) == TABLE_NAMES == tuple(SCHEMA)
    for table, row_type in ROW_TYPES.items():
        assert row_type._fields == tuple(name for name, _ in SCHEMA[table]), table
        assert getattr(chain_model, _CLASS_NAMES[table]) is row_type
        assert row_type.__name__ == _CLASS_NAMES[table]


def test_both_replay_targets_give_plain_tuple_keys_after_null_outs(tmp_path):
    ds = generate(
        SynthConfig(seed=32, n_blocks=60, mean_tx_per_block=4, address_pool=25, n_tokens=4, contract_fraction=0.5)
    )
    write_workload(ds, WorkloadConfig(init_blocks=10, granularity=5, expire=True), tmp_path)
    expires = "".join(text for name, text in read_scripts(tmp_path).items() if name.startswith("expire-"))
    assert "UPDATE Tokens SET block_hash = NULL" in expires
    assert "UPDATE Contracts SET block_hash = NULL" in expires
    memstore_target, stub_target = MemstoreTarget(), SqlStubTarget()
    replay(memstore_target, tmp_path)
    replay(stub_target, tmp_path)
    structured = memstore_target.store.table_multisets()
    text = stub_target.engine.table_multisets()
    assert structured == text
    for multisets in (structured, text):
        for table, rows in multisets.items():
            assert all(type(row) is tuple for row in rows), table
    # The stored rows themselves stay typed: replay builds them with the
    # row type and a null-out keeps it.
    for table in TABLE_NAMES:
        assert all(type(row) is ROW_TYPES[table] for row in memstore_target.store.rows(table)), table


def test_no_row_reaches_the_jsonl_writer(tmp_path, monkeypatch):
    seen = []
    write_jsonl = reports.write_jsonl

    def spy(records, path):
        records = list(records)
        seen.extend(records)
        return write_jsonl(records, path)

    monkeypatch.setattr(reports, "write_jsonl", spy)
    manifest = ExperimentManifest.from_dict(
        {
            "kind": "window-drift",
            "source": {"kind": "synth", "config": {"seed": 5, "n_blocks": 40, "mean_tx_per_block": 5, "address_pool": 30}},
            "workload": {"init_blocks": 20, "granularity": 10, "expire": True},
        }
    )
    run_scenario(manifest, tmp_path)
    assert seen
    row_types = tuple(ROW_TYPES.values())
    for record in seen:
        assert not isinstance(record, row_types)
        values = [getattr(record, f.name) for f in dataclasses.fields(record)]
        assert not any(isinstance(value, row_types) for value in values)
