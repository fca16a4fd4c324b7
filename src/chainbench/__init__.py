"""Benchmark harness for relational databases under evolving ledger-shaped data."""

__version__ = "0.1.0"

from .chain_model import (
    AddressRow,
    Block,
    ChainDataset,
    Contract,
    SliceSpec,
    Token,
    TokenTransaction,
    Transaction,
    Withdrawal,
    decode_hex,
    encode_hex,
    validate_dataset,
)
from .ingest_slice import BalanceLedger, build_ledger, extract_slice, load_export, read_export, write_export
from .memstore import Filter, SPJQuery, Store
from .synth_chain import SynthConfig, generate
from .workload_gen import Batch, WorkloadConfig, gen_batches, gen_initial, render_sql

__all__ = [
    "AddressRow",
    "BalanceLedger",
    "Batch",
    "Block",
    "ChainDataset",
    "Contract",
    "Filter",
    "SPJQuery",
    "SliceSpec",
    "Store",
    "SynthConfig",
    "Token",
    "TokenTransaction",
    "Transaction",
    "Withdrawal",
    "WorkloadConfig",
    "build_ledger",
    "decode_hex",
    "encode_hex",
    "extract_slice",
    "gen_batches",
    "gen_initial",
    "generate",
    "load_export",
    "read_export",
    "render_sql",
    "validate_dataset",
    "write_export",
]
