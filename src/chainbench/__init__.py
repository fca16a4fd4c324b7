"""Benchmark harness for relational databases under evolving ledger-shaped data."""

__version__ = "0.1.0"
