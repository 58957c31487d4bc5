"""Benchmark harness for perclab; see perfbench/README.md."""
