"""Benchmark of the lab; run it through perfbench/run.py."""
