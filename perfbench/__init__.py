"""Benchmark harness for stoseg; run it with ``python3 perfbench/run.py``."""
