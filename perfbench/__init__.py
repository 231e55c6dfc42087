"""Benchmark harness for ctalign; run it with `python3 perfbench/run.py --help`."""
