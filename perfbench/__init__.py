"""Benchmark of the lgwigner library and CLI; see run.py."""
