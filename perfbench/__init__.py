"""Benchmark of the ktseg CLI, end to end and layer by layer; see run.py."""
