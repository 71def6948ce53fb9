"""Benchmark of mukailat: see README.md in this directory."""
