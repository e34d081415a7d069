"""The end-to-end benchmark: four named workloads, one result schema.

``python -m benchmarks.e2e`` runs every workload in a fresh subprocess
and prints each end-to-end and per-layer metric by name.  The driver
contract (``BENCHMARK.json``) runs one workload at a time through the
same entry point.  See README.md in this directory.
"""
