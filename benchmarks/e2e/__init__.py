"""E33 — the repo's end-to-end benchmark: five workloads, one ledger.

Run ``PYTHONPATH=src python -m benchmarks.e2e --seed 1`` for the whole
suite, or add ``--workload NAME`` for one run in this interpreter; see
``README.md`` in this directory for workloads, metrics and the ledger.
"""
