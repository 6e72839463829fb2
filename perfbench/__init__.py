"""Steady end-to-end and per-layer benchmark of the ExEA reproduction.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` (see ``perfbench/README.md``).  The package
drives the public API under ``src/repro`` and never edits it.
"""
