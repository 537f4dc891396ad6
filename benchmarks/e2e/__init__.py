"""End-to-end benchmark of the FFT inference stack (see README.md).

``BENCHMARK.json`` at the repo root names the workloads and metrics;
``run.py`` is the one command that measures them.
"""
