"""Steady end-to-end benchmark of the CP-k study and the scoring server.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics.  Everything here is measurement code: the program
under test (``src/repro``) is imported or launched, never modified.
"""
