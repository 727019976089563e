"""perfbench: paper-scale host-time benchmark with per-layer attribution.

Run ``python3 -m perfbench --help`` from the repository root; see
``perfbench/README.md`` for the metrics, workloads and run protocol.
"""
