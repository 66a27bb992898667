"""The repository benchmark: one command, four workloads, traced per-layer numbers.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``perfbench/README.md`` documents every workload and
metric.
"""
