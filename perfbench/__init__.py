"""The repository benchmark: four workloads, a correctness gate and a traced run.

Run it with ``python3 perfbench/run.py --workload <name>``; see
``perfbench/README.md`` for the workloads, metrics and layer table.
"""
