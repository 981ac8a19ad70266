"""Whole-network speed benchmark for the AN2 reproduction.

``python3 an2bench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one of the workloads in :mod:`an2bench.workloads`
and prints one JSON result as its last line.  See ``README.md`` here.
"""
