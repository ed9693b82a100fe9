"""The argscore benchmark: seeded input generators, the workload pipeline and
an out-of-package tracer. Run it through ``benchmarks/run.py``."""
