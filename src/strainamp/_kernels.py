"""Compiled-kernel flag kept for the benchmark's environment record.

The hot path is plain numpy. `perfbench/run.py`'s `environment()` reads
HAVE_NUMBA and records it as `have_numba`, so the name stays.
"""

HAVE_NUMBA = False
