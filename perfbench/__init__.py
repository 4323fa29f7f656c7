"""Seeded, self-checking benchmark for singvol; run it with ``python3 perfbench/run.py``."""
