"""End-to-end benchmark of jacksonlab; run it with ``python3 perfbench/run.py``."""
