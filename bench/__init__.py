"""The repo's benchmark: six workloads, end-to-end metrics, and a traced
per-layer run.  Entry point: ``python3 bench/run.py`` (see README.md)."""
