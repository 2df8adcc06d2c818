"""End-to-end benchmark of the simulator; see ``e2ebench/BENCH.md``."""
