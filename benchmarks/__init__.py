"""Layer timings, run with pytest-benchmark (see each module)."""
