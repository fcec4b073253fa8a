"""The repository's benchmark: three workloads, end-to-end and per-layer metrics."""
