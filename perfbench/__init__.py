"""End-to-end and per-layer benchmark of the LOCAL-model simulator."""
