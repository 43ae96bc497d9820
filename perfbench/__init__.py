"""End-to-end and per-layer benchmark for rationalift; see README.md."""
