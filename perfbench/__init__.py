"""End-to-end and per-layer benchmark for pointgen; see README.md here."""
