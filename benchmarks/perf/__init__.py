"""The repo benchmark: five workloads, eight end-to-end metrics and an
outside-in per-layer cost ledger. See README.md in this directory."""
