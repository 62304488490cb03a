"""Experiment harness: the registry of reproduced tables and figures
(experiments), the one sweep they run through (parallel), its cells
and run helpers (runner), shared builders (context), result rendering
(results), the acceptance suites (exp_tenants, exp_cluster,
exp_rebuild) and the EXPERIMENTS.md report generator (report)."""
