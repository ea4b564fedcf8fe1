"""Names of the benchmark workloads, importable before szegolab is."""

WORKLOADS = ("study-ladder", "cli-mix", "mc-paths")
