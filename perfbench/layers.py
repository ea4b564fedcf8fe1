"""Per-layer metrics of a traced run, computed from its spans.

The layers are the package modules: import, models, gram, spectra, szego,
mc and cli.  Every metric named here is printed by every traced run; each
workload's traced run also makes one probe pass of the other workloads, so
that every layer has samples.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from spans import Span, Tracer
from workloads import IMPORT_MODULES, KINDS, Config

LAYERS = ("import", "models", "gram", "spectra", "szego", "mc", "cli")
_MB = 1e6


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


def metric_specs(config: Config) -> list[Metric]:
    """Every per-layer metric, in a fixed order."""
    ns = [n for _, n in config.ladder_points]
    specs = [Metric(f"import.{m}_s", "s", "lower") for m in IMPORT_MODULES]
    specs += [Metric(f"models.spectral_functional_s.{k}", "s", "lower") for k in KINDS]
    specs += [Metric(f"gram.gamma_sequence_s.{k}.n{n}", "s", "lower") for k in KINDS for n in ns]
    for fn in ("gram.toeplitz_matrix", "spectra.mi_logdet", "spectra.toeplitz_eigs"):
        specs += [Metric(f"{fn}_s.n{n}", "s", "lower") for n in ns]
        specs += [Metric(f"{fn}_alloc_mb.n{n}", "MB", "lower") for n in ns]
    for fn in ("circulant_eigs", "norm_report", "psd_alignment_sup"):
        specs += [Metric(f"spectra.{fn}_s.n{n}", "s", "lower") for n in ns]
    specs += [
        Metric("szego.rate_convergence.unattributed_s", "s", "lower"),
        Metric("szego.sandwich_polynomials_s", "s", "lower"),
        Metric("szego.sandwich_rate_bounds_s", "s", "lower"),
        Metric("szego.power_sum_check_s", "s", "lower"),
    ]
    mc_kinds = [p.kind for p in config.mc_plans]
    specs += [Metric(f"mc.sample_paths_s.{k}", "s", "lower") for k in mc_kinds]
    specs += [Metric(f"mc.sample_paths_alloc_mb.{k}", "MB", "lower") for k in mc_kinds]
    specs += [Metric(f"mc.paths_per_s.{k}", "1/s", "higher") for k in mc_kinds]
    specs += [Metric(f"mc.{fn}_s", "s", "lower") for fn in ("empirical_gram", "write_batch", "read_batch")]
    specs.append(Metric("cli.parse_config_s", "s", "lower"))
    specs += [
        Metric(f"cli.run_s.{c.label}", "s", "lower")
        for c in config.cli_commands
        if c.exit_code == 0
    ]
    for layer in LAYERS:
        specs.append(Metric(f"{layer}.calls", "count", "higher"))
        specs.append(Metric(f"{layer}.failed", "count", "lower"))
    specs.append(Metric("trace.overhead_s", "s", "lower"))
    return specs


def _median(values):
    return statistics.median(values) if values else None


def layer_values(tracer: Tracer, config: Config, overhead: float) -> dict:
    """Value of every metric in ``metric_specs``; None where a metric got no
    sample (which makes the run incorrect)."""
    spans = [s for s in tracer.spans if s.ok]

    def pick(name, **attrs) -> list[Span]:
        return [
            s for s in spans
            if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())
        ]

    def secs(name, **attrs):
        return _median([s.seconds for s in pick(name, **attrs)])

    def alloc(name, **attrs):
        return _median([s.attrs["alloc_bytes"] / _MB for s in pick(name, **attrs)])

    values = {}
    # A third-party module absent from the -X importtime output was not
    # imported, so it cost nothing; every szegolab module must appear.
    imports = [s.attrs["modules"] for s in pick("import.importtime")]
    for mod in IMPORT_MODULES:
        if mod.split(".")[0] == "szegolab":
            samples = [m[mod] for m in imports if mod in m]
        else:
            samples = [m.get(mod, 0.0) for m in imports]
        values[f"import.{mod}_s"] = _median(samples)
    for k in KINDS:
        values[f"models.spectral_functional_s.{k}"] = secs("models.spectral_functional", kind=k)
    ns = [n for _, n in config.ladder_points]
    for k in KINDS:
        for n in ns:
            values[f"gram.gamma_sequence_s.{k}.n{n}"] = secs("gram.gamma_sequence", kind=k, n=n)
    for fn in ("gram.toeplitz_matrix", "spectra.mi_logdet", "spectra.toeplitz_eigs"):
        for n in ns:
            values[f"{fn}_s.n{n}"] = secs(fn, n=n)
            values[f"{fn}_alloc_mb.n{n}"] = alloc(fn, n=n)
    for fn in ("circulant_eigs", "norm_report", "psd_alignment_sup"):
        for n in ns:
            values[f"spectra.{fn}_s.n{n}"] = secs(f"spectra.{fn}", n=n)

    # rate_convergence time not covered by its mirrored layer calls: the
    # median per ladder point, summed over the points of one pass.
    children: dict = {}
    for s in tracer.spans:
        children.setdefault(s.parent, []).append(s)
    per_point: dict = {}
    for rc in pick("szego.rate_convergence"):
        for mirror in children.get(rc.span_id, []):
            if mirror.name == "bench.mirror" and mirror.ok:
                covered = sum(c.seconds for c in children.get(mirror.span_id, []))
                per_point.setdefault((rc.attrs["kind"], rc.attrs["n"]), []).append(rc.seconds - covered)
    values["szego.rate_convergence.unattributed_s"] = (
        sum(statistics.median(v) for v in per_point.values())
        if len(per_point) == len(KINDS) * len(config.ladder_points)
        else None
    )
    for fn in ("sandwich_polynomials", "sandwich_rate_bounds", "power_sum_check"):
        values[f"szego.{fn}_s"] = secs(f"szego.{fn}")

    for plan in config.mc_plans:
        k = plan.kind
        t = secs("mc.sample_paths", kind=k)
        values[f"mc.sample_paths_s.{k}"] = t
        values[f"mc.sample_paths_alloc_mb.{k}"] = alloc("bench.alloc", fn="mc.sample_paths", kind=k)
        values[f"mc.paths_per_s.{k}"] = plan.paths / t if t else None
    for fn in ("empirical_gram", "write_batch", "read_batch"):
        values[f"mc.{fn}_s"] = secs(f"mc.{fn}")

    values["cli.parse_config_s"] = secs("cli.parse_config")
    for c in config.cli_commands:
        if c.exit_code == 0:
            values[f"cli.run_s.{c.label}"] = secs("cli.run", label=c.label)

    for layer in LAYERS:
        own = [s for s in tracer.spans if s.name.startswith(layer + ".")]
        values[f"{layer}.calls"] = len(own)
        values[f"{layer}.failed"] = sum(not s.ok for s in own)
    values["trace.overhead_s"] = overhead
    return values
