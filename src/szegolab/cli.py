"""Batch command-line front-end.

Subcommands
-----------
rate           convergence study of sampled MI rate toward the spectral target
equivalence    same study, reported for the Toeplitz/circulant equivalence diagnostics
power-sum      circulant eigenvalue power sum vs its integral limit
sandwich       polynomial bracket of the eigenvalue log-moment at each schedule point
mc-validate    Monte-Carlo check of the analytic Gram coefficients
dump-gram      table of Gram coefficients gamma_l and wrapped gammaHat_l
dump-spectrum  table of circulant eigenvalues vs the scaled spectral density

Configuration may come from flags or from a flat ``key = value`` file
(``--config``); flags override file values, unknown keys are rejected.  Each
subcommand lives in one entry of ``_SUBCOMMANDS``, each option's flag, config
key and default in one row of ``_OPTS``, and each option's range in the
library, whose own checks ``parse_config`` runs (``_check_values``).  All
numeric output uses 9 significant digits in a fixed column order, so
identical configurations produce byte-identical reports.  Exit codes: 0
success, 1 a runtime invariant failed, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericalError, SzegolabError, UsageError
from .gram import SamplingGrid, gamma_sequence
from .mc import (
    _gram_lags, _route, _sampling_args, _seed, _validation_bytes, _validation_estimates,
)
from .models import _FAMILIES, ModelKind, SpectralModel, spectral_functional
from .spectra import _toeplitz_eigs_bytes, _toeplitz_row_eigs, circulant_eigs
from .szego import (
    DEFAULT_SCHEDULE,
    RATE_COLUMNS,
    ConvergenceSchedule,
    _degree,
    _domain_cap,
    _exponent,
    _mi_from_eigs,
    _pair_bytes,
    default_domain_max,
    power_sum_check,
    rate_convergence,
    sandwich_polynomials,
    sandwich_rate_bounds,
)

__all__ = ["RunConfig", "parse_config", "run", "main", "console_main"]

# Relative + absolute slack applied to runtime bound checks, so that a bound
# holding in exact arithmetic is not reported as violated because of the last
# two or three bits of double rounding in the summed coefficients.
_GUARD_REL = 1e-12
_GUARD_ABS = 1e-12


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters for one subcommand invocation."""

    command: str
    model: SpectralModel
    fmt: str
    out: str | None
    tol: float | None = None
    seed: int | None = None
    schedule: ConvergenceSchedule | None = None
    T: float | None = None
    n: int | None = None
    q: int | None = None
    degree: int | None = None
    domain_max: float | None = None
    refine: int | None = None
    paths: int | None = None
    lags: tuple[int, ...] | None = None
    dump_batch: str | None = None


# A run whose estimated working set exceeds this is refused before it allocates.
_MEMORY_CAP = 2 * 2**30


def _within_cap(command: str, estimate: int) -> None:
    """Refuse a run whose estimated bytes exceed ``_MEMORY_CAP``."""
    if estimate > _MEMORY_CAP:
        raise UsageError(
            f"{command} needs an estimated {estimate / 2**30:.1f} GiB of memory, "
            f"over the cap of {_MEMORY_CAP // 2**30} GiB; reduce the problem size"
        )


def _sandwich_bytes(config: RunConfig) -> int:
    """Upper bound on the bytes a sandwich run holds: what the split
    eigensolve holds at the schedule's largest n (two half blocks, no n x n
    matrix), and what building the degree-d pair holds: one block of
    Bernstein basis rows and a few grids of floats, more than evaluating it
    at the eigenvalues adds."""
    n = max(n for _, n in config.schedule.points)
    return _toeplitz_eigs_bytes(n) + _pair_bytes(config.degree)


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------
def _fmt_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("boolean report cells are not supported")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.8e}"
    return str(value)


def _write_table(headers, rows, fmt: str, stream) -> None:
    cells = [[_fmt_cell(v) for v in row] for row in rows]
    if fmt == "csv":
        stream.write(",".join(headers) + "\n")
        for row in cells:
            stream.write(",".join(row) + "\n")
        return
    widths = [
        max(len(header), *(len(row[i]) for row in cells)) if cells else len(header)
        for i, header in enumerate(headers)
    ]
    stream.write("  ".join(h.rjust(w) for h, w in zip(headers, widths)) + "\n")
    for row in cells:
        stream.write("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n")


def _slacked(bound: float) -> float:
    return bound * (1.0 + _GUARD_REL) + _GUARD_ABS


# ---------------------------------------------------------------------------
# subcommand bodies — each returns (headers, rows, violations, stderr_lines)
# ---------------------------------------------------------------------------
def _run_rate_like(config: RunConfig):
    report = rate_convergence(config.model, config.schedule, tol=config.tol)
    violations: list[str] = []
    stderr_lines: list[str] = []
    eig_cap = _slacked(default_domain_max(config.model))
    frob_cap = _slacked(config.model.abs_acf_integral() * config.model.power)
    for p in report.points:
        tag = f"(T={p.T:g}, n={p.n})"
        if p.max_abs_circulant_eig > eig_cap:
            violations.append(
                f"circulant eigenvalue bound exceeded at {tag}: "
                f"{p.max_abs_circulant_eig:.8e} > {eig_cap:.8e}"
            )
        if p.op_norm_bound > eig_cap:
            violations.append(
                f"operator-norm bound exceeded at {tag}: {p.op_norm_bound:.8e} > {eig_cap:.8e}"
            )
        if p.frob_sq_over_t > frob_cap:
            violations.append(
                f"scaled Frobenius bound exceeded at {tag}: "
                f"{p.frob_sq_over_t:.8e} > {frob_cap:.8e}"
            )
        if p.route_rel_diff > 1e-8:
            violations.append(
                f"log-det routes disagree at {tag}: relative difference "
                f"{p.route_rel_diff:.8e} > 1.0e-08"
            )
        if config.command == "rate":
            stderr_lines.append(
                f"[rate] T={p.T:g} n={p.n} sampledRate={p.sampled_rate:.8e} "
                f"relErr={p.rel_err:.8e}"
            )
        else:
            stderr_lines.append(
                f"[equivalence] T={p.T:g} n={p.n} logSumGap={p.log_sum_gap:.8e} "
                f"wrapDiff={p.wrap_diff_frob_sq_over_t:.8e} "
                f"traceGap_k2={p.trace_gaps[1]:.8e}"
            )
    return RATE_COLUMNS, report.table_rows(), violations, stderr_lines


def _run_power_sum(config: RunConfig):
    res = power_sum_check(config.model, config.T, config.n, config.q, tol=config.tol)
    headers = ["q", "T", "n", "lhs", "rhs", "gap"]
    row = [res.q, res.T, res.n, res.lhs, res.rhs, res.gap]
    if res.q == 2:
        headers += ["s1", "s2"]
        row += [res.s1, res.s2]
    violations = []
    if not all(math.isfinite(v) for v in (res.lhs, res.rhs, res.gap)):
        violations.append(f"non-finite power-sum result: lhs={res.lhs} rhs={res.rhs}")
    stderr_lines = [
        f"[power-sum] q={res.q} T={res.T:g} n={res.n} gap={res.gap:.8e}"
    ]
    return headers, [row], violations, stderr_lines


def _run_sandwich(config: RunConfig):
    _within_cap(config.command, _sandwich_bytes(config))
    C = config.domain_max if config.domain_max is not None else default_domain_max(config.model)
    pair = sandwich_polynomials(C, config.degree)
    headers = ["T", "n", "h", "lowerBound", "eigLogSum", "upperBound", "bracketWidth"]
    rows = []
    violations = []
    stderr_lines = [f"[sandwich] degree={pair.degree} domainMax={C:.8e} epsHat={pair.eps_hat:.8e}"]
    for grid in config.schedule.grids():
        gs = gamma_sequence(config.model, grid)
        spectrum = _toeplitz_row_eigs(gs.gamma, grid)
        source = f"Toeplitz (T={grid.T:g}, n={grid.n})"
        eig_log_sum = 2.0 * _mi_from_eigs(spectrum.eigenvalues, source) / grid.T
        lower, upper = sandwich_rate_bounds(pair, spectrum, grid.T)
        rows.append([grid.T, grid.n, grid.h, lower, eig_log_sum, upper, upper - lower])
        if not lower <= eig_log_sum <= upper:
            violations.append(
                f"bracket misses the eigenvalue log-moment at (T={grid.T:g}, n={grid.n}): "
                f"{lower:.8e} .. {upper:.8e} vs {eig_log_sum:.8e}"
            )
        stderr_lines.append(
            f"[sandwich] T={grid.T:g} n={grid.n} bracketWidth={upper - lower:.8e}"
        )
    return headers, rows, violations, stderr_lines


def _run_mc_validate(config: RunConfig):
    refine, seed = _sampling_args(config.refine, config.seed)
    lags = _gram_lags(config.paths, config.n, config.lags)
    grid = SamplingGrid(T=config.T, n=config.n)

    def estimate(route) -> int:
        return _validation_bytes(route, config.n, config.paths, len(lags))

    # the search builds only a route whose shape fits under the cap
    route = _route(config.model, grid, refine, lambda r: estimate(r) <= _MEMORY_CAP)
    _within_cap(config.command, estimate(route))
    try:
        empirical, se, ratio = _validation_estimates(
            route, grid, refine, config.paths, seed, lags, config.dump_batch
        )
    except OSError as exc:
        raise UsageError(f"cannot write batch dump {config.dump_batch}: {exc}") from None
    gamma = gamma_sequence(config.model, grid).gamma
    headers = ["lag", "empirical", "analytic", "stdErr", "zScore"]
    rows = []
    violations = []
    for pos, lag in enumerate(lags):
        diff = empirical[pos] - gamma[lag]
        z = 0.0 if diff == 0.0 else (math.inf if se[pos] == 0.0 else diff / se[pos])
        rows.append([lag, empirical[pos], gamma[lag], se[pos], z])
        if abs(z) > 3.0:
            violations.append(
                f"empirical coefficient at lag {lag} is {abs(z):.3f} standard errors "
                "from the analytic value (limit 3)"
            )
    if not 0.9 <= ratio <= 1.1:
        violations.append(f"channel noise variance ratio {ratio:.8e} outside [0.9, 1.1]")
    stderr_lines = [
        f"[mc-validate] paths={config.paths} refine={config.refine} seed={config.seed} "
        f"varianceRatio={ratio:.8e}"
    ]
    if config.dump_batch is not None:
        stderr_lines.append(f"[mc-validate] wrote increment dump to {config.dump_batch}")
    return headers, rows, violations, stderr_lines


def _run_dump_gram(config: RunConfig):
    gs = gamma_sequence(config.model, SamplingGrid(T=config.T, n=config.n))
    rows = [[l, gs.gamma[l], gs.gamma_hat[l]] for l in range(config.n)]
    return ["l", "gamma", "gammaHat"], rows, [], [f"[dump-gram] T={config.T:g} n={config.n}"]


def _run_dump_spectrum(config: RunConfig):
    grid = SamplingGrid(T=config.T, n=config.n)
    gs = gamma_sequence(config.model, grid)
    psi_hat = circulant_eigs(gs.gamma_hat, grid).dft_values
    m = np.arange(config.n)
    lam = 2.0 * math.pi * m / config.T
    target = 2.0 * math.pi * np.asarray(config.model.psd(lam), dtype=float)
    rows = [
        [int(i), psi_hat[i], target[i], abs(psi_hat[i] - target[i])] for i in range(config.n)
    ]
    headers = ["m", "psiHat", "twoPiPsd", "absDiff"]
    return headers, rows, [], [f"[dump-spectrum] T={config.T:g} n={config.n}"]


# The one registry of subcommands, in the order --help lists them, each
# with its report body.
_SUBCOMMANDS = {
    "rate": _run_rate_like,
    "equivalence": _run_rate_like,
    "power-sum": _run_power_sum,
    "sandwich": _run_sandwich,
    "mc-validate": _run_mc_validate,
    "dump-gram": _run_dump_gram,
    "dump-spectrum": _run_dump_spectrum,
}


# ---------------------------------------------------------------------------
# option table (single source for flags and config-file keys)
# ---------------------------------------------------------------------------
def _conv_model(text: str) -> ModelKind:
    try:
        return ModelKind(text.strip().lower())
    except ValueError:
        names = ", ".join(kind.value for kind in ModelKind)
        raise UsageError(f"model must be one of {names}; got {text!r}") from None


def _conv_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"expected a finite number, got {text!r}")
    return value


def _conv_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"expected an integer, got {text!r}") from None


def _conv_format(text: str) -> str:
    name = text.strip().lower()
    if name not in ("text", "csv"):
        raise UsageError(f"format must be text or csv, got {text!r}")
    return name


def _conv_schedule(text: str) -> ConvergenceSchedule:
    points = []
    for item in text.split(","):
        item = item.strip()
        head, sep, tail = item.partition(":")
        if not item or not sep:
            raise UsageError(f"schedule entry {item!r} must have the form T:n")
        try:
            points.append((float(head), int(tail)))
        except ValueError:
            raise UsageError(
                f"schedule entry {item!r} must have the form T:n with numeric T, integer n"
            ) from None
    try:
        return ConvergenceSchedule(tuple(points))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _conv_lags(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(item.strip()) for item in text.split(","))
    except ValueError:
        raise UsageError(f"lags must be a comma list of integers, got {text!r}") from None


@dataclass(frozen=True)
class _Opt:
    """One option: its flag and config-file key, how its text converts and
    its default.  A ``{command: value}`` default varies by command and names
    the commands the option applies to."""

    name: str  # flag / config-file key (kebab-case)
    conv: object
    help: str
    default: object = None
    commands: tuple[str, ...] = tuple(_SUBCOMMANDS)

    def __post_init__(self) -> None:
        if isinstance(self.default, dict):
            object.__setattr__(self, "commands", tuple(self.default))

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")

    def default_for(self, command: str):
        return self.default[command] if isinstance(self.default, dict) else self.default


# The study-point defaults match the documented diagnostic operating points
# (h = 0.05 resolution for the dumps).
_OPTS = (
    _Opt("model", _conv_model,
         f"input model kind: {' | '.join(kind.value for kind in ModelKind)} (default ou)",
         ModelKind("ou")),
    _Opt("power", _conv_float, "stationary variance P >= 0 (default 1)", 1.0),
    *(
        _Opt(_FAMILIES[kind].scale_flag, _conv_float,
             f"{_FAMILIES[kind].scale_help} of the {kind.value} model (default 1)", 1.0)
        for kind in ModelKind
    ),
    _Opt("tol", _conv_float, "spectral quadrature tolerance (default 1e-8)", 1e-8,
         commands=("rate", "equivalence", "power-sum")),
    _Opt("seed", _conv_int, "64-bit random seed (default 42)", 42, commands=("mc-validate",)),
    _Opt("format", _conv_format, "report format: text | csv (default text)", "text"),
    _Opt("out", str, "write the report to this path instead of stdout"),
    _Opt("schedule", _conv_schedule,
         "comma list of T:n study points (default 25:500,50:1000,100:2000)",
         DEFAULT_SCHEDULE, commands=("rate", "equivalence", "sandwich")),
    _Opt("T", _conv_float, "time horizon of the study point",
         {"power-sum": 100.0, "mc-validate": 10.0, "dump-gram": 10.0, "dump-spectrum": 10.0}),
    _Opt("n", _conv_int, "sample count of the study point",
         {"power-sum": 4000, "mc-validate": 100, "dump-gram": 200, "dump-spectrum": 200}),
    _Opt("q", _conv_int, "power exponent, 1..4 (default 2)", 2, commands=("power-sum",)),
    _Opt("degree", _conv_int, "base approximant degree (default 64)", 64,
         commands=("sandwich",)),
    _Opt("domain-max", _conv_float,
         "eigenvalue domain cap (default: twice the absolute autocovariance integral)",
         commands=("sandwich",)),
    _Opt("refine", _conv_int, "sub-steps per sampling cell, >= 4 (default 8)", 8,
         commands=("mc-validate",)),
    _Opt("paths", _conv_int, "number of simulated paths, >= 100 (default 10000)", 10_000,
         commands=("mc-validate",)),
    _Opt("lags", _conv_lags, "comma list of lags to validate (default 0,1,2,5)", (0, 1, 2, 5),
         commands=("mc-validate",)),
    _Opt("dump-batch", str, "write the binary increment dump to this path",
         commands=("mc-validate",)),
)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="szegolab", description="Szego-limit study front-end")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for command in _SUBCOMMANDS:
        p = sub.add_parser(command, prog=f"szegolab {command}")
        p.add_argument("--config", help="flat key = value configuration file")
        for opt in _OPTS:
            if command in opt.commands:
                p.add_argument(f"--{opt.name}", dest=opt.dest, type=opt.conv, default=None,
                               help=opt.help)
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in entries:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _build_model(values: dict, provided: set[str]) -> SpectralModel:
    kind = values["model"]
    scale_key = _FAMILIES[kind].scale_flag
    for owner in ModelKind:
        key = _FAMILIES[owner].scale_flag
        if key != scale_key and key in provided:
            raise UsageError(f"--{key} applies only to --model {owner.value}")
    return SpectralModel(kind, values["power"], values[scale_key.replace("-", "_")])


def _check_values(values: dict) -> None:
    """Run, in option-row order, the check that the run's library call makes
    on each value the command takes, so a refusal is worded as the run's."""
    if "tol" in values:
        # q = 1 is P exactly, so this call does no more than check tol
        spectral_functional(values["model"], 1, values["tol"])
    if "seed" in values:
        _seed(values["seed"])
    if "T" in values:
        SamplingGrid(T=values["T"], n=values["n"])
    if "q" in values:
        _exponent(values["q"])
    if "degree" in values:
        _degree(values["degree"])
        cap = values["domain_max"]
        if cap is None:
            cap = default_domain_max(values["model"])
            if cap == 0.0:
                raise UsageError("the default domain cap 2*integral|R| is 0 at power 0; "
                                 "pass --domain-max > 0")
        _domain_cap(cap)
    if "refine" in values:
        _sampling_args(values["refine"], values["seed"])
        _gram_lags(values["paths"], values["n"], values["lags"])


def parse_config(argv) -> RunConfig:
    """Resolve argv (plus an optional config file) into a RunConfig.

    Precedence: command-line flag, then config-file value, then the row's
    default.  Unknown config-file keys — including keys that do not apply to
    the chosen subcommand — are rejected.  The model is built first, then the
    library's checks of the values run (``_check_values``); nothing is
    computed, so the memory cap is checked by the run.
    """
    args = _build_parser().parse_args(list(argv))
    command = args.command
    opts = [opt for opt in _OPTS if command in opt.commands]

    file_entries: dict[str, str] = {}
    if args.config is not None:
        file_entries = _read_config_file(args.config)
    allowed = {opt.name for opt in opts}
    for key in file_entries:
        if key not in allowed:
            raise UsageError(f"unknown config key {key!r} for command {command!r}")

    values: dict[str, object] = {}
    provided: set[str] = set()
    for opt in opts:
        value = getattr(args, opt.dest)
        if value is None and opt.name in file_entries:
            value = opt.conv(file_entries[opt.name])
        if value is None:
            value = opt.default_for(command)
        else:
            provided.add(opt.name)
        values[opt.dest] = value

    try:
        values["model"] = _build_model(values, provided)
        _check_values(values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    values["fmt"] = values.pop("format")
    names = {spec.name for spec in fields(RunConfig)}
    return RunConfig(command=command, **{k: v for k, v in values.items() if k in names})


def run(config: RunConfig) -> int:
    """Execute the configured subcommand; returns the process exit code.

    The body runs with floating-point overflow, invalid operations and
    division by zero raised, and reported as ``NumericalError``; underflow
    passes.  ``sandwich`` and ``mc-validate`` refuse, before they allocate,
    a run whose estimated bytes exceed ``_MEMORY_CAP``."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            headers, rows, violations, stderr_lines = _SUBCOMMANDS[config.command](config)
    except FloatingPointError as exc:
        raise NumericalError(str(exc)) from None
    if config.out is None:
        _write_table(headers, rows, config.fmt, sys.stdout)
    else:
        try:
            with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
                _write_table(headers, rows, config.fmt, fh)
        except OSError as exc:
            raise UsageError(f"cannot write report file {config.out}: {exc}") from None
    for line in stderr_lines:
        print(line, file=sys.stderr)
    for violation in violations:
        print(f"invariant violated: {violation}", file=sys.stderr)
    return 1 if violations else 0


def main(argv=None) -> int:
    """Entry point; maps package errors to the documented exit codes."""
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        return run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SzegolabError as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main(None))
