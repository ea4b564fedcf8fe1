"""The three benchmark workloads, their correctness checks and traced probes.

Every workload is a closed loop with one client: a fixed list of operations
run in order, each started when the previous one has finished, repeated in
passes.  The workload seed picks the model parameters (inside fixed ranges),
the Monte-Carlo seeds and the order of the CLI processes; szegolab only sees
the generated inputs.

* ``study-ladder`` -- in-process ``rate_convergence`` for ou, gauss and tri
  at h = 0.05 on 25:500, 50:1000, 100:2000 and 150:3000, one point per
  operation.  Nearly all of its time is dense eigh plus Cholesky (``spectra``).
* ``cli-mix`` -- fresh ``python -m szegolab`` processes for every subcommand
  at its documented defaults, plus ``rate --model tri`` and one usage error.
  Import dominates; this is what a CLI user pays.
* ``mc-paths`` -- in-process ``sample_paths`` -> ``empirical_gram`` ->
  ``noise_variance_ratio`` per model kind, plus a ``write_batch`` /
  ``read_batch`` round trip.  All of its work is in ``mc``.

A traced pass wraps each call into a szegolab module in a span.  Where the
workload's operation is a single opaque call (``rate_convergence``, a CLI
process), a mirror outside the timed operation repeats its layer calls one
by one, so per-layer time is visible without instrumenting the package.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import szegolab as sz
from szegolab import cli as szcli
from szegolab import mc as szmc

import oracle
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

KINDS = ("ou", "gauss", "tri")
LADDER_POINTS = ((25.0, 500), (50.0, 1000), (100.0, 2000), (150.0, 3000))
PARAM_RANGE = (0.8, 1.25)  # power and scale of every kind, drawn log-uniformly
MC_REFINE = 8
MC_LAGS = (0, 1, 2, 5)
MC_Z_LIMIT = 5.0

# Dense working sets above this are refused before anything is allocated.
# The machine has 7 GB shared with other tenants and the interpreter, so a
# single benchmark process keeps to well under half of it.
MEMORY_CAP_BYTES = 3 * 2**30

_CAP_SLACK_REL = 1e-12  # same slack as the CLI's runtime bound checks
_CAP_SLACK_ABS = 1e-12
_OU_DEFAULT_TARGET = (math.sqrt(3.0) - 1.0) / 2.0


class PreflightError(Exception):
    """A configured workload would not fit the memory cap."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MCPlan:
    kind: str
    T: float
    n: int
    paths: int
    round_trip: bool = False


@dataclass(frozen=True)
class CLICommand:
    label: str
    argv: tuple[str, ...]
    exit_code: int
    dense_n: int = 0  # largest dense Toeplitz matrix the command builds
    mc: MCPlan | None = None  # Monte-Carlo batch the command samples


_DEFAULT_STUDY_N = max(n for _, n in sz.DEFAULT_SCHEDULE.points)

CLI_COMMANDS = (
    CLICommand("rate", ("rate",), 0, dense_n=_DEFAULT_STUDY_N),
    CLICommand("equivalence", ("equivalence",), 0, dense_n=_DEFAULT_STUDY_N),
    CLICommand("sandwich", ("sandwich",), 0, dense_n=_DEFAULT_STUDY_N),
    CLICommand("power-sum", ("power-sum",), 0),
    CLICommand("mc-validate", ("mc-validate",), 0, mc=MCPlan("ou", 10.0, 100, 10_000)),
    CLICommand("dump-gram", ("dump-gram",), 0),
    CLICommand("dump-spectrum", ("dump-spectrum",), 0),
    CLICommand("rate-tri", ("rate", "--model", "tri"), 0, dense_n=_DEFAULT_STUDY_N),
    CLICommand("usage-error", ("rate", "--no-such-flag"), 2),
)


@dataclass(frozen=True)
class Config:
    """Sizes of every workload.  The defaults are the benchmark; tests use
    smaller ones."""

    ladder_points: tuple[tuple[float, int], ...] = LADDER_POINTS
    mc_plans: tuple[MCPlan, ...] = (
        MCPlan("ou", 10.0, 100, 10_000, round_trip=True),
        MCPlan("gauss", 10.0, 200, 1_000),
        MCPlan("tri", 20.0, 400, 1_000),
    )
    cli_commands: tuple[CLICommand, ...] = CLI_COMMANDS


def dense_bytes(n: int) -> int:
    """Peak bytes of one study point: A, I + A, its Cholesky factor, and the
    copy plus workspace of the symmetric eigensolver, all n x n float64."""
    return 6 * 8 * n * n


def mc_bytes(plan: MCPlan) -> int:
    """Peak bytes of one Monte-Carlo batch: normals, refined paths, cell
    areas and increments (paths x m), plus the dense covariance, its jittered
    copy and factor (m x m) for the kinds sampled by factorization."""
    m = plan.n * MC_REFINE + 1
    table = 4 * 8 * plan.paths * (m + plan.n)
    dense = 0 if plan.kind == "ou" else 4 * 8 * m * m
    return table + dense


def preflight(estimates: list[tuple[str, int]]) -> None:
    """Refuse a configuration whose largest operation would exceed
    ``MEMORY_CAP_BYTES``.  Operations run one at a time, so the largest one
    sets the peak."""
    label, worst = max(estimates, key=lambda item: item[1])
    if worst > MEMORY_CAP_BYTES:
        raise PreflightError(
            f"operation {label} needs an estimated {worst / 2**30:.2f} GiB of dense arrays, "
            f"above the {MEMORY_CAP_BYTES / 2**30:.2f} GiB cap; refusing before allocating"
        )


# ---------------------------------------------------------------------------
# inputs drawn from the workload seed
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Inputs:
    models: dict  # kind -> SpectralModel
    mc_seeds: dict  # kind -> Monte-Carlo seed
    cli_order: tuple[str, ...]


def draw_inputs(seed: int, config: Config) -> Inputs:
    rng = random.Random(f"szegolab-perfbench:{seed}")
    lo, hi = (math.log(v) for v in PARAM_RANGE)
    models = {}
    for kind in KINDS:
        power, scale = math.exp(rng.uniform(lo, hi)), math.exp(rng.uniform(lo, hi))
        models[kind] = _model(kind, power, scale)
    mc_seeds = {kind: rng.getrandbits(63) for kind in KINDS}
    order = [c.label for c in config.cli_commands]
    rng.shuffle(order)
    return Inputs(models=models, mc_seeds=mc_seeds, cli_order=tuple(order))


def _model(kind: str, power: float, scale: float) -> sz.SpectralModel:
    return {
        "ou": sz.SpectralModel.ornstein_uhlenbeck,
        "gauss": sz.SpectralModel.gaussian_kernel,
        "tri": sz.SpectralModel.triangular,
    }[kind](power, scale)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------
@dataclass
class Outcome:
    """What one operation produced: values for the reference comparison
    (``exact``, ``stat``) and the raw result its mirror checks against."""

    exact: dict = field(default_factory=dict)
    stat: dict = field(default_factory=dict)
    raw: object = None
    span: int | None = None  # span of the call, parent of its mirror


@dataclass
class Op:
    key: str
    size: int
    est_bytes: int
    call: Callable[[Tracer], Outcome]
    check: Callable[[Outcome], list[str]]
    mirror: Callable[[Tracer, Outcome | None], list[str]] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    seeded: bool  # outputs depend on the seed (reference holds for one seed)
    ops_in_probe_pass: bool  # a probe-only pass must run the ops for their mirrors
    warmup: Callable[[], None] = lambda: None
    pass_probes: list[Callable[[Tracer], list[str]]] = field(default_factory=list)


def _slacked(bound: float) -> float:
    return bound * (1.0 + _CAP_SLACK_REL) + _CAP_SLACK_ABS


def _nonfinite(values: dict) -> list[str]:
    return [f"{k} is not finite: {v!r}" for k, v in values.items() if not math.isfinite(v)]


# --- study-ladder -----------------------------------------------------------
_POINT_FIELDS = (
    "sampled_rate",
    "circulant_rate",
    "target_rate",
    "abs_err",
    "rel_err",
    "wrap_diff_frob_sq_over_t",
    "eig_psd_sup_err",
    "log_sum_gap",
    "op_norm_bound",
    "frob_sq_over_t",
    "max_abs_circulant_eig",
)


def _point_values(p) -> dict:
    values = {name: float(getattr(p, name)) for name in _POINT_FIELDS}
    for k, gap in enumerate(p.trace_gaps, start=1):
        values[f"trace_gap_k{k}"] = float(gap)
    return values


def _ou_target(model: sz.SpectralModel) -> float:
    # (1/4pi) * integral log(1 + 2 P a / (a^2 + lam^2)) dlam, in closed form;
    # (sqrt(3) - 1) / 2 at P = a = 1.
    a, P = model.scale, model.power
    return (math.sqrt(a * a + 2.0 * P * a) - a) / 2.0


def _check_point(model, T: float, n: int, out: Outcome) -> list[str]:
    p = out.raw
    issues = _nonfinite(out.exact)
    if (p.T, p.n) != (T, n):
        issues.append(f"point is (T={p.T}, n={p.n}), expected (T={T}, n={n})")
    if not p.route_rel_diff <= 1e-8:
        issues.append(f"log-det routes disagree: relative difference {p.route_rel_diff:.3e}")
    eig_cap = _slacked(2.0 * model.abs_acf_integral())
    if p.max_abs_circulant_eig > eig_cap or p.op_norm_bound > eig_cap:
        issues.append(f"eigenvalue bound {eig_cap:.8e} exceeded")
    if p.frob_sq_over_t > _slacked(model.abs_acf_integral() * model.power):
        issues.append("scaled Frobenius bound exceeded")
    if model.kind is sz.ModelKind.ORNSTEIN_UHLENBECK and not oracle.close(
        p.target_rate, _ou_target(model)
    ):
        issues.append(f"OU target {p.target_rate!r} differs from closed form {_ou_target(model)!r}")
    return issues


def _mirror_rate_point(model, grid, tol, tracer: Tracer, out: Outcome) -> list[str]:
    """Repeat the layer calls of ``szego._rate_point`` one by one, each in
    its own span, and rebuild the RatePoint from their results; it must
    reproduce the point ``rate_convergence`` returned."""
    kind, n = model.kind.value, grid.n
    with tracer.span("bench.mirror", parent=out.span):
        with tracer.span("models.spectral_functional", kind=kind):
            target = 0.5 * sz.spectral_functional(model, "log1p", tol)
        with tracer.span("gram.gamma_sequence", kind=kind, n=n):
            gs = sz.gamma_sequence(model, grid)
        with tracer.span("gram.toeplitz_matrix", alloc=True, n=n):
            A = sz.toeplitz_matrix(gs)
        with tracer.span("spectra.mi_logdet", alloc=True, n=n):
            mi_chol = sz.mi_logdet(A)
        with tracer.span("spectra.toeplitz_eigs", alloc=True, n=n):
            toe = sz.toeplitz_eigs(A, grid)
        del A
        with tracer.span("spectra.circulant_eigs", n=n):
            circ = sz.circulant_eigs(gs.gamma_hat, grid)
        with tracer.span("spectra.norm_report", n=n):
            nr = sz.norm_report(gs)
        with tracer.span("spectra.psd_alignment_sup", n=n):
            sup = sz.psd_alignment_sup(model, grid, circ.dft_values)

    eig, dft, T = toe.eigenvalues, circ.dft_values, grid.T
    mi_eig = 0.5 * float(np.sum(np.log1p(eig)))
    mi_hat = 0.5 * float(np.sum(np.log1p(dft)))
    sampled = mi_chol / T
    abs_err = abs(sampled - target)
    mirrored = {
        "sampled_rate": sampled,
        "circulant_rate": mi_hat / T,
        "target_rate": target,
        "abs_err": abs_err,
        "rel_err": abs_err / abs(target),
        "wrap_diff_frob_sq_over_t": nr.wrap_diff_frob_sq_over_t,
        "eig_psd_sup_err": sup,
        "log_sum_gap": 2.0 * abs(mi_eig - mi_hat) / T,
        "op_norm_bound": nr.op_norm_bound,
        "frob_sq_over_t": nr.frob_sq_over_t,
        "max_abs_circulant_eig": float(np.max(np.abs(dft))),
        "trace_gap_k1": abs(n * (gs.gamma[0] - gs.gamma_hat[0])) / T,
    }
    for k in (2, 3, 4):
        mirrored[f"trace_gap_k{k}"] = abs(float(np.sum(eig**k)) - float(np.sum(dft**k))) / T
    route = abs(mi_chol - mi_eig) / max(abs(mi_chol), 1e-300)
    issues = [
        f"mirror {name}={mirrored[name]!r} but rate_convergence gave {out.exact[name]!r}"
        for name in mirrored
        if not oracle.close(mirrored[name], out.exact[name])
    ]
    if not oracle.close(route, out.raw.route_rel_diff, rel=0.0):
        issues.append(f"mirror route_rel_diff {route!r} vs {out.raw.route_rel_diff!r}")
    return issues


def study_ladder(config: Config, inputs: Inputs) -> Workload:
    tol = 1e-8
    ops = []
    for kind in KINDS:
        model = inputs.models[kind]
        for T, n in config.ladder_points:
            grid = sz.SamplingGrid(T=T, n=n)
            schedule = sz.ConvergenceSchedule(((T, n),))

            def call(tracer, model=model, schedule=schedule, n=n):
                with tracer.span("szego.rate_convergence", kind=model.kind.value, n=n) as sp:
                    (point,) = sz.rate_convergence(model, schedule, tol=tol).points
                return Outcome(exact=_point_values(point), raw=point, span=sp.span_id)

            def check(out, model=model, T=T, n=n):
                return _check_point(model, T, n, out)

            def mirror(tracer, out, model=model, grid=grid):
                return _mirror_rate_point(model, grid, tol, tracer, out)

            ops.append(Op(f"{kind}:{T:g}:{n}", n, dense_bytes(n), call, check, mirror))

    def warmup():
        for kind in KINDS:
            sz.rate_convergence(inputs.models[kind], sz.ConvergenceSchedule(((5.0, 100),)))

    return Workload("study-ladder", ops, seeded=True, ops_in_probe_pass=True, warmup=warmup)


# --- mc-paths ---------------------------------------------------------------
def _mc_op(plan: MCPlan, model, mc_seed: int) -> Op:
    grid = sz.SamplingGrid(T=plan.T, n=plan.n)
    analytic = sz.gamma_sequence(model, grid).gamma[list(MC_LAGS)]

    def sample():
        return sz.sample_paths(model, grid, refine=MC_REFINE, paths=plan.paths, seed=mc_seed)

    def call(tracer):
        kind = plan.kind
        with tracer.span("mc.sample_paths", kind=kind, paths=plan.paths):
            batch = sample()
        with tracer.span("mc.empirical_gram", kind=kind):
            emp, se = sz.empirical_gram(batch, MC_LAGS)
        with tracer.span("mc.noise_variance_ratio", kind=kind):
            ratio = sz.noise_variance_ratio(batch)
        out = Outcome(exact={"jitter": batch.jitter})
        for lag, value, err in zip(MC_LAGS, emp, se):
            out.stat[f"empirical[{lag}]"] = [float(value), float(err)]
        # Relative standard error of a variance estimate from N normals.
        out.stat["noise_variance_ratio"] = [ratio, math.sqrt(2.0 / (plan.paths * plan.n))]
        read = None
        if plan.round_trip:
            OUT_DIR.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
                path = os.path.join(tmp, "batch.bin")
                with tracer.span("mc.write_batch", kind=kind):
                    sz.write_batch(batch, path)
                with tracer.span("mc.read_batch", kind=kind):
                    read = sz.read_batch(path)
        out.raw = (emp, se, ratio, batch, read)
        return out

    def check(out):
        emp, se, ratio, batch, read = out.raw
        issues = []
        if read is not None:
            header, table = read
            want = {"version": szmc.BATCH_VERSION, "paths": plan.paths, "n": plan.n,
                    "refine": MC_REFINE, "seed": mc_seed}
            if header != want:
                issues.append(f"read_batch header {header} differs from {want}")
            if not np.array_equal(table, batch.increments):
                issues.append("read_batch table differs from the written increments")
        for lag, value, err, want in zip(MC_LAGS, emp, se, analytic):
            if not abs(value - want) <= MC_Z_LIMIT * err:
                issues.append(
                    f"empirical gamma at lag {lag} is {abs(value - want) / err:.2f} standard "
                    f"errors from the analytic value (limit {MC_Z_LIMIT:g})"
                )
        ratio_se = out.stat["noise_variance_ratio"][1]
        if not abs(ratio - 1.0) <= MC_Z_LIMIT * ratio_se:
            issues.append(f"noise variance ratio {ratio!r} is far from 1")
        if batch.jitter not in (0.0, 1e-12 * model.power):
            issues.append(f"unexpected factorization jitter {batch.jitter!r}")
        return issues

    def mirror(tracer, out):
        # tracemalloc slows the per-path generator loop several-fold, so the
        # allocation peak comes from a second, separately spanned call; it
        # must reproduce the batch bit for bit.
        with tracer.span("bench.alloc", alloc=True, fn="mc.sample_paths", kind=plan.kind):
            again = sample()
        if not np.array_equal(again.increments, out.raw[3].increments):
            return ["a second sample_paths call with the same seed gave another batch"]
        return []

    return Op(
        f"{plan.kind}:{plan.T:g}:{plan.n}:{plan.paths}", plan.n, mc_bytes(plan), call, check, mirror
    )


def mc_paths(config: Config, inputs: Inputs) -> Workload:
    ops = [_mc_op(p, inputs.models[p.kind], inputs.mc_seeds[p.kind]) for p in config.mc_plans]

    def warmup():
        for plan in config.mc_plans:
            grid = sz.SamplingGrid(T=plan.T, n=min(plan.n, 20))
            sz.sample_paths(inputs.models[plan.kind], grid, refine=MC_REFINE, paths=100, seed=0)

    return Workload("mc-paths", ops, seeded=True, ops_in_probe_pass=True, warmup=warmup)


# --- cli-mix ----------------------------------------------------------------
def child_env() -> dict:
    """Environment of every szegolab child process: the checkout's sources
    only, SZGL_THREADS unset, and the BLAS thread count of this process."""
    env = dict(os.environ)
    env.pop("SZGL_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def parse_table(text: str) -> tuple[list[str], list[list[float]]]:
    """Headers and numeric rows of a text-format szegolab report."""
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(), [[float(cell) for cell in line.split()] for line in lines[1:]]


# Monte-Carlo columns of the mc-validate report, with the column holding
# their standard error; stdErr and zScore are derived from them.
_MC_COLUMNS = {"empirical": "stdErr"}
_MC_DERIVED = ("stdErr", "zScore")


def _report_outcome(command: CLICommand, code: int, stdout: str, stderr: str) -> Outcome:
    headers, rows = parse_table(stdout)
    out = Outcome(raw=(code, stdout, stderr, headers, rows))
    for r, row in enumerate(rows):
        for header, value in zip(headers, row):
            if header in _MC_COLUMNS:
                se = row[headers.index(_MC_COLUMNS[header])]
                out.stat[f"{header}[{r}]"] = [value, se]
            elif header not in _MC_DERIVED:
                out.exact[f"{header}[{r}]"] = value
    return out


def _check_report(command: CLICommand, out: Outcome) -> list[str]:
    code, stdout, stderr, headers, rows = out.raw
    issues = []
    if code != command.exit_code:
        issues.append(f"exit code {code}, expected {command.exit_code}: {stderr.strip()[-300:]}")
    if "invariant violated" in stderr:
        issues.append("printed an 'invariant violated' line")
    if command.exit_code == 2:
        if stdout or not stderr.startswith("error:"):
            issues.append("usage error did not print only an 'error:' line")
        return issues
    if not rows or any(len(row) != len(headers) for row in rows):
        issues.append("report table is empty or ragged")
    issues += _nonfinite(out.exact)
    if command.argv == ("rate",):
        if "targetRate" not in headers:
            return issues + ["report has no targetRate column"]
        col = headers.index("targetRate")
        for row in rows:
            if not oracle.close(row[col], _OU_DEFAULT_TARGET, rel=1e-8):
                issues.append(f"OU target {row[col]!r} is not (sqrt(3) - 1)/2")
    return issues


def _run_in_process(command: CLICommand, tracer: Tracer) -> tuple[int, str, str]:
    """``parse_config`` and ``run`` called in this process, output captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with tracer.span("cli.parse_config", label=command.label):
            try:
                config = szcli.parse_config(command.argv)
            except sz.UsageError as exc:
                config = None
                print(f"error: {exc}", file=sys.stderr)
        if config is None:
            return 2, stdout.getvalue(), stderr.getvalue()
        with tracer.span("cli.run", label=command.label):
            code = szcli.run(config)
    return code, stdout.getvalue(), stderr.getvalue()


def _cli_op(command: CLICommand, reference: dict) -> Op:
    def call(tracer):
        with tracer.span("cli.process", label=command.label):
            proc = subprocess.run(
                [sys.executable, "-m", "szegolab", *command.argv],
                cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
            )
        return _report_outcome(command, proc.returncode, proc.stdout, proc.stderr)

    def check(out):
        return _check_report(command, out)

    def mirror(tracer, out):
        code, stdout, stderr = _run_in_process(command, tracer)
        inproc = _report_outcome(command, code, stdout, stderr)
        issues = [f"in-process: {i}" for i in _check_report(command, inproc)]
        if command.label in reference:
            issues += [f"in-process: {i}" for i in oracle.compare(
                {"exact": inproc.exact, "stat": inproc.stat}, reference[command.label])]
        if out is not None and stdout != out.raw[1]:
            issues.append("in-process report differs from the subprocess report")
        return issues

    mc = mc_bytes(command.mc) if command.mc else 0
    return Op(command.label, 0, max(dense_bytes(command.dense_n), mc), call, check, mirror)


class _SandwichProbe:
    """szego calls behind ``szegolab sandwich`` and ``power-sum`` at their
    CLI defaults, timed directly."""

    def __init__(self):
        self.model = sz.SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
        self.spectra = None

    def __call__(self, tracer: Tracer) -> list[str]:
        if self.spectra is None:  # untimed set-up, shared by every pass
            self.spectra = [
                (g, sz.toeplitz_eigs(sz.toeplitz_matrix(sz.gamma_sequence(self.model, g)), g))
                for g in sz.DEFAULT_SCHEDULE.grids()
            ]
        issues = []
        with tracer.span("szego.sandwich_polynomials", degree=64):
            pair = sz.sandwich_polynomials(sz.default_domain_max(self.model), 64)
        for grid, spectrum in self.spectra:
            with tracer.span("szego.sandwich_rate_bounds", n=grid.n):
                lower, upper = sz.sandwich_rate_bounds(pair, spectrum, grid.T)
            moment = float(np.sum(np.log1p(spectrum.eigenvalues))) / grid.T
            if not lower <= moment <= upper:
                issues.append(f"sandwich bracket misses the log-moment at n={grid.n}")
        with tracer.span("szego.power_sum_check", q=2):
            res = sz.power_sum_check(self.model, 100.0, 4000, 2)
        if not oracle.close(res.s1 + res.s2, res.lhs, rel=1e-9):
            issues.append("power-sum split s1 + s2 does not reproduce lhs")
        return issues


def cli_mix(config: Config, inputs: Inputs, reference: dict) -> Workload:
    by_label = {c.label: c for c in config.cli_commands}
    ops = [_cli_op(by_label[label], reference) for label in inputs.cli_order]
    return Workload(
        "cli-mix", ops, seeded=False, ops_in_probe_pass=False, pass_probes=[_SandwichProbe()]
    )


def build(name: str, seed: int, config: Config, reference: dict) -> Workload:
    inputs = draw_inputs(seed, config)
    if name == "study-ladder":
        return study_ladder(config, inputs)
    if name == "mc-paths":
        return mc_paths(config, inputs)
    return cli_mix(config, inputs, reference)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------
@dataclass
class OpResult:
    key: str
    size: int
    seconds: float  # the operation alone
    issues: list[str]
    wall: float = 0.0  # with its checks and mirror: what it costs the loop


@dataclass
class PassResult:
    ops: list[OpResult]
    probes: list[OpResult]  # traced mirrors and probes, checked but not timed
    complete: bool = True

    @property
    def op_seconds(self) -> float:
        return sum(r.seconds for r in self.ops)


def _guarded(fn, *args) -> list[str]:
    try:
        return fn(*args)
    except Exception as exc:  # a failed probe is counted, not fatal
        return [f"raised {type(exc).__name__}: {exc}"]


def _verify(op: Op, out: Outcome, reference: dict | None) -> list[str]:
    """The operation's own checks, then the comparison with its reference."""
    issues = op.check(out)
    if reference is not None:
        issues += oracle.compare({"exact": out.exact, "stat": out.stat}, reference)
    return issues


def run_pass(
    workload: Workload,
    tracer: Tracer,
    reference: dict,
    run_ops: bool = True,
    fits: Callable[[Op], bool] = lambda op: True,
) -> PassResult:
    """One pass over the operation list, cut short before the first
    operation that does not ``fit``.  Each operation is timed alone; oracle
    checks and (when tracing) mirrors run after its clock stops."""
    results, probes = [], []
    for op in workload.ops:
        if not fits(op):
            return PassResult(results, probes, complete=False)
        t0 = time.perf_counter()
        out = None
        if run_ops:
            try:
                with tracer.span("bench.op", workload=workload.name, key=op.key):
                    out = op.call(tracer)
                issues = []
            except Exception as exc:  # a failed operation is counted, not fatal
                issues = [f"raised {type(exc).__name__}: {exc}"]
            seconds = time.perf_counter() - t0
            if out is not None:
                issues += _guarded(_verify, op, out, reference.get(op.key))
            results.append(OpResult(op.key, op.size, seconds, issues))
        if tracer.enabled and op.mirror is not None and (out is not None or not run_ops):
            probes.append(OpResult(f"{op.key}/mirror", op.size, 0.0, _guarded(op.mirror, tracer, out)))
        if run_ops:
            results[-1].wall = time.perf_counter() - t0
    if tracer.enabled:
        for i, probe in enumerate(workload.pass_probes):
            probes.append(OpResult(f"{workload.name}/probe{i}", 0, 0.0, _guarded(probe, tracer)))
    return PassResult(results, probes)


def measure(
    workload: Workload,
    seconds: float,
    tracer: Tracer,
    reference: dict,
    after_first_pass: Callable[[], None] = lambda: None,
) -> list[PassResult]:
    """Closed loop over the operation list for ``seconds``.  The first pass
    always runs in full; after it, each operation starts only when its
    longest earlier run says it will end in time, and the loop stops at the
    first one that will not.  So the whole budget is used even when a pass
    is long compared with it."""
    start = time.perf_counter()
    longest: dict[str, float] = {}

    def fits(op: Op) -> bool:
        return time.perf_counter() - start + longest[op.key] <= seconds

    passes: list[PassResult] = []
    while not passes or passes[-1].complete:
        passes.append(run_pass(workload, tracer, reference, fits=fits if passes else lambda op: True))
        for r in passes[-1].ops:
            longest[r.key] = max(longest.get(r.key, 0.0), r.wall)
        if len(passes) == 1:
            after_first_pass()
    return passes


def op_medians(passes: list[PassResult]) -> dict[str, tuple[int, float]]:
    """Per operation: (size, median seconds over its runs)."""
    by_key: dict[str, list[float]] = {}
    sizes = {}
    for p in passes:
        for r in p.ops:
            by_key.setdefault(r.key, []).append(r.seconds)
            sizes[r.key] = r.size
    return {k: (sizes[k], statistics.median(v)) for k, v in by_key.items()}


def pass_seconds(passes: list[PassResult]) -> float:
    """Time of one pass of the operation list: the sum over operations of
    each one's median time.  Partial passes count, so every second of the
    budget adds samples."""
    return sum(t for _, t in op_medians(passes).values())


def cost_exponent(passes: list[PassResult]) -> float:
    """Least-squares slope of log(point time) against log(n)."""
    pts = [(math.log(n), math.log(t)) for n, t in op_medians(passes).values() if n > 0]
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# fresh processes: set-up time and import breakdown
# ---------------------------------------------------------------------------
def fresh_import_seconds() -> float:
    """Wall time of one fresh process running ``import szegolab``."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import szegolab"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed: {proc.stderr.strip()[-300:]}")
    return seconds


IMPORT_MODULES = (
    "szegolab",
    "szegolab.models",
    "szegolab.gram",
    "szegolab.spectra",
    "szegolab.szego",
    "szegolab.mc",
    "szegolab.cli",
    "scipy.stats",
    "scipy.signal",
    "scipy.linalg",
    "scipy.integrate",
)
_IMPORTTIME_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_breakdown(tracer: Tracer) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime``,
    one fresh process, recorded as an ``import.importtime`` span."""
    with tracer.span("import.importtime") as span:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import szegolab, szegolab.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"importtime run failed: {proc.stderr.strip()[-300:]}")
        found = {}
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME_LINE.match(line)
            if m and m.group(3) in IMPORT_MODULES:
                found[m.group(3)] = int(m.group(2)) / 1e6
        span.attrs["modules"] = found
    return found


def reference_outputs(workload: Workload) -> dict:
    """One untraced call of every operation, checked, as reference data."""
    off = Tracer("reference", enabled=False)
    outputs = {}
    for op in workload.ops:
        out = op.call(off)
        issues = op.check(out)
        if issues:
            raise RuntimeError(f"{workload.name}/{op.key} fails its checks: {issues}")
        outputs[op.key] = {"exact": out.exact, "stat": out.stat}
    return outputs
