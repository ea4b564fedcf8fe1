"""Command-line front-end: configuration resolution, report formatting,
exit codes, and cross-process reproducibility.

Cheap paths run in-process through ``szegolab.cli.main``; reproducibility and
import budgets run the real module entry point in subprocesses.
"""

import dataclasses
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from szegolab import (
    DEFAULT_SCHEDULE,
    ModelKind,
    SamplingGrid,
    SpectralModel,
    UsageError,
    cli,
    gamma_sequence,
    mc,
    sample_paths,
    write_batch,
)
from szegolab.cli import (
    _OPTS,
    _SUBCOMMANDS,
    _fmt_cell,
    main,
    parse_config,
    run,
)
from szegolab.models import _FAMILIES

FLOAT_CELL = re.compile(r"^-?\d\.\d{8}e[+-]\d{2,3}$")
RATE_HEADER = (
    "T,n,h,sampledRate,circulantRate,targetRate,absErr,relErr,wrapDiffFrobSqOverT,"
    "traceGap_k1,traceGap_k2,traceGap_k3,traceGap_k4,eigPsdSupErr"
)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "szegolab", *args], capture_output=True, text=True)


def _csv_rows(text: str):
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# configuration resolution
# ---------------------------------------------------------------------------
def test_defaults():
    config = parse_config(["rate"])
    assert config.model.kind is ModelKind.ORNSTEIN_UHLENBECK
    assert config.model.power == 1.0 and config.model.scale == 1.0
    assert config.tol == 1e-8
    assert config.seed is None  # only mc-validate draws random numbers
    assert config.fmt == "text"
    assert config.out is None
    assert config.schedule == DEFAULT_SCHEDULE


def test_point_defaults():
    ps = parse_config(["power-sum"])
    assert (ps.T, ps.n, ps.q) == (100.0, 4000, 2)
    mc = parse_config(["mc-validate"])
    assert (mc.T, mc.n, mc.refine, mc.paths, mc.seed) == (10.0, 100, 8, 10_000, 42)
    assert mc.lags == (0, 1, 2, 5)
    assert mc.dump_batch is None
    for command in ("dump-gram", "dump-spectrum"):
        cfg = parse_config([command])
        assert (cfg.T, cfg.n) == (10.0, 200)


# A valid value other than the default for every option, and the flags its
# resolution needs: a scale flag applies only to its own model kind.
_SAMPLE_TEXT = {
    "model": "tri", "power": "2.5", "rate-param": "0.7", "width": "0.7", "support": "0.7",
    "tol": "1e-7", "seed": "7", "format": "csv", "out": "report.txt",
    "schedule": "5:50,10:100", "T": "3.5", "n": "30", "q": "3", "degree": "12",
    "domain-max": "4.5", "refine": "5", "paths": "150", "lags": "0,3",
    "dump-batch": "batch.szgl",
}
_NEEDS = {_FAMILIES[kind].scale_flag: ("--model", kind.value) for kind in ModelKind}


def _resolved(config, name: str):
    """The value a RunConfig holds for option ``name``."""
    if name == "model":
        return config.model.kind
    if name == "power":
        return config.model.power
    if name in _NEEDS:
        return config.model.scale
    if name == "format":
        return config.fmt
    return getattr(config, name.replace("-", "_"))


@pytest.mark.parametrize(
    "opt, command",
    [(opt, command) for opt in _OPTS for command in opt.commands],
    ids=lambda item: getattr(item, "name", item),
)
def test_flag_config_file_and_default_agree(opt, command, tmp_path):
    base = [command, *_NEEDS.get(opt.name, ())]
    text = _SAMPLE_TEXT[opt.name]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{opt.name} = {text}\n")
    from_flag = parse_config([*base, f"--{opt.name}", text])
    assert parse_config([*base, "--config", str(cfg)]) == from_flag
    assert _resolved(from_flag, opt.name) == opt.conv(text)

    default = opt.default_for(command)
    assert _resolved(parse_config(base), opt.name) == default
    assert default != opt.conv(text)
    stated = re.search(r"\(default ([^)]+)\)", opt.help)
    if stated:
        assert opt.conv(stated.group(1)) == default


@pytest.mark.parametrize(
    "opt, command",
    [(opt, command) for opt in _OPTS for command in _SUBCOMMANDS if command not in opt.commands],
    ids=lambda item: getattr(item, "name", item),
)
def test_option_is_refused_where_it_is_not_read(opt, command, tmp_path):
    text = _SAMPLE_TEXT[opt.name]
    with pytest.raises(UsageError, match="unrecognized arguments"):
        parse_config([command, f"--{opt.name}", text])
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{opt.name} = {text}\n")
    with pytest.raises(UsageError, match="unknown config key"):
        parse_config([command, "--config", str(cfg)])


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("# study configuration\nrate-param = 2.5\nq = 3\n")
    config = parse_config(["power-sum", "--config", str(cfg), "--q", "2"])
    assert config.model.scale == 2.5  # file value survives
    assert config.q == 2  # flag wins over the file's q = 3


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(UsageError, match="cannot read"):
        parse_config(["rate", "--config", str(missing)])

    bad = tmp_path / "bad.cfg"
    bad.write_text("tol\n")
    with pytest.raises(UsageError, match="key = value"):
        parse_config(["rate", "--config", str(bad)])

    dup = tmp_path / "dup.cfg"
    dup.write_text("tol = 1e-6\ntol = 1e-7\n")
    with pytest.raises(UsageError, match="duplicate"):
        parse_config(["rate", "--config", str(dup)])

    foreign = tmp_path / "foreign.cfg"
    foreign.write_text("paths = 200\n")  # a real key, but not for this command
    with pytest.raises(UsageError, match="unknown config key"):
        parse_config(["rate", "--config", str(foreign)])

    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("nonsense = 1\n")
    with pytest.raises(UsageError, match="unknown config key"):
        parse_config(["rate", "--config", str(unknown)])


@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "--model", "ou", "--rate-param", "-1"],
        ["rate", "--model", "ou", "--width", "1.0"],  # scale flag of another model
        ["rate", "--model", "banana"],
        ["rate", "--schedule", "5:100,4:80"],
        ["rate", "--schedule", "5x100"],
        ["rate", "--tol", "0"],
        ["rate", "--seed", "-1"],  # seed is read only by mc-validate
        ["mc-validate", "--seed", "-1"],
        ["rate", "--format", "xml"],
        ["power-sum", "--q", "5"],
        ["power-sum", "--q", "0"],
        ["power-sum", "--T", "-3"],
        ["power-sum", "--n", "0"],
        ["sandwich", "--degree", "0"],
        ["sandwich", "--domain-max", "-1"],
        ["mc-validate", "--paths", "10"],
        ["mc-validate", "--refine", "2"],
        ["mc-validate", "--lags", "0,100"],  # n defaults to 100, lag must stay below it
        ["mc-validate", "--lags", "0,x"],
        ["rate", "--no-such-flag"],
        [],
        ["frobnicate"],
        ["sandwich", "--degree", "1029"],
        ["sandwich", "--power", "0"],
        ["sandwich", "--domain-max", "1e200"],  # the construction would overflow
        ["sandwich", "--power", "1e200"],  # so would the default cap 2*integral|R|
    ],
)
def test_usage_errors(argv, monkeypatch):
    # a parse only resolves and checks options, so each input is refused
    # before any sampler route is built
    def refuse(*args, **kwargs):
        raise AssertionError("parse_config built a sampler route before refusing the input")

    monkeypatch.setattr(cli, "_route", refuse)
    with pytest.raises(UsageError):
        parse_config(argv)


# A refused value of each option with a range, and the command whose run
# reads it; the run is the defaults' config with that one value swapped in.
_REFUSED = [
    ("rate", "tol", "0"),
    ("mc-validate", "seed", "-1"),
    ("dump-gram", "T", "-3"),
    ("dump-gram", "n", "0"),
    ("power-sum", "q", "5"),
    ("sandwich", "degree", "0"),
    ("sandwich", "domain-max", "-1"),
    ("mc-validate", "refine", "2"),
    ("mc-validate", "paths", "10"),
    ("mc-validate", "lags", "0,100"),
]


@pytest.mark.parametrize("command, name, text", _REFUSED, ids=lambda item: item)
def test_usage_error_is_worded_as_the_library_call_of_the_run(command, name, text):
    # the CLI states no range of its own: a value it refuses is refused by
    # the same library check, in the same words, when the run reaches it
    with pytest.raises(UsageError) as usage:
        parse_config([command, f"--{name}", text])
    (opt,) = [opt for opt in _OPTS if opt.name == name]
    config = dataclasses.replace(parse_config([command]), **{opt.dest: opt.conv(text)})
    with pytest.raises(ValueError) as library:
        run(config)
    assert str(usage.value) == str(library.value)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_every_model_kind_builds_with_its_own_scale_flag(kind):
    flag = _FAMILIES[kind].scale_flag
    config = parse_config(["rate", "--model", kind.value, "--power", "2", f"--{flag}", "0.5"])
    assert config.model.kind is kind
    assert (config.model.power, config.model.scale) == (2.0, 0.5)
    for other in ModelKind:
        if other is not kind:
            other_flag = _FAMILIES[other].scale_flag
            message = f"--{other_flag} applies only to --model {other.value}"
            with pytest.raises(UsageError, match=message):
                parse_config(["rate", "--model", kind.value, f"--{other_flag}", "0.5"])


def test_model_error_lists_every_model_kind():
    with pytest.raises(UsageError) as info:
        parse_config(["rate", "--model", "banana"])
    listed = str(info.value).split("one of ", 1)[1].split(";", 1)[0]
    assert listed.split(", ") == [kind.value for kind in ModelKind]


# ---------------------------------------------------------------------------
# memory guard
# ---------------------------------------------------------------------------
def _route_of(config):
    """The sampler route that an mc-validate run of this config builds."""
    return mc._route(config.model, SamplingGrid(T=config.T, n=config.n), config.refine)


def _estimate(config, route=None) -> int:
    """The memory estimate that the run of this config checks against the
    cap; for mc-validate, on ``route`` or else the route the run builds."""
    if config.command == "sandwich":
        return cli._sandwich_bytes(config)
    route = _route_of(config) if route is None else route
    return mc._validation_bytes(route, config.n, config.paths, len(config.lags))


_OVER_THE_CAP = [
    # two half blocks of 20001^2 floats; n = 20000 now fits under the cap
    ("sandwich", "--schedule", "100:40000"),
    # no paths x n table is held, but the lags + 2 = 6 per-path vectors
    # alone take 6 * 8 * 5e7 bytes = 2.2 GiB
    ("mc-validate", "--paths", "50000000"),
    # a kernel far wider than T takes the eigen-factor, whose set-up
    # holds about 5n^2 values: 3.7 GiB at n = 10 000
    ("mc-validate", "--model", "gauss", "--width", "1e6", "--n", "10000"),
    # the smallest embedding of a long grid, 2n = 1e8 values per path,
    # holds 2.5e8 values per sampler thread and six vectors of 1e8 to set up
    ("mc-validate", "--n", "50000000", "--paths", "100", "--lags", "0"),
]
_WIDE_AND_LONG = [
    # supports wider than T take the eigen-factor of the 100 x 100 matrix
    ("mc-validate", "--model", "tri", "--support", "50"),
    ("mc-validate", "--model", "tri", "--support", "1e6"),
    # the cell embedding is definite only once padded 4-fold, at 8n
    ("mc-validate", "--model", "gauss", "--width", "5"),
    ("mc-validate", "--model", "gauss", "--n", "2000"),
]


@pytest.mark.parametrize("argv", _OVER_THE_CAP, ids=" ".join)
def test_memory_exhausting_inputs_are_refused_before_allocating(argv):
    with pytest.raises(UsageError, match=r"needs an estimated \d+\.\d GiB of memory, over the cap"):
        run(parse_config(argv))


@pytest.mark.parametrize("argv", _WIDE_AND_LONG, ids=" ".join)
def test_wide_kernels_and_long_grids_fit_at_the_default_path_count(argv):
    assert _estimate(parse_config(argv)) < 2**30


@pytest.mark.parametrize(
    "argv",
    [(command,) for command in _SUBCOMMANDS] + _WIDE_AND_LONG + _OVER_THE_CAP,
    ids=" ".join,
)
def test_parse_config_builds_no_route(argv, monkeypatch):
    # a parse resolves and checks options; the run that draws the paths
    # builds their route, and prices it against the cap
    def refuse(*args, **kwargs):
        raise AssertionError("parse_config built a sampler route")

    monkeypatch.setattr(cli, "_route", refuse)
    monkeypatch.setattr(mc, "_eigen_factor", refuse)
    parse_config(argv)


def test_run_config_holds_the_command_the_model_and_the_options_only():
    scales = {_FAMILIES[kind].scale_flag.replace("-", "_") for kind in ModelKind}
    options = {opt.dest for opt in _OPTS} - {"power", "format", *scales}
    assert {spec.name for spec in dataclasses.fields(cli.RunConfig)} == {
        "command", "fmt", *options
    }


@pytest.mark.parametrize(
    "change, flags",
    [
        ({"refine": 16}, ("--refine", "16")),
        ({"n": 150}, ("--n", "150")),
        ({"T": 40.0}, ("--T", "40")),
        ({"model": SpectralModel(ModelKind.GAUSSIAN_KERNEL, 1.0, 1.0)}, ("--model", "gauss")),
    ],
    ids=["refine", "n", "T", "gauss"],
)
def test_a_replaced_config_runs_as_its_fresh_parse(change, flags, capsys):
    # a config equal to another runs as it does: the run draws from the
    # model, grid and refine that the config names
    argv = ("mc-validate", "--paths", "200")
    replaced = dataclasses.replace(parse_config(argv), **change)
    fresh = parse_config((*argv, *flags))
    assert replaced == fresh
    code = run(replaced)
    report = capsys.readouterr()
    assert run(fresh) == code
    assert capsys.readouterr() == report


@pytest.mark.parametrize("width", ["1", "100", "1000", "21600", "1e6", "1e300"])
def test_every_gaussian_width_is_accepted_in_a_small_set_up(width):
    # a kernel wider than T takes the eigen-factor of the n x n cell
    # covariance, whose size does not grow with the width, where the refined
    # grid's embedding once grew with width/delta and was refused from a
    # width of about 21 600
    _route_of(parse_config(("mc-validate", "--model", "gauss", "--width", "1")))  # loads modules
    config = parse_config(("mc-validate", "--model", "gauss", "--width", width))
    tracemalloc.start()
    try:
        route = _route_of(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert route.size in (0, 200) and route.draws <= 202


def _traced_peak(config, capsys) -> int:
    run(config)  # loads modules and fills caches outside the measurement
    tracemalloc.start()
    try:
        run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    return peak


@pytest.mark.parametrize(
    "argv",
    [
        ("sandwich",),
        ("sandwich", "--schedule", "10:200"),
        # odd n: the symmetric half block is bordered by one row
        ("sandwich", "--schedule", "25:501,50:1003"),
        ("sandwich", "--schedule", "10:1000", "--degree", "8"),
        ("sandwich", "--schedule", "10:200", "--degree", "1028"),
        ("mc-validate", "--model", "gauss", "--n", "20", "--paths", "200", "--lags", "0"),
        # the eigen-factor: the cell embedding of this short horizon is indefinite
        ("mc-validate", "--model", "gauss", "--T", "1", "--n", "20", "--paths", "200",
         "--lags", "0"),
        ("mc-validate", "--model", "gauss", "--width", "100", "--paths", "2000", "--lags", "0"),
        # the embedding padded to 8n
        ("mc-validate", "--model", "gauss", "--width", "5", "--paths", "2000", "--lags", "0"),
        ("mc-validate", "--n", "40", "--paths", "1000", "--refine", "4", "--lags", "0"),
        # several blocks of paths
        ("mc-validate", "--model", "tri", "--n", "100", "--paths", "2000", "--lags", "0"),
        # more blocks than sampler threads, so each thread reuses its workspace
        ("mc-validate", "--n", "100", "--paths", "4000", "--lags", "0"),
        # each cell covariance sums 2 refine + 1 = 1 048 577 acf values, in tiles
        ("mc-validate", "--n", "4", "--paths", "100", "--refine", "524288", "--lags", "0"),
    ],
    ids=" ".join,
)
def test_memory_estimate_bounds_the_traced_peak(argv, capsys):
    config = parse_config(argv)
    assert _traced_peak(config, capsys) < _estimate(config)


@pytest.mark.parametrize(
    "argv",
    [
        # each cell covariance sums 2 refine + 1 = 1 048 577 acf values, in tiles
        ("mc-validate", "--n", "4", "--paths", "100", "--refine", "524288", "--lags", "0"),
        # the search tries 2n = 40, then the eigen-factor
        ("mc-validate", "--model", "gauss", "--T", "1", "--n", "20", "--paths", "200",
         "--lags", "0"),
        # the search tries 800 to 6400, then eigh factors a 400 x 400 matrix
        ("mc-validate", "--model", "gauss", "--width", "1000", "--n", "400", "--paths", "100",
         "--lags", "0"),
    ],
    ids=" ".join,
)
def test_memory_estimate_bounds_the_traced_route_build(argv):
    # the route's set-up, traced alone, before any path is drawn
    config = parse_config(argv)
    _route_of(config)  # loads modules and fills caches outside the measurement
    tracemalloc.start()
    try:
        route = _route_of(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _estimate(config, route)


@pytest.mark.parametrize(
    "argv",
    [
        ("mc-validate",),
        ("mc-validate", "--model", "gauss"),
        # the eigen-factor, of rank 4
        ("mc-validate", "--model", "gauss", "--width", "100"),
    ],
    ids=" ".join,
)
def test_mc_validate_estimate_stays_near_the_traced_peak(argv, capsys):
    # an estimate far above the peak would refuse runs that fit under the cap
    config = parse_config(argv)
    peak = _traced_peak(config, capsys)
    assert peak < _estimate(config) <= 1.3 * peak


def test_mc_validate_memory_does_not_grow_with_the_path_count(capsys, monkeypatch):
    # only the lags + 2 = 3 per-path vectors grow with the path count; one
    # sampler thread, so the peak does not depend on how the threads' blocks
    # overlap in time
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 1)
    argv = ("mc-validate", "--n", "100", "--lags", "0", "--paths")
    small = _traced_peak(parse_config((*argv, "4000")), capsys)
    large = _traced_peak(parse_config((*argv, "16000")), capsys)
    assert large - small <= 3 * 8 * 12_000 + 1_000_000


@pytest.mark.parametrize(
    "argv, boxes, code, sizes, factors",
    [
        # the cell embedding of this short horizon is indefinite at 2n = 40,
        # and 80 would cost more per path than the eigen-factor
        (("--model", "gauss", "--T", "1", "--n", "20", "--paths", "200", "--lags", "0"),
         False, 0, [40], 1),
        # definite once padded to 8n
        (("--model", "gauss", "--width", "5", "--paths", "200", "--lags", "0"),
         False, 0, [200, 400, 800], 0),
        # the box-shaped acf of the mc tests' indefinite case: its cell
        # covariance is indefinite at 2n = 8 and in the eigen-factor, which
        # the guard reports
        (("--model", "gauss", "--width", "3", "--T", "1", "--n", "4", "--refine", "4",
          "--paths", "100", "--lags", "0"), True, 3, [8], 1),
        # the exponential model's embedding is definite at the smallest size
        (("--n", "20", "--paths", "200", "--lags", "0"), False, 0, [40], 0),
    ],
    ids=["gauss-padded", "gauss-padded-8n", "indefinite-at-the-padding-stop", "ou"],
)
def test_padded_mc_validate_searches_each_embedding_size_once(argv, boxes, code, sizes, factors,
                                                              capsys, monkeypatch):
    # the memory guard builds the sampler's route, and the run takes it: each
    # embedding size is searched once, and the eigen-factor built at most once
    searched, eigs, factored, factor = [], mc._circulant_eigs, [], mc._eigen_factor

    def recording_eigs(c, size):
        searched.append(size)
        return eigs(c, size)

    def recording_factor(c):
        factored.append(c.size)
        return factor(c)

    monkeypatch.setattr(mc, "_circulant_eigs", recording_eigs)
    monkeypatch.setattr(mc, "_eigen_factor", recording_factor)
    if boxes:
        # a box of radius 0.5 on a lower box of radius s: its spectrum is a
        # sinc, which changes sign
        family = _FAMILIES[ModelKind.GAUSSIAN_KERNEL]
        boxed = dataclasses.replace(family, acf=lambda p, s, t: p * ((t < 0.5) + 0.1 * (t < s)))
        monkeypatch.setitem(_FAMILIES, ModelKind.GAUSSIAN_KERNEL, boxed)
    assert main(["mc-validate", *argv]) == code
    assert searched == sizes
    assert len(factored) == factors
    if code == 3:
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert "cell covariance of n=4 cells is indefinite" in err


def test_large_gaussian_mc_validate_fits_at_few_paths(capsys):
    # the circulant embedding of size 2n holds O(n) floats per path, where
    # a dense factor of the refined grid's covariance held O(m^2) for m =
    # 16 001 points
    assert main(["mc-validate", "--model", "gauss", "--n", "2000", "--paths", "200"]) == 0
    assert "zScore" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------
def test_cell_formatting():
    assert _fmt_cell(3) == "3"
    assert _fmt_cell(0.5) == "5.00000000e-01"
    assert _fmt_cell(-1.5e-11) == "-1.50000000e-11"
    with pytest.raises(TypeError):
        _fmt_cell(True)


def test_text_and_csv_hold_identical_cells(capsys):
    assert main(["dump-gram", "--T", "2", "--n", "6", "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert main(["dump-gram", "--T", "2", "--n", "6", "--format", "text"]) == 0
    text_out = capsys.readouterr().out
    _, csv_rows = _csv_rows(csv_out)
    text_rows = [line.split() for line in text_out.strip().splitlines()[1:]]
    assert text_rows == csv_rows


def test_out_flag_redirects_report(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code = main(
        ["dump-gram", "--T", "2", "--n", "10", "--format", "csv", "--out", str(target)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[dump-gram]" in captured.err
    lines = target.read_text().splitlines()
    assert lines[0] == "l,gamma,gammaHat"
    assert len(lines) == 11


@pytest.mark.parametrize(
    "argv",
    [
        ("dump-gram", "--out", "{tmp}"),
        ("mc-validate", "--n", "4", "--paths", "100", "--lags", "0",
         "--dump-batch", "{tmp}/missing/x.bin"),
    ],
    ids=["out", "dump-batch"],
)
def test_unwritable_output_path_is_a_usage_error(argv, tmp_path, capsys):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_unwritable_dump_path_is_refused_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before the dump path was checked")

    monkeypatch.setattr(mc, "_sample_blocks", no_sampling)
    argv = ["mc-validate", "--dump-batch", str(tmp_path / "missing" / "x.bin")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot write batch dump ")


def test_dump_gram_reports_wrapped_coefficients(tmp_path):
    target = tmp_path / "gram.csv"
    assert main(["dump-gram", "--T", "5", "--n", "20", "--format", "csv", "--out", str(target)]) == 0
    _, rows = _csv_rows(target.read_text())
    gamma = [float(r[1]) for r in rows]
    gamma_hat = [float(r[2]) for r in rows]
    n = len(rows)
    assert rows[0][1] == rows[0][2]  # lag 0 is untouched by the wrap
    for l in range(1, n):
        assert gamma_hat[l] == pytest.approx(gamma[l] + gamma[n - l], rel=1e-7)


def test_dump_spectrum_reports_symbol_against_density(capsys):
    assert main(["dump-spectrum", "--T", "10", "--n", "100", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    header, rows = _csv_rows(out)
    assert header == ["m", "psiHat", "twoPiPsd", "absDiff"]
    assert len(rows) == 100
    first = rows[0]
    assert first[0] == "0"
    assert float(first[2]) == 2.0  # the density limit at frequency zero
    assert float(first[3]) < 1e-3


# ---------------------------------------------------------------------------
# exit codes (in-process)
# ---------------------------------------------------------------------------
def test_exit_zero_with_study_summary_on_stderr(capsys):
    assert main(["rate", "--schedule", "2:40,4:80", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    header, rows = _csv_rows(captured.out)
    assert ",".join(header) == RATE_HEADER
    assert len(rows) == 2
    for row in rows:
        assert all(FLOAT_CELL.match(cell) for cell in row[2:])
    assert captured.err.count("[rate]") == 2


def test_two_sample_schedule_reports_nan_alignment(capsys):
    # With n = 2 no frequency 0 < m < n/2 is resolvable, so the alignment
    # cell is a documented nan rather than an error.
    assert main(["rate", "--schedule", "1:2", "--format", "csv"]) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0][header.index("eigPsdSupErr")] == "nan"
    assert all(FLOAT_CELL.match(cell) for cell in rows[0][2:-1])


def test_exit_two_reports_usage_error(capsys):
    assert main(["power-sum", "--q", "9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_three_reports_numerical_failure(capsys):
    assert main(["power-sum", "--T", "10", "--n", "100", "--tol", "1e-300"]) == 3
    assert "numerical failure:" in capsys.readouterr().err


# model parameters whose values leave float64 in a run's own arithmetic,
# past the closed forms that the library checks
_RUN_OVERFLOW = [
    # the Gaussian psd forms -inf * 0 at frequency 0
    ("dump-spectrum", "--model", "gauss", "--width", "1e300"),
    # the per-path reductions of the increments overflow, in the sampler's threads
    ("mc-validate", "--model", "ou", "--power", "1e300", "--paths", "200"),
]

# model parameters whose closed forms leave float64
_EXTREME = [
    (command, *model)
    for model in (
        ("--model", "gauss", "--width", "1e300"),
        ("--model", "ou", "--rate-param", "1e300"),
        ("--model", "tri", "--support", "1e-300"),
        ("--model", "ou", "--rate-param", "1e-300"),
        ("--model", "tri", "--support", "1e300"),
    )
    for command in ("rate", "power-sum")
] + [
    ("rate", "--model", "ou", "--power", "1e300"),
    ("rate", "--model", "gauss", "--power", "1e200"),
    ("power-sum", "--model", "gauss", "--width", "1e-300"),
    # the tail bound's prefactor underflows to 0; the tail truncation reaches inf
    ("rate", "--model", "tri", "--power", "1e-300", "--support", "1e300"),
    ("power-sum", "--model", "tri", "--power", "1e300", "--support", "1e-300"),
    *_RUN_OVERFLOW,
]
_TYPED = {1: "invariant violated:", 2: "error:", 3: "numerical failure:"}


@pytest.mark.parametrize("argv", _EXTREME, ids=" ".join)
def test_extreme_model_parameters_exit_by_the_table(argv):
    # no traceback and no library warning: every stderr line is a report
    # line ("[command] ...") or a typed line, and the exit code has its own
    result = run_cli(*argv)
    assert "Traceback" not in result.stderr
    assert result.returncode in (0, *_TYPED)
    lines = [line for line in result.stderr.splitlines() if not line.startswith("[")]
    assert all(line.startswith(tuple(_TYPED.values())) for line in lines), result.stderr
    if result.returncode:
        assert any(line.startswith(_TYPED[result.returncode]) for line in lines)


@pytest.mark.parametrize("argv", _RUN_OVERFLOW, ids=" ".join)
def test_overflow_inside_a_run_is_a_numerical_failure(argv):
    # a run raises on overflow, invalid and divide, so its report holds no
    # inf or nan and no library warning reaches stderr
    result = run_cli(*argv)
    assert result.returncode == 3
    assert result.stderr.startswith("numerical failure:") and result.stderr.count("\n") == 1


def test_wide_kernel_reports_a_negative_circulant_rate():
    # with T no longer than the kernel width the wrapped circulant row is
    # indefinite, so a negative circulant rate is a legitimate report cell
    result = run_cli(
        "rate", "--model", "gauss", "--width", "200", "--schedule", "5:50", "--format", "csv"
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    header, rows = _csv_rows(result.stdout)
    assert float(rows[0][header.index("circulantRate")]) < 0.0
    assert float(rows[0][header.index("sampledRate")]) > 0.0


def test_circulant_eigenvalue_at_or_below_minus_one_exits_three(capsys):
    # at power 20 the same kernel puts a circulant eigenvalue near -P*h = -2
    argv = ["rate", "--model", "gauss", "--width", "200", "--power", "20", "--schedule", "5:50"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "is <= -1" in err


@pytest.mark.parametrize(
    "args, codes",
    [
        (("power-sum", "--model", "tri", "--q", "2", "--tol", "1e-13"), (0, 3)),
        (("rate", "--model", "tri", "--tol", "1e-13", "--schedule", "5:50"), (0, 3)),
        (("rate", "--tol", "1e-15", "--schedule", "5:50"), (3,)),
    ],
)
def test_tight_tolerances_print_no_warning(args, codes):
    # a tolerance either holds, with a clean report, or is refused with one
    # typed line; no library warning reaches stderr
    result = run_cli(*args)
    assert result.returncode in codes
    assert "Warning" not in result.stderr
    if result.returncode == 0:
        assert result.stdout and "numerical failure" not in result.stderr
    else:
        assert result.stderr.startswith("numerical failure:")
        assert result.stderr.count("\n") == 1


def test_power_sum_on_one_cell_has_no_wrap_term(capsys):
    # one cell has no wrapped pair: the sum is all Parseval part
    assert main(["power-sum", "--n", "1", "--format", "csv"]) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    cell = dict(zip(header, rows[0]))
    assert float(cell["s2"]) == 0.0
    assert float(cell["lhs"]) == float(cell["s1"])


def test_sandwich_subcommand_brackets_each_point(capsys):
    assert main(["sandwich", "--schedule", "2:40,4:80", "--degree", "32", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    header, rows = _csv_rows(captured.out)
    assert header == ["T", "n", "h", "lowerBound", "eigLogSum", "upperBound", "bracketWidth"]
    for row in rows:
        lower, mid, upper = float(row[3]), float(row[4]), float(row[5])
        assert lower <= mid <= upper
    assert "epsHat" in captured.err


def test_sandwich_at_a_high_degree_exits_zero(capsys):
    assert main(["sandwich", "--degree", "1000", "--schedule", "5:50"]) == 0
    assert "degree=1000" in capsys.readouterr().err


def test_sandwich_at_zero_power_needs_an_explicit_domain(capsys):
    # the default cap 2*integral|R| is 0 at power 0: a usage error naming the
    # flag that fixes it, not a traceback
    assert main(["sandwich", "--power", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--domain-max" in err
    args = ["sandwich", "--power", "0", "--domain-max", "1", "--schedule", "2:40", "--format", "csv"]
    assert main(args) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert float(rows[0][header.index("bracketWidth")]) == 0.0


def test_equivalence_subcommand_shares_rate_table(capsys):
    assert main(["equivalence", "--schedule", "2:40", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    header, _ = _csv_rows(captured.out)
    assert ",".join(header) == RATE_HEADER
    assert "[equivalence]" in captured.err


# ---------------------------------------------------------------------------
# subprocess end-to-end
# ---------------------------------------------------------------------------
def test_module_entry_reruns_are_byte_identical():
    args = ("rate", "--schedule", "2:40,4:80", "--format", "csv")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.splitlines()[0] == RATE_HEADER


def test_mc_validate_flags_a_three_sigma_excursion(capsys, monkeypatch):
    # one empirical covariance 3.1 standard errors from the analytic value:
    # the run must report the violation and exit 1
    model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)

    def estimates(route, grid, refine, paths, seed, lags, dump=None):
        empirical = gamma_sequence(model, grid).gamma[list(lags)]
        stderr = np.full(len(lags), 0.01)
        empirical[1] += 3.1 * stderr[1]
        return empirical, stderr, 1.0

    monkeypatch.setattr(cli, "_validation_estimates", estimates)
    assert main(["mc-validate", "--n", "20", "--paths", "100", "--lags", "0,1"]) == 1
    err = capsys.readouterr().err
    assert "invariant violated" in err
    assert "standard errors" in err
    assert "lag 1 is 3.100 standard errors" in err


def test_mc_validate_dump_and_reproducibility(tmp_path):
    dump_a = tmp_path / "a.szgl"
    dump_b = tmp_path / "b.szgl"
    args = ("mc-validate", "--paths", "150", "--seed", "9", "--format", "csv")
    first = run_cli(*args, "--dump-batch", str(dump_a))
    second = run_cli(*args, "--dump-batch", str(dump_b))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert dump_a.read_bytes() == dump_b.read_bytes()
    header, rows = _csv_rows(first.stdout)
    assert header == ["lag", "empirical", "analytic", "stdErr", "zScore"]
    assert [row[0] for row in rows] == ["0", "1", "2", "5"]

    from szegolab import read_batch

    meta, table = read_batch(dump_a)
    assert meta == {"version": mc.BATCH_VERSION, "paths": 150, "n": 100, "refine": 8, "seed": 9}
    assert table.shape == (150, 100)

    # the streamed dump is the file write_batch writes for the same batch
    model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    write_batch(sample_paths(model, SamplingGrid(T=10.0, n=100), paths=150, seed=9),
                tmp_path / "table.szgl")
    assert dump_a.read_bytes() == (tmp_path / "table.szgl").read_bytes()


SCIPY_MODULES = (
    "scipy", "scipy.signal", "scipy.stats", "scipy.linalg", "scipy.integrate", "scipy.special"
)


def _scipy_submodules_loaded_by(code: str, watched=SCIPY_MODULES) -> list[str]:
    # runs ``code`` in a fresh interpreter and lists the ``watched`` modules
    # it loaded; sys.modules also sees the scipy submodules that load lazily
    # on attribute access
    code += f"\nprint('loaded:', *(m for m in {watched!r} if m in sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1].split()[1:]


def _scipy_submodules_loaded_by_cli(
    *argv: str, exit_code: int = 0, watched=SCIPY_MODULES
) -> list[str]:
    return _scipy_submodules_loaded_by(
        "import runpy, sys\n"
        f"sys.argv = ['szegolab', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('szegolab', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        f"    assert exc.code == {exit_code}, exc.code\n"
        "else:\n"
        "    raise AssertionError('no exit')\n",
        watched,
    )


def test_import_loads_no_scipy_submodule():
    # nor a thread pool, logging, numpy's random generators or its
    # polynomial package (the quadrature rules are tables): each costs every
    # process import time
    watched = (
        *SCIPY_MODULES, "concurrent.futures", "logging", "numpy.random", "numpy.polynomial"
    )
    assert _scipy_submodules_loaded_by("import sys, szegolab, szegolab.cli", watched) == []


def test_usage_error_loads_no_scipy_submodule():
    assert _scipy_submodules_loaded_by_cli("rate", "--no-such-flag", exit_code=2) == []


@pytest.mark.parametrize(
    "argv",
    [(command,) for command in _SUBCOMMANDS]
    + [("rate", "--model", "gauss"), ("rate", "--model", "tri")]
    + [("mc-validate", "--model", "gauss"), ("mc-validate", "--model", "tri")],
    ids=" ".join,
)
def test_cli_run_loads_no_scipy_submodule(argv):
    # every subcommand at its defaults computes on numpy and math alone, and
    # reads its quadrature rules from tables, not from numpy.polynomial
    watched = (*SCIPY_MODULES, "numpy.polynomial")
    assert _scipy_submodules_loaded_by_cli(*argv, watched=watched) == []


def test_config_file_value_feeds_the_computation(tmp_path):
    # an exponential model with decay 2.5 has squared-covariance integral
    # P^2 / 2.5 = 0.4, which the q=2 comparison reports as its limit side
    cfg = tmp_path / "model.cfg"
    cfg.write_text("rate-param = 2.5\n")
    result = run_cli(
        "power-sum", "--config", str(cfg), "--q", "2",
        "--T", "40", "--n", "1600", "--format", "csv",
    )
    assert result.returncode == 0
    header, rows = _csv_rows(result.stdout)
    assert header == ["q", "T", "n", "lhs", "rhs", "gap", "s1", "s2"]
    rhs = float(rows[0][header.index("rhs")])
    assert rhs == pytest.approx(0.4, rel=1e-7)
