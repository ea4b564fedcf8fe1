"""Command-line front-end: configuration resolution, report formatting,
exit codes, and cross-process reproducibility.

Cheap paths run in-process through ``szegolab.cli.main``; reproducibility and
environment handling run the real module entry point in subprocesses.
"""

import os
import re
import subprocess
import sys

import pytest

from szegolab import DEFAULT_SCHEDULE, ModelKind, UsageError
from szegolab.cli import _fmt_cell, main, parse_config

FLOAT_CELL = re.compile(r"^-?\d\.\d{8}e[+-]\d{2,3}$")
RATE_HEADER = (
    "T,n,h,sampledRate,circulantRate,targetRate,absErr,relErr,wrapDiffFrobSqOverT,"
    "traceGap_k1,traceGap_k2,traceGap_k3,traceGap_k4,eigPsdSupErr"
)


def run_cli(*args, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k != "SZGL_THREADS"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "szegolab", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture(autouse=True)
def _clean_thread_env(monkeypatch):
    monkeypatch.delenv("SZGL_THREADS", raising=False)


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
    assert config.seed == 42
    assert config.fmt == "text"
    assert config.out is None
    assert config.workers == 1
    assert config.schedule == DEFAULT_SCHEDULE


def test_point_defaults():
    ps = parse_config(["power-sum"])
    assert (ps.T, ps.n, ps.q) == (100.0, 4000, 2)
    mc = parse_config(["mc-validate"])
    assert (mc.T, mc.n, mc.refine, mc.paths) == (10.0, 100, 8, 10_000)
    assert mc.lags == (0, 1, 2, 5)
    assert mc.dump_batch is None
    for command in ("dump-gram", "dump-spectrum"):
        cfg = parse_config([command])
        assert (cfg.T, cfg.n) == (10.0, 200)


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
        ["rate", "--seed", "-1"],
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
    ],
)
def test_usage_errors(argv):
    with pytest.raises(UsageError):
        parse_config(argv)


def test_workers_env(monkeypatch):
    monkeypatch.setenv("SZGL_THREADS", "4")
    assert parse_config(["rate"]).workers == 4
    monkeypatch.setenv("SZGL_THREADS", "0")
    assert parse_config(["rate"]).workers == (os.cpu_count() or 1)
    monkeypatch.setenv("SZGL_THREADS", "abc")
    with pytest.raises(UsageError):
        parse_config(["rate"])
    monkeypatch.setenv("SZGL_THREADS", "-2")
    with pytest.raises(UsageError):
        parse_config(["rate"])


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


def test_sandwich_subcommand_brackets_each_point(capsys):
    assert main(["sandwich", "--schedule", "2:40,4:80", "--degree", "32", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    header, rows = _csv_rows(captured.out)
    assert header == ["T", "n", "h", "lowerBound", "eigLogSum", "upperBound", "bracketWidth"]
    for row in rows:
        lower, mid, upper = float(row[3]), float(row[4]), float(row[5])
        assert lower <= mid <= upper
    assert "epsHat" in captured.err


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


def test_thread_count_does_not_change_the_report():
    args = ("rate", "--schedule", "2:40,4:80,6:120", "--format", "csv")
    serial = run_cli(*args)
    threaded = run_cli(*args, env_extra={"SZGL_THREADS": "4"})
    assert serial.returncode == threaded.returncode == 0
    assert serial.stdout == threaded.stdout


def test_thread_env_validation_exit_two():
    result = run_cli("rate", env_extra={"SZGL_THREADS": "abc"})
    assert result.returncode == 2
    assert "SZGL_THREADS" in result.stderr


def test_mc_validate_flags_a_three_sigma_excursion():
    # seed chosen so one empirical covariance lands just past three standard
    # errors: the run must report the violation and exit 1
    result = run_cli("mc-validate", "--paths", "100", "--seed", "29")
    assert result.returncode == 1
    assert "invariant violated" in result.stderr
    assert "standard errors" in result.stderr


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
    assert meta == {"version": 1, "paths": 150, "n": 100, "refine": 8, "seed": 9}
    assert table.shape == (150, 100)


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
