"""Command-line surface: commands, CSV schemas, exit codes."""

from __future__ import annotations

import codecs
import contextlib
import csv
import errno
import io
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tristep
from tristep import (
    PRESET_LABELS,
    PROBLEM_LABELS,
    Trajectory,
    build_grid,
    cp_rhs,
    format_config,
    integrate,
    parse_config,
    preset,
    preset_from_config,
)
from tristep import cli
from tristep.cli import (
    EXIT_BLOWUP,
    EXIT_INTERRUPT,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
    read_trajectory_csv,
    round_half_away,
    write_trajectory_csv,
)
from tristep.numerics import kept_indices

FROZEN_CONFIG = """\
# no flows at all: the population stays put
t0 = 0
T = 1
k = 0.01
theta = 0
gamma = 0
rho = 1
mu = 0
p1 = 0
p2 = 0
beta1 = 0
beta2 = 0
alpha1 = 0
alpha2 = 0
r1 = 0
r2 = 0
tau = 0
b1 = 0
b2 = 0
sigma = 0
bign = 1e7
y0 = 3.5e6, 1.5e6, 1.5e6, 0, 3.5e6
eras = 0, 0.5, 1
"""

STIFF_CONFIG = FROZEN_CONFIG.replace("gamma = 0", "gamma = 1e100").replace(
    "k = 0.01", "k = 0.1"
)

MISMATCH_CONFIG = FROZEN_CONFIG.replace("alpha1 = 0", "alpha1 = 0.5").replace(
    "p1 = 0", "p1 = 0.1"
)


# ----------------------------------------------------------------- converge


def test_converge_writes_csv_and_prints_table(tmp_path, capsys):
    out = tmp_path / "table1.csv"
    assert main(["converge", "example1", "4..8", "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "E_norm" in captured.out
    with out.open(newline="") as stream:
        rows = list(csv.DictReader(stream))
    assert len(rows) == 5
    assert list(rows[0]) == ["k", "y_norm", "Y_norm", "E_norm", "rate"]
    assert rows[0]["rate"] == ""
    assert float(rows[0]["k"]) == 2.0**-4
    assert float(rows[-1]["rate"]) == pytest.approx(2.0, abs=0.05)


def test_converge_single_exponent_has_empty_rate(tmp_path, capsys):
    out = tmp_path / "single.csv"
    assert main(["converge", "example1", "4..4", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    with out.open(newline="") as stream:
        rows = list(csv.DictReader(stream))
    assert len(rows) == 1
    assert rows[0]["rate"] == ""


def test_converge_example2_fine_pair(tmp_path, capsys):
    out = tmp_path / "table2.csv"
    assert main(["converge", "example2", "7..8", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    with out.open(newline="") as stream:
        rows = list(csv.DictReader(stream))
    assert len(rows) == 2
    assert float(rows[1]["rate"]) == pytest.approx(1.99, abs=0.15)


def test_converge_rejects_unknown_problem(capsys):
    assert main(["converge", "example9", "4..8"]) == EXIT_USAGE
    capsys.readouterr()


def test_converge_rejects_malformed_ranges(capsys):
    for exponents in ("8..4", "abc", "0..3", "a..8", "4.5..8"):
        assert main(["converge", "example1", exponents]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert err == "error: expected integers in the exponent range, got '4.5..8'\n"


@pytest.mark.parametrize(
    "exponents",
    [
        "1074..1074",
        "4..1100",
        pytest.param(f"1..{10**400}", id="1..10**400"),
        pytest.param(f"{10**400}..{10**400}", id="10**400..10**400"),
        pytest.param("1..1000000000", id="1..10**9"),
    ],
)
def test_converge_rejects_a_step_too_small_for_its_grid_before_any_work(
    exponents, capsys, monkeypatch
):
    # 2^-1074 is the smallest subnormal and 2^-1100 rounds to zero; beyond
    # 2^-1023 the step count 1 / k overflows, so those grids cannot be built;
    # an exponent too large for a float, or a range too long for a list,
    # fails at its first such grid
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated a grid before every grid was built")

    monkeypatch.setattr("tristep.studies.integrate", no_integration)
    assert main(["converge", "example1", exponents]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "too small" in err


def test_converge_rejects_states_that_do_not_fit_in_memory(capsys):
    # k = 2^-53 over [0, 1] asks for (2^53 + 1) x 3 doubles (216 PiB), more
    # than any address space, so the allocation is refused at once
    assert main(["converge", "example1", "53..53"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "9007199254740993 states do not fit in memory" in err


def test_converge_rejects_a_finest_grid_too_large_for_memory_before_any_work(
    capsys, monkeypatch
):
    # 4..53 would integrate e = 4..52, days of stepping, before e = 53
    # asked for its (2^53 + 1) x 3 doubles; the study asks first
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated a grid before the finest grid was checked")

    monkeypatch.setattr("tristep.studies.integrate", no_integration)
    tracemalloc.start()
    try:
        assert main(["converge", "example1", "4..53"]) == EXIT_USAGE
        lasting, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err == (
        "error: step size k=1.1102230246251565e-16 is too small: "
        "the run's 9007199254740993 states do not fit in memory\n"
    )
    assert lasting < 1 << 20


def _not_run(*args, **kwargs):
    raise AssertionError("ran although an output cannot be written")


def test_converge_unwritable_path_is_io_error(tmp_path, capsys, monkeypatch):
    # refused before the study
    monkeypatch.setattr("tristep.cli.run_convergence_study", _not_run)
    out = tmp_path / "absent-dir" / "table.csv"
    assert main(["converge", "example1", "4..13", "--out", str(out)]) == EXIT_IO
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"
    assert os.listdir(tmp_path) == []


# ----------------------------------------------------------------- simulate


def test_simulate_frozen_config_emits_constant_trajectory(tmp_path, capsys):
    config = tmp_path / "frozen.cfg"
    config.write_text(FROZEN_CONFIG, encoding="utf-8")
    out = tmp_path / "trajectory.csv"
    summary = tmp_path / "summary.csv"
    code = main(
        ["simulate", "--config", str(config), "--out", str(out), "--summary-out", str(summary)]
    )
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "warning" not in captured.err
    with out.open(newline="") as stream:
        times, states = read_trajectory_csv(stream)
    assert states.shape == (101, 5)
    assert np.array_equal(states, np.tile(states[0], (101, 1)))
    assert times[0] == 0.0
    assert times[-1] == 1.0
    with summary.open(newline="") as stream:
        summary_rows = list(csv.reader(stream))
    assert summary_rows[0] == ["compartment", "0-0.5", "0.5-1", "average", "rate_percent"]
    assert len(summary_rows) == 6
    assert summary_rows[1][0] == "y1"
    assert float(summary_rows[1][-1]) == 35.0  # 3.5e6 of 1e7


def test_simulate_preset_summary_shape(tmp_path, capsys):
    summary = tmp_path / "summary.csv"
    code = main(["simulate", "--preset", "cameroon-1986", "--summary-out", str(summary)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "disagree" not in captured.err
    with summary.open(newline="") as stream:
        rows = list(csv.reader(stream))
    assert rows[0] == [
        "compartment",
        "1986-1990",
        "1990-1994",
        "1994-1998",
        "1998-2002",
        "average",
        "rate_percent",
    ]
    assert [row[0] for row in rows[1:]] == ["y1", "y2", "y3", "y4", "y5"]


#: a population of 1.5e308 whose era sums overflow to inf: every share is inf
OVERFLOWING_SUMS_CONFIG = (
    FROZEN_CONFIG.replace("mu = 0\n", "mu = 0.5\n")
    .replace("t0 = 0\nT = 1\n", "t0 = 1960\nT = 1962\n")
    .replace("bign = 1e7", "bign = 1.5e308")
    .replace("y0 = 3.5e6, 1.5e6, 1.5e6, 0, 3.5e6", "y0 = " + ", ".join(["3e307"] * 5))
    .replace("eras = 0, 0.5, 1", "eras = 1960, 1961, 1962")
)

#: a population of 1e-307 whose sums stay finite, while y1's share overflows ten times over
OVERFLOWING_SHARE_CONFIG = (
    OVERFLOWING_SUMS_CONFIG.replace("theta = 0\n", "theta = 0.2\n")
    .replace("gamma = 0\n", "gamma = 0.2\n")
    .replace("bign = 1.5e308", "bign = 1e-307")
    .replace("3e307", "2e-308")
)


@pytest.mark.parametrize(
    "text", [OVERFLOWING_SUMS_CONFIG, OVERFLOWING_SHARE_CONFIG], ids=["sums", "share"]
)
def test_simulate_prints_a_share_too_large_to_round_as_it_is(tmp_path, capsys, text):
    config = tmp_path / "overflow.cfg"
    config.write_text(text, encoding="utf-8")
    summary = tmp_path / "summary.csv"
    code = main(["simulate", "--config", str(config), "--summary-out", str(summary)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "error" not in captured.err
    with summary.open(newline="") as stream:
        rows = list(csv.reader(stream))[1:]
    # the table's rate cell is the CSV's, with a percent sign
    table = [line.split() for line in captured.out.splitlines()[1:]]
    assert [line[-1] for line in table] == [f"{row[-1]}%" for row in rows]
    if text is OVERFLOWING_SUMS_CONFIG:
        assert [row[-1] for row in rows] == ["inf"] * 5
    else:
        # a finite share whose tenths overflow is written unrounded, as the average over N,
        # in full: %.17g, which reads back bitwise, not .1f's 309 digits
        share, *others = (float(row[-1]) for row in rows)
        assert share == float(rows[0][-2]) / 1e-307 * 100.0
        assert share * 10.0 == float("inf")
        assert rows[0][-1] == "%.17g" % share
        assert table[0][-1] == "%.17g%%" % share
        assert all(0.0 <= other <= 100.0 for other in others)


def test_simulate_warns_on_contact_rate_mismatch(tmp_path, capsys):
    config = tmp_path / "mismatch.cfg"
    config.write_text(MISMATCH_CONFIG, encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == EXIT_OK
    assert "disagree" in capsys.readouterr().err


def test_simulate_warns_on_negative_compartment_values(tmp_path, capsys):
    # at k = 4 the 2002 run's states leave the positive orthant
    text = format_config(preset("cameroon-2002"))
    config = tmp_path / "coarse.cfg"
    config.write_text(text.replace("k = 0.001", "k = 4.0"), encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "warning: config: trajectory contains negative compartment values\n"
    lines = out.splitlines()
    assert lines[0].split()[0] == "compartment" and len(lines) == 6
    assert [line.split()[0] for line in lines[1:]] == ["y1", "y2", "y3", "y4", "y5"]


def test_simulate_reports_parse_errors_with_line(tmp_path, capsys):
    config = tmp_path / "broken.cfg"
    config.write_text(FROZEN_CONFIG.replace("tau = 0", "tau = none"), encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "line 17" in err


def test_simulate_requires_exactly_one_scenario_source(tmp_path, capsys):
    assert main(["simulate"]) == EXIT_USAGE
    assert "one of the arguments --preset --config is required" in capsys.readouterr().err
    config = tmp_path / "frozen.cfg"
    config.write_text(FROZEN_CONFIG, encoding="utf-8")
    code = main(
        ["simulate", "--preset", "cameroon-1986", "--config", str(config)]
    )
    assert code == EXIT_USAGE
    assert "not allowed with argument --preset" in capsys.readouterr().err


def test_simulate_unknown_preset_is_usage_error(capsys):
    assert main(["simulate", "--preset", "cameroon-1900"]) == EXIT_USAGE
    capsys.readouterr()


def test_simulate_missing_config_file_is_io_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == EXIT_IO
    assert "cannot read" in capsys.readouterr().err


def test_simulate_undecodable_config_is_a_parse_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"\xff\xfe bad")
    assert main(["simulate", "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and "decode" in err
    assert err.count("\n") == 1


def test_simulate_reads_a_config_with_a_byte_order_mark(tmp_path, capsys):
    text = format_config(preset("cameroon-1986"))
    assert not text.startswith("\ufeff")
    written = []
    for name, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
        config = tmp_path / f"{name}.cfg"
        config.write_text(text, encoding=encoding)
        out, summary = tmp_path / f"{name}.csv", tmp_path / f"{name}.summary.csv"
        argv = ["--config", str(config), "--out", str(out), "--summary-out", str(summary)]
        assert main(["simulate", *argv]) == EXIT_OK
        written.append((config.read_bytes(), out.read_bytes(), summary.read_bytes()))
    capsys.readouterr()
    (plain, *plain_csvs), (marked, *marked_csvs) = written
    assert marked == codecs.BOM_UTF8 + plain
    assert marked_csvs == plain_csvs


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_simulate_rejects_a_horizon_not_after_t0(horizon, tmp_path, capsys):
    config = tmp_path / "backwards.cfg"
    text = FROZEN_CONFIG.replace("\nT = 1\n", f"\nT = {horizon}\n")
    config.write_text(text, encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and err.count("\n") == 1
    assert "requires T > t0" in err


def test_simulate_rejects_an_era_without_grid_points_before_the_run(
    tmp_path, capsys, monkeypatch
):
    config = tmp_path / "thin-era.cfg"
    config.write_text(
        FROZEN_CONFIG.replace("eras = 0, 0.5, 1", "eras = 0, 0.5000001, 0.5000002, 1"),
        encoding="utf-8",
    )

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated a scenario whose eras do not fit its grid")

    monkeypatch.setattr("tristep.studies.integrate", no_integration)
    assert main(["simulate", "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "era [0.5000001, 0.5000002) holds no grid point" in err


@pytest.mark.parametrize(
    "k, refusal",
    [
        pytest.param(
            "5e-324", "step request 5e-324 is too small for a grid over [1960.0, 1986.0]",
            id="5e-324",
        ),
        pytest.param(
            "1e-20",
            "step size k=1e-20 is too small: "
            "the run's 2600000000000000000001 states do not fit in memory",
            id="1e-20",
        ),
        pytest.param(
            "1e-15",
            "step size k=1e-15 is too small: "
            "the run's 25999999999999997 states do not fit in memory",
            id="1e-15",
        ),
    ],
)
def test_simulate_rejects_a_step_too_small_for_the_grid_before_the_run(
    k, refusal, tmp_path, capsys, monkeypatch
):
    # over 26 years, k = 5e-324 overflows the step count, k = 1e-20 asks for
    # more grid times than numpy can index, and k = 1e-15 for 2.6e16 of them
    # (185 PiB), more than any address space, so the allocation is refused at
    # once; a preset's grid points are refused in the words of any run's states
    text = format_config(preset("cameroon-1960"))
    config = tmp_path / "tiny-step.cfg"
    config.write_text(text.replace("k = 0.001", f"k = {k}"), encoding="utf-8")

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated a scenario whose grid cannot be built")

    monkeypatch.setattr("tristep.studies.integrate", no_integration)
    assert main(["simulate", "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {config}: {refusal}\n"


def test_simulate_rejects_a_run_that_raises_value_error(tmp_path, capsys, monkeypatch):
    config = tmp_path / "frozen.cfg"
    config.write_text(FROZEN_CONFIG, encoding="utf-8")

    def refused(*args, **kwargs):
        raise ValueError("the run's states do not fit in memory")

    monkeypatch.setattr("tristep.cli.run_scenario", refused)
    assert main(["simulate", "--config", str(config)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: the run's states do not fit in memory\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_blowup_exits_4_and_writes_partial_trajectory(tmp_path, capsys):
    config = tmp_path / "stiff.cfg"
    config.write_text(STIFF_CONFIG, encoding="utf-8")
    out = tmp_path / "partial.csv"
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_BLOWUP
    assert "blow-up" in captured.err
    with out.open(newline="") as stream:
        times, states = read_trajectory_csv(stream)
    assert 1 <= states.shape[0] < 11
    assert np.isfinite(states).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_blowup_partial_trajectory_honours_every(tmp_path, capsys):
    # gamma = 1e100 diverges in the first step, leaving only the initial row,
    # which every decimation keeps; gamma = 1e8 diverges in step 7
    stiff = STIFF_CONFIG.replace("gamma = 1e100", "gamma = 1e8")
    config = tmp_path / "stiff.cfg"
    config.write_text(stiff, encoding="utf-8")
    full, decimated = tmp_path / "full.csv", tmp_path / "decimated.csv"
    assert main(["simulate", "--config", str(config), "--out", str(full)]) == EXIT_BLOWUP
    code = main(["simulate", "--config", str(config), "--out", str(decimated), "--every", "3"])
    capsys.readouterr()
    assert code == EXIT_BLOWUP
    with full.open(newline="") as stream:
        full_times, full_states = read_trajectory_csv(stream)
    with decimated.open(newline="") as stream:
        times, states = read_trajectory_csv(stream)
    n = full_states.shape[0] - 1
    assert n == 7
    indices = list(kept_indices(n, 3))
    assert np.array_equal(times, full_times[indices])
    assert np.array_equal(states, full_states[indices])
    assert np.array_equal(states[-1], full_states[-1])
    assert np.isfinite(states).all()


@pytest.mark.parametrize("every", [0, -1])
def test_row_indices_and_the_csv_writer_reject_every_below_one_as_integrate_does(every):
    field, grid = cp_rhs(preset("cameroon-1960").params), build_grid(0.0, 1.0, 0.25)
    message = f"every must be None or a positive int, got {every}"
    with pytest.raises(ValueError, match=message):
        integrate(field, [1.0] * 5, grid, every=every)
    with pytest.raises(ValueError, match=message):
        list(kept_indices(grid.M, every))
    # write_trajectory_csv takes its every from the trajectory, which rejects it
    with pytest.raises(ValueError, match=message):
        Trajectory(grid, array("d", [1.0]) * 25, every=every)
    stream = io.StringIO()
    with pytest.raises(ValueError, match=message):
        cli._write_trajectory_rows(stream, grid, array("d"), 5, grid.M, every)
    assert stream.getvalue() == ""


def test_the_csv_writer_writes_the_rows_a_decimated_trajectory_kept():
    field, grid = cp_rhs(preset("cameroon-1960").params), build_grid(0.0, 1.0, 0.05)
    whole = integrate(field, [1.0, 2.0, 3.0, 4.0, 5.0], grid)
    for every in (1, 7, grid.M, grid.M + 3, None):
        run = integrate(field, [1.0, 2.0, 3.0, 4.0, 5.0], grid, every=every)
        stream = io.StringIO()
        write_trajectory_csv(stream, run)
        rows = [
            ",".join("%.17g" % v for v in (grid.time(n), *whole.states[n]))
            for n in kept_indices(grid.M, every)
        ]
        assert stream.getvalue().splitlines() == ["t,y1,y2,y3,y4,y5", *rows], every


def test_simulate_refuses_an_unwritable_out_before_the_run(tmp_path, capsys, monkeypatch):
    # the stiff run would blow up in its first step: the refusal comes first
    config = tmp_path / "stiff.cfg"
    config.write_text(STIFF_CONFIG, encoding="utf-8")
    monkeypatch.setattr("tristep.cli.run_scenario", _not_run)
    missing = tmp_path / "absent-dir" / "partial.csv"
    refusals = [
        (missing, "No such file or directory"),
        (tmp_path, "Is a directory"),
        ("", "Is a directory"),  # "" names the working directory
    ]
    for option in ("--out", "--summary-out"):
        for path, reason in refusals:
            argv = ["simulate", "--config", str(config), option, str(path)]
            assert main(argv) == EXIT_IO
            assert capsys.readouterr().err == f"error: cannot write {path}: {reason}\n"
    assert os.listdir(tmp_path) == ["stiff.cfg"]


@pytest.mark.parametrize("option", ["--out", "--summary-out"])
def test_a_nul_byte_in_an_output_path_is_refused_before_the_run(option, capsys, monkeypatch):
    # cameroon-1960 blows up under the minus sign; a console argv holds no NUL byte
    monkeypatch.setattr("tristep.cli.run_scenario", _not_run)
    argv = ["simulate", "--preset", "cameroon-1960", "--sign", "minus", option, "a\0b.csv"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: embedded null byte\n"


def _files(directory):
    """Every entry under ``directory``: a link's target, a file's bytes, or None (a directory)."""
    return {
        path.relative_to(directory): os.readlink(path) if path.is_symlink()
        else path.read_bytes() if path.is_file() else None
        for path in directory.rglob("*")
    }


@pytest.mark.parametrize(
    "first, second, names",
    [
        pytest.param("--config", "--out", ("run.cfg", "run.cfg"), id="config-out"),
        pytest.param("--config", "--summary-out", ("run.cfg", "run.cfg"), id="config-summary"),
        pytest.param("--out", "--summary-out", ("old.csv", "old.csv"), id="out-summary"),
        pytest.param("--out", "--summary-out", ("new.csv", "new.csv"), id="out-summary-new"),
        pytest.param("--config", "--out", ("run.cfg", "link.cfg"), id="config-out-link"),
        pytest.param(
            "--out", "--summary-out", ("new.csv", "link-new.csv"), id="out-summary-dangling-link"
        ),
    ],
)
def test_an_output_naming_the_config_or_the_other_output_is_refused_before_the_run(
    first, second, names, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr("tristep.cli.run_scenario", _not_run)
    (tmp_path / "run.cfg").write_text(FROZEN_CONFIG, encoding="utf-8")
    (tmp_path / "old.csv").write_text("an earlier run\n", encoding="utf-8")
    (tmp_path / "link.cfg").symlink_to("run.cfg")
    (tmp_path / "link-new.csv").symlink_to("new.csv")
    before = _files(tmp_path)
    paths = {first: tmp_path / names[0], second: tmp_path / names[1]}
    paths.setdefault("--config", tmp_path / "run.cfg")
    # the later option first on the command line: the refusal keeps its own order
    argv = ["simulate", *(f"{o}={p}" for o, p in reversed(list(paths.items())))]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {first} and {second} name the same file {paths[second]}\n"
    )
    assert _files(tmp_path) == before


def test_outputs_written_in_place_may_be_named_twice():
    argv = ["simulate", "--preset", "cameroon-1986", "--every", "4000"]
    argv += ["--out", "/dev/stdout", "--summary-out", "/dev/stdout"]
    result = _run_cli(argv, subprocess.PIPE)
    assert result.returncode == EXIT_OK and result.stderr == ""
    assert result.stdout.startswith("t,y1,y2,y3,y4,y5\n")
    assert result.stdout.count("compartment,") == 1  # the summary CSV, then the table


def test_simulate_every_decimates_but_keeps_last_row(tmp_path, capsys):
    config = tmp_path / "frozen.cfg"
    config.write_text(FROZEN_CONFIG, encoding="utf-8")
    out = tmp_path / "decimated.csv"
    code = main(["simulate", "--config", str(config), "--out", str(out), "--every", "7"])
    capsys.readouterr()
    assert code == EXIT_OK
    with out.open(newline="") as stream:
        times, states = read_trajectory_csv(stream)
    assert times.shape[0] == len(list(kept_indices(100, 7)))
    assert times[0] == 0.0
    assert times[-1] == 1.0
    assert main(["simulate", "--config", str(config), "--every", "0"]) == EXIT_USAGE
    capsys.readouterr()


def test_simulate_sign_flag_overrides_config(tmp_path, capsys):
    decay = FROZEN_CONFIG.replace("gamma = 0", "gamma = 0.4") + "sign = minus\n"
    config = tmp_path / "decay.cfg"
    config.write_text(decay, encoding="utf-8")
    plus_out = tmp_path / "plus.csv"
    minus_out = tmp_path / "minus.csv"
    # explicit flag wins over the config's sign
    assert main(["simulate", "--config", str(config), "--sign", "plus", "--out", str(plus_out)]) == EXIT_OK
    # without the flag the config's minus applies; the runs must differ
    assert main(["simulate", "--config", str(config), "--out", str(minus_out)]) == EXIT_OK
    capsys.readouterr()
    with plus_out.open(newline="") as stream:
        _, plus_states = read_trajectory_csv(stream)
    with minus_out.open(newline="") as stream:
        _, minus_states = read_trajectory_csv(stream)
    assert not np.array_equal(plus_states, minus_states)
    parsed = preset_from_config(parse_config(decay))
    grid = build_grid(parsed.t0, parsed.T, parsed.k)
    reference = integrate(cp_rhs(parsed.params), parsed.y0, grid)
    assert np.array_equal(plus_states, reference.states)


def test_trajectory_csv_round_trips_exactly(tmp_path, capsys):
    scenario_config = FROZEN_CONFIG.replace("gamma = 0", "gamma = 0.4").replace(
        "sigma = 0", "sigma = 0.2"
    )
    config = tmp_path / "decay.cfg"
    config.write_text(scenario_config, encoding="utf-8")
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    with out.open(newline="") as stream:
        times, states = read_trajectory_csv(stream)
    parsed = preset_from_config(parse_config(scenario_config))
    grid = build_grid(parsed.t0, parsed.T, parsed.k)
    reference = integrate(cp_rhs(parsed.params), parsed.y0, grid)
    assert np.array_equal(times, grid.times())
    assert np.array_equal(states, reference.states)


# -------------------------------------------------------------------- roots


def test_roots_output_is_csv_with_unit_moduli(capsys):
    assert main(["roots"]) == EXIT_OK
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["re", "im", "modulus"]
    assert len(rows) == 4
    for row in rows[1:]:
        assert row[2] == "1"
        assert abs(float(row[0]) ** 2 + float(row[1]) ** 2 - 1.0) <= 1e-14


# ------------------------------------------------------------------ plumbing


def test_round_half_away_from_zero():
    assert round_half_away(35.45) == 35.5
    assert round_half_away(-35.45) == -35.5
    assert round_half_away(0.25) == 0.3
    assert round_half_away(-0.25) == -0.3
    assert round_half_away(2.04) == 2.0
    assert round_half_away(99.96) == 100.0


@pytest.mark.parametrize("value", [1.7e308, -1.7e308, math.inf, -math.inf])
def test_round_half_away_returns_a_value_whose_tenths_overflow_as_it_is(value):
    # _share_text tests the same condition first, so only a direct call gets here
    assert round_half_away(value) == value
    assert math.copysign(1.0, round_half_away(value)) == math.copysign(1.0, value)


def test_round_half_away_returns_nan_as_nan():
    assert math.isnan(round_half_away(math.nan))


def test_roots_prints_the_four_lines_of_the_closed_form(capsys):
    assert main(["roots"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "re,im,modulus\n"
        "1,0,1\n"
        "-0.5,-0.866025403784439,1\n"
        "-0.5,0.866025403784439,1\n"
    )


def test_read_trajectory_csv_rejects_an_empty_stream():
    with pytest.raises(ValueError, match="no header"):
        read_trajectory_csv(io.StringIO(""))


@pytest.mark.parametrize(
    "text, line",
    [
        pytest.param("t,y1,y2\n0,1\n", 2, id="short"),
        pytest.param("t,y1,y2\n0,1,2\n1,1,2,9\n", 3, id="long"),
    ],
)
def test_read_trajectory_csv_rejects_a_record_of_the_wrong_length(text, line):
    with pytest.raises(ValueError, match=f"line {line}: expected 3 fields"):
        read_trajectory_csv(io.StringIO(text))


def test_read_trajectory_csv_of_no_rows_has_states_of_the_header_dimension():
    times, states = read_trajectory_csv(io.StringIO("t,y1,y2\n"))
    assert times.shape == (0,)
    assert states.shape == (0, 2)
    assert states.dtype == np.float64


# ------------------------------------------------------ unwritable stdout

SRC = Path(tristep.__file__).resolve().parent.parent

UNWRITABLE_STDOUT_COMMANDS = [
    pytest.param(["roots"], id="roots"),
    pytest.param(["--help"], id="help"),
    pytest.param(["simulate", "--help"], id="simulate-help"),
    pytest.param(["converge", "example1", "4..6"], id="converge"),
    pytest.param(["simulate", "--preset", "cameroon-1986", "--every", "1000"], id="simulate"),
]


def _run_cli(argv, stdout, *, buffered=True, preexec_fn=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "tristep.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        check=False,
        preexec_fn=preexec_fn,
    )


def _close_stdout():
    os.close(1)


def _assert_one_stdout_error(result):
    assert result.returncode == EXIT_IO
    assert result.stderr.startswith("error: cannot write standard output: ")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", UNWRITABLE_STDOUT_COMMANDS)
def test_a_pipe_without_reader_is_an_io_error(argv, buffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _run_cli(argv, write_end, buffered=buffered)
    finally:
        os.close(write_end)
    _assert_one_stdout_error(result)
    assert "Broken pipe" in result.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", UNWRITABLE_STDOUT_COMMANDS)
def test_a_full_device_on_stdout_is_an_io_error(argv):
    with open("/dev/full", "w") as full:
        _assert_one_stdout_error(_run_cli(argv, full))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_an_unwritable_stdout_keeps_the_csvs_and_the_blowup_exit_code(tmp_path):
    summary = tmp_path / "summary.csv"
    argv = ["simulate", "--preset", "cameroon-1986", "--summary-out", str(summary)]
    with open("/dev/full", "w") as full:
        _assert_one_stdout_error(_run_cli(argv, full))
    assert summary.read_text(encoding="utf-8").startswith("compartment,")

    config = tmp_path / "stiff.cfg"
    config.write_text(STIFF_CONFIG, encoding="utf-8")
    out = tmp_path / "partial.csv"
    with open("/dev/full", "w") as full:
        result = _run_cli(["simulate", "--config", str(config), "--out", str(out)], full)
    assert result.returncode == EXIT_BLOWUP
    assert result.stderr.startswith("error: numerical blow-up")
    assert result.stderr.count("\n") == 1
    assert out.read_text(encoding="utf-8").startswith("t,y1")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_stdout_writes_leave_no_descriptor_open(monkeypatch, capsys):
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        with open("/dev/full", "w") as full:
            monkeypatch.setattr(sys, "stdout", full)
            assert main(["roots"]) == EXIT_IO
    assert len(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr().err.count("error: cannot write standard output: ") == 3


@pytest.mark.parametrize("argv", UNWRITABLE_STDOUT_COMMANDS)
def test_a_closed_stdout_is_an_io_error(argv):
    result = _run_cli(argv, None, preexec_fn=_close_stdout)
    _assert_one_stdout_error(result)
    assert "Bad file descriptor" in result.stderr


def test_a_closed_stdout_keeps_the_blowup_exit_code_and_its_csv(tmp_path):
    config = tmp_path / "stiff.cfg"
    config.write_text(STIFF_CONFIG, encoding="utf-8")
    out = tmp_path / "partial.csv"
    argv = ["simulate", "--config", str(config), "--out", str(out)]
    result = _run_cli(argv, None, preexec_fn=_close_stdout)
    assert result.returncode == EXIT_BLOWUP
    assert result.stderr.startswith("error: numerical blow-up")
    assert result.stderr.count("\n") == 1
    assert out.read_text(encoding="utf-8").startswith("t,y1")


def _close_stderr():
    os.close(2)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["converge", "example1", "5..4"], EXIT_USAGE),
        # cameroon-1960 warns of its contact rates before it blows up
        (["simulate", "--preset", "cameroon-1960", "--sign", "minus"], EXIT_BLOWUP),
    ],
    ids=["usage", "blowup"],
)
def test_a_closed_stderr_drops_the_messages_and_keeps_the_exit_code(argv, code):
    # print(file=None) would send error: and warning: lines to standard output
    result = _run_cli(argv, subprocess.PIPE, preexec_fn=_close_stderr)
    assert result.returncode == code
    assert result.stdout == ""


def test_main_restores_a_closed_stderr(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "stderr", None)
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == EXIT_IO
    assert sys.stderr is None


#: cheap argvs; ``{out}`` and ``{config}`` stand for a path in a fresh directory and a
#: short configuration file of the named preset there
CHEAP_ARGVS = [
    ["roots"],
    *(["converge", "example1", f"4..{hi}"] for hi in (4, 5, 6)),
    # a blow-up at step 2542, before the summary table is printed
    ["simulate", "--preset", "cameroon-1960", "--sign", "minus", "--every", "1000"],
    ["simulate", "--preset", "cameroon-1960", "--sign", "minus", "--every", "1000", "--out={out}"],
    *(["simulate", "--config={config}", label] for label in PRESET_LABELS),
]
STDIO_CONDITIONS = ["normal", "stdout-closed", "stderr-closed"]
if os.path.exists("/dev/full"):
    STDIO_CONDITIONS.append("stdout-full")


def _documented_code(argv, condition):
    """The exit code the CLI documents: a blow-up keeps 4, a failed stdout write is 3."""
    if "minus" in argv:
        return EXIT_BLOWUP
    return EXIT_IO if condition.startswith("stdout-") else EXIT_OK


# the interrupt stays a fixed case below: its timing cannot be drawn deterministically
@settings(deadline=None, derandomize=True, database=None, max_examples=30)
@given(st.sampled_from(CHEAP_ARGVS), st.sampled_from(STDIO_CONDITIONS))
def test_every_stdio_condition_ends_in_the_documented_exit_code(template, condition):
    with tempfile.TemporaryDirectory() as name, contextlib.ExitStack() as stack:
        work = Path(name)
        argv = template
        if "--config={config}" in template:
            *argv, label = template
            config = work / "short.cfg"
            config.write_text("\n".join(SHORT_CONFIGS[label]) + "\n", encoding="utf-8")
        argv = [arg.format(out=work / "out.csv", config=work / "short.cfg") for arg in argv]
        stdout, preexec_fn = subprocess.PIPE, None
        if condition == "stdout-closed":
            stdout, preexec_fn = None, _close_stdout
        elif condition == "stdout-full":
            stdout = stack.enter_context(open("/dev/full", "w"))
        elif condition == "stderr-closed":
            preexec_fn = _close_stderr
        result = _run_cli(argv, stdout, preexec_fn=preexec_fn)

    code = _documented_code(argv, condition)
    assert result.returncode == code, (result.returncode, result.stderr)
    text = result.stderr + (result.stdout or "")
    assert "Traceback" not in text and "Exception ignored" not in text
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert len(errors) <= 1
    if condition == "stderr-closed":  # dropped, not sent to standard output
        assert result.stderr == "" and "error:" not in result.stdout
    elif code != EXIT_OK:
        assert errors[0].startswith(
            "error: cannot write standard output: "
            if code == EXIT_IO
            else "error: numerical blow-up at step 2542 "
        )


# the child interrupts itself while the convergence study runs
INTERRUPTED_RUN = """
import os, signal, sys, threading
from tristep.cli import main
threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGINT)).start()
sys.exit(main(["converge", "example1", "4..20"]))
"""


def test_an_interrupt_is_one_error_line_and_exit_130():
    result = subprocess.run(
        [sys.executable, "-c", INTERRUPTED_RUN],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=False,
        timeout=120,
    )
    assert result.returncode == EXIT_INTERRUPT == 130
    assert result.stderr == "error: interrupted\n"


def test_cli_runs_as_a_module():
    result = subprocess.run(
        [sys.executable, "-m", "tristep.cli", "roots"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("re,im,modulus")


# ------------------------------------------------------------ atomic outputs


def _open_failing_at(write_number, error):
    """``open`` whose files written in text mode raise ``error`` at write ``write_number``."""

    def failing_open(path, mode="r", *args, **kwargs):
        stream = open(path, mode, *args, **kwargs)
        if "r" not in mode:
            writes, write = [], stream.write

            def counted(text):
                writes.append(text)
                if len(writes) == write_number:
                    raise error
                return write(text)

            stream.write = counted
        return stream

    return failing_open


@pytest.mark.parametrize(
    "error, code",
    [
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), EXIT_IO),
        (KeyboardInterrupt(), EXIT_INTERRUPT),
    ],
    ids=["oserror", "interrupt"],
)
@pytest.mark.parametrize("previous", [None, "an earlier run\n"], ids=["new", "replaced"])
@pytest.mark.parametrize("option", ["--out", "--summary-out"])
def test_a_failed_write_leaves_the_target_as_it_was_and_no_temporary(
    option, previous, error, code, tmp_path, capsys, monkeypatch
):
    config = tmp_path / "frozen.cfg"
    config.write_text(FROZEN_CONFIG, encoding="utf-8")
    target = tmp_path / "target.csv"
    if previous is not None:
        target.write_text(previous, encoding="utf-8")
    # write 1 is the header, write 2 the first row
    monkeypatch.setattr(cli, "open", _open_failing_at(3, error), raising=False)
    assert main(["simulate", "--config", str(config), option, str(target)]) == code
    err = capsys.readouterr().err
    if code == EXIT_IO:
        assert err == f"error: cannot write {target}: No space left on device\n"
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["frozen.cfg", *(["target.csv"] if previous is not None else [])]
    )
    if previous is not None:
        assert target.read_text(encoding="utf-8") == previous


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failed_partial_csv_keeps_the_blowup_exit_code_and_no_temporary(
    tmp_path, capsys, monkeypatch
):
    config = tmp_path / "stiff.cfg"
    config.write_text(STIFF_CONFIG, encoding="utf-8")
    target = tmp_path / "partial.csv"
    failing_open = _open_failing_at(2, OSError(errno.EIO, "I/O error"))
    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert main(["simulate", "--config", str(config), "--out", str(target)]) == EXIT_BLOWUP
    assert capsys.readouterr().err == (
        "error: numerical blow-up at step 0 (t=0.0333333); aborting; "
        f"cannot write {target}: I/O error\n"
    )
    assert os.listdir(tmp_path) == ["stiff.cfg"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_interrupt_while_the_partial_csv_is_written_is_one_error_line(
    tmp_path, capsys, monkeypatch
):
    config = tmp_path / "stiff.cfg"
    config.write_text(STIFF_CONFIG, encoding="utf-8")
    target = tmp_path / "partial.csv"

    def interrupted_open(path, mode="r", *args, **kwargs):
        if str(path).endswith(".tmp"):
            raise KeyboardInterrupt
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", interrupted_open, raising=False)
    assert main(["simulate", "--config", str(config), "--out", str(target)]) == EXIT_INTERRUPT
    assert capsys.readouterr().err == "error: interrupted\n"
    assert os.listdir(tmp_path) == ["stiff.cfg"]


def test_a_complete_write_replaces_the_target_through_a_symbolic_link(tmp_path, capsys):
    config = tmp_path / "frozen.cfg"
    config.write_text(FROZEN_CONFIG, encoding="utf-8")
    target, link = tmp_path / "summary.csv", tmp_path / "link.csv"
    target.write_text("an earlier run\n", encoding="utf-8")
    link.symlink_to(target.name)
    assert main(["simulate", "--config", str(config), "--summary-out", str(link)]) == EXIT_OK
    capsys.readouterr()
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8").startswith("compartment,0-0.5,0.5-1,")
    assert sorted(os.listdir(tmp_path)) == ["frozen.cfg", "link.csv", "summary.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_a_fifo_is_written_in_place(tmp_path, capsys):
    config = tmp_path / "frozen.cfg"
    config.write_text(FROZEN_CONFIG, encoding="utf-8")
    fifo = tmp_path / "summary.fifo"
    os.mkfifo(fifo)
    got = []
    # a daemon: were the FIFO renamed over instead, the reader would wait for ever
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(["simulate", "--config", str(config), "--summary-out", str(fifo)]) == EXIT_OK
    reader.join(timeout=60)
    capsys.readouterr()
    assert got and got[0].startswith("compartment,0-0.5,0.5-1,")
    assert sorted(os.listdir(tmp_path)) == ["frozen.cfg", "summary.fifo"]


def test_dev_stdout_is_written_in_place():
    argv = ["simulate", "--preset", "cameroon-1986", "--every", "4000", "--out", "/dev/stdout"]
    result = _run_cli(argv, subprocess.PIPE)
    assert result.returncode == EXIT_OK
    lines = result.stdout.splitlines()
    assert lines[0] == "t,y1,y2,y3,y4,y5"
    assert [line.split(",")[0] for line in lines[1:6]] == ["1986", "1990", "1994", "1998", "2002"]
    assert lines[6].split()[0] == "compartment"  # the summary table follows


# ----------------------------------------------------------- every exit path

PREVIOUS = "an earlier run\n"
HEADERS = {
    ("converge", "--out"): "k,y_norm,Y_norm,E_norm,rate\n",
    ("simulate", "--out"): "t,y1,y2,y3,y4,y5\n",
    ("simulate", "--summary-out"): "compartment,",
}
TARGET_KINDS = [
    "new", "existing", "missing-dir", "directory", "link-to-file", "link-to-dir", "dangling-link"
]
#: the kinds of target no CSV can be written to, which the command refuses before it runs
UNCREATABLE = {"missing-dir", "directory", "link-to-dir"}
if os.path.exists("/dev/full"):
    TARGET_KINDS.append("dev-full")


def _short_config(label):
    """The preset's configuration lines over its first three years, at k = 0.01."""
    p = preset(label)
    short = {"T": repr(p.t0 + 3), "k": "0.01", "eras": f"{p.t0!r}, {p.t0 + 1!r}, {p.t0 + 3!r}"}
    lines = format_config(p).splitlines()
    return [
        f"{key} = {short[key]}" if (key := line.partition(" = ")[0]) in short else line
        for line in lines
    ]


SHORT_CONFIGS = {label: _short_config(label) for label in PRESET_LABELS}

# edge floats, non-numbers, a list where a number goes; none asks for a run of
# more than 300 steps: a step below 0.01 is either refused or far from these
EDGE_VALUES = [
    "0", "-0.0", "-1", "0.5", "2", "1e100", "1e300", "1.7976931348623157e308", "5e-324",
    "2.2250738585072014e-308", "-1e-300", "nan", "-nan", "inf", "-inf", "+inf", "1, 2",
    "", "x", "minus", "plus",
]


@st.composite
def _config_texts(draw):
    lines = list(SHORT_CONFIGS[draw(st.sampled_from(sorted(SHORT_CONFIGS)))])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):  # most edits are refused
        i = draw(st.integers(1, len(lines) - 1))  # line 0 is the comment
        key, _, value = lines[i].partition(" = ")
        edit = draw(st.sampled_from(["value", "negate", "drop", "repeat"]))
        if edit == "value":
            lines[i] = f"{key} = {draw(st.sampled_from(EDGE_VALUES))}"
        elif edit == "negate":
            lines[i] = f"{key} = -{value}"
        elif edit == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


_targets = st.sampled_from([None, *TARGET_KINDS])
#: a simulate output may also name the config it reads, or the other output
_simulate_targets = st.sampled_from([None, *TARGET_KINDS, "config", "other-output"])
_every = st.one_of(
    st.none(),
    st.sampled_from(["1", "3", "1000", str(10**20)]),
    st.sampled_from(["0", "-1", "1.5", "x", ""]),
)
_exponents = st.one_of(
    st.builds("{}..{}".format, st.integers(-1, 10), st.integers(-1, 10)),
    st.sampled_from(
        ["53..53", "1074..1074", "4..1100", "1..1000000000", "abc", "a..8", "4.5..8", "4..", ""]
    ),
)


@st.composite
def _commands(draw):
    """(command, config text or problem, further arguments, target kind per option)."""
    if draw(st.booleans()):
        targets = {"--out": draw(_targets)}
        return "converge", draw(st.sampled_from(PROBLEM_LABELS)), [draw(_exponents)], targets
    argv = []
    sign = draw(st.sampled_from([None, "plus", "minus"]))
    if sign is not None:
        argv += ["--sign", sign]
    every = draw(_every)
    if every is not None:
        argv += ["--every", every]
    targets = {"--out": draw(_simulate_targets), "--summary-out": draw(_simulate_targets)}
    return "simulate", draw(_config_texts()), argv, targets


def _target(work, kind, name):
    if kind == "dev-full":
        return Path("/dev/full")
    if kind == "missing-dir":
        return work / "absent" / name
    path = work / name
    if "link" in kind:  # it points at a file or directory of its own, or at none
        behind = work / f"behind-{name}"
        path.symlink_to(behind.name)
        kind = {"link-to-file": "existing", "link-to-dir": "directory"}.get(kind)
        path = behind
    if kind == "existing":
        path.write_text(PREVIOUS, encoding="utf-8")
    elif kind == "directory":
        path.mkdir()
    return work / name


def _whole_csv(text, header):
    lines = text.splitlines(keepends=True)
    return (
        text.startswith(header)
        and text.endswith("\n")
        and len({line.count(",") for line in lines}) == 1
    )


# cameroon-1960 diverges at step 260 of 300 under the minus sign, but its
# --out cannot be created, so it runs no step
BLOWUP_WITH_AN_UNCREATABLE_OUT = (
    "simulate",
    "\n".join(SHORT_CONFIGS["cameroon-1960"]) + "\n",
    ["--sign", "minus"],
    {"--out": "missing-dir", "--summary-out": None},
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, derandomize=True, database=None, max_examples=500)
@given(_commands())
@example(BLOWUP_WITH_AN_UNCREATABLE_OUT)
def test_every_outcome_is_an_exit_code_and_at_most_one_error_line(case):
    command, source, argv, targets = case
    with tempfile.TemporaryDirectory() as name:
        work = Path(name)
        if command == "simulate":
            config = work / "run.cfg"
            config.write_text(source, encoding="utf-8")
            argv = ["simulate", "--config", str(config), *argv]
        else:
            argv = ["converge", source, *argv]
        paths, links = {}, {}
        for option, kind in targets.items():
            if kind not in (None, "config", "other-output"):
                paths[option] = _target(work, kind, option.strip("-") + ".csv")
                if "link" in kind:
                    links[option] = os.readlink(paths[option])
        for option, kind in sorted(targets.items(), key=lambda item: item[1] == "other-output"):
            if kind == "config":
                paths[option] = config
            elif kind == "other-output":  # or, where it names none, a new file
                other = "--summary-out" if option == "--out" else "--out"
                paths[option] = paths.get(other, work / "shared.csv")
        argv += [arg for option, path in paths.items() for arg in (option, str(path))]
        named = [config, *paths.values()] if command == "simulate" else []
        # one regular file, or one new path, for two options; /dev/full is written in place
        twice = any(named.count(path) > 1 for path in named if path != Path("/dev/full"))
        before = _files(work)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)

        assert code in {EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_BLOWUP}
        lines = stderr.getvalue().splitlines()
        errors = [line for line in lines if "error: " in line]
        rejected = lines and lines[0].startswith("usage: tristep")  # by argparse
        if UNCREATABLE.intersection(targets.values()) and not rejected:  # before any step
            assert code == EXIT_IO and not any("numerical blow-up" in line for line in lines)
        elif twice and not rejected:  # before any step, and every file as it was
            assert code == EXIT_USAGE and " name the same file " in errors[0], lines
            assert _files(work) == before
        if command == "simulate":
            assert config.read_text(encoding="utf-8") == source
        if code == EXIT_OK:
            assert errors == []
        elif rejected:
            assert code == EXIT_USAGE
            assert len(errors) == 1 and lines[-1] == errors[0]
            assert errors[0].startswith(f"tristep {command}: error: ")
        else:
            assert len(errors) == 1 and lines[-1] == errors[0], lines
            assert errors[0].startswith("error: ")
            assert all(line.startswith("warning: ") for line in lines[:-1]), lines
        assert list(work.rglob(".*.tmp")) == []
        for option, target in links.items():
            assert os.readlink(paths[option]) == target
        for option, path in paths.items():
            kind = targets[option]
            if kind in ("config", "other-output"):  # the file another option names
                continue
            if kind == "missing-dir":
                assert not path.parent.exists()
            elif kind in ("directory", "link-to-dir"):
                assert path.is_dir() and not any(path.iterdir())
            elif kind != "dev-full" and (code == EXIT_OK or path.exists()):
                # written whole, or, where the command failed, as it was before
                text = path.read_text(encoding="utf-8")
                assert _whole_csv(text, HEADERS[command, option]) or (
                    code != EXIT_OK and kind in ("existing", "link-to-file") and text == PREVIOUS
                ), (option, text[:200])


# ------------------------------------------------------------- memory bound

PEAK_MEMORY = r"""
import sys
from tristep.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, peak, file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
@pytest.mark.parametrize(
    "every, bound_kib",
    [
        (None, 2048),
        ("1000", 2048),
        # each of the 360 000 extra steps keeps a row of five floats, 40 B, and 8 B of slack
        ("1", 360_000 * 48 // 1024),
    ],
    ids=["no-out", "every-1000-out", "every-1-out"],
)
def test_simulate_memory_does_not_grow_with_the_horizon(every, bound_kib, tmp_path):
    # the child reads its own high-water mark: ru_maxrss of a child spawned
    # from this process would include the pages of this process before exec
    def peak_kib(k):
        config = tmp_path / "run.cfg"
        text = format_config(preset("cameroon-1960"))
        config.write_text(text.replace("k = 0.001", f"k = {k}"), encoding="utf-8")
        argv = ["simulate", "--config", str(config)]
        if every is not None:
            argv += ["--every", every, "--out", str(tmp_path / "run.csv")]
        result = subprocess.run(
            [sys.executable, "-c", PEAK_MEMORY, *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            check=False,
        )
        code, peak = result.stderr.split()[-2:]
        assert code == "0", result.stderr
        return int(peak)

    # 400 000 steps, whose states alone would take 16 MB, against 40 000
    long_run, short_run = peak_kib(6.5e-5), peak_kib(6.5e-4)
    assert long_run - short_run <= bound_kib
