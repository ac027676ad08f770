"""Command-line interface: convergence tables, scenario runs, stability roots.

Commands:
  converge  run a convergence study on a verification problem, emit CSV
  simulate  integrate the compartment model from a preset or a config file
  roots     print the characteristic roots and their moduli

Exit codes: 0 success, 2 usage or parse failure, 3 I/O failure (standard
output included, also when the process started with it closed; an output
file that cannot be created is refused before the run), 4 numerical
blow-up (a ``simulate`` run still writes its partial trajectory, or says on
the blow-up's line why not; a ``converge`` run writes no table), 130
interrupted (``KeyboardInterrupt``, such as from Ctrl-C).  Every failure
prints one ``error: <message>`` line to standard error; a process started
with standard error closed drops that line and keeps the exit code.

A ``simulate`` run keeps only the rows its trajectory CSV emits, every N-th
and the last, and none without ``--out``.  One writer emits them, for a
completed run and for the partial states of a blown-up one alike.  Every
CSV writer joins its fields with commas, none of which needs quoting; only
:func:`read_trajectory_csv` imports ``csv``, when first called.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import stat
import sys
from struct import Struct

from .config import parse_config, preset_from_config
from .cpmodel import PRESET_LABELS, preset
from .manufactured import PROBLEM_LABELS, problem
from .numerics import TimeGrid, Trajectory, kept_indices
from .scheme import (
    NumericalBlowupError,
    SignConvention,
    zero_stability_root_moduli,
    zero_stability_roots,
)
from .studies import ConvergenceRow, EraSummaryRow, run_convergence_study, run_scenario

TYPE_CHECKING = False
if TYPE_CHECKING:
    from array import array
    from typing import Sequence, TextIO

    import numpy as np

__all__ = [
    "EXIT_BLOWUP",
    "EXIT_INTERRUPT",
    "EXIT_IO",
    "EXIT_OK",
    "EXIT_USAGE",
    "main",
    "read_trajectory_csv",
    "round_half_away",
    "write_convergence_csv",
    "write_summary_csv",
    "write_trajectory_csv",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BLOWUP = 4
EXIT_INTERRUPT = 130


def round_half_away(value: float) -> float:
    """Round to one decimal, half away from zero: 35.45 -> 35.5, -35.45 -> -35.5.

    A value whose tenths are not finite, such as an overflowed share, has no
    decimal left to round and is returned as it is.
    """
    tenths = abs(value) * 10.0
    if not math.isfinite(tenths):
        return value
    return math.copysign(math.floor(tenths + 0.5), value) / 10.0


def _share_text(share: float) -> str:
    """A share as the summaries write it: rounded to one decimal, or in full.

    A share whose tenths are not finite, which :func:`round_half_away`
    leaves unrounded, is written as ``%.17g``: ``inf`` stays ``inf``, and a
    finite share reads back bitwise in a few characters, not three hundred.
    """
    if math.isfinite(abs(share) * 10.0):
        return f"{round_half_away(share):.1f}"
    return "%.17g" % share


# ---------------------------------------------------------------- CSV emission


def write_convergence_csv(stream: TextIO, rows: Sequence[ConvergenceRow]) -> None:
    """Emit the header, then one row per table row; an absent rate is an empty field."""
    stream.write("k,y_norm,Y_norm,E_norm,rate\n")
    for row in rows:
        rate = "" if row.rate is None else "%.17g" % row.rate
        stream.write(
            "%.17g,%.17g,%.17g,%.17g,%s\n"
            % (row.k, row.exact_norm, row.numeric_norm, row.error_norm, rate)
        )


def write_trajectory_csv(stream: TextIO, trajectory: Trajectory) -> None:
    """Emit the states a trajectory kept, at the grid points ``kept_indices(M, every)`` gives."""
    grid, every = trajectory.grid, trajectory.every
    _write_trajectory_rows(stream, grid, trajectory.values, trajectory.dim, grid.M, every)


def _write_trajectory_rows(
    stream: TextIO, grid: TimeGrid, kept: array, dim: int, last_index: int, every: int | None
) -> None:
    """Emit the header, then the rows a run kept of grid points 0..``last_index``.

    ``kept`` holds the rows at the grid points ``kept_indices(last_index,
    every)`` gives, one after the other, as a flat ``array('d')``; each is
    written after the time of its grid point.
    """
    indices = kept_indices(last_index, every)
    stream.write(",".join(["t"] + [f"y{i + 1}" for i in range(dim)]) + "\n")
    line = ",".join(["%.17g"] * (dim + 1)) + "\n"
    for n, values in zip(indices, Struct(f"{dim}d").iter_unpack(kept)):
        stream.write(line % (grid.time(n), *values))


def read_trajectory_csv(stream: TextIO) -> tuple[np.ndarray, np.ndarray]:
    """Parse a trajectory CSV back into (times, states) arrays.

    ``states`` has shape ``(rows, dim)``, ``dim`` being the header's
    length less one, also when there are no rows.

    Raises:
      ValueError: If there is no header row, or a record does not have
        the header's number of fields.
    """
    import csv

    import numpy as np

    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise ValueError("trajectory CSV has no header row")
    dim = len(header) - 1
    times: list[float] = []
    states: list[list[float]] = []
    for record in reader:
        if not record:
            continue
        if len(record) != dim + 1:
            raise ValueError(
                f"trajectory CSV line {reader.line_num}: expected {dim + 1} fields, "
                f"got {len(record)}"
            )
        times.append(float(record[0]))
        states.append([float(v) for v in record[1:]])
    return np.asarray(times), np.array(states).reshape(len(times), dim)


def era_column_labels(boundaries: Sequence[float]) -> list[str]:
    return [f"{lo:g}-{hi:g}" for lo, hi in zip(boundaries, boundaries[1:])]


def write_summary_csv(
    stream: TextIO, rows: Sequence[EraSummaryRow], boundaries: Sequence[float]
) -> None:
    """Emit the header, then one row per compartment: era averages, average, share.

    The fields are joined by commas as they are: compartment names, era
    labels and numbers hold no comma, quote or line break to quote.
    """
    header = ["compartment", *era_column_labels(boundaries), "average", "rate_percent"]
    stream.write(",".join(header) + "\n")
    for row in rows:
        cells = [row.compartment, *("%.17g" % v for v in row.era_averages)]
        cells += ["%.17g" % row.overall_average, _share_text(row.share_percent)]
        stream.write(",".join(cells) + "\n")


# ------------------------------------------------------------- stdout tables


def _print_convergence_table(rows: Sequence[ConvergenceRow]) -> None:
    header = f"{'k':>12}  {'y_norm':>12}  {'Y_norm':>12}  {'E_norm':>12}  {'rate':>8}"
    print(header)
    for row in rows:
        rate = "--" if row.rate is None else f"{row.rate:.4f}"
        print(
            f"{row.k:>12.6g}  {row.exact_norm:>12.5e}  {row.numeric_norm:>12.5e}"
            f"  {row.error_norm:>12.5e}  {rate:>8}"
        )


def _print_summary_table(rows: Sequence[EraSummaryRow], boundaries: Sequence[float]) -> None:
    labels = era_column_labels(boundaries)
    header = f"{'compartment':>12}" + "".join(f"  {label:>12}" for label in labels)
    header += f"  {'average':>12}  {'rate':>7}"
    print(header)
    for row in rows:
        cells = "".join(f"  {v:>12.5e}" for v in row.era_averages)
        rate = f"{_share_text(row.share_percent)}%"
        print(f"{row.compartment:>12}{cells}  {row.overall_average:>12.5e}  {rate:>7}")


# ------------------------------------------------------------------ commands


class _Failure(Exception):
    """A failed command: ``main`` prints ``error: <message>`` and returns ``code``."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _destination(path: str) -> tuple[str, str | None]:
    """The file :func:`_write_csv` writes for ``path``, and the temporary renamed over it.

    A regular file, or a path where there is none yet, is replaced through a
    new file of a unique name in the target's directory.  Anything else, such
    as ``/dev/stdout`` or a FIFO, is written in place; a directory is refused
    with ``IsADirectoryError``.
    """
    try:
        mode = os.stat(path or os.curdir).st_mode  # "" names the working directory
    except FileNotFoundError:
        mode = stat.S_IFREG  # a new file
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not stat.S_ISREG(mode):
        return path, None
    target = os.path.realpath(path)  # a symbolic link keeps pointing at the file
    head, name = os.path.split(target)
    return target, os.path.join(head, f".{name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")


def _cannot_write(path: str, exc: OSError) -> _Failure:
    # strerror alone: the name of the file that failed may be the temporary one
    return _Failure(EXIT_IO, f"cannot write {path}: {exc.strerror or exc}")


def _probe_outputs(*paths: str | None) -> None:
    """Refuse before the run, as exit 3, an output path :func:`_write_csv` could not create.

    A temporary is created and removed at once; a path written in place is
    left alone, as opening a FIFO waits for a reader.
    """
    for path in paths:
        try:
            temporary = None if path is None else _destination(path)[1]
            if temporary is not None:
                fd = os.open(temporary, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
                try:
                    os.close(fd)
                finally:
                    os.unlink(temporary)
        except OSError as exc:
            raise _cannot_write(path, exc)


def _write_csv(path: str, write, *args) -> None:
    """Write ``path`` by ``write(stream, *args)`` where :func:`_destination` says.

    A temporary is renamed over the target once complete and removed on any
    failure or interrupt, so the target holds the whole text or what it held
    before.  An ``OSError`` is exit 3.
    """
    temporary = None
    try:
        target, temporary = _destination(path)
        mode = "w" if temporary is None else "x"
        with open(temporary or target, mode, encoding="utf-8", newline="") as stream:
            write(stream, *args)
        if temporary is not None:
            os.replace(temporary, target)
    except BaseException as exc:
        if temporary is not None:
            try:
                os.unlink(temporary)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise _cannot_write(path, exc)
        raise


def _parse_exponent_range(text: str) -> range:
    lo_text, sep, hi_text = text.partition("..")
    if not sep:
        raise ValueError(f"expected an exponent range like 4..8, got {text!r}")
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ValueError(f"expected integers in the exponent range, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise ValueError(f"exponent range must satisfy 1 <= lo <= hi, got {text!r}")
    return range(lo, hi + 1)


def _cmd_converge(args: argparse.Namespace) -> int:
    _probe_outputs(args.out)
    exponents = _parse_exponent_range(args.exponents)
    rows = run_convergence_study(problem(args.problem), exponents)
    if args.out is not None:
        _write_csv(args.out, write_convergence_csv, rows)
    _print_convergence_table(rows)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    _probe_outputs(args.out, args.summary_out)
    if args.every < 1:
        raise _Failure(EXIT_USAGE, "--every must be a positive integer")
    if args.preset is not None:
        scenario, sign = preset(args.preset), SignConvention.PLUS
    else:
        try:
            with open(args.config, encoding="utf-8-sig") as stream:
                config = parse_config(stream.read())
            scenario, sign = preset_from_config(config), config.sign
        except OSError as exc:
            raise _Failure(EXIT_IO, f"cannot read {args.config}: {exc}")
        except ValueError as exc:  # ConfigError and UnicodeDecodeError included
            raise _Failure(EXIT_USAGE, f"{args.config}: {exc}")
    if args.sign is not None:
        sign = SignConvention(args.sign)

    if scenario.alpha_warning:
        print(
            f"warning: {scenario.label}: stored contact rates alpha1/alpha2 "
            "disagree with p*(1-beta)",
            file=sys.stderr,
        )

    # the run keeps only the rows the trajectory CSV emits, and none without one
    every = args.every if args.out is not None else None
    try:
        run, rows = run_scenario(scenario, sign, every=every)
    except NumericalBlowupError as err:
        if args.out is not None:
            partial = (scenario.grid, err.partial_states, len(err.last_state), err.step_index)
            try:
                _write_csv(args.out, _write_trajectory_rows, *partial, every)
            except _Failure as failure:  # the blow-up keeps its exit code; its line says why
                err.unwritten = str(failure)
        raise

    if run.negativity_flag:
        print(
            f"warning: {scenario.label}: trajectory contains negative compartment values",
            file=sys.stderr,
        )
    if args.out is not None:
        _write_csv(args.out, write_trajectory_csv, run)
    if args.summary_out is not None:
        _write_csv(args.summary_out, write_summary_csv, rows, scenario.era_boundaries)
    _print_summary_table(rows, scenario.era_boundaries)
    return EXIT_OK


def _cmd_roots(args: argparse.Namespace) -> int:
    moduli = zero_stability_root_moduli()
    print("re,im,modulus")
    for root, modulus in zip(zero_stability_roots(), moduli):
        # adding 0.0 normalizes a negative zero imaginary part
        print(f"{root.real:.15g},{root.imag + 0.0:.15g},{modulus:.15g}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def print_help(self, file: TextIO | None = None) -> None:
        # argparse would ignore a failed write; main makes it exit 3
        print(self.format_help(), end="", file=file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tristep",
        description="Convergence studies and corruption-poverty scenario runs "
        "of the three-substep explicit integrator.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    converge = commands.add_parser(
        "converge", help="run a convergence study and emit its table"
    )
    converge.add_argument("problem", choices=PROBLEM_LABELS)
    converge.add_argument(
        "exponents", help="dyadic step exponents, e.g. 4..8 for k = 2^-4 .. 2^-8"
    )
    converge.add_argument("--out", help="write the table as CSV to this path")
    converge.set_defaults(handler=_cmd_converge)

    simulate = commands.add_parser(
        "simulate", help="integrate the compartment model and summarize by era"
    )
    source = simulate.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_LABELS, help="built-in scenario")
    source.add_argument("--config", help="path to a key = value configuration file")
    simulate.add_argument(
        "--sign",
        choices=[s.value for s in SignConvention],
        help="substep sign convention (default: plus, or the config's sign)",
    )
    simulate.add_argument("--out", help="write the trajectory as CSV to this path")
    simulate.add_argument(
        "--summary-out", help="write the era summary as CSV to this path"
    )
    simulate.add_argument(
        "--every",
        type=int,
        default=1,
        metavar="N",
        help="decimate the trajectory CSV to every N-th grid point",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    roots = commands.add_parser(
        "roots", help="print the characteristic roots and their moduli"
    )
    roots.set_defaults(handler=_cmd_roots)

    return parser


class _ClosedStdout:
    """``sys.stdout`` for a process started with descriptor 1 closed: writes fail."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    def flush(self) -> None:
        pass


class _ClosedStderr:
    """``sys.stderr`` for a process started with descriptor 2 closed: writes are dropped.

    ``print(file=None)`` would write to standard output instead.
    """

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def main(argv: Sequence[str] | None = None) -> int:
    stdout, stderr = sys.stdout, sys.stderr  # None when started with the descriptor closed
    if stdout is None:
        sys.stdout = _ClosedStdout()
    if stderr is None:
        sys.stderr = _ClosedStderr()
    try:
        return _run(argv)
    finally:
        sys.stdout, sys.stderr = stdout, stderr


def _run(argv: Sequence[str] | None) -> int:
    """Run one command: every failure ends here, in one ``error:`` line and its code."""
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse reports its own usage errors and --help
            code = int(exc.code or 0)
        else:
            code = args.handler(args)
        sys.stdout.flush()
        return code
    except _Failure as failure:
        code, message = failure.code, str(failure)
    except NumericalBlowupError as err:
        code = EXIT_BLOWUP
        message = f"numerical blow-up at step {err.step_index} (t={err.t:g}); aborting"
        if hasattr(err, "unwritten"):  # the partial trajectory could not be written
            message += f"; {err.unwritten}"
    except OSError as exc:  # files report their own; this one is standard output
        if not isinstance(sys.stdout, _ClosedStdout):
            # leave the unwritten rest to the null device, or the flush at exit fails again
            stdout = sys.stdout.fileno()
            null = os.open(os.devnull, os.O_WRONLY)
            if null != stdout:  # the lowest free descriptor is stdout's where it was closed
                os.dup2(null, stdout)
                os.close(null)
        code, message = EXIT_IO, f"cannot write standard output: {exc}"
    except ValueError as exc:  # after OSError: io.UnsupportedOperation is both
        code, message = EXIT_USAGE, str(exc)
    except KeyboardInterrupt:
        code, message = EXIT_INTERRUPT, "interrupted"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
