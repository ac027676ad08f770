"""Command-line interface: convergence tables, scenario runs, stability roots.

Commands:
  converge  run a convergence study on a verification problem, emit CSV
  simulate  integrate the compartment model from a preset or a config file
  roots     print the characteristic roots and their moduli

Exit codes: 0 success, 2 usage or parse failure, 3 I/O failure,
4 numerical blow-up (the partial trajectory is still written).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path
from struct import Struct
from typing import TYPE_CHECKING, Sequence, TextIO

from .config import parse_config, preset_from_config
from .cpmodel import PRESET_LABELS, preset
from .manufactured import PROBLEM_LABELS, problem
from .numerics import TimeGrid, Trajectory, build_grid
from .scheme import (
    NumericalBlowupError,
    SignConvention,
    zero_stability_root_moduli,
    zero_stability_roots,
)
from .studies import ConvergenceRow, EraSummaryRow, run_convergence_study, run_scenario

if TYPE_CHECKING:
    from array import array

    import numpy as np

__all__ = [
    "EXIT_BLOWUP",
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


def _g17(value: float) -> str:
    """Full-precision decimal (17 significant digits) that re-parses exactly."""
    return format(float(value), ".17g")


def round_half_away(value: float, ndigits: int = 1) -> float:
    """Round half away from zero, e.g. 35.45 -> 35.5 and -35.45 -> -35.5."""
    scale = 10.0**ndigits
    return math.copysign(math.floor(abs(value) * scale + 0.5), value) / scale


# ---------------------------------------------------------------- CSV emission


def write_convergence_csv(stream: TextIO, rows: Sequence[ConvergenceRow]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["k", "y_norm", "Y_norm", "E_norm", "rate"])
    for row in rows:
        writer.writerow(
            [
                _g17(row.k),
                _g17(row.exact_norm),
                _g17(row.numeric_norm),
                _g17(row.error_norm),
                "" if row.rate is None else _g17(row.rate),
            ]
        )


def trajectory_row_indices(last_index: int, every: int) -> list[int]:
    """Indices emitted under decimation: every ``every``-th plus the last."""
    indices = list(range(0, last_index + 1, every))
    if indices[-1] != last_index:
        indices.append(last_index)
    return indices


def write_trajectory_csv(stream: TextIO, trajectory: Trajectory, every: int = 1) -> None:
    _write_trajectory_rows(stream, trajectory.grid, trajectory.values, trajectory.dim, every)


def _write_trajectory_rows(
    stream: TextIO, grid: TimeGrid, values: array | np.ndarray, dim: int, every: int
) -> None:
    """Emit the rows ``trajectory_row_indices`` picks from ``values``, each with its grid time.

    ``values`` is a buffer of float64 rows of ``dim`` entries, a
    trajectory's flat ``array('d')`` or a C-ordered numpy array: the first
    rows of ``grid``'s points, all of them or the accepted ones of a run
    that diverged.  Only the emitted rows are read.
    """
    row = Struct(f"{dim}d")
    stream.write(",".join(["t"] + [f"y{i + 1}" for i in range(dim)]) + "\n")
    # "%.17g" formats a float exactly as _g17 does
    line = ",".join(["%.17g"] * (dim + 1)) + "\n"
    for n in trajectory_row_indices(memoryview(values).nbytes // row.size - 1, every):
        stream.write(line % (grid.time(n), *row.unpack_from(values, n * row.size)))


def read_trajectory_csv(stream: TextIO) -> tuple[np.ndarray, np.ndarray]:
    """Parse a trajectory CSV back into (times, states) arrays."""
    import numpy as np

    reader = csv.reader(stream)
    header = next(reader)
    dim = len(header) - 1
    times: list[float] = []
    states: list[list[float]] = []
    for record in reader:
        if not record:
            continue
        times.append(float(record[0]))
        states.append([float(v) for v in record[1 : dim + 1]])
    return np.asarray(times), np.asarray(states)


def era_column_labels(boundaries: Sequence[float]) -> list[str]:
    return [f"{lo:g}-{hi:g}" for lo, hi in zip(boundaries, boundaries[1:])]


def write_summary_csv(
    stream: TextIO, rows: Sequence[EraSummaryRow], boundaries: Sequence[float]
) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["compartment", *era_column_labels(boundaries), "average", "rate_percent"])
    for row in rows:
        writer.writerow(
            [row.compartment]
            + [_g17(v) for v in row.era_averages]
            + [_g17(row.overall_average), f"{round_half_away(row.share_percent):.1f}"]
        )


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
        rate = f"{round_half_away(row.share_percent):.1f}%"
        print(f"{row.compartment:>12}{cells}  {row.overall_average:>12.5e}  {rate:>7}")


# ------------------------------------------------------------------ commands


class _Failure(Exception):
    """A failed command: ``main`` prints ``error: <message>`` and returns ``code``."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _write_csv(path: str, write, *args) -> None:
    """Open ``path`` and call ``write(stream, *args)``; an ``OSError`` is exit 3."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            write(stream, *args)
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot write {path}: {exc}")


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
    try:
        exponents = _parse_exponent_range(args.exponents)
        rows = run_convergence_study(problem(args.problem), exponents)
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, str(exc))
    if args.out is not None:
        _write_csv(args.out, write_convergence_csv, rows)
    _print_convergence_table(rows)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.every < 1:
        raise _Failure(EXIT_USAGE, "--every must be a positive integer")
    if args.preset is not None:
        scenario, sign = preset(args.preset), SignConvention.PLUS
    else:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise _Failure(EXIT_IO, f"cannot read {args.config}: {exc}")
        try:
            config = parse_config(text)
            scenario, sign = preset_from_config(config), config.sign
        except ValueError as exc:  # ConfigError included
            raise _Failure(EXIT_USAGE, f"{args.config}: {exc}")
    if args.sign is not None:
        sign = SignConvention(args.sign)

    if scenario.alpha_warning:
        print(
            f"warning: {scenario.label}: stored contact rates alpha1/alpha2 "
            "disagree with p*(1-beta)",
            file=sys.stderr,
        )

    try:
        trajectory, rows = run_scenario(scenario, sign)
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, str(exc))
    except NumericalBlowupError as err:
        print(
            f"error: numerical blow-up at step {err.step_index} (t={err.t:g}); "
            "aborting",
            file=sys.stderr,
        )
        if args.out is not None:
            grid = build_grid(scenario.t0, scenario.T, scenario.k)
            try:
                partial = err.partial_states
                _write_csv(
                    args.out, _write_trajectory_rows, grid, partial, partial.shape[1], args.every
                )
            except _Failure as failure:  # the blow-up decides the exit code
                raise _Failure(EXIT_BLOWUP, str(failure))
        return EXIT_BLOWUP

    if trajectory.negativity_flag:
        print(
            f"warning: {scenario.label}: trajectory contains negative compartment values",
            file=sys.stderr,
        )
    if args.out is not None:
        _write_csv(args.out, write_trajectory_csv, trajectory, args.every)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own usage errors
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _Failure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return failure.code


if __name__ == "__main__":
    sys.exit(main())
