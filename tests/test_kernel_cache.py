"""The kernel cache: each generated function's code, kept in a file beside
scheme's own bytecode, is read by a later process instead of generating and
compiling the text again.

Every run here is a fresh interpreter whose bytecode goes under its own
``PYTHONPYCACHEPREFIX`` directory, with ``PYTHONDONTWRITEBYTECODE`` unset
unless a test sets it.  A run found in the cache writes the bytes of one that
was not, and imports no ``ast``; a file that cannot be used is a miss, and a
cache that cannot be written is not written."""

from __future__ import annotations

import marshal
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import tristep
from tristep import cp_rhs, format_config, parse_config, preset, preset_from_config

SRC = Path(tristep.__file__).resolve().parent.parent

# runs the command line; its last stderr line tells whether ast was imported
RUN = r"""
import sys

from tristep.cli import main

code = main(sys.argv[1:])
sys.stderr.write(f"ast imported: {'ast' in sys.modules}\n")
sys.exit(code)
"""

COMMANDS = {
    "simulate": ["simulate", "--preset", "cameroon-1960", "--every", "1000"],
    "converge": ["converge", "example1", "4..13"],
}


class Run:
    """One process's exit code, stdout, stderr without its last line, CSV bytes and ast flag."""

    def __init__(self, result: subprocess.CompletedProcess, csv: Path) -> None:
        *err, flag = result.stderr.decode().splitlines()
        self.code = result.returncode
        self.out = result.stdout
        self.err = err
        self.csv = csv.read_bytes() if csv.exists() else None
        self.ast = {"ast imported: True": True, "ast imported: False": False}[flag]

    def output(self) -> tuple:
        return self.code, self.out, self.err, self.csv


def _env(prefix: Path, write: bool = True) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def tristep_run(prefix: Path, argv: list[str], csv: Path, write: bool = True) -> Run:
    """``tristep *argv --out csv`` in a fresh interpreter whose bytecode goes under ``prefix``."""
    result = subprocess.run(
        [sys.executable, "-c", RUN, *argv, "--out", str(csv)],
        env=_env(prefix, write),
        capture_output=True,
        timeout=120,
    )
    return Run(result, csv)


def kernel_files(prefix: Path) -> list[Path]:
    return sorted(prefix.rglob("scheme.kernel-*"))


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """Each command run once on an empty cache: the cache directory and the runs."""
    work = tmp_path_factory.mktemp("cold")
    prefix = work / "cache"
    return prefix, {
        name: tristep_run(prefix, argv, work / f"{name}.csv") for name, argv in COMMANDS.items()
    }


def test_a_cold_run_writes_a_file_per_function_and_a_warm_run_the_same_bytes(cold, tmp_path):
    prefix, runs = cold
    # the run keeps one march; the study its solution's exact and march
    assert len(kernel_files(prefix)) == 3
    assert all(run.code == 0 and run.ast for run in runs.values())
    for name, argv in COMMANDS.items():
        warm = tristep_run(prefix, argv, tmp_path / f"{name}.csv")
        assert warm.output() == runs[name].output()
        assert not warm.ast
    # the kernels' code is read, not compiled again, and the files stay as they were
    assert len(kernel_files(prefix)) == 3


def test_no_file_is_written_without_bytecode_and_the_run_writes_the_same_bytes(cold, tmp_path):
    _, runs = cold
    prefix = tmp_path / "cache"
    for name, argv in COMMANDS.items():
        run = tristep_run(prefix, argv, tmp_path / f"{name}.csv", write=False)
        assert run.output() == runs[name].output()
        assert run.ast
    assert kernel_files(prefix) == []


def _other_key(data: bytes) -> bytes:
    key, code = marshal.loads(data)
    return marshal.dumps(((*key[:2], key[2] + 1, *key[3:]), code))  # another scheme.py


@pytest.mark.parametrize(
    "spoil",
    [
        _other_key,
        lambda data: data[: len(data) // 2],
        lambda data: b"\x00\xff not a kernel",
        lambda data: marshal.dumps(42),
        lambda data: marshal.dumps((1, 2, 3)),
    ],
    ids=["another-key", "truncated", "garbage", "not-a-pair", "three-items"],
)
def test_a_file_that_cannot_be_used_is_written_again(cold, tmp_path, spoil):
    cached, runs = cold
    prefix = tmp_path / "cache"
    shutil.copytree(cached, prefix)
    files = kernel_files(prefix)
    keys = {}
    for path in files:
        data = path.read_bytes()
        keys[path] = marshal.loads(data)[0]
        path.write_bytes(spoil(data))
    for name, argv in COMMANDS.items():
        run = tristep_run(prefix, argv, tmp_path / f"{name}.csv")
        assert run.output() == runs[name].output()
        assert run.ast  # compiled again
    # each file is written again in its place, with the key it held
    assert kernel_files(prefix) == files
    assert all(marshal.loads(path.read_bytes())[0] == keys[path] for path in files)


def test_an_unwritable_cache_leaves_exit_codes_and_bytes_unchanged(cold, tmp_path):
    _, runs = cold
    # a regular file where the cache directory would be: nothing can be made under it,
    # whoever runs the test
    prefix = tmp_path / "cache"
    prefix.write_bytes(b"")
    for name, argv in COMMANDS.items():
        run = tristep_run(prefix, argv, tmp_path / f"{name}.csv")
        assert run.output() == runs[name].output()
    # a run that blows up exits 4 and writes its partial CSV either way
    minus = [*COMMANDS["simulate"], "--sign", "minus"]
    blocked = tristep_run(prefix, minus, tmp_path / "blocked.csv")
    writable = tristep_run(tmp_path / "writable", minus, tmp_path / "writable.csv")
    assert blocked.code == 4
    assert blocked.output() == writable.output()
    assert prefix.read_bytes() == b""


CONFIG_RATES = {"theta": "0.23", "alpha1": "0.0171", "r1": "0.4375", "b2": "0.3125"}


def test_configs_with_other_rates_share_one_file_which_holds_none_of_their_values(tmp_path):
    prefix = tmp_path / "cache"
    text = format_config(preset("cameroon-1960"))
    configs = [text]
    for name, value in CONFIG_RATES.items():
        line = next(line for line in text.splitlines() if line.startswith(f"{name} = "))
        text = text.replace(line, f"{name} = {value}")
    configs.append(text)
    values = set()
    runs = []
    for number, config in enumerate(configs):
        path = tmp_path / f"run{number}.cfg"
        path.write_text(config, encoding="utf-8")
        argv = ["simulate", "--config", str(path), "--every", "1000"]
        runs.append(tristep_run(prefix, argv, tmp_path / f"run{number}.csv"))
        constants = cp_rhs(preset_from_config(parse_config(config)).params).evaluate.constants
        values.update(constants.values())
    assert [run.code for run in runs] == [0, 0]
    assert runs[0].csv != runs[1].csv
    assert [run.ast for run in runs] == [True, False]  # the second run reads the first's march
    (only,) = kernel_files(prefix)
    data = only.read_bytes()
    assert all(type(value) is float for value in values)
    assert {float(value) for value in CONFIG_RATES.values()} <= values
    assert not [value for value in values if struct.pack("<d", value) in data]


TEXT = """
import sys
from tristep import RhsField, build_grid, integrate

field = RhsField.from_source(1, sys.argv[1], constants={"c": 2.0})
try:
    integrate(field, (1.0,), build_grid(0.0, 1.0, 0.5))
except ValueError as err:
    print(err)
"""


@pytest.mark.parametrize(
    "rates",
    ["f1 = c * z", "f1 = c * y1\nc = 1.0", "del y1\nf1 = y1", "x = y1"],
    ids=["unknown-name", "constant-assigned", "not-an-assignment", "rate-missing"],
)
def test_a_text_that_breaks_a_rule_raises_the_same_error_every_run_and_leaves_no_file(
    tmp_path, rates
):
    prefix = tmp_path / "cache"
    errors = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-c", TEXT, rates],
            env=_env(prefix),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        errors.append(result.stdout)
    assert errors[0].startswith("rates") and errors[0] == errors[1]
    assert kernel_files(prefix) == []
