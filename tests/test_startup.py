"""What runs without numpy: start-up, input loading, writing a configuration,
the roots command, every ``simulate`` outcome (a run that succeeds and one
that blows up, exit 4, its partial CSV written) and ``converge``, which,
where numpy is missing, prints the table it prints with numpy.  What
``import tristep.cli`` loads: no standard-library module beyond those
tristep's modules import, and neither it nor loading inputs loads ``dataclasses``,
``inspect``, ``typing``, ``ast`` or ``ctypes``; yet ``dataclasses`` accepts
four types."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import tristep

SRC = Path(tristep.__file__).resolve().parent.parent

# Every step runs in one fresh interpreter, and numpy must stay unimported
# after all of them.
NUMPY_FREE = r"""
import sys
from pathlib import Path

import tristep
import tristep.cli
from tristep import (
    PRESET_LABELS,
    PROBLEM_LABELS,
    build_grid,
    format_config,
    parse_config,
    preset,
    preset_from_config,
    problem,
)
from tristep.cli import main

for label in PRESET_LABELS:
    scenario = preset(label)
    build_grid(scenario.t0, scenario.T, scenario.k)
for label in PROBLEM_LABELS:
    p = problem(label)
    build_grid(p.t0, p.T, 2.0**-8)
config = preset_from_config(parse_config(CONFIG))
assert config.label == "config"
assert main(["roots"]) == 0

work = Path(sys.argv[1])
(work / "bad.cfg").write_text("t0 = 1960\nnot a key = 1\n", encoding="utf-8")
(work / "tiny.cfg").write_text(CONFIG.replace("k = 0.001", "k = 1e-15"), encoding="utf-8")
assert main(["simulate", "--config", str(work / "bad.cfg")]) == 2
assert main(["simulate", "--config", str(work / "tiny.cfg")]) == 2

format_config(preset(PRESET_LABELS[0]))
run = ["--out", str(work / "run.csv"), "--summary-out", str(work / "summary.csv")]
assert main(["simulate", "--preset", PRESET_LABELS[0], *run]) == 0
(work / "run.cfg").write_text(CONFIG, encoding="utf-8")
assert main(["simulate", "--config", str(work / "run.cfg"), "--every", "1000", *run]) == 0
minus = ["--sign", "minus", "--out", str(work / "minus.csv")]
assert main(["simulate", "--preset", PRESET_LABELS[0], *minus]) == 4
assert (work / "minus.csv").read_text(encoding="utf-8").startswith("t,y1,")
print("numpy" in sys.modules)
"""

# The start-up guard, run in a fresh interpreter; it needs neither pytest nor
# numpy, so CI runs it as it is on every supported Python.  It imports first
# the standard-library modules that tristep's modules import by name, then
# checks that ``import tristep.cli`` adds no other one (such as ``textwrap``,
# ``csv`` or ``pathlib``), whatever this Python's own start-up loaded, and
# that neither it nor loading a preset, a configuration and a problem loads
# ``dataclasses``, ``inspect``, ``typing``, ``ast`` or ``ctypes`` (none of
# which is loaded before it under ``-S``).  Only then does it import
# ``dataclasses``, to check the four types it accepts.
START_UP_GUARD = r"""
import sys

HEAVY = {"dataclasses", "inspect", "typing", "ast", "ctypes"}
absent = HEAVY - set(sys.modules)
assert absent == HEAVY or not sys.flags.no_site, sorted(HEAVY - absent)

import __future__, argparse, array, collections, enum, errno, functools
import itertools, keyword, math, operator, os, stat, struct

before = set(sys.modules)
import tristep.cli

added = sorted(
    name
    for name in set(sys.modules) - before
    if name.partition(".")[0] in sys.stdlib_module_names
)
assert not added, f"import tristep.cli adds standard-library modules {added}"
loaded = sorted(absent & set(sys.modules))
assert not loaded, f"import tristep.cli loads {loaded}"

from tristep import cp_rhs, format_config, parse_config, preset, preset_from_config, problem

scenario = preset("cameroon-1960")
config = preset_from_config(parse_config(format_config(scenario)))
example = problem("example1")
loaded = sorted(absent & set(sys.modules))
assert not loaded, f"loading a preset, a configuration and a problem loads {loaded}"

import dataclasses

found = sorted(
    value.__name__
    for name, module in sys.modules.items()
    if name.startswith("tristep.")
    for value in vars(module).values()
    if isinstance(value, type)
    and value.__module__ == name
    and dataclasses.is_dataclass(value)
)
assert found == ["CpParams", "EraPreset", "ManufacturedProblem", "RhsField"], found

assert dataclasses.replace(scenario, k=2e-3).grid.M == 13000
assert dataclasses.replace(config.params, gamma=0.0).gamma == 0.0
field = cp_rhs(scenario.params)
# a field keeps its source's dimension, so dim changes with the source
assert dataclasses.replace(field, dim=3, evaluate=example.field.evaluate).dim == 3
assert dataclasses.replace(example, T=0.5).T == 0.5
if sys.version_info >= (3, 13):
    import copy

    assert copy.replace(scenario, k=2e-3).grid.M == 13000
    assert copy.replace(config.params, gamma=0.0).gamma == 0.0
    assert copy.replace(field, dim=3, evaluate=example.field.evaluate).dim == 3
    assert copy.replace(example, T=0.5).T == 0.5
assert "numpy" not in sys.modules
print("ok")
"""

CONFIG = """\
t0 = 1960.0
T = 1986.0
k = 0.001
theta = 0.2
gamma = 0.2
rho = 1.0
mu = 0.55
p1 = 0.3
p2 = 0.1
beta1 = 0.6
beta2 = 0.7
alpha1 = 0.018
alpha2 = 0.03
r1 = 0.45
r2 = 0.5
tau = 0.6
b1 = 0.3
b2 = 0.3
sigma = 0.9
bign = 10000000.0
y0 = 3500000.0, 1500000.0, 1500000.0, 500000.0, 3000000.0
eras = 1960.0, 1965.0, 1970.0, 1975.0, 1980.0, 1986.0
"""


def test_start_up_loading_and_roots_leave_numpy_unimported(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = f"CONFIG = {CONFIG!r}\n{NUMPY_FREE}"
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"
    assert "too small" in result.stderr and "unknown key" in result.stderr
    assert "numerical blow-up" in result.stderr


CONVERGE = """
import sys
from tristep.cli import main

assert main(["converge", "example1", "4..8"]) == 0
print("numpy" in sys.modules)
"""


def test_converge_leaves_numpy_unimported_where_numpy_bundles_its_openblas():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", CONVERGE],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


# As where numpy is not installed: the library lookup finds no numpy, and the
# norms add their squares in order.
CONVERGE_WITHOUT_NUMPY = """
import sys

sys.modules["numpy"] = None
from tristep.cli import main

code = main(sys.argv[1:])
sys.stdout.flush()
print(sorted(name for name in sys.modules if name.partition(".")[0] == "numpy"), file=sys.stderr)
sys.exit(code)
"""

CONVERGE_WITH_NUMPY = """
import sys
from tristep.cli import main

sys.exit(main(sys.argv[1:]))
"""


def test_converge_without_numpy_prints_the_librarys_table():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for label in ("example1", "example2"):
        argv = ["converge", label, "4..13"]
        without, with_numpy = (
            subprocess.run(
                [sys.executable, "-c", script, *argv],
                capture_output=True,
                text=True,
                env=env,
                check=False,
            )
            for script in (CONVERGE_WITHOUT_NUMPY, CONVERGE_WITH_NUMPY)
        )
        assert without.returncode == 0, without.stderr
        assert with_numpy.returncode == 0, with_numpy.stderr
        assert without.stderr == "['numpy']\n"  # the None that stands for a missing numpy
        assert without.stdout == with_numpy.stdout


def test_start_up_loads_no_dataclasses_inspect_typing_or_ast_yet_dataclasses_takes_four_types():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for flags in ([], ["-S"]):  # with and without site's start-up imports
        result = subprocess.run(
            [sys.executable, *flags, "-c", START_UP_GUARD],
            capture_output=True,
            text=True,
            env=env,
            check=False,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "ok\n"
