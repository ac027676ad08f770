"""What runs without numpy: start-up, input loading, writing a configuration,
the roots command and a successful ``simulate`` run."""

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
print("numpy" in sys.modules)
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
