"""tristep runs numpy's OpenBLAS on one thread for its norms, and leaves its setting to the caller.

Each test starts a fresh interpreter, because OpenBLAS reads
``OPENBLAS_NUM_THREADS`` once, when the library is first loaded: by
tristep's L2 norm or study, which load the OpenBLAS numpy's wheel bundles
as numpy's import would, or by numpy's import, whichever comes first.
tristep neither reads nor writes the variable.  Whoever loaded the
library, a study holds it at one thread, its workers joined, and leaves
them stopped with the caller's count; a norm outside a study does the same
for its sum.  Where there is no such library the norms add their squares
in order, on the one thread.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tristep
from tristep import numerics

SRC = Path(tristep.__file__).resolve().parent.parent

VARIABLE = "OPENBLAS_NUM_THREADS"


def _python(script, *args, blas_threads=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop(VARIABLE, None)
    if blas_threads is not None:
        env[VARIABLE] = blas_threads
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


THREADS_AFTER_CONVERGE = """
import os
from tristep.cli import main

assert main(["converge", "example1", "4..6"]) == 0
print(len(os.listdir("/proc/self/task")))
"""


# On a 1-CPU host OpenBLAS starts no worker thread whatever the setting, so
# there these tests cannot fail.
ONE_THREAD_SHOWS = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
)


@ONE_THREAD_SHOWS
def test_a_converge_run_leaves_the_process_one_thread():
    assert _python(THREADS_AFTER_CONVERGE).splitlines()[-1] == "1"


# A library caller that never imported numpy: no cli.main sets the variable for it.
THREADS_AFTER_A_STUDY = """
import os
import sys

from tristep import numerics, problem, run_convergence_study

if sys.argv[1:] == ["in-order"]:  # as where numpy bundles no OpenBLAS of its own
    numerics._openblas = lambda: None
if sys.argv[1:] == ["numpy"]:  # loads OpenBLAS with the thread count of the environment
    import numpy
run_convergence_study(problem("example1"), range(4, 14))
print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@ONE_THREAD_SHOWS
@pytest.mark.parametrize(
    "setting, first",
    [(None, []), ("3", []), ("2", ["numpy"])],
    ids=["unset", "set-to-3", "numpy-first-set-to-2"],
)
def test_a_study_called_directly_leaves_one_thread_and_the_callers_setting(setting, first):
    # after numpy's import the study joins OpenBLAS's workers and leaves them
    # stopped, as a fork does; numpy starts them again at its next threaded call
    threads, variable = _python(THREADS_AFTER_A_STUDY, *first, blas_threads=setting).split()
    assert threads == "1"
    assert variable == str(setting)


@ONE_THREAD_SHOWS
def test_the_in_order_sum_leaves_one_thread():
    assert _python(THREADS_AFTER_A_STUDY, "in-order").split() == ["1", "None"]


CONVERGE_TO = """
import sys
from tristep.cli import main

sys.exit(main(["converge", "example1", "4..15", "--out", sys.argv[1]]))
"""


def test_convergence_csvs_do_not_depend_on_the_callers_blas_threads(tmp_path):
    # OpenBLAS splits a dot product of more than 10 000 values across its
    # threads; with two of them the 2^-15 row of this table changes
    tables = {}
    for setting in (None, "1", "2"):
        out = tmp_path / f"threads-{setting}.csv"
        _python(CONVERGE_TO, str(out), blas_threads=setting)
        tables[setting] = out.read_bytes()
    assert tables[None] == tables["1"] == tables["2"]


CONVERGE_AFTER_NUMPY = """
import sys

import numpy  # loads OpenBLAS with the thread count of the environment
from tristep.cli import main

sys.exit(main(["converge", "example1", "4..15", "--out", sys.argv[1]]))
"""


def test_a_converge_run_after_numpys_import_writes_the_fresh_processs_table(tmp_path):
    # numpy, imported first, starts OpenBLAS's two threads; the norms run each
    # sum on one thread all the same
    fresh, after = tmp_path / "fresh.csv", tmp_path / "after-numpy.csv"
    _python(CONVERGE_TO, str(fresh))
    _python(CONVERGE_AFTER_NUMPY, str(after), blas_threads="2")
    assert after.read_bytes() == fresh.read_bytes()


ENVIRONMENT_AFTER_MAIN = """
import os
from tristep.cli import main

changed = []
for setting in (None, "3"):
    if setting is None:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = setting
    for argv, code in (
        (["roots"], 0),
        (["converge", "example1", "4..5"], 0),
        (["converge", "example1", "5..4"], 2),
        (["converge", "nope", "4..5"], 2),
    ):
        before = dict(os.environ)
        assert main(argv) == code, argv
        if dict(os.environ) != before:
            changed.append((setting, argv))
print(changed)
"""


def test_main_restores_the_callers_environment():
    assert _python(ENVIRONMENT_AFTER_MAIN).splitlines()[-1] == "[]"


# argv: "study" or "norm", what tristep runs before the caller imports numpy
NUMPY_AFTER_TRISTEP = """
import os
import sys

before = dict(os.environ)
from tristep import numerics, problem, run_convergence_study

if sys.argv[1] == "study":
    run_convergence_study(problem("example1"), range(4, 14))
else:  # more values than OpenBLAS sums on one thread
    numerics.discrete_l2_time_norm([0.5] * 20_000, 0.125)
import numpy as np

# OpenBLAS's own thread count, and a product big enough for its workers,
# checked against numpy's integer product, which runs no BLAS
a = (np.arange(256 * 256) % 7).reshape(256, 256)
right = np.array_equal(a.astype(float) @ a.astype(float), a @ a)
threads = numerics._openblas().scipy_openblas_get_num_threads64_()
print(threads, dict(os.environ) == before, right)
"""


# the library is a Linux .so, so sched_getaffinity exists wherever it loads
@pytest.mark.skipif(
    numerics._openblas() is None or len(os.sched_getaffinity(0)) < 2,
    reason="needs numpy's OpenBLAS and two CPUs, on which it runs two threads",
)
@pytest.mark.parametrize("first", ["study", "norm"])
def test_numpy_imported_after_tristep_runs_the_callers_thread_count(first):
    # tristep loads the library first, so numpy's import finds it loaded
    assert _python(NUMPY_AFTER_TRISTEP, first, blas_threads="2").split() == ["2", "True", "True"]
