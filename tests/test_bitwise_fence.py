"""Stored outputs pinned bit for bit by SHA-256 digest.

The digests were recorded from the chained-substep scheme before its
stepping code was reduced to a single kernel; any change to the arithmetic,
the stage order or the blow-up bookkeeping shows up here as a digest change.
The era-summary and convergence CSV texts are pinned too, as the CSV
writers emitted them: a moved era start or a changed field format shows.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np
import pytest

from tristep import (
    NumericalBlowupError,
    SignConvention,
    preset,
    problem,
    run_convergence_study,
    run_scenario,
)
from tristep.cli import write_convergence_csv, write_summary_csv


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: digest of run_scenario(preset(label))[0].states.tobytes()
TRAJECTORY_DIGESTS = {
    "cameroon-1960": "7aa6afe8e50ad80d24b6f51e422f52dc58b42ad37e769470ab1cf9f49032af5a",
    "cameroon-1986": "28218a6f0b3aa79100e9652e21cf2564d3950973ee29e355c6da739c88e11eaa",
    "cameroon-2002": "767a3713daf7a4e0bc6d9ca08b50b95605b7548912c7c32a7613de7817b0d685",
}

#: (step_index, repr(t), digest of partial_states) of the MINUS blow-up
BLOWUP_RECORDS = {
    "cameroon-1960": (
        2542,
        "1962.5423333333333",
        "eebdfe2b25d28cb3f02422e62c88c2484c5281543eb7ba4fc7e14b9acf175dd4",
    ),
    "cameroon-1986": (
        8051,
        "1994.051",
        "2a07d233bd533b2dcf513e35ed11ca78a5931c6af04552b0f563123e7ea9d8b0",
    ),
    "cameroon-2002": (
        8725,
        "2010.7256666666667",
        "e205b673df6349cef043cc8fa2fb6eaaae3d4afa0006e5122ac2ce5edfa30e41",
    ),
}

#: digest of the k = 2^-4 .. 2^-13 table as float64 rows
#: (k, exact_norm, numeric_norm, error_norm, rate), NaN for the absent first rate
CONVERGENCE_DIGESTS = {
    "example1": "e053c7e0c76c2f421ce115837f3ffd78c1f38bc64474ec58594a3eec19a4b374",
    "example2": "64ad9d051b9ac13c7473b92100f800f8537c5abd1ea6b92a5bf85bd3ae0555f6",
}

#: digest of the write_summary_csv text of run_scenario(preset(label))
SUMMARY_CSV_DIGESTS = {
    "cameroon-1960": "80273722fa32eb247d407d8b7053482122e409cca1c10a463d80ec980045f969",
    "cameroon-1986": "64cf3fc7babe22342318eb266968c2d5cc12d2d8b0238af697bd929af2f48493",
    "cameroon-2002": "e46e2cec8f2e27f048a8dfd382bc4a6290a1ce184f36c2c96246cbdc575deb5f",
}

#: digest of the write_convergence_csv text of the k = 2^-4 .. 2^-13 table
CONVERGENCE_CSV_DIGESTS = {
    "example1": "fdc2f21a4c8ce9001813b9edbdc0d21c770a902cd709bcd621a9de2dd75da021",
    "example2": "3da5c8f67e8d4326bdb639083bfaf4d7c41324847c54b3715f2c2ec13e774990",
}


@pytest.mark.parametrize("label", sorted(TRAJECTORY_DIGESTS))
def test_preset_trajectory_is_bitwise_pinned(label):
    trajectory, _ = run_scenario(preset(label))
    assert sha256(trajectory.states.tobytes()) == TRAJECTORY_DIGESTS[label]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("label", sorted(BLOWUP_RECORDS))
def test_minus_sign_blowup_is_bitwise_pinned(label):
    with pytest.raises(NumericalBlowupError) as excinfo:
        run_scenario(preset(label), SignConvention.MINUS)
    err = excinfo.value
    step_index, t_repr, digest = BLOWUP_RECORDS[label]
    assert err.step_index == step_index
    assert repr(err.t) == t_repr
    assert sha256(err.partial_states.tobytes()) == digest


@pytest.mark.parametrize("label", sorted(CONVERGENCE_DIGESTS))
def test_convergence_table_is_bitwise_pinned(label):
    rows = run_convergence_study(problem(label), range(4, 14))
    table = np.array(
        [
            [r.k, r.exact_norm, r.numeric_norm, r.error_norm, np.nan if r.rate is None else r.rate]
            for r in rows
        ]
    )
    assert sha256(table.tobytes()) == CONVERGENCE_DIGESTS[label]


@pytest.mark.parametrize("label", sorted(SUMMARY_CSV_DIGESTS))
def test_summary_csv_is_bitwise_pinned(label):
    scenario = preset(label)
    _, rows = run_scenario(scenario, every=None)
    stream = io.StringIO()
    write_summary_csv(stream, rows, scenario.era_boundaries)
    assert sha256(stream.getvalue().encode()) == SUMMARY_CSV_DIGESTS[label]


@pytest.mark.parametrize("label", sorted(CONVERGENCE_CSV_DIGESTS))
def test_convergence_csv_is_bitwise_pinned(label):
    rows = run_convergence_study(problem(label), range(4, 14))
    stream = io.StringIO()
    write_convergence_csv(stream, rows)
    assert sha256(stream.getvalue().encode()) == CONVERGENCE_CSV_DIGESTS[label]
