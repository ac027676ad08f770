"""Host speed tracking: times measured on a shared host, scaled to a fixed speed.

A shared virtual machine runs the same code at speeds that drift over
seconds and minutes (on a 2-vCPU Xeon host by up to 1.6x), so raw medians
of two runs of the same program can differ by more than any useful bound.
The benchmark therefore runs a fixed reference kernel right after every
timed sample, for half as long as the sample took, and scales the sample
by how fast the kernel ran around it: before it (the previous segment) and
after it.  This removes the drift over seconds and minutes; what is left
is the host's faster jitter, which more samples average out.  The kernel is the benchmark's own code and never calls
``tristep``, so a change to the program under test cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

#: The seconds one reference unit is counted as: the typical time of
#: ``reference_unit`` on the 2-vCPU Xeon host the bounds were set on.
#: Scaled times are seconds on a host where the unit takes this long.
REF_UNIT_S = 0.015
#: Length of the first reference segment, before any sample.
FIRST_SEGMENT_S = 0.5
#: Length of each later reference segment, as a share of the sample before it.
SEGMENT_SHARE = 0.5


def reference_unit(steps: int = 400) -> float:
    """A fixed workload shaped like the program's: three Heun substeps per
    step of a five-component field built from Python floats into small
    numpy arrays, with a finiteness check per substep."""
    theta, a, b, c = 0.3, 0.8, 0.5, 0.2

    def field(y: np.ndarray) -> np.ndarray:
        y1, y2, y3, y4, y5 = map(float, y)
        return np.array(
            (
                theta - a * y1 * y2 - c * y1,
                a * y1 * y2 - b * y2 * y3,
                b * y2 * y3 - c * y3,
                c * y2 - c * y4,
                c * y1 + c * y3 - c * y5,
            )
        )

    y = np.array([0.5, 0.2, 0.1, 0.1, 0.1])
    h = 1e-3 / 3
    for _ in range(steps):
        for _ in range(3):
            k1 = field(y)
            k2 = field(y + h * k1)
            y = y + (h / 2) * (k1 + k2)
            if not np.isfinite(y).all():
                raise ArithmeticError("reference kernel diverged")
    return float(y.sum())


class SpeedTracker:
    """Scales each sample by the reference kernel's speed around it.

    Call ``scale`` right after each timed sample; it runs the next reference
    segment and returns the sample in seconds at the reference speed.
    """

    def __init__(self) -> None:
        #: reference speed over host speed, one per sample
        self.factors: list[float] = []
        self._last_unit_s = self._segment(FIRST_SEGMENT_S)

    @staticmethod
    def _segment(seconds: float) -> float:
        """Run reference units for about ``seconds``: mean seconds per unit."""
        units, spent = 0, 0.0
        while units == 0 or spent < seconds:
            start = time.perf_counter()
            reference_unit()
            spent += time.perf_counter() - start
            units += 1
        return spent / units

    def scale(self, raw_s: float) -> float:
        """``raw_s`` measured just now, in seconds at the reference speed."""
        unit_s = self._segment(raw_s * SEGMENT_SHARE)
        factor = REF_UNIT_S / ((self._last_unit_s + unit_s) / 2)
        self._last_unit_s = unit_s
        self.factors.append(factor)
        return raw_s * factor
