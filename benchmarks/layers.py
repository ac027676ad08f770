"""Per-layer accounting from outside the program.

``LayerTrace.install`` replaces the public functions the CLI calls, wherever
a ``tristep`` module has bound them, with wrappers that count calls and add
up busy time; ``uninstall`` puts the originals back.  The RHS fields handed
out by ``cp_rhs`` and ``problem`` get a timed and counted ``evaluate``.
Inner per-call work (RHS evaluations, norms) is kept as a count plus busy
time, not as one span per call.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter
from time import perf_counter

from tristep import cli, config, cpmodel, manufactured, numerics, scheme, studies


class LayerTrace:
    """Counts and busy time per layer while installed; one instance per traced round."""

    def __init__(self) -> None:
        #: call and work counts, keyed "<layer>.<what>"
        self.counts: Counter = Counter()
        #: busy seconds, keyed "<layer>.<what>"
        self.busy: Counter = Counter()
        #: largest (M + 1) * dim * 8 any integration allocated
        self.states_bytes = 0
        #: step index of the latest blow-up, None when no run diverged
        self.last_blowup_step: int | None = None
        self._saved: list[tuple[object, str, object]] = []
        self._csv_depth = 0

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        timed = self._timed
        self._patch(scheme.integrate, self._integrate(scheme.integrate))
        self._patch(cpmodel.cp_rhs, self._cp_rhs(cpmodel.cp_rhs))
        self._patch(cpmodel.preset, self._preset(cpmodel.preset))
        self._patch(manufactured.problem, self._problem(manufactured.problem))
        self._patch(studies.era_summary, timed("studies.era_summary", studies.era_summary))
        self._patch(
            studies.run_convergence_study,
            self._convergence_study(studies.run_convergence_study),
        )
        self._patch(numerics.sup_norm, timed("numerics.sup_norm", numerics.sup_norm))
        self._patch(config.parse_config, timed("config.parse", config.parse_config))
        self._patch(
            config.preset_from_config, timed("config.parse", config.preset_from_config)
        )
        for name in (
            "write_trajectory_csv",
            "write_summary_csv",
            "write_convergence_csv",
            "_write_trajectory_rows",
        ):
            if hasattr(cli, name):
                self._patch(getattr(cli, name), self._csv_writer(getattr(cli, name)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, original, replacement) -> None:
        """Rebind every tristep module global that refers to ``original``."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "tristep" or name.startswith("tristep.")
        ]
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                self._saved.append((module, attr, original))
                setattr(module, attr, replacement)

    # ------------------------------------------------------------ wrappers

    def _timed(self, key: str, function):
        counts, busy = self.counts, self.busy
        calls = key + ".calls"

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                busy[key] += perf_counter() - start
                counts[calls] += 1

        return wrapper

    def _timed_field(self, layer: str, field: scheme.RhsField) -> scheme.RhsField:
        evaluate = self._timed(layer + ".rhs", field.evaluate)
        return dataclasses.replace(field, evaluate=evaluate)

    def _rhs_busy(self) -> float:
        return self.busy["cpmodel.rhs"] + self.busy["manufactured.rhs"]

    def _rhs_calls(self) -> int:
        return self.counts["cpmodel.rhs.calls"] + self.counts["manufactured.rhs.calls"]

    def _integrate(self, integrate):
        def wrapper(f, y0, grid, *args, **kwargs):
            rhs_busy, rhs_calls = self._rhs_busy(), self._rhs_calls()
            self.states_bytes = max(self.states_bytes, (grid.M + 1) * f.dim * 8)
            start = perf_counter()
            try:
                trajectory = integrate(f, y0, grid, *args, **kwargs)
            except scheme.NumericalBlowupError as err:
                self._finish_integrate(start, rhs_busy, rhs_calls, err.step_index, failed=True)
                self.last_blowup_step = err.step_index
                raise
            self._finish_integrate(start, rhs_busy, rhs_calls, grid.M, failed=False)
            return trajectory

        return wrapper

    def _finish_integrate(self, start, rhs_busy, rhs_calls, steps, *, failed) -> None:
        elapsed = perf_counter() - start
        calls = self._rhs_calls() - rhs_calls
        self.busy["scheme.integrate"] += elapsed
        self.busy["scheme.self"] += elapsed - (self._rhs_busy() - rhs_busy)
        self.counts["scheme.steps"] += steps
        # The failed step of a diverged run evaluated 1 to 6 of its stages;
        # they count toward no completed step.
        partial = calls - 6 * steps if failed else 0
        if not 0 <= partial <= 6:
            self.counts["scheme.failed_step_out_of_range"] += 1
            partial = 0
        self.counts["scheme.rhs_completed"] += calls - partial

    def _convergence_study(self, study):
        def wrapper(*args, **kwargs):
            integrating = self.busy["scheme.integrate"]
            start = perf_counter()
            try:
                return study(*args, **kwargs)
            finally:
                inside = self.busy["scheme.integrate"] - integrating
                self.busy["studies.converge_post"] += perf_counter() - start - inside

        return wrapper

    def _cp_rhs(self, cp_rhs):
        def wrapper(params):
            start = perf_counter()
            field = cp_rhs(params)
            self.busy["cpmodel.load"] += perf_counter() - start
            return self._timed_field("cpmodel", field)

        return wrapper

    def _preset(self, preset):
        def wrapper(label):
            start = perf_counter()
            try:
                return preset(label)
            finally:
                self.busy["cpmodel.load"] += perf_counter() - start

        return wrapper

    def _problem(self, problem):
        def wrapper(label):
            built = problem(label)
            return dataclasses.replace(
                built,
                field=self._timed_field("manufactured", built.field),
                exact=self._timed("manufactured.exact", built.exact),
            )

        return wrapper

    def _csv_writer(self, writer):
        def wrapper(*args, **kwargs):
            outermost = self._csv_depth == 0
            self._csv_depth += 1
            start = perf_counter()
            try:
                return writer(*args, **kwargs)
            finally:
                self._csv_depth -= 1
                if outermost:
                    self.busy["cli.csv"] += perf_counter() - start

        return wrapper
