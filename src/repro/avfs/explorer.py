"""Design-space exploration over operating points.

This is the headline application of the paper: sweeping many supply
voltages over many stimuli *in one simulation* by mapping both onto the
slot plane (Fig. 3), then extracting per-voltage timing, activity and
energy figures.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.activity import switching_activity
from repro.analysis.arrival import latest_arrivals
from repro.analysis.power import dynamic_power
from repro.cells.library import CellLibrary
from repro.core.delay_kernel import DelayKernelTable
from repro.errors import ParameterError
from repro.netlist.circuit import Circuit
from repro.runtime.report import (AttemptReport, ChunkReport, RunReport)
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan
from repro.simulation.pool import PlanCacheMeter, pooled_engine
from repro.avfs.scaling import VoltageFrequencyTable

__all__ = ["OperatingPointResult", "DesignSpaceExplorer"]


@dataclass(frozen=True)
class OperatingPointResult:
    """Exploration metrics for one supply voltage.

    Attributes
    ----------
    latest_arrival:
        Latest transition arrival over all patterns (seconds).
    max_frequency:
        ``1 / latest_arrival`` without guardband.
    energy_per_pattern:
        Mean dynamic switching energy per pattern pair (joules);
        ``None`` when activity was not recorded.
    glitch_ratio:
        Fraction of toggles that are glitches; ``None`` without activity.
    """

    voltage: float
    latest_arrival: float
    max_frequency: float
    energy_per_pattern: Optional[float]
    glitch_ratio: Optional[float]


class DesignSpaceExplorer:
    """Voltage-sweep exploration driver on top of :class:`GpuWaveSim`.

    The engine comes from the process-wide pool
    (:func:`repro.simulation.pool.pooled_engine`) unless an explicit
    ``simulator`` is passed: every explorer (and the closed-loop runner)
    working the same circuit under the same configuration shares one
    engine, so resolved level plans and pooled waveform arenas stay warm
    across sweeps.  Each sweep leaves a
    :class:`~repro.runtime.report.RunReport` on :attr:`last_report` with
    the engine accounting and the plan-cache/pool hits the sharing
    bought.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary,
        kernel_table: DelayKernelTable,
        record_activity: bool = False,
        simulator: Optional[GpuWaveSim] = None,
    ) -> None:
        self.circuit = circuit
        self.library = library
        self.kernel_table = kernel_table
        self.record_activity = record_activity
        config = SimulationConfig(record_all_nets=record_activity)
        self._plan_cache = PlanCacheMeter()
        if simulator is None:
            with self._plan_cache:
                simulator = pooled_engine(circuit, library, config=config)
        self.simulator = simulator
        self._loads = circuit.net_loads(library) if record_activity else None
        self.last_runtime: float = 0.0
        self.last_report: Optional[RunReport] = None

    def _run(self, pairs: Sequence[PatternPair], plan: SlotPlan):
        """One engine run wrapped in RunReport accounting."""
        with self._plan_cache:
            start = _time.perf_counter()
            result = self.simulator.run(pairs, plan=plan,
                                        kernel_table=self.kernel_table)
            self.last_runtime = _time.perf_counter() - start
        stats = self.simulator.last_stats
        hits, misses = self._plan_cache.take()
        report = RunReport(
            circuit_name=self.circuit.name,
            num_slots=plan.num_slots,
            chunk_slots=plan.num_slots,
            chunks=[ChunkReport(index=0, num_slots=plan.num_slots,
                                attempts=[AttemptReport.ran(
                                    result.engine, self.last_runtime,
                                    stats)])],
            wall_seconds=self.last_runtime,
            plan_cache_hits=hits,
            plan_cache_misses=misses,
        )
        report.fold(stats)
        result.report = report
        self.last_report = report
        return result

    def sweep(
        self,
        pairs: Sequence[PatternPair],
        voltages: Sequence[float],
    ) -> List[OperatingPointResult]:
        """Evaluate every pattern under every voltage (full slot plane)."""
        if not voltages:
            raise ParameterError("need at least one voltage")
        self.kernel_table.space.require(voltages)
        plan = SlotPlan.cross(len(pairs), voltages)
        result = self._run(pairs, plan)
        arrivals = latest_arrivals(result, self.circuit, plan=plan)

        points: List[OperatingPointResult] = []
        for voltage in voltages:
            arrival = arrivals.at(voltage)
            energy = glitch_ratio = None
            if self.record_activity:
                slots = plan.slots_for_voltage(voltage)
                activity = switching_activity(result, slots=slots.tolist())
                report = dynamic_power(activity, self._loads, voltage)
                energy = report.energy_per_pattern
                glitch_ratio = activity.glitch_ratio
            points.append(
                OperatingPointResult(
                    voltage=float(voltage),
                    latest_arrival=arrival,
                    max_frequency=(1.0 / arrival) if arrival > 0 else float("inf"),
                    energy_per_pattern=energy,
                    glitch_ratio=glitch_ratio,
                )
            )
        return points

    def voltage_frequency_table(
        self,
        pairs: Sequence[PatternPair],
        voltages: Sequence[float],
        guardband: float = 0.10,
    ) -> VoltageFrequencyTable:
        """Characterize a VF operating table from a sweep."""
        points = self.sweep(pairs, voltages)
        return VoltageFrequencyTable.from_delays(
            [p.voltage for p in points],
            [p.latest_arrival for p in points],
            guardband=guardband,
        )

    def shmoo(
        self,
        pairs: Sequence[PatternPair],
        voltages: Sequence[float],
        periods: Sequence[float],
    ) -> Dict[float, Dict[float, bool]]:
        """Voltage × clock-period pass/fail matrix (a shmoo plot).

        An operating point passes when the latest transition arrival
        fits within the clock period.
        """
        points = self.sweep(pairs, voltages)
        return {
            point.voltage: {
                float(period): point.latest_arrival <= period
                for period in periods
            }
            for point in points
        }

    def pvt_sweep(
        self,
        pairs: Sequence[PatternPair],
        voltages: Sequence[float],
        corner_tables: Dict[str, DelayKernelTable],
    ) -> Dict[str, List[OperatingPointResult]]:
        """Sweep the voltage range under several PVT corners.

        ``corner_tables`` maps a corner label (``"slow@125C"`` …) to the
        kernel table characterized at that corner (see
        :meth:`repro.electrical.model.TransistorCorner.at_temperature`).
        Returns label → per-voltage results, e.g. for building the
        worst-case operating table ``min`` over corners.

        Note the delay kernels express *relative* voltage sensitivity:
        the absolute nominal delays still come from the circuit's SDF
        annotation.  For a fully corner-accurate absolute sweep,
        re-annotate the circuit with that corner's electrical model
        (``annotate_nominal(circuit, library, ElectricalModel(corner))``)
        when compiling — exactly as a signoff flow would swap SDF files.
        """
        if not corner_tables:
            raise ParameterError("need at least one corner table")
        original = self.kernel_table
        results: Dict[str, List[OperatingPointResult]] = {}
        try:
            for label, table in corner_tables.items():
                self.kernel_table = table
                results[label] = self.sweep(pairs, voltages)
        finally:
            self.kernel_table = original
        return results

    @staticmethod
    def worst_case_delays(
        pvt_results: Dict[str, List[OperatingPointResult]]
    ) -> List[OperatingPointResult]:
        """Per-voltage worst corner of a :meth:`pvt_sweep` result."""
        if not pvt_results:
            raise ParameterError("empty PVT results")
        per_corner = list(pvt_results.values())
        count = len(per_corner[0])
        if any(len(points) != count for points in per_corner):
            raise ParameterError("corner sweeps have mismatched lengths")
        worst: List[OperatingPointResult] = []
        for index in range(count):
            candidates = [points[index] for points in per_corner]
            worst.append(max(candidates, key=lambda p: p.latest_arrival))
        return worst

    def find_vmin(
        self,
        pairs: Sequence[PatternPair],
        voltages: Sequence[float],
        period: float,
        guardband: float = 0.10,
    ) -> Optional[float]:
        """Minimum swept voltage meeting the clock period (with margin).

        Returns ``None`` when no swept voltage is fast enough.
        """
        points = self.sweep(pairs, sorted(voltages))
        for point in points:  # ascending voltages
            if point.latest_arrival * (1.0 + guardband) <= period:
                return point.voltage
        return None
