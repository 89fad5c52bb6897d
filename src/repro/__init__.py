"""repro — voltage-aware parallel gate-level time simulation.

A faithful, pure-Python reproduction of *"GPU-accelerated Time
Simulation of Systems with Adaptive Voltage and Frequency Scaling"*
(Schneider & Wunderlich, DATE 2020): polynomial voltage-dependent delay
kernels learned offline by regression, evaluated online inside a
massively parallel (NumPy-SIMT) glitch-accurate waveform simulator that
exploits gate-, stimuli- and operating-point parallelism simultaneously.

Quickstart::

    from repro import (
        make_nangate15_library, characterize_library,
        random_circuit, random_pattern_set, GpuWaveSim, SlotPlan,
    )

    library = make_nangate15_library()
    kernels = characterize_library(library, n=3).compile()
    circuit = random_circuit("demo", num_inputs=16, num_gates=500, seed=1)
    patterns = random_pattern_set(circuit, 32, seed=2)

    sim = GpuWaveSim(circuit, library)
    plan = SlotPlan.cross(len(patterns), [0.55, 0.8, 1.1])
    result = sim.run(patterns.pairs, plan=plan, kernel_table=kernels)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.cells import (
    Cell,
    CellLibrary,
    CellPin,
    DrivePolarity,
    make_nangate15_library,
)
from repro.core import (
    DelayKernelTable,
    FitResult,
    OperatingPoint,
    ParameterSpace,
    SurfacePolynomial,
    characterize_cell,
    characterize_library,
    characterize_pin,
    fit_polynomial,
)
from repro.electrical import AnalyticalSpice, ElectricalModel, TransistorCorner
from repro.netlist import (
    BENCHMARK_SUITE,
    Circuit,
    Gate,
    build_suite_circuit,
    c17,
    circuit_stats,
    parse_bench,
    parse_spef,
    parse_sdf,
    parse_verilog,
    random_circuit,
    write_bench,
    write_sdf,
    write_spef,
    write_verilog,
)
from repro.waveform import Waveform, WaveformPlane
from repro.simulation import (
    EventDrivenSimulator,
    GpuWaveSim,
    PatternPair,
    ProcessVariation,
    SimulationConfig,
    SimulationResult,
    SlotPlan,
    ZeroDelaySimulator,
)
from repro.timing import StaticTimingAnalysis, k_longest_paths
from repro.atpg import (
    FaultSimulator,
    PatternSet,
    TransitionFault,
    generate_path_patterns,
    generate_transition_patterns,
    random_pattern_set,
)
from repro.analysis import (
    dynamic_power,
    latest_arrivals,
    switching_activity,
)
from repro.avfs import AvfsController, DesignSpaceExplorer, VoltageFrequencyTable
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    # cells
    "Cell", "CellLibrary", "CellPin", "DrivePolarity", "make_nangate15_library",
    # core
    "DelayKernelTable", "FitResult", "OperatingPoint", "ParameterSpace",
    "SurfacePolynomial", "characterize_cell", "characterize_library",
    "characterize_pin", "fit_polynomial",
    # electrical
    "AnalyticalSpice", "ElectricalModel", "TransistorCorner",
    # netlist
    "BENCHMARK_SUITE", "Circuit", "Gate", "build_suite_circuit", "c17",
    "circuit_stats", "parse_bench", "parse_sdf", "parse_spef", "parse_verilog",
    "random_circuit", "write_bench", "write_sdf", "write_spef", "write_verilog",
    # waveforms
    "Waveform", "WaveformPlane",
    # simulation
    "EventDrivenSimulator", "GpuWaveSim",
    "PatternPair", "ProcessVariation", "SimulationConfig",
    "SimulationResult", "SlotPlan", "ZeroDelaySimulator",
    # timing
    "StaticTimingAnalysis", "k_longest_paths",
    # atpg
    "FaultSimulator", "PatternSet", "TransitionFault",
    "generate_path_patterns", "generate_transition_patterns",
    "random_pattern_set",
    # analysis
    "dynamic_power", "latest_arrivals", "switching_activity",
    # avfs
    "AvfsController", "DesignSpaceExplorer", "VoltageFrequencyTable",
    # errors
    "ReproError",
    "__version__",
]
