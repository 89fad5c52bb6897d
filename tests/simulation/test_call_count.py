"""Exact count of the package's own calls in one warm engine run.

Walls drift with the machine's phase; a call count does not.  A warm
``GpuWaveSim.run`` (plans resolved, arenas grown, φ_V memoized) is held
to the exact number of Python-level ``call`` events of functions defined
in the package, per backend: a call added to or removed from the run
path moves the count, and the pin has to move with it, stating why.

Comprehension code objects are not counted: CPython 3.12 inlines list,
dict and set comprehensions into their function (PEP 709), so they are
calls on 3.9-3.11 and none on 3.12.  Generator expressions stay frames
on every version and are counted.

The pins were measured on CPython 3.11 with numpy 2.4 only; the 3.9 and
3.12 legs are unmeasured.  What could still differ there: 3.12 feeds
``sys.setprofile`` from ``sys.monitoring``, so the ``call`` events of a
resumed generator expression may be reported differently; a
dataclass-generated method counts only if its code names a file in the
package; and a weak-reference callback run by a garbage collection inside
the profiled run is a package call.  On a mismatch the assertion lists
the per-function counts, so the pin can be moved with a stated reason.
"""

import os
import sys
from collections import Counter

import numpy as np
import pytest

import repro
from repro.netlist.generate import random_circuit
from repro.simulation.backend import available_backends
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan

#: Calls of one warm run of the plane below (8 slots, two supplies, the
#: n = 3 polynomial table).  The numpy backend walks the levels in
#: Python, the C backend in one native call.
CALLS = {"numpy": 208, "cext": 57}

_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def warm_run_calls(library, kernel_table, backend) -> Counter:
    circuit = random_circuit("calls", 8, 80, seed=3)
    rng = np.random.default_rng(3)
    pairs = [PatternPair.random(len(circuit.inputs), rng) for _ in range(4)]
    plan = SlotPlan.cross(len(pairs), [0.7, 0.9])
    sim = GpuWaveSim(circuit, library,
                     config=SimulationConfig(backend=backend))
    sim.run(pairs, plan=plan, kernel_table=kernel_table)
    package = os.path.dirname(repro.__file__)
    calls = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(package)
                and code.co_name not in _COMPREHENSIONS):
            calls[code.co_name] += 1

    sys.setprofile(profile)
    try:
        sim.run(pairs, plan=plan, kernel_table=kernel_table)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("backend", available_backends())
def test_warm_run_call_count_is_exact(library, kernel_table, backend):
    if backend not in CALLS:
        pytest.skip(f"no call count pinned for the {backend} backend")
    calls = warm_run_calls(library, kernel_table, backend)
    assert sum(calls.values()) == CALLS[backend], sorted(calls.items())
