#!/usr/bin/env python
"""Record the repository's benchmark trajectory (``BENCH_kernels.json``).

Thin wrapper around :mod:`repro.perf.record` so the harness runs from a
checkout without installation::

    python benchmarks/record.py [--quick] [--output BENCH_kernels.json]
                                [--baseline PREV.json] [--threshold 1.5]
                                [--backends numpy,cext] [--no-e2e]
                                [--no-fail] [--fail-ratios]

Equivalent entry points: ``make bench`` and ``repro bench``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.perf.record import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
