# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test lint kernel-lint store-lint loc knobs bench bench-pytest ledger-quick ledger-pairs chaos experiments examples clean

# Seeded delays-only chaos plan for `make chaos` / the CI chaos job:
# latency injection at every service/engine seam without altering
# results or dispatch counts, so the ordinary assertions still hold
# while every lock/timeout path runs under perturbed interleavings.
CHAOS_PLAN = seed=1;service.demux:delay@p=0.15,ms=2;engine.alloc:delay@p=0.05,ms=1;backend.run_levels:delay@p=0.1,ms=1;shard.dispatch:delay@p=0.1,ms=2;shard.spawn:delay@p=0.5,ms=5;charz.fit:delay@p=0.05,ms=1

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Critical-error lint gate (rule subset in pyproject.toml).
lint:
	$(PYTHON) -m ruff check src tests benchmarks examples

# The C kernels live in a Python string no linter sees: write them out
# and run the compiler's strict front end over them.
kernel-lint:
	@tmp=$$(mktemp --suffix=.c) && trap 'rm -f "$$tmp"' EXIT && \
	PYTHONPATH=src $(PYTHON) -c "from repro.simulation import kernels_cext; print(kernels_cext._SOURCE)" > "$$tmp" && \
	$(CC) -std=c99 -fopenmp -Wall -Wextra -Werror -fsyntax-only "$$tmp" && \
	echo "kernel-lint: ok"

# Caches and atomic file writes live in src/repro/store.py alone: fail on
# a private LRU or temp-file-and-rename copy anywhere else in src/.  The
# kernel library's .so build rename (kernels_cext.py) is the one exception.
store-lint:
	@hits=$$(grep -rnE 'popitem\(last=False\)|move_to_end\(|mkstemp\(|os\.replace\(' src/ \
		| grep -v '^src/repro/store\.py:' \
		| grep -vE '^src/repro/simulation/kernels_cext\.py:[0-9]+: +os\.replace\(build_path, lib_path\)$$'); \
	if [ -n "$$hits" ]; then echo "$$hits"; echo "store-lint: use repro.store"; exit 1; fi; \
	echo "store-lint: ok"

# Lines of src/ per package and in total: the one command behind every
# PR's "net src/ LoC" number (diff two checkouts' output).
loc:
	@for dir in src/repro src/repro/*/; do \
		printf '%7d  %s\n' "$$(find $$dir -maxdepth 1 -name '*.py' | xargs cat | wc -l)" $$dir; \
	done
	@printf '%7d  total\n' "$$(find src -name '*.py' | xargs cat | wc -l)"

# Settable fields per config record and in total: the settings count
# printed beside net LoC (tests/test_config_surface.py pins the names).
# SRC points the count at another checkout's source tree.
SRC ?= src
KNOB_RECORDS = repro.simulation.base:SimulationConfig repro.service.jobs:ServiceConfig \
	repro.avfs.loop.runner:LoopConfig repro.core.characterization:AdaptiveConfig \
	repro.runtime.campaign:CampaignConfig
knobs:
	@PYTHONPATH=$(SRC) $(PYTHON) -c "import dataclasses, importlib, sys; \
	counts = [(len(dataclasses.fields(getattr(importlib.import_module(m), r))), r) \
	          for m, r in (spec.split(':') for spec in sys.argv[1:])]; \
	[print('%7d  %s' % entry) for entry in counts]; \
	print('%7d  total' % sum(n for n, _ in counts))" $(KNOB_RECORDS)

# Record the benchmark trajectory (BENCH_kernels.json) across the
# available compute backends and flag wall-time regressions.
bench:
	$(PYTHON) benchmarks/record.py

bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Smoke run of the end-to-end + per-layer ledger (same code paths, tiny
# sizes, ~20 s): every workload's output checks plus the traced layers.
ledger-quick:
	python3 benchmarks/ledger/run.py --quick --trace

# Alternating parent/change runs of the BENCHMARK.json command — how a
# gain is claimed (ROADMAP standing gates):
#   make ledger-pairs BASE=HEAD~1 WORKLOAD=service_stream PAIRS=10
PAIRS ?= 10
ledger-pairs:
	python3 benchmarks/pairs.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)

# Service + fault suites under seeded latency injection (numpy backend).
# PYTHONPATH=src so the target works from a bare checkout too.
chaos:
	PYTHONPATH=src REPRO_BACKEND=numpy REPRO_FAULTS="$(CHAOS_PLAN)" \
		$(PYTHON) -m pytest tests/service tests/faults -q

# Regenerate every paper exhibit (Fig. 4/5, Table I/II).
experiments:
	$(PYTHON) -m repro.experiments.fig4
	$(PYTHON) -m repro.experiments.fig5
	$(PYTHON) -m repro.experiments.table1
	$(PYTHON) -m repro.experiments.table2

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/delay_characterization.py
	$(PYTHON) examples/avfs_exploration.py
	$(PYTHON) examples/glitch_power_analysis.py
	$(PYTHON) examples/timing_validation_flow.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
