# Canonical targets for the Pestrie reproduction.

PYTHON ?= python3
RUN = PYTHONPATH=src:$$PYTHONPATH $(PYTHON)

.PHONY: install test fuzz fuzz-v4 fuzz-versions bench bench-smoke bench-scale-smoke daemon-smoke metrics-smoke obs-smoke ledger-smoke examples results clean

install:
	pip install -e . --no-build-isolation

# The default test run includes a fast fuzz smoke pass; `make fuzz` is the
# full bounded sweep (still seeded and deterministic).
test:
	$(RUN) -m pytest tests/
	$(RUN) -m repro.core.fuzz --iterations 100 --quiet

fuzz:
	$(RUN) -m repro.core.fuzz --iterations 600

# Focused sweep over the zero-copy PESTRIE4 layout: every case checks the
# query engine against the source matrix and throws seeded corruption at
# the flat sections (any effective mutation must die as CorruptFileError).
fuzz-v4:
	$(RUN) -m repro.core.fuzz --iterations 300 --versions 4

# Versioned-tail sweep: every PESTRIE3/4 case grows an epoch-stamped
# PESDELT2 chain; corrupted or truncated epoch stamps must die as
# CorruptFileError or decode to a clean prefix — never a wrong as_of.
fuzz-versions:
	$(RUN) -m repro.core.fuzz --iterations 300 --versions 3,4 --versioned-tails

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Tiny-workload run of the service throughput benchmark — a CI guard that
# keeps the serve layer and its batch-beats-single invariant from rotting.
bench-smoke:
	BENCH_SMOKE=1 $(RUN) -m pytest benchmarks/bench_service_throughput.py benchmarks/bench_cold_start.py benchmarks/bench_version_query.py -q

# Tiny-workload run of the daemon tier: concurrent socket clients vs the
# in-process baseline, plus hot apply_delta under load with a differential
# check — guards the network tier's throughput bar and its zero-wrong-answer
# reload invariant.
daemon-smoke:
	BENCH_SMOKE=1 $(RUN) -m pytest benchmarks/bench_daemon_throughput.py -q

# Scale-growth guard: staged encode up to 10^5 pointers must stay
# near-linear in the fact count, and a 2-process parallel encode must be
# byte-identical to the serial bytes.
bench-scale-smoke:
	cd benchmarks && BENCH_SMOKE=1 PYTHONPATH=../src:$$PYTHONPATH $(PYTHON) bench_scale_growth.py --quick

# Observability guard: boot a daemon, drive traced traffic, assert one
# request yields one connected span tree, the flight recorder dumps real
# events, and the always-on recorder costs <5% throughput.
obs-smoke:
	BENCH_SMOKE=1 $(RUN) -m pytest benchmarks/bench_obs_flight.py -q

# End-to-end telemetry guard: run the pipeline, dump the metrics registry,
# fail if any catalogued family is missing or an exercised one has no data.
metrics-smoke:
	cd benchmarks && BENCH_SMOKE=1 PYTHONPATH=../src:$$PYTHONPATH $(PYTHON) bench_service_throughput.py --emit-metrics

# Bench-ledger self-tests: quick runs of every workload, the compare
# bounds, and daemon cleanup.  They live outside testpaths, so the tier-1
# run does not collect them.
ledger-smoke:
	$(RUN) -m pytest ledger/ -q

# Regenerate every paper-style table into benchmarks/results/.
results: bench
	@ls benchmarks/results/

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(RUN) $$script || exit 1; \
	done

clean:
	rm -rf benchmarks/results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
