# Test tiers for the Software Watchdog reproduction.
#
#   make test         tier-1: the full unit/integration suite (the gate)
#   make lint         wdlint the shipped app hypotheses (fails on
#                     error-severity diagnostics)
#   make bench-smoke  tier-2: one fast iteration of each benchmark file,
#                     so benchmark code cannot silently rot
#   make bench        regenerate every table & figure (slow)
#   make wdbench      the repo benchmark (BENCHMARK.json's command);
#                     pass run.py flags as ARGS="--workload wide_fleet"
#   make wdbench-test every unit test of the benchmark's tracer and
#                     workload definitions (bench-smoke runs only the
#                     first test of each file)
#   make bench-record run the benchmarks that append a record to their
#                     BENCH_<name>.json trajectory (benchutil.record)
#   make metrics-smoke  exercise the telemetry CLI: both exporters must
#                     render and the Prometheus output must parse
#   make serve-smoke  tier-2: real `repro serve` daemon + two SDK
#                     clients + one induced crash -> detection
#   make ha-smoke     tier-2: kill -9 the daemon and restart it from its
#                     --state-dir; a restart on a client's failover
#                     address; one server per state dir
#   make reach        tier-2: run every product path under a profile
#                     hook and fail on a src/ function none of them ran
#                     that tools/reach_allowlist.txt does not list (~1 min)

PYTEST = PYTHONPATH=src python -m pytest
REPRO = PYTHONPATH=src python -m repro

# Benchmarks that append to a BENCH_<name>.json trajectory.
BENCH_RECORD = benchmarks/test_bench_service_recovery.py \
	benchmarks/test_bench_snapshot.py benchmarks/test_bench_footprint.py \
	benchmarks/test_bench_service_ingest.py benchmarks/test_bench_fleet_tick.py \
	benchmarks/test_bench_admission.py benchmarks/test_bench_check_cycle.py \
	benchmarks/test_bench_failover.py

.PHONY: test lint bench-smoke bench wdbench wdbench-test bench-record \
	metrics-smoke serve-smoke ha-smoke reach all

test:
	$(PYTEST) -x -q

lint:
	$(REPRO) lint safespeed safelane steer-by-wire

bench-smoke:
	$(PYTEST) benchmarks/ -m bench_smoke --benchmark-disable -q

bench:
	$(PYTEST) benchmarks/ --benchmark-only

wdbench:
	python3 benchmarks/wdbench/run.py $(ARGS)

wdbench-test:
	$(PYTEST) benchmarks/wdbench/test_spans.py \
		benchmarks/wdbench/test_workloads.py -q

bench-record:
	$(PYTEST) $(BENCH_RECORD) --benchmark-disable -q

metrics-smoke:
	$(REPRO) metrics rig --seconds 1 --format prometheus > /dev/null
	$(REPRO) metrics faulty --seconds 1 --format json > /dev/null

serve-smoke:
	$(PYTEST) tests/test_service_e2e.py -m serve_smoke -q

ha-smoke:
	$(PYTEST) tests/test_service_ha.py -m ha_smoke -q

reach:
	python3 tools/reach.py

all: test lint bench-smoke wdbench-test metrics-smoke serve-smoke ha-smoke reach
