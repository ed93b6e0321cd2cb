# Dev ergonomics for the repro service (mirrors merino-py's make-driven
# workflow: one verb per everyday task, no hidden state).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: help test test-fast bench-smoke ledger-smoke boot-report reach-report bench serve smoke clean

help:
	@echo "make test         - run the full test suite"
	@echo "make test-fast    - the suite minus the slow concurrency hammers and the fresh-context memory test"
	@echo "make bench-smoke  - benchmark scripts at tiny sizes (REPRO_BENCH_SMOKE=1)"
	@echo "make ledger-smoke - 5 s traced ledger runs of full_ranking, herd_miss, zipf_steady + churn_writes (failed = 0, every traced target resolves)"
	@echo "make boot-report  - what a worker loads: importtime, module counts, the first rank split (bind / kernel compile / numpy import), seconds + RSS + status to the first answer at 4, 2 000 and 10 000 programs"
	@echo "make reach-report - function-body lines under src/repro reached by the examples, the paper benchmarks E1-E8 at smoke size, every CLI verb and four in-process serve runs (stdlib tracer)"
	@echo "make bench        - the full benchmark suite (slow; rewrites results/)"
	@echo "make serve        - the HTTP ranking gateway on :8080"
	@echo "make smoke        - start the gateway, hit /healthz + /rank, shut down"
	@echo "make clean        - drop caches and compiled artifacts"

test:
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest -x -q --ignore=tests/service/test_concurrent_hammer.py \
		--ignore=tests/service/test_context_memory.py

bench-smoke:
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest -q \
		benchmarks/bench_e1_table1_example.py \
		benchmarks/bench_e2_figure1_history.py \
		benchmarks/bench_e3_section5_scaling.py \
		benchmarks/bench_e3b_database.py \
		benchmarks/bench_e4_ablation_optimisations.py \
		benchmarks/bench_e5_ranking_quality.py \
		benchmarks/bench_e6_mining.py \
		benchmarks/bench_e8_uncertain_context.py \
		benchmarks/bench_e9_engine_overhead.py \
		benchmarks/bench_e10_kernel.py \
		benchmarks/bench_e11_reasoner.py \
		benchmarks/bench_e12_tenants.py \
		benchmarks/bench_e13_service.py \
		benchmarks/bench_e14_cache.py \
		benchmarks/bench_e15_resilience.py \
		benchmarks/bench_e16_coldstart.py \
		benchmarks/bench_e17_batching.py \
		benchmarks/bench_e7_multiuser.py

ledger-smoke:
	$(PYTHON) scripts/ledger_smoke.py

boot-report:
	$(PYTHON) scripts/boot_report.py

reach-report:
	$(PYTHON) scripts/reach_report.py

bench:
	$(PYTHON) -m pytest -q benchmarks

serve:
	$(PYTHON) -m repro serve --port 8080

smoke:
	$(PYTHON) scripts/service_smoke.py

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis build dist src/*.egg-info
