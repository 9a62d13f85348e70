PYTHON ?= python

.PHONY: verify test bench benchmarks bench-smoke bench-scale tune-smoke serve-smoke serve-scale chaos-smoke perfbench-search search-digest table-digest profile report

# Tier-1 verification (ROADMAP.md): the full test suite, fail-fast.
verify:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -x -q

test: verify

# Paper tables/figures + the perf guards (sparse propagation, serving
# throughput, search speedup). REPRO_SCALE=tiny|small. Guard benchmarks
# append {name, value, unit, commit} rows to BENCH_perf.json.
bench:
	cd benchmarks && PYTHONPATH=../src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -q

benchmarks: bench

# Just the three perf guards (what CI's bench-smoke job runs).
bench-smoke:
	cd benchmarks && PYTHONPATH=../src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -q \
		test_sparse_speedup.py test_serving_throughput.py test_search_speedup.py

# Mini-batch scale guard: sampled training on the 50k-node scale_spec
# graph with bounded peak activations (see docs/SCALING.md).
bench-scale:
	cd benchmarks && PYTHONPATH=../src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -q \
		test_minibatch_scale.py

# Autotune guard: a tiny ASHA search on the synthetic tune spec vs the
# sequential and one-shot baselines; leaves the trial journal behind as
# TUNE_journal.jsonl (see docs/TUNING.md).
tune-smoke:
	cd benchmarks && PYTHONPATH=../src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -q \
		test_autotune_speedup.py

# Serving smoke: export a tiny bundle, serve it over HTTP with tracing
# and access logging on, drive predict/onboard/drain traffic, scrape
# /metrics and validate it; leaves SERVE_metrics.txt and
# SERVE_trace.jsonl behind (see docs/OBSERVABILITY.md).
serve-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/serve_smoke.py

# Serving scale guard: `repro serve`'s HTTP stack under a closed-loop
# pool of keep-alive clients (q/s recorded as information), then
# open-loop saturation for tail latency (asserted; see docs/SCALING.md).
# Rows land in BENCH_perf.json.
serve-scale:
	cd benchmarks && PYTHONPATH=../src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -q \
		test_serving_scale.py

# Chaos smoke: deterministic fault injection against the live stack —
# serving under injected flush failures (no request lost without a 5xx),
# corrupted bundle writes rejected at load, killed trial workers
# self-healing to the identical leaderboard; leaves CHAOS_report.jsonl
# behind (see docs/ROBUSTNESS.md).
chaos-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/chaos_smoke.py

# perfbench `search` smoke (perfbench/README.md): one traced run_autoac
# on imdb small under the fast profile; fails unless its result line
# says "correct": true and "failed": 0.
perfbench-search:
	mkdir -p .perfbench
	$(PYTHON) perfbench/run.py --workload search --seed 1 --seconds 0 --trace 1 \
		> .perfbench/search-smoke.out
	$(PYTHON) scripts/check_perfbench.py .perfbench/search-smoke.out

# Bit-identity check for search changes: one SHA-1 per runtime profile and
# seed (reference seed 1, fast seeds 1-5) over α, the assignment, cluster
# labels, every history series and the retrain's history and F1 scores of
# run_autoac (MODEL on imdb, 40+40 epochs, early stopping off), plus an
# outcome digest (assignment, cluster labels, final F1s); BLAS runs on one
# thread.
# SCALE=tiny|small|medium (default small), MODEL=<backbone> (default
# simple_hgn).  BASE=<rev> also digests git revision <rev>'s sources,
# prints both trees' lines side by side and fails if a reference line
# differs.
SCALE ?= small
MODEL ?= simple_hgn
BASE ?=
search-digest:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/search_digest.py \
		--scale $(SCALE) --model $(MODEL) $(if $(BASE),--base $(BASE))

# Bit-identity check for the paper tables and figures: one SHA-1 per
# repro.experiments driver (run as its benchmark runs it, tiny scale,
# reference profile, BLAS on one thread) over its result and the runner
# results behind it, timing keys removed, floats as hex.
# ONLY=table2,figure4 restricts the drivers; BASE=<rev> also digests git
# revision <rev>'s sources, prints both trees' lines side by side and
# fails if any line differs.
ONLY ?=
table-digest:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/table_digest.py \
		$(if $(ONLY),--only $(ONLY)) $(if $(BASE),--base $(BASE))

# Static HTML report from the tune-smoke journal (docs/OBSERVABILITY.md).
report:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro report \
		TUNE_journal.jsonl --out TUNE_report.html

# Per-op profiler table for a small search run (see docs/PERFORMANCE.md).
profile:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro profile --scale tiny --runtime fast
