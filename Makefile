.PHONY: install test bench perf-ab experiments examples lint resilience-smoke paper-smoke scale-16k-smoke scale-64k-smoke campaign-smoke serve-smoke cache-smoke clean

install:
	pip install -e ".[test]"

test:
	pytest tests/ -q

# Whole-program static analysis (repro.analysis) + strict typing for the
# core, analysis, and annotated simulator layers.  Error-tier findings
# not in analysis_baseline.json fail the build; the JSON and SARIF
# reports are uploaded as CI artifacts.  mypy is optional locally (the
# analysis pass is pure stdlib); CI installs it and runs the full gate.
lint:
	PYTHONPATH=src python -m repro.analysis \
		--baseline analysis_baseline.json \
		--output analysis_report.json \
		--sarif-output analysis.sarif \
		src/repro
	@if python -c "import mypy" >/dev/null 2>&1; then \
		python -m mypy src/repro/core src/repro/analysis src/repro/simulator/engine.py src/repro/simulator/faults.py src/repro/simulator/macro.py src/repro/simulator/topology.py; \
	else \
		echo "mypy not installed; skipping type check (pip install mypy, or rely on CI)"; \
	fi

bench:
	pytest benchmarks/ --benchmark-only -q

# perfbench on BASE and on HEAD in alternating pairs, every workload in
# BENCHMARK.json (benchmarks/ab.py): fails when a run breaks or reports a
# wrong answer, when HEAD fails more operations, or when a metric is worse
# than its bound and HEAD lost most pairs.  make perf-ab BASE=<git ref>
perf-ab:
	python benchmarks/ab.py $(BASE)

experiments:
	python -m repro.experiments all --fast

# The resilience experiment (fault injection + checkpoint tradeoff) at a
# tiny configuration; RESILIENCE.json is uploaded as a CI artifact.
resilience-smoke:
	python -m repro.experiments resilience --fast --json-out RESILIENCE.json

# Figures 4 and 5 at --fast sizes and the scaling experiment, every
# product verified against A @ B.  Each row records whether its runs
# were trace-compiled; any GK or Cannon run that went to heap fails the
# target, uneven partitions (n not a multiple of the cube or grid side)
# included, so no paper workload can stop compiling unnoticed.
paper-smoke:
	python -m repro.experiments fig4 --fast --no-disk-cache --json-out PAPER_FIG4.json > /dev/null
	python -m repro.experiments fig5 --fast --no-disk-cache --json-out PAPER_FIG5.json > /dev/null
	python -m repro.experiments scaling --no-disk-cache --json-out PAPER_SCALING.json > /dev/null
	python -c 'import json, sys; figs = [json.load(open(f)) for f in sys.argv[1:3]]; parts = json.load(open(sys.argv[3])); bad = [(f["figure"], r["n"], a) for f in figs for r in f["rows"] for a in ("gk", "cannon") if not r[a + "_compiled"]]; bad += [(part, r["algorithm"], r["p"], r["compile_fallback"]) for part, rows in parts.items() for r in rows if not r["compiled"]]; print(sum(len(f["rows"]) for f in figs), "figure points and", sum(map(len, parts.values())), "scaling rows checked"); sys.exit(f"not trace-compiled: {bad}" if bad else 0)' PAPER_FIG4.json PAPER_FIG5.json PAPER_SCALING.json

# Complete, verified 16384- and 65536-rank Cannon simulations on the
# compiled (record->replay) scheduler, scaling-large's default: the
# batch replay charges the timing, with one scalar per account for all
# ranks while they run in lockstep (Cannon's ranks do throughout), and
# the stacked payload graph computes the product (each rolled block read
# as a view of one grid-order stack, the sum accumulated in place), which
# is checked against A @ B; computing it is still most of each target's
# time.  Timing is fuzz-gated bit-identical to the heap scheduler at
# p <= 4096 by the test suite, and products array-equal to heap's.  A run
# that fell back to heap fails the target (its row says why) instead of
# passing minutes later.
scale-16k-smoke:
	python -m repro.experiments scaling-large --p-values 16384 --n0 2 --no-disk-cache --json-out SCALE16K.json
	python -c 'import json, sys; bad = [r for r in json.load(open("SCALE16K.json"))["scaled_cannon"] if not r["compiled"]]; sys.exit(f"not trace-compiled: {bad}" if bad else 0)'

scale-64k-smoke:
	python -m repro.experiments scaling-large --p-values 65536 --n0 2 --no-disk-cache --json-out SCALE64K.json
	python -c 'import json, sys; bad = [r for r in json.load(open("SCALE64K.json"))["scaled_cannon"] if not r["compiled"]]; sys.exit(f"not trace-compiled: {bad}" if bad else 0)'

# A seeded autopilot battery through the campaign runner: every anomaly
# oracle armed (including the alternate-scheduler cross-check), exit
# non-zero on any finding.  Fully reproducible — the same seed yields
# byte-identical CAMPAIGN.jsonl / CAMPAIGN.report.json; both (plus the
# derived SQLite index) are uploaded as CI artifacts.
campaign-smoke:
	rm -f CAMPAIGN.jsonl CAMPAIGN.sqlite CAMPAIGN.report.json
	python -m repro campaign autopilot --seed 2024 --count 40 \
		--profile smoke --db CAMPAIGN --fail-on-anomaly

# A 500-query mixed load (point predictions, region maps, crossover
# curves, simulator jobs) against a real repro.serve HTTP server on an
# ephemeral port: zero errors and non-zero micro-batch coalescing
# counters are asserted, exit non-zero otherwise.
serve-smoke:
	python benchmarks/serve_loadgen.py

# Two `repro regions` processes against one fresh disk-cache directory:
# the second must be served from the shard the first wrote, a
# cross-process disk hit, or the target fails.  A third, with
# REPRO_NO_DISK_CACHE=1 against the same directory, must report the disk
# tier off ("disk": null).
cache-smoke:
	@dir=$$(mktemp -d) && \
	REPRO_CACHE_DIR=$$dir python -m repro regions --cache-stats > /dev/null && \
	REPRO_CACHE_DIR=$$dir python -m repro regions --cache-stats | tail -n 1 | \
	python -c 'import json, sys; disk = json.loads(sys.stdin.read().removeprefix("cache stats: "))["disk"]; print("second run, disk tier:", disk); sys.exit(0 if disk["hits"] > 0 else "no disk hit on the second run")' && \
	REPRO_CACHE_DIR=$$dir REPRO_NO_DISK_CACHE=1 python -m repro regions --cache-stats | tail -n 1 | \
	python -c 'import json, sys; disk = json.loads(sys.stdin.read().removeprefix("cache stats: "))["disk"]; print("REPRO_NO_DISK_CACHE=1, disk tier:", disk); sys.exit(0 if disk is None else "REPRO_NO_DISK_CACHE=1 left the disk tier on")'; \
	status=$$?; rm -rf $$dir; exit $$status

examples:
	python examples/quickstart.py
	python examples/algorithm_selection.py
	python examples/scalability_study.py
	python examples/cm5_reproduction.py --fast
	python examples/technology_tradeoff.py
	python examples/memory_constrained_scaling.py
	python examples/paper_walkthrough.py

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
