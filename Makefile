# Developer / CI entry points.  `make ci` is what a PR must pass: tier-1
# tests, the SEC001-SEC010 interprocedural static-analysis gate (fails on
# any finding not recorded in .analysis-baseline.json), the chaos sweep
# (drop/duplicate/crash faults over every migration message; R3/R4 must hold
# after recovery), the full fleet-kill grid (every planner-kill boundary of
# the fleet executor, serial and pipelined), the smoke slices of the
# disk-fault and clone-campaign grids (the full grids run via
# `make chaos-disk` and `make chaos-clone`), and the end-to-end benchmark's
# smoke test.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test analyze analyze-json analyze-sarif analyze-changed baseline \
	chaos chaos-disk chaos-disk-smoke chaos-fleet chaos-fleet-smoke \
	chaos-clone chaos-clone-smoke chaos-smoke-all \
	bench-fleet bench-fleet-smoke bench-scale-smoke bench-e2e-smoke \
	bench-e2e-compare ci

test:
	$(PYTHON) -m pytest -x -q

# Fleet migration throughput (wall + virtual clock); refreshes the checked-in
# BENCH_fleet.json.  The smoke variant is a tiny CI guard that the harness
# runs end to end; it writes outside the tree so it never dirties the report.
bench-fleet:
	$(PYTHON) benchmarks/bench_fleet.py

bench-fleet-smoke:
	$(PYTHON) benchmarks/bench_fleet.py --smoke --output /tmp/BENCH_fleet_smoke.json

# Discrete-event concurrency guard: a tiny serial-vs-pipelined dispatch
# sweep plus the planner heap-vs-scan microbench, in seconds not minutes.
bench-scale-smoke:
	$(PYTHON) benchmarks/bench_fleet.py --smoke --scale-only --output /tmp/BENCH_scale_smoke.json

# The repo benchmark (benchmarks/e2e, see BENCHMARK.json) at smoke size:
# every workload builds, runs and passes its correctness checks.
bench-e2e-smoke:
	$(PYTHON) -m pytest -q benchmarks/e2e

# Paired A/B run of the repo benchmark by its comparison protocol: PAIRS
# alternating runs of WORKLOAD at SEED in BASE (a second checkout, e.g.
# `git worktree add ../base HEAD~1`) and in this tree; prints each side's
# median and quartiles, the pairs won, and a verdict per metric.
BASE ?= ../base
WORKLOAD ?= paper_migrate
SEED ?= 0
PAIRS ?= 10
bench-e2e-compare:
	$(PYTHON) benchmarks/compare.py --base $(BASE) --workload $(WORKLOAD) \
		--seed $(SEED) --pairs $(PAIRS)

analyze:
	$(PYTHON) -m repro.analysis --format text src/repro examples benchmarks

analyze-json:
	$(PYTHON) -m repro.analysis --format json src/repro examples benchmarks

# SARIF 2.1.0 for code-scanning UIs; findings carry stable path fingerprints
# and multi-hop taint traces as codeFlows.
analyze-sarif:
	$(PYTHON) -m repro.analysis --format sarif src/repro examples benchmarks > analysis.sarif

# Fast pre-commit loop: only files changed vs. the merge base.
analyze-changed:
	$(PYTHON) -m repro.analysis --changed-only src/repro examples benchmarks

baseline:
	$(PYTHON) -m repro.analysis --update-baseline src/repro examples benchmarks

# All four modes: sequential and batched-wave migrations, each with the
# session-resumption ablation on and off, must uphold R3/R4 under the same
# fault sweep as the paper's baseline protocol.
chaos:
	$(PYTHON) -m repro.faults.chaos
	$(PYTHON) -m repro.faults.chaos --session-resumption
	$(PYTHON) -m repro.faults.chaos --batched
	$(PYTHON) -m repro.faults.chaos --batched --session-resumption

# Disk fault grid: every persisted artifact x every fault kind (torn_write,
# lost_write, bit_rot, stale_read) x every protocol phase, asserting R3/R4
# plus recoverability (resume/restart converges, never a wedged world).  The
# smoke slice runs the first scenario of each (artifact, kind) cell.
chaos-disk:
	$(PYTHON) -m repro.faults.chaos --disk

chaos-disk-smoke:
	$(PYTHON) -m repro.faults.chaos --disk --smoke

# Control-plane kill sweep: the fleet planner dies at every wave/journal
# boundary of a multi-wave drain (including on top of a blackholed, parked
# wave); a fresh planner must resume from the durable fleet journal with
# R3/R4 intact, the planned placement reached, and the journal cleared.
chaos-fleet:
	$(PYTHON) -m repro.faults.chaos --fleet

chaos-fleet-smoke:
	$(PYTHON) -m repro.faults.chaos --fleet --smoke

# Cloning-window attack campaigns: a second instance launched at every
# request leg of the guarded RESTORE / wave / stale-session protocols plus
# healed-disk relaunches, with drop-fault variants.  Every clone must be
# detected and fenced by the single-instance registry with R3/R4 intact;
# the summary reports per-scenario detection latency in virtual time.
chaos-clone:
	$(PYTHON) -m repro.faults.chaos --clone

chaos-clone-smoke:
	$(PYTHON) -m repro.faults.chaos --clone --smoke

# One scenario per cell of every adversarial grid (`make ci` runs this
# slice for disk and clone, and the full fleet grid).
chaos-smoke-all: chaos-disk-smoke chaos-fleet-smoke chaos-clone-smoke

ci: test analyze chaos chaos-disk-smoke chaos-fleet chaos-clone-smoke \
	bench-fleet-smoke bench-scale-smoke bench-e2e-smoke
