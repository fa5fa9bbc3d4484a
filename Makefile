# Local mirror of the CI pipeline (.github/workflows/ci.yml).
# Every CI job has a target here so failures reproduce locally:
#
#   make test          tier-1 suite (the hard gate)
#   make lint          ruff check (blocking in CI)
#   make format-check  ruff format --check (advisory in CI)
#   make fault-smoke   fault-injection marker subset
#   make chaos-smoke   chaos-harness recovery subset (retries, budgets)
#   make bench-smoke   Table 1/2 and Fig 5a/7a benchmark subset
#   make scale-smoke   out-of-core 50k-node bench under wall/mem budget
#   make cache-smoke   cache identity + SIGKILL/resume smoke
#   make serve-smoke   service daemon boot/dedup/drain smoke
#   make serve-chaos   SIGKILL/restart durability smoke (--state-dir)
#   make paperbench-smoke  paper-path benchmark's output checks, 6 s
#                      per workload
#   make coverage      pytest-cov gate (falls back to the stdlib tool)
#   make ci            everything the PR gate runs (all of the above
#                      except the advisory format-check)
#
# The repo is used uninstalled via PYTHONPATH=src, matching ROADMAP.md.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint format-check fault-smoke chaos-smoke bench-smoke \
	scale-smoke cache-smoke serve-smoke serve-chaos paperbench-smoke \
	coverage ci clean

test:
	$(PYTHON) -m pytest -x -q

lint:
	ruff check src tests benchmarks tools

format-check:
	ruff format --check src tests benchmarks tools

fault-smoke:
	$(PYTHON) -m pytest -m fault_smoke -q

chaos-smoke:
	$(PYTHON) -m pytest -m chaos_smoke -q

# Fig 5a/7a run at full scale (~20 s): a change that moves MLR-MCL
# labels must keep their quality shape. The quarter-scale Table 1/2
# run must leave the committed full-scale result files untouched.
bench-smoke:
	REPRO_BENCH_SCALE=0.25 $(PYTHON) -m pytest -q \
		benchmarks/test_table1_datasets.py \
		benchmarks/test_table2_edges.py
	git diff --exit-code -- benchmarks/results
	$(PYTHON) -m pytest -q \
		benchmarks/test_fig5_cora_quality.py::test_fig5a_mlrmcl \
		benchmarks/test_fig7_wiki_quality.py::test_fig7a_mlrmcl

scale-smoke:
	REPRO_SCALE_SMOKE=1 $(PYTHON) -m pytest -m scale_smoke -q

cache-smoke:
	$(PYTHON) tools/cache_smoke.py

serve-smoke:
	$(PYTHON) tools/serve_smoke.py --deadline 60

serve-chaos:
	$(PYTHON) tools/serve_smoke.py --chaos --deadline 90

paperbench-smoke:
	$(PYTHON) tools/paperbench_smoke.py

coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -q --cov=repro --cov-report=term; \
	else \
		echo "pytest-cov not installed; using stdlib tracer"; \
		$(PYTHON) tools/measure_coverage.py; \
	fi

ci: lint test fault-smoke chaos-smoke bench-smoke scale-smoke cache-smoke \
	serve-smoke serve-chaos paperbench-smoke coverage

clean:
	rm -rf .pytest_cache .ruff_cache coverage.xml .coverage
