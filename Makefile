# Local mirror of the CI pipeline (.github/workflows/ci.yml).
# Every CI job has a target here so failures reproduce locally:
#
#   make test          tier-1 suite (the hard gate)
#   make lint          ruff check (blocking in CI)
#   make format-check  ruff format --check (advisory in CI)
#   make fault-smoke   fault-injection marker subset
#   make chaos-smoke   chaos-harness recovery subset (retries, budgets)
#   make bench-smoke   repro bench --smoke + benchmark smoke subset
#   make scale-smoke   out-of-core 50k-node bench under wall/mem budget
#   make cache-smoke   cache identity + SIGKILL/resume smoke
#   make serve-smoke   service daemon boot/dedup/drain smoke
#   make serve-chaos   SIGKILL/restart durability smoke (--state-dir)
#   make coverage      pytest-cov gate (falls back to the stdlib tool)
#   make ci            everything the PR gate runs (all of the above
#                      except the advisory format-check)
#
# The repo is used uninstalled via PYTHONPATH=src, matching ROADMAP.md.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint format-check fault-smoke chaos-smoke bench-smoke \
	scale-smoke cache-smoke serve-smoke serve-chaos coverage ci clean

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

bench-smoke:
	$(PYTHON) -m repro bench --smoke \
		-o BENCH_allpairs.json --runlog bench_runs.jsonl
	REPRO_BENCH_SCALE=0.25 $(PYTHON) -m pytest -q \
		benchmarks/test_table1_datasets.py \
		benchmarks/test_table2_edges.py

scale-smoke:
	REPRO_SCALE_SMOKE=1 $(PYTHON) -m pytest -m scale_smoke -q

cache-smoke:
	$(PYTHON) tools/cache_smoke.py

serve-smoke:
	$(PYTHON) tools/serve_smoke.py --deadline 60

serve-chaos:
	$(PYTHON) tools/serve_smoke.py --chaos --deadline 90

coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -q --cov=repro --cov-report=term; \
	else \
		echo "pytest-cov not installed; using stdlib tracer"; \
		$(PYTHON) tools/measure_coverage.py; \
	fi

ci: lint test fault-smoke chaos-smoke bench-smoke scale-smoke cache-smoke \
	serve-smoke serve-chaos coverage

clean:
	rm -rf .pytest_cache .ruff_cache coverage.xml .coverage \
		bench_runs.jsonl
