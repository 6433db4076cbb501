# Development entry points for the SC'20 distributed-DMRG reproduction.
#
#   make check          - everything CI runs: tests + static analysis gates +
#                         bench smoke + campaign smoke
#   make test           - tier-1 test suite (pytest, stops at first failure)
#   make analyze        - static correctness gates (python -m repro analyze):
#                         repo-invariant lint; emits BENCH_analyze.json
#   make bench-smoke    - invariant gates: layout tracker, tracer overhead
#                         (python -m repro bench --smoke); emits the
#                         BENCH_smoke.json artifact
#   make campaign-smoke - tiny 2x2 grid through the sweep scheduler (2
#                         workers) into a fresh temporary registry, with the
#                         registry layout asserted and re-execution skipped
#                         via the content hash
#   make bench          - regenerate the paper-figure benchmark tables

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test analyze bench-smoke campaign-smoke bench

check: test analyze bench-smoke campaign-smoke

test:
	$(PYTHON) -m pytest -x -q

analyze:
	$(PYTHON) -m repro analyze --json BENCH_analyze.json

bench-smoke:
	$(PYTHON) -m repro bench --smoke --json BENCH_smoke.json

campaign-smoke:
	$(PYTHON) tools/check_campaign.py

bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q --benchmark-only
