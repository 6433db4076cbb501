# Development entry points for the SC'20 distributed-DMRG reproduction.
#
#   make check          - everything CI runs: tests + threaded-kernel smoke +
#                         process-executor smoke (shadow race checker on) +
#                         static analysis gates + bench smoke + campaign smoke
#   make test           - tier-1 test suite (pytest, stops at first failure)
#   make test-threaded  - tier-1 smoke subset re-run with the threaded
#                         block-ops kernels (REPRO_BLOCK_OPS=threaded), so
#                         the thread-pool executor is exercised end to end
#   make test-process   - the same smoke subset plus the conformance suite
#                         under the process executor with every kernel forced
#                         through the workers (REPRO_BLOCK_OPS=process,
#                         REPRO_PROCESS_MIN_DISPATCH=0) and the online
#                         schedule-race shadow checker attached
#                         (REPRO_ANALYZE=shadow): shared-memory panels,
#                         descriptor shipping, respawn logic and the
#                         happens-before invariants get end-to-end coverage
#   make analyze        - static correctness gates (python -m repro analyze):
#                         repo-invariant lint, schedule race detection on a
#                         traced executor run; emits BENCH_analyze.json
#   make bench-smoke    - measured benchmarks at tiny sizes + plan-aware
#                         cost-model invariants (python -m repro bench --smoke);
#                         emits the machine-readable BENCH_smoke.json artifact
#   make campaign-smoke - tiny 2x2 grid through the sweep scheduler (2
#                         workers) with the registry layout asserted and
#                         re-execution skipped via the content hash
#   make bench          - regenerate the paper-figure benchmark tables

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test test-threaded test-process analyze bench-smoke \
	campaign-smoke bench

check: test test-threaded test-process analyze bench-smoke campaign-smoke

test:
	$(PYTHON) -m pytest -x -q

test-threaded:
	REPRO_BLOCK_OPS=threaded $(PYTHON) -m pytest -x -q \
		tests/test_blockops.py tests/test_matvec.py tests/test_dmrg.py \
		tests/test_backends.py

test-process:
	REPRO_BLOCK_OPS=process REPRO_PROCESS_MIN_DISPATCH=0 \
		REPRO_ANALYZE=shadow \
		$(PYTHON) -m pytest -x -q \
		tests/test_blockops_conformance.py tests/test_procops_faults.py \
		tests/test_matvec.py tests/test_dmrg.py

analyze:
	$(PYTHON) -m repro analyze --json BENCH_analyze.json

bench-smoke:
	$(PYTHON) -m repro bench --smoke --json BENCH_smoke.json

campaign-smoke:
	$(PYTHON) tools/check_campaign.py

bench:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-only
