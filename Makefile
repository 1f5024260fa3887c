# Developer entry points.  Everything assumes only numpy/scipy/pytest
# (plus pytest-benchmark for `bench`) are installed; PYTHONPATH=src is
# injected so no editable install is needed.

PYTHON ?= python
export PYTHONPATH := src

BENCH_STAMP := $(shell date -u +%Y%m%dT%H%M%SZ)
BENCH_JSON ?= BENCH_$(BENCH_STAMP).json

.PHONY: test chaos bench lint docs docs-check

test:
	$(PYTHON) -m pytest -x -q

# The fault-injection suite (SIGKILLed/hung/raising workers) -- excluded
# from `test` via the pyproject addopts marker filter; its own CI job
# runs this.  See docs/robustness.md.
chaos:
	$(PYTHON) -m pytest tests/runtime/test_chaos.py -m chaos -q

# Run the full benchmark suite and leave a timestamped JSON behind --
# the artifact the nightly CI job uploads to build the perf trajectory.
bench:
	$(PYTHON) -m pytest benchmarks -q --benchmark-json=$(BENCH_JSON)
	@echo "wrote $(BENCH_JSON)"

# Generic hygiene (ruff) plus the repo-specific invariants (reprolint:
# layer DAG, determinism, canonical order, parity registration, worker
# safety -- see docs/linting.md).
lint:
	ruff check src tests benchmarks examples tools
	$(PYTHON) -m tools.reprolint

# Regenerate the committed, generated docs: the CLI reference and the
# layer-map and family/route blocks in docs/architecture.md.
docs:
	$(PYTHON) tools/generate_cli_docs.py
	$(PYTHON) tools/generate_layer_docs.py

# What the `docs` CI job runs: doctests on the public surface, no
# drift in docs/cli.md or the generated blocks of docs/architecture.md,
# no broken relative links in docs/ or README.
docs-check:
	$(PYTHON) -m pytest --doctest-modules src/repro/api.py -q
	$(PYTHON) tools/generate_cli_docs.py --check
	$(PYTHON) tools/generate_layer_docs.py --check
	$(PYTHON) tools/check_links.py
