# Tier-1 verification entry point. `make verify` is what CI runs
# (minus -race, which CI adds as a separate job) and what every PR must
# keep green: build, vet, the full test suite (which self-hosts the
# linter via internal/analysis), and an explicit osmosislint pass.

GO ?= go

.PHONY: build vet test race lint bench perfbench fuzz verify daemon-smoke full-run

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The wall-clock line keeps the linter's cost honest: the whole-module
# interprocedural pass (load, type-check, call graph, propagation, all
# analyzers) runs on every verify, so a regression here slows every PR.
lint:
	@start=$$(date +%s); \
	$(GO) run ./cmd/osmosislint ./... || exit $$?; \
	end=$$(date +%s); \
	echo "lint: whole-module interprocedural pass took $$((end-start))s wall clock"

# Hot-path microbenchmarks (scheduler TickInto, crossbar Step, the
# sharded fabric kernel at 2048 ports), the root package's figure and
# sweep benchmarks, plus the linter's own full-tree pass. CI runs these with -benchtime 1x as a smoke test; run locally
# without BENCHTIME for real numbers. End-to-end numbers come from the
# repository benchmark: make perfbench.
BENCHTIME ?=
bench:
	$(GO) test -run '^$$' -bench . $(if $(BENCHTIME),-benchtime $(BENCHTIME)) -benchmem . ./internal/sched/ ./internal/crossbar/ ./internal/fabric/ ./internal/analysis/

# The repository benchmark (BENCHMARK.json, _perfbench/): the harness
# self-test (goldens, scheduler-wrapper transparency), then one short
# run of every workload. Each run prints one JSON result line; for
# parent-vs-change comparisons use longer runs at several seeds.
perfbench:
	cd _perfbench && $(GO) test .
	for w in fabric_busy paper_quick daemon_sweep; do \
		bash _perfbench/run.sh --workload $$w --seed 1 --seconds 10 --trace 0 || exit $$?; \
	done

# Every fuzz target in the module, 10 s each: go test -fuzz takes one
# target per run, so list them per package with go test -list. Plain
# `go test` already replays each target's seed corpus. Minimizing is
# capped at 100 runs per new input: at Go's 60 s default a target with
# a large seed spends its 10 s minimizing, not fuzzing.
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz: $$pkg $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s -fuzzminimizetime 100x $$pkg || exit $$?; \
		done; \
	done

# End-to-end osmosisd acceptance: uninterrupted reference run, then a
# checkpoint/kill/restore run of the same two concurrent jobs; the final
# result documents must compare byte-identical. CI runs this as its own
# job; it is not part of `make verify` (it takes ~1-2 minutes).
daemon-smoke:
	./scripts/daemon_smoke.sh

# The full experiment suite, regenerated and compared byte for byte with
# the committed experiments_full.txt: every change that claims identical
# output is checked by this target, not by hand. Not part of verify (it
# takes ~11 s wall, ~20 s CPU on 2 cores).
full-run:
	{ $(GO) run ./cmd/experiments -par 2 || echo "full-run: experiments failed"; } | cmp - experiments_full.txt

verify: build vet test lint
	@echo "verify: OK"
