GO ?= go

.PHONY: build test race lint ppclint lint-selftest vet fmt-check ci bench-smoke bench-json bench-openloop bench-e2e chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race detector over the concurrency-sensitive packages (CI matrix).
race:
	$(GO) test -race ./rt ./internal/core ./internal/lrpc ./internal/locks ./internal/workload

vet:
	$(GO) vet ./...

# gofmt over every tracked Go file except ppclint's golden fixtures,
# which are deliberately unformatted (the analyzers report positions in
# them).
fmt-check:
	@out=$$(git ls-files '*.go' ':(exclude,glob)tools/ppclint/**/testdata/**' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

# ppclint's own unit and golden-fixture tests (the linter lints itself
# before it lints the tree).
lint-selftest:
	cd tools/ppclint && $(GO) test ./...

# ppclint enforces the paper's hot-path invariants; see docs/INVARIANTS.md.
ppclint: lint-selftest
	$(GO) run ./tools/ppclint ./...

lint: fmt-check vet ppclint

# Chaos/soak suite: deterministic fault injection (handler panics and
# stalls, delayed ring publishes, sustained backpressure, the arena
# storm, and the domain-death storm — clients abandoned mid-call and
# mid-hold under injected scavenge stalls) with convergence assertions
# after each storm. The injection sites compile in only under the
# faultinject tag.
chaos:
	$(GO) test -run Chaos -count=5 -tags faultinject ./rt/...
	$(GO) test -race -run Chaos -count=2 -tags faultinject ./rt/...

# One iteration of every benchmark: catches bit-rot in bench bodies
# without measuring anything.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Regenerate BENCH_rt.json (real measurements; takes a few minutes at
# the default 1s benchtime — pass BENCHTIME=100ms for a quick pass).
BENCHTIME ?=
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_rt.json $(if $(BENCHTIME),-benchtime $(BENCHTIME))

# The end-to-end benchmark (rtperf/, its own module outside go.work):
# its own tests, then a 2-second run of every workload whose last line
# must report a correct result with no failed operations.
E2E_WORKLOADS ?= callpath rpc async-lanes
bench-e2e:
	cd rtperf && GOWORK=off $(GO) test ./...
	@for w in $(E2E_WORKLOADS); do \
		line=$$(bash rtperf/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 | tail -n 1); \
		echo "$$w: $$line"; \
		case "$$line" in *'"correct":true'*'"failed":0,'*) ;; \
		*) echo "bench-e2e: $$w is not correct or has failed operations"; exit 1;; esac; \
	done

# The open-loop tail-latency sweep alone (no microbenchmarks):
# calibrates capacity, then drives Poisson load at 0.2/0.7/1.4x and
# prints per-lane p50/p99/p999. Pass OPENLOOP_DUR=300ms for a quick
# pass; the default 2s window per point takes ~25s total.
OPENLOOP_DUR ?= 2s
bench-openloop:
	$(GO) test -run TestOpenLoopSweepReport -v -count=1 ./internal/rtbench -openloop-dur $(OPENLOOP_DUR)

ci: build lint test race chaos bench-smoke bench-e2e
