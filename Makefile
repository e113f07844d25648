# Build/test entry points. CI (.github/workflows/ci.yml) runs these
# targets verbatim, so local and CI invocations cannot drift.

GO ?= go

.PHONY: all build test test-quick lint bench bench-gate batch serve clean

all: build lint test

## build: compile every package and command
build:
	$(GO) build ./...

## test: the full suite with the race detector and shuffled order
test:
	$(GO) test -race -shuffle=on ./...

## test-quick: the tier-1 verification command (build + plain tests)
test-quick:
	$(GO) build ./... && $(GO) test ./...

## lint: go vet, the art9-lint analyzer suite, staticcheck (when
## installed), and a gofmt cleanliness check
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/art9-lint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt -l flagged:"; echo "$$out"; exit 1; fi

## bench: one pass over every benchmark (smoke; use -benchtime=10x locally)
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

## bench-gate: the packed-kernel benchmark regression gate — re-times every
## packed kernel against its trit-serial reference (fails below the 3×
## aggregate floor, writes the ns/op table to BENCH_kernels.json) — and the
## timed-run ratio gate (a job's timed functional run must cost at most
## 0.40× a Pipeline run on dhrystone), then takes the end-to-end simulator
## throughput figures for the same artifact set
bench-gate:
	ART9_BENCH_GATE=1 ART9_BENCH_GATE_OUT=$(CURDIR)/BENCH_kernels.json \
		$(GO) test -run TestPackedKernelSpeedupGate -v ./internal/ternary/
	ART9_BENCH_GATE=1 $(GO) test -run TestTimedRunSpeedGate -v ./internal/bench/
	$(GO) test -run=NONE -bench=BenchmarkSimulatorThroughput -benchtime=1s .

## batch: run the example manifest through the engine, emit BENCH_report.json
batch:
	$(GO) run ./cmd/art9-batch -manifest examples/batch/manifest.json -o BENCH_report.json
	@echo "wrote BENCH_report.json"

## serve: run the streaming evaluation service on :9009
serve:
	$(GO) run ./cmd/art9-serve

clean:
	rm -f BENCH_*.json
