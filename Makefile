GO ?= go

.PHONY: all build test race vet fmt fmt-check check lint loc loc-check fuzz bench bench-server bench-all clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: fmt-check vet build race

# lint mirrors the CI lint job: gofmt, vet, and staticcheck (installed on
# demand; skipped with a note when the module proxy is unreachable).
lint: fmt-check vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	elif $(GO) install honnef.co/go/tools/cmd/staticcheck@2025.1 2>/dev/null; then \
		"$$($(GO) env GOPATH)/bin/staticcheck" ./...; \
	else echo "staticcheck unavailable (offline?); skipped"; fi

# loc prints the ROADMAP's tracked number: lines of non-test Go outside
# benchmark/. A PR quotes it before and after instead of recounting.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | tail -1

# loc-check fails when `make loc` exceeds the number committed in LOC. A
# PR that lands below it writes its own number there.
loc-check:
	@n=$$($(MAKE) -s --no-print-directory loc | awk '{print $$1}'); max=$$(cat LOC); \
	if [ "$$n" -gt "$$max" ]; then echo "loc-check: make loc is $$n, above $$max in LOC"; exit 1; fi; \
	echo "loc-check: $$n <= $$max"

# fuzz runs each fuzz target for FUZZTIME (CI runs 5m per target
# nightly). The committed seed corpora under */testdata/fuzz/ replay as
# plain tests in every `go test` run, so regressions reproduce
# deterministically.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzSerializeRoundTrip' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz 'FuzzGrammarMatchesEncodingJSON' -fuzztime $(FUZZTIME) ./internal/jsonscan
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeSubmissionParity' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz 'FuzzDecodePartsParity' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz 'FuzzReportRoundTrip' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeReportParity' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz 'FuzzAppendAckParity' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeWALRecordParity' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeWALStateParity' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz 'FuzzKernelReschedule' -fuzztime $(FUZZTIME) ./internal/kernel
	$(GO) test -run '^$$' -fuzz 'FuzzWALReplay' -fuzztime $(FUZZTIME) ./internal/durable
	$(GO) test -run '^$$' -fuzz 'FuzzStatePatch' -fuzztime $(FUZZTIME) ./internal/feedback

# bench runs the scheduling-kernel benches (placement + reschedule hot
# paths on layered 1k–20k-job stress DAGs, the end-to-end adaptive run,
# and internal/kernel's slot search beside the span walk it replaced)
# and snapshots ns/op, B/op and allocs/op into BENCH_kernel.json.
# Compare against BENCH_baseline.json, the pre-kernel numbers recorded at
# the refactor boundary.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkKernel' -benchmem . ./internal/kernel > bench-kernel.txt || { cat bench-kernel.txt; rm -f bench-kernel.txt; exit 1; }
	cat bench-kernel.txt
	$(GO) run ./cmd/benchjson < bench-kernel.txt > BENCH_kernel.json
	@rm -f bench-kernel.txt
	@echo "wrote BENCH_kernel.json"

# bench-server runs the daemon benches — end-to-end workflows/sec
# through the aheftd server core (wire ingestion, shard routing, engine,
# SSE completion), the feedback-loop ingest benches (report batches into
# the per-tenant history, and forced variance reschedules), the
# shared-grid co-scheduling rounds (2-tenant contention-aware planning +
# merged enactment vs the isolated baseline), and the durability benches
# (end-to-end throughput under each WAL fsync policy, raw WAL appends,
# and startup recovery replay on one and on two fold workers), plus
# internal/wire's submission-decode and ack-encode benches and
# internal/server's state-record decode bench (the one-pass decoders and
# the append encoder and, under oracle/, the reflective ones they
# replaced, on the same documents) — and snapshots them into BENCH_SERVER_OUT
# (default BENCH_server.json, the committed reference). CI records a
# fresh snapshot and prints the ratio table with cmd/benchcmp.
BENCH_SERVER_OUT ?= BENCH_server.json
bench-server:
	$(GO) test -run '^$$' -bench 'BenchmarkServer|BenchmarkFeedback|BenchmarkSharedGrid|BenchmarkWAL|BenchmarkRecovery|BenchmarkWireDecode|BenchmarkWireEncodeAck' -benchmem . ./internal/wire ./internal/server > bench-server.txt || { cat bench-server.txt; rm -f bench-server.txt; exit 1; }
	cat bench-server.txt
	$(GO) run ./cmd/benchjson < bench-server.txt > $(BENCH_SERVER_OUT)
	@rm -f bench-server.txt
	@echo "wrote $(BENCH_SERVER_OUT)"

# bench-all runs the full benchmark suite, including the paper-scale
# experiment regeneration benches.
bench-all:
	$(GO) test -bench=. -benchmem -run=^$$ .

clean:
	$(GO) clean ./...
