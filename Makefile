# Standard checks; `make check` is what CI should run.

GO ?= go

.PHONY: all build vet test race check bench bench-json bench-wire bench-ledger bench-compare chaos chaos-region chaos-disk fuzz-wire trace-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

check: build vet race

bench:
	$(GO) test -bench=. -benchmem

# Failover/partition chaos: the replicated-tier tests (leader kill
# mid-round, torn-tail restart, semi-sync acks, verdict replication,
# trace continuity across a mid-round leader kill) repeated under the
# race detector.
chaos:
	$(GO) test -race -count=2 -run 'Cluster|Repl|Follower|SemiSync|Dedupe|MinVersion|PullLog|Trace' \
		./internal/cluster/ ./internal/sim/ ./internal/edge/ ./internal/trace/

# Hierarchical-tier chaos: the region partition scenario (degradation
# ladder fresh→regional→cached→local-only, gossip under cloud outage,
# byte-identical cloud prior after heal), the region sync/gossip unit
# tests, and the handshake-refusal + mux-close regression tests,
# repeated under the race detector.
chaos-region:
	$(GO) test -race -count=2 -run 'Region|Flush|SyncDown|Gossip|Mux|StrictBinary|Ladder' \
		./internal/region/ ./internal/sim/ ./internal/edge/

# Disk-fault chaos: the storage-and-gray-failure suites under the race
# detector — FaultFS injection (short writes, write/fsync/rename errors,
# ENOSPC, bit flips), store poisoning, scrub repair over the wire,
# verdict-sidecar recovery, gray-leader demotion, hedged reads, and the
# full RunDiskChaos scenario (bit rot + slow leader, byte-identical
# repair, bounded p99) — plus the Table 19 record as a
# BENCH_table19.json artifact.
chaos-disk:
	$(GO) test -race -count=2 \
		-run 'Fault|Scrub|Poison|Sidecar|Verdict|Snapshot|DiskChaos|Gray|Hedge|Demot' \
		./internal/store/ ./internal/cluster/ ./internal/sim/ ./internal/edge/
	mkdir -p $(BENCH_OUT)
	$(GO) run ./cmd/drdp-bench -fast -only table19 -json $(BENCH_OUT)

# Wire codec gates: the microbenchmarks with allocation reporting and
# the decode allocs/op budget (binary decode into reused buffers must
# stay at exactly 0 allocs/op — the test fails on any regression).
bench-wire:
	$(GO) test -run TestBinaryDecodeAllocBudget -count=1 -v ./internal/wire/
	$(GO) test -bench 'BenchmarkWire' -benchmem -run '^$$' ./internal/wire/

# Short fuzz smoke over the binary codec: round-trip stability plus
# malformed-frame rejection (CI runs this; `go test -fuzz` without
# -fuzztime explores indefinitely for local sessions).
fuzz-wire:
	$(GO) test -fuzz FuzzWireCodec -fuzztime 10s -run '^$$' ./internal/wire/

# Tracing smoke: run the cluster scenario with a mid-round leader kill
# and full sampling, dump the flight recorder, and check that the
# pinned failover trace plus round trees came out (CI uploads the JSON
# as an artifact).
TRACE_OUT ?= trace-out
trace-smoke:
	mkdir -p $(TRACE_OUT)
	$(GO) run ./cmd/drdp-sim -cluster -shards 2 -replicas 2 -rounds 4 \
		-kill-shard 0 -kill-round 2 -trace-out $(TRACE_OUT)/traces.json
	$(GO) run ./cmd/drdp-trace -file $(TRACE_OUT)/traces.json -notable | grep 'failover.*pinned'
	$(GO) run ./cmd/drdp-trace -file $(TRACE_OUT)/traces.json -trace "$$( \
		$(GO) run ./cmd/drdp-trace -file $(TRACE_OUT)/traces.json -notable \
		| awk '/failover/{print $$1}')"

# Machine-readable evaluation: BENCH_<id>.json per experiment (fast
# workload; drop -fast for the full one).
BENCH_OUT ?= bench-out
bench-json:
	$(GO) run ./cmd/drdp-bench -fast -json $(BENCH_OUT) -csv $(BENCH_OUT)

# Round-budget ledger (bench/): every workload, fresh process per run,
# into $(LEDGER); bench-compare diffs that ledger against the committed
# baseline, per workload and metric within BENCHMARK.json's bounds.
LEDGER ?= $(BENCH_OUT)/ledger.json
bench-ledger:
	mkdir -p $(dir $(LEDGER))
	bash bench/run.sh -collect $(LEDGER)

bench-compare:
	bash bench/run.sh -compare bench/baseline/seed.json $(LEDGER)
