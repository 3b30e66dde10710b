# Standard checks; `make check` is what CI should run.

GO ?= go

.PHONY: all build vet test race check determinism bench bench-json bench-wire bench-ledger bench-compare bench-ab chaos chaos-region chaos-disk fuzz-wire trace-smoke

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

# Fit determinism under scheduling: the golden fit bits, the
# serial-vs-pooled and GOMAXPROCS bit-identity tests, concurrent fits on
# one Learner and the fused-vs-generic sweep test, at GOMAXPROCS 1, 2
# and 4, twice each. The pool runs one worker's share on the calling
# goroutine, so who computes a chunk varies with the schedule; the bits
# must not.
determinism:
	$(GO) test -run 'TestFitGolden|BitIdentical|ConcurrentFit|FusedSweepMatchesGeneric' -cpu 1,2,4 -count=2 ./internal/core/

# Failover/partition chaos: the replicated-tier tests (leader kill
# mid-round, torn-tail restart, semi-sync acks, verdict replication,
# trace continuity across a mid-round leader kill) plus the edge
# client's resilient-session, fault-injection, round-trip-timeout and
# fault-schedule replay tests, the cloud's rebuild-worker tests
# (serving during a rebuild, stall timer, one cold-start build) and the
# tests of the connection loop every server tier shares (edge.Endpoint:
# garbage bytes, panic recovery, frame limit, idle deadline, close and
# serve-after-close, MaxConns shedding, overload flood, handler
# deadline), repeated under the race detector.
chaos:
	$(GO) test -race -count=2 -run 'Cluster|Repl|Follower|SemiSync|Dedupe|MinVersion|PullLog|Trace|Rebuild|PriorServed|ColdStart|^Test(Resilient|Chaos|RoundTripTimeout|FaultSchedule)|^TestServe|MaxConns|OverloadFlood|HandlerTimeout' \
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
# repair, bounded p99).
chaos-disk:
	$(GO) test -race -count=2 \
		-run 'Fault|Scrub|Poison|Sidecar|Verdict|Snapshot|DiskChaos|Gray|Hedge|Demot' \
		./internal/store/ ./internal/cluster/ ./internal/sim/ ./internal/edge/

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

# Paired A/B runs of the benchmark (scripts/benchab): revision BASE
# against the working tree, or against revision NEW when set, for PAIRS
# alternating pairs per workload of WORKLOADS (comma-separated; empty
# runs all). Prints medians, IQRs, pair wins and a verdict per metric;
# exits 1 on a verdict of worse. Example:
#   make bench-ab BASE=HEAD~1 PAIRS=10 WORKLOADS=fit_heavy
PAIRS ?= 10
bench-ab:
	$(GO) run ./scripts/benchab -base '$(BASE)' -head '$(NEW)' -pairs $(PAIRS) -workloads '$(WORKLOADS)'
