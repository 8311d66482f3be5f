# SOR reproduction — convenience targets.

GO ?= go

.PHONY: all build test test-short race vet bench bench-smoke fuzz-smoke obs-smoke chaos chaos-short crash-soak replica-soak replica-soak-short cluster-soak cluster-soak-short fleet-soak fleet-soak-short session-soak session-soak-short ci experiments fieldtest sim clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark (catches bit-rot, including the
# 200/2k/10k columnar scaling table) plus the deterministic cost gates:
# a cached-hit rank query must stay O(1) allocations, and a replan at
# 55 members x 1081 instants must make exactly the pinned number of
# oracle calls within its allocation ceilings. -short skips only the
# ~4-minute 2 000-place monolithic-baseline solve; the 200-place
# baseline point still runs.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x -short ./...
	$(GO) test -count=1 -run 'TestRankCachedHitAllocs|TestRankTopKBoundsResponse' -v ./internal/server/
	$(GO) test -count=1 -run 'TestReplanCostGate' -v ./internal/schedule/

# 10-second fuzz smokes over the three decoders that face untrusted
# bytes: the wire decoder (open network), the session frame decoder
# (open network, wraps the wire codec), and the WAL record decoder
# (disk after a crash).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzSessionFrame -fuzztime 10s ./internal/transport/session/
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 10s ./internal/wal/

# Boot a real sord, scrape /debug/metrics via sorctl, assert every
# promised series is present and that traffic moves the counters.
obs-smoke:
	bash scripts/obs_smoke.sh

# Full exactly-once chaos soak under the race detector: a fleet of phones
# over a network dropping requests, acks and partitioning mid-upload must
# converge to server state byte-identical to a fault-free run.
chaos:
	$(GO) test -race -count=1 -v ./internal/chaos/

# Trimmed chaos soak for CI (smaller fleet, shorter partition).
chaos-short:
	$(GO) test -race -short -count=1 ./internal/chaos/

# Crash-restart soak under the race detector: kill a durable server at
# random points under the PR-3 fault schedule, recover from the newest
# snapshot plus the WAL tail, and require converged state bit-identical
# to the same seed never crashing.
crash-soak:
	$(GO) test -race -count=1 -run CrashSoak -v ./internal/chaos/

# Replicated chaos soaks under the race detector. One virtual-time
# driver (chaos.RunTopologySoak) runs both targets below on different
# topologies: nodes survive random kill -9s, timed partitions,
# checkpoint/truncation races, and one planned failover per shard, and
# every node's state digest must match a never-crashed single-node
# baseline byte for byte, with every follower's log at its leader's head.
#
# replica-soak: 1 shard x 3 nodes (leader + two WAL-streaming
# followers), with staleness probes on every node.
replica-soak:
	$(GO) test -race -count=1 -run ReplicaSoak -v ./internal/chaos/

replica-soak-short:
	$(GO) test -race -short -count=1 -run ReplicaSoak ./internal/chaos/

# cluster-soak: the same driver on 2 shards x 2 nodes, which adds a
# rendezvous-routing router, one failover the router must discover on
# its own, and a follower orphaned past compaction that rejoins via
# snapshot-ship resync; each shard's digest must match the baseline of
# its own category workload.
cluster-soak:
	$(GO) test -race -count=1 -run ClusterSoak -v ./internal/chaos/

cluster-soak-short:
	$(GO) test -race -short -count=1 -run ClusterSoak ./internal/chaos/

# Discrete-event fleet soak on virtual time: deterministic, fixed-seed,
# race-enabled. The determinism gate runs the same seed twice and diffs
# the end-state digests (a divergence prints the first differing
# canonical line plus a one-line SOR_SOAK_SEED replay command).
fleet-soak:
	$(GO) test -race -count=1 -v ./internal/fleetsim/
	$(GO) run ./cmd/sorsim -fleet -phones 20000 -per-app 50 -verify

fleet-soak-short:
	$(GO) test -race -short -count=1 ./internal/fleetsim/
	$(GO) run ./cmd/sorsim -fleet -phones 1000 -per-app 50 -verify

# Persistent-session transport soak: the stream session tests and the
# exactly-once resume property test under the race detector, then the
# fleetsim determinism gate over the stream transport — handshakes,
# frame envelopes, server push and partition-severed sessions all ride
# virtual time, and the same seed twice must produce byte-identical
# digests.
session-soak:
	$(GO) test -race -count=1 -v ./internal/transport/session/
	$(GO) test -race -count=1 -run 'Session|Stream' -v ./internal/chaos/
	$(GO) test -race -count=1 -run Stream -v ./internal/fleetsim/
	$(GO) run ./cmd/sorsim -fleet -phones 5000 -per-app 50 -transport stream -verify

session-soak-short:
	$(GO) test -race -short -count=1 ./internal/transport/session/
	$(GO) test -race -short -count=1 -run Stream ./internal/fleetsim/
	$(GO) run ./cmd/sorsim -fleet -phones 1000 -per-app 50 -transport stream -verify

# Everything CI runs (.github/workflows/ci.yml mirrors this).
ci: vet build test
	$(GO) test -race -short ./...
	$(MAKE) bench-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) obs-smoke
	$(MAKE) chaos-short
	$(MAKE) crash-soak
	$(MAKE) replica-soak
	$(MAKE) cluster-soak
	$(MAKE) fleet-soak-short
	$(MAKE) session-soak-short

# Regenerate every paper table and figure.
experiments: fieldtest sim

fieldtest:
	$(GO) run ./cmd/fieldtest -category both

sim:
	$(GO) run ./cmd/sorsim -sweep both -runs 10

clean:
	$(GO) clean ./...
