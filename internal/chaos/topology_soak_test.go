package chaos

import (
	"testing"

	"sor/internal/world"
)

// The converged digests depend only on each app's workload (its IDs and
// its op sequence), never on the seed or the chaos, so they are pinned
// here: a change to the driver that keeps these digests kept the
// workload.
var (
	replicaSoakDigests = map[string]string{
		world.CategoryCoffee: "d31ee23ef0b01633c68125f3979fab78f6c79edc21cf9b4410de288b11b00a60",
	}
	clusterSoakDigests = map[string]string{
		world.CategoryCoffee: "eed3864d4028ab0521216364b074757076a00f58563273603190d416ffc8c393",
		world.CategoryTrail:  "4937b9d8c3555e11b707e055441566cfd590d9b3e6d1902843d7cc4c9f50c434",
	}
)

// checkDigests demands exactly the pinned category digests.
func checkDigests(t *testing.T, seed int64, res *TopologySoakResult, want map[string]string) {
	t.Helper()
	if len(res.Digests) != len(want) {
		t.Fatalf("seed %d: %d category digests, want %d\n%s",
			seed, len(res.Digests), len(want), repro(t, seed))
	}
	for cat, d := range want {
		if res.Digests[cat] != d {
			t.Fatalf("seed %d: %s digest %s, want %s\n%s", seed, cat, res.Digests[cat], d, repro(t, seed))
		}
	}
}

// replicaSoak is the 1×3 topology: a leader plus two WAL-streaming
// followers, probed directly for the staleness contract.
func replicaSoak(seed int64, kills int, dir string) TopologySoakConfig {
	return TopologySoakConfig{Shards: 1, Nodes: 3, Seed: seed, Phones: 4,
		Kills: kills, Partitions: 3, BaseDir: dir}
}

// clusterSoak is the 2×2 topology: two shards of two nodes behind a
// router, with one router-discovered failover and one snapshot-ship
// resync.
func clusterSoak(seed int64, kills int, dir string) TopologySoakConfig {
	return TopologySoakConfig{Shards: 2, Nodes: 2, Seed: seed, Phones: 3,
		Kills: kills, Partitions: 2, BaseDir: dir}
}

// soakSweep runs build over seeds 1, 42 and 1337 (the first only in
// -short mode, or the SOR_SOAK_SEED being replayed), demands that every
// requested kill and partition was spent and that the digests match
// want, then hands each result to check.
func soakSweep(t *testing.T, build func(seed int64, kills int, dir string) TopologySoakConfig,
	kills, shortKills int, want map[string]string, check func(seed int64, res *TopologySoakResult)) {
	t.Helper()
	seeds := []int64{1, 42, 1337}
	if testing.Short() {
		kills = shortKills
		seeds = seeds[:1]
	}
	if replay := soakSeed(t, 0); replay != 0 {
		// SOR_SOAK_SEED narrows the sweep to the seed being replayed.
		seeds = []int64{replay}
	}
	for _, seed := range seeds {
		cfg := build(seed, kills, t.TempDir())
		res, err := RunTopologySoak(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, repro(t, seed))
		}
		if res.Kills != cfg.Kills {
			t.Fatalf("seed %d: %d kills requested, %d performed\n%s",
				seed, cfg.Kills, res.Kills, repro(t, seed))
		}
		if res.Partitions != cfg.Partitions {
			t.Fatalf("seed %d: %d partitions requested, %d performed\n%s",
				seed, cfg.Partitions, res.Partitions, repro(t, seed))
		}
		checkDigests(t, seed, res, want)
		check(seed, res)
		t.Logf("seed %d converged: %s", seed, res.Summary())
	}
}

// TestReplicaSoakConvergesToBaseline is the replication proof on the
// 1×3 topology: a leader plus two WAL-streaming followers on virtual
// time survive random kill -9s on every role, timed leader partitions,
// seeded checkpoints (WAL truncation racing the shipper), and one
// planned failover promotion with old-leader rejoin, and every node's
// final state digest is byte-identical to a never-crashed single-node
// baseline that applied the same workload. The driver itself enforces
// the per-read contracts along the way: rank reads past the staleness
// bound are refused, lagging reads carry the Stale flag, no follower is
// ever forced into a resync (the retention guard), and every follower's
// log ends at its leader's head.
func TestReplicaSoakConvergesToBaseline(t *testing.T) {
	soakSweep(t, replicaSoak, 10, 3,
		replicaSoakDigests,
		func(seed int64, res *TopologySoakResult) {
			if res.Failovers != 1 {
				t.Fatalf("seed %d: %d failovers performed\n%s", seed, res.Failovers, repro(t, seed))
			}
			if res.Probes == 0 {
				t.Fatalf("seed %d: staleness gate never probed\n%s", seed, repro(t, seed))
			}
		})
}

// TestClusterSoakConvergesToBaselines is the scale-out proof on the 2×2
// topology: two shards of two nodes each behind a rendezvous-routing
// router — all on one virtual clock — survive random kill -9s on every
// role, timed follower partitions, seeded checkpoints, one planned
// failover per shard (one reconciled by the operator, one left for the
// router's own discovery probes), and one follower deliberately orphaned
// past compaction that rejoins via snapshot-ship resync. Afterward every
// node of each shard carries a state digest byte-identical to a
// never-crashed single-node baseline that applied only that shard's
// category workload: sharding, routing, failover, and resync are all
// invisible in the final state.
func TestClusterSoakConvergesToBaselines(t *testing.T) {
	soakSweep(t, clusterSoak, 6, 2,
		clusterSoakDigests,
		func(seed int64, res *TopologySoakResult) {
			if res.Failovers != 2 {
				t.Fatalf("seed %d: %d planned failovers performed, want 2\n%s",
					seed, res.Failovers, repro(t, seed))
			}
			if res.RouterFailovers == 0 {
				t.Fatalf("seed %d: the router never discovered a promotion\n%s",
					seed, repro(t, seed))
			}
			if res.Resyncs != 1 {
				t.Fatalf("seed %d: %d snapshot-ship resyncs performed, want 1\n%s",
					seed, res.Resyncs, repro(t, seed))
			}
		})
}

// soakTwice pins that the driver is a pure function of its seed — same
// seed, same digests AND same chaos telemetry — so a failure report's
// repro instructions actually reproduce the failing run.
func soakTwice(t *testing.T, build func(seed int64, kills int, dir string) TopologySoakConfig,
	kills int, want map[string]string) {
	t.Helper()
	a, err := RunTopologySoak(build(7, kills, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTopologySoak(build(7, kills, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, 7, a, want)
	if a.Summary() != b.Summary() {
		t.Fatalf("same seed, different runs:\n%s\n%s", a.Summary(), b.Summary())
	}
	for cat, d := range a.Digests {
		if b.Digests[cat] != d {
			t.Fatalf("same seed, different %s digest: %.12s vs %.12s", cat, d, b.Digests[cat])
		}
	}
}

func TestReplicaSoakDeterministic(t *testing.T) { soakTwice(t, replicaSoak, 4, replicaSoakDigests) }

func TestClusterSoakDeterministic(t *testing.T) { soakTwice(t, clusterSoak, 3, clusterSoakDigests) }
