package chaos

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sor/internal/cluster"
	"sor/internal/obs"
	"sor/internal/replica"
	"sor/internal/server"
	"sor/internal/store"
	"sor/internal/transport"
	"sor/internal/vclock"
	"sor/internal/wal"
	"sor/internal/wire"
	"sor/internal/world"
)

// TopologySoakConfig parameterizes the replicated soak: Shards shards of
// Nodes nodes each (one leader, the rest WAL-streaming followers), driven
// single-threaded on one virtual clock while nodes are killed -9,
// followers partition from their leader, checkpoints race the shipper,
// staleness probes hit every node, and one planned failover promotes a
// follower on each shard. Each shard owns one category app.
//
// More than one shard adds, from the topology alone, what only a sharded
// cluster has: a router in front of the shards (every op goes through
// it), a split between failovers the operator reconciles into the
// registry and the last one, which the router's own probes must
// discover, and one follower deliberately orphaned past compaction that
// must rejoin by snapshot-ship resync.
//
// The contract: after convergence every node of each shard carries a
// state digest byte-identical to a never-crashed single-node baseline
// that applied only that shard's category workload — replication,
// recovery, retention pinning, failover, routing and resync must all be
// invisible in the final state.
type TopologySoakConfig struct {
	// Shards is how many shards the cluster has (1 or 2).
	Shards int
	// Nodes is how many nodes each shard has (at least 2).
	Nodes int
	// Seed drives every random stream: tick widths, chaos placement,
	// checkpoint points, probes. One seed, one exact run.
	Seed int64
	// Phones is how many users join each app (at least 1). The last one
	// joins late, after its shard's failover, so task-ID continuity
	// across promotions is part of the digest.
	Phones int
	// Kills is how many times a random node is killed -9 and later
	// recovered. Leaders are legitimate targets.
	Kills int
	// Partitions is how many timed follower→leader partitions drop.
	Partitions int
	// BaseDir roots the data directories (every node plus one baseline
	// per app). Required.
	BaseDir string
}

// TopologySoakResult is the converged run's telemetry.
type TopologySoakResult struct {
	// Digests maps each category to the digest its shard's nodes and its
	// baseline agreed on.
	Digests map[string]string
	// Ops is how many workload operations the cluster acknowledged.
	Ops int
	// Steps is how many virtual-time ticks the run took.
	Steps int
	// Chaos performed.
	Kills       int
	Partitions  int
	Checkpoints int
	// Failovers counts planned Demote/drain/Promote sequences (one per
	// shard); RouterFailovers counts leader changes the router's own
	// probes discovered and reconciled into the registry.
	Failovers       int
	RouterFailovers int
	// Resyncs counts snapshot-ship rejoins (the scripted orphaning).
	Resyncs int
	// OpRetries counts workload operations deferred because the leader
	// was down or demoted mid-op.
	OpRetries int
	// PullErrors counts follower pulls that failed (leader down or
	// partitioned) and went through backoff.
	PullErrors int
	// Probes counts rank reads sent straight to a node and checked
	// against the staleness bound; StaleServed of them carried the Stale
	// flag, StaleRefused were refused outright (503 past the bound).
	Probes       int
	StaleServed  int
	StaleRefused int
	// RoutedReads counts rank reads answered through the router.
	RoutedReads int
}

const (
	soakUploads = 5 // reports each phone delivers
	// soakMinSteps keeps the run alive past the workload (~30s virtual)
	// so partitions, checkpoints, and staleness windows land on a live
	// cluster instead of racing a sprint. Past it, the remaining kills
	// and partitions are forced so every quota is spent.
	soakMinSteps = 600
	soakMaxSteps = 200000
	// soakMaxLag is the followers' staleness bound — short enough that
	// partitions outlive it, so the refusal path is actually exercised.
	soakMaxLag       = 600 * time.Millisecond
	soakTTL          = 24 * time.Hour // follower and member liveness; pins must outlive every partition
	soakPullInterval = 100 * time.Millisecond
)

// soakApp is one category's application and workload identity.
type soakApp struct {
	id string
	// prefix names the app's users, tokens and ReportIDs.
	prefix          string
	category, place string
	lat, lon        float64
}

// soakApps returns one category app per shard. The single-shard app
// keeps its own IDs ("app-repl", names prefixed "repl") so its digest
// stays comparable across versions of the driver.
func soakApps(shards int) ([]soakApp, error) {
	switch shards {
	case 1:
		return []soakApp{
			{id: "app-repl", prefix: "repl", category: world.CategoryCoffee, place: world.Starbucks,
				lat: 43.0413, lon: -76.1350},
		}, nil
	case 2:
		return []soakApp{
			{id: "app-coffee", prefix: "app-coffee", category: world.CategoryCoffee, place: world.Starbucks,
				lat: 43.0413, lon: -76.1350},
			{id: "app-trail", prefix: "app-trail", category: world.CategoryTrail, place: world.GreenLakeTrail,
				lat: 43.4512, lon: -76.3105},
		}, nil
	}
	return nil, fmt.Errorf("chaos: no soak workload for %d shards (1 or 2)", shards)
}

func (a soakApp) store() store.Application {
	return store.Application{
		ID: a.id, Creator: "chaos-harness",
		Category: a.category, Place: a.place,
		Lat: a.lat, Lon: a.lon, RadiusM: 60,
		Script: soakScript, PeriodSec: 10800,
	}
}

// soakNode is one cluster member: its durable directory plus the live
// incarnation (server, and either a replication leader or a follower).
type soakNode struct {
	id, dir string
	shard   int
	seq     int // position in the shard-major node order

	backend *store.DurableBackend
	srv     *server.Server
	ld      *replica.Leader   // leader role only
	fol     *replica.Follower // follower role only
	handler transport.Handler // dispatch incl. the ReplPull intercept on leaders

	up               bool
	restartAt        time.Time // virtual instant a killed node recovers; zero if none is due
	partitionedUntil time.Time // virtual; no leader contact before this
	nextPullAt       time.Time
}

// soakShard is one shard: its nodes, which one currently leads, and the
// category it owns.
type soakShard struct {
	name      string
	nodes     []*soakNode
	leaderIdx int
	category  string
}

func (s *soakShard) leader() *soakNode { return s.nodes[s.leaderIdx] }

// topologySoak is the whole run: the shards, the shared virtual clock,
// the seeded chaos state, and — with more than one shard — the registry
// and router.
type topologySoak struct {
	cfg    TopologySoakConfig
	clk    *vclock.Virtual
	rng    *rand.Rand
	apps   []soakApp
	home   []int // app index → owning shard index
	shards []*soakShard
	nodes  []*soakNode // every node, shard-major: the chaos targets

	reg        *cluster.Registry // nil on one shard
	router     *cluster.Router   // nil on one shard
	routerObs  *obs.Registry
	failedOver []bool

	killsLeft, partitionsLeft int

	// The scripted orphan (sharded topologies only): the follower killed
	// and forgotten by its leader, the LSN it had applied, and whether it
	// has rejoined by snapshot-ship resync yet.
	orphan        *soakNode
	orphanApplied uint64
	resynced      bool

	res TopologySoakResult
}

// soakLink is a Sender over a plain function.
type soakLink func(ctx context.Context, m wire.Message) (wire.Message, error)

func (l soakLink) Send(ctx context.Context, m wire.Message) (wire.Message, error) { return l(ctx, m) }

// codecRoundTrip pushes a message through the full wire codec both
// ways, so replication and phone traffic in the soak exercise the same
// framing the HTTP transport would.
func codecRoundTrip(h transport.Handler, m wire.Message) (wire.Message, error) {
	frame, err := wire.Encode(m)
	if err != nil {
		return nil, err
	}
	req, err := wire.Decode(frame)
	if err != nil {
		return nil, err
	}
	resp, err := h(context.Background(), req)
	if err != nil {
		return nil, err
	}
	out, err := wire.Encode(resp)
	if err != nil {
		return nil, err
	}
	return wire.Decode(out)
}

// leaderHandler dispatches to shard si's current leader, failing while
// it is down like a refused connect.
func (c *topologySoak) leaderHandler(si int) transport.Handler {
	return func(ctx context.Context, m wire.Message) (wire.Message, error) {
		lead := c.shards[si].leader()
		if !lead.up {
			return nil, errors.New("chaos: leader is down")
		}
		return lead.handler(ctx, m)
	}
}

// open boots (or recovers) node n in the given role. The data directory
// is whatever the previous incarnation left behind — recovering from it
// is the point.
func (c *topologySoak) open(n *soakNode, asLeader bool) error {
	backend := store.NewDurableBackend(n.dir,
		// Small segments so compaction is fine-grained: the resync script
		// needs a checkpoint to truncate past the orphaned follower
		// within a handful of ops.
		store.WithSegmentBytes(512),
		// Checkpoints are driver events (seeded, explicit) — the
		// background loop must never fire on its own mid-run.
		store.WithSnapshotInterval(time.Hour),
	)
	srv, err := server.New(server.Config{
		Storage:       backend,
		Now:           func() time.Time { return soakEpoch },
		Catalog:       server.DefaultCatalog(),
		MaxReplicaLag: soakMaxLag,
	})
	if err != nil {
		return err
	}
	if asLeader {
		err = srv.Open()
	} else {
		err = srv.OpenAsReplica()
	}
	if err != nil {
		return fmt.Errorf("chaos: recovering %s: %w", n.id, err)
	}
	n.backend, n.srv = backend, srv
	if asLeader {
		if err := c.attachLeader(n); err != nil {
			return err
		}
	} else {
		c.attachFollower(n)
	}
	n.up = true
	return nil
}

// memberHandler wraps a node's dispatch so it answers the router's
// ClusterHello probes with its live role.
func memberHandler(n *soakNode, next transport.Handler) transport.Handler {
	role := func() string {
		if n.srv.IsReplica() {
			return cluster.RoleReplica
		}
		return cluster.RoleLeader
	}
	applied := func() uint64 { return n.srv.DB().AppliedLSN() }
	return cluster.MemberHandler(n.id, role, applied, next)
}

// attachLeader wires the shipping side onto an open leader node.
func (c *topologySoak) attachLeader(n *soakNode) error {
	ld, err := replica.NewLeader(n.backend.WAL(),
		replica.WithStateDir(n.dir),
		replica.WithLeaderClock(c.clk),
		replica.WithFollowerTTL(soakTTL),
		replica.WithSnapshotSource(n.backend),
	)
	if err != nil {
		return err
	}
	n.ld, n.fol = ld, nil
	n.handler = memberHandler(n, replica.Handler(ld, n.srv.Handler()))
	return nil
}

// attachFollower wires a follower role onto an open node: the pull
// client to its shard's leader (cut while partitioned), the staleness
// probe, and an immediate first pull slot.
func (c *topologySoak) attachFollower(n *soakNode) {
	toLeader := c.leaderHandler(n.shard)
	pull := soakLink(func(_ context.Context, m wire.Message) (wire.Message, error) {
		if c.clk.Now().Before(n.partitionedUntil) {
			return nil, errors.New("chaos: partitioned from the leader")
		}
		return codecRoundTrip(toLeader, m)
	})
	f := replica.NewFollower(n.id, n.srv.DB(), pull,
		replica.WithFollowerClock(c.clk),
		replica.WithPullInterval(soakPullInterval),
		replica.WithFollowerBackoff(10*time.Millisecond, 500*time.Millisecond,
			c.cfg.Seed+int64(n.seq)),
	)
	n.srv.SetReplicaLagProbe(f.LagProbe())
	n.ld, n.fol = nil, f
	n.handler = memberHandler(n, n.srv.Handler())
	n.nextPullAt = c.clk.Now()
}

func (c *topologySoak) isLeader(n *soakNode) bool { return c.shards[n.shard].leader() == n }

// isOrphan reports whether n is the scripted orphan mid-script: chaos
// must neither restart it nor fail its shard over.
func (c *topologySoak) isOrphan(n *soakNode) bool { return n == c.orphan && !c.resynced }

func (c *topologySoak) kill(n *soakNode) {
	n.srv.Kill()
	n.up = false
}

// restartDue recovers every killed node whose downtime has elapsed, in
// node order. A recovered node comes back in its current role and
// replays its own disk.
func (c *topologySoak) restartDue(now time.Time) error {
	for _, n := range c.nodes {
		if n.restartAt.IsZero() || now.Before(n.restartAt) {
			continue
		}
		if err := c.open(n, c.isLeader(n)); err != nil {
			return err
		}
		n.restartAt = time.Time{}
	}
	return nil
}

func (c *topologySoak) anyDown() bool {
	for _, n := range c.nodes {
		if !n.up && !c.isOrphan(n) {
			return true
		}
	}
	return false
}

// chaosStep rolls this tick's faults: a kill -9, a timed follower
// partition, and an explicit checkpoint, each on a random node. Past
// soakMinSteps the remaining kills and partitions are forced.
func (c *topologySoak) chaosStep(now time.Time, late bool) error {
	if c.killsLeft > 0 && (c.rng.Float64() < 0.02 || late) {
		if n := c.nodes[c.rng.Intn(len(c.nodes))]; n.up {
			c.kill(n)
			n.restartAt = now.Add(time.Duration(200+c.rng.Intn(600)) * time.Millisecond)
			c.killsLeft--
			c.res.Kills++
		}
	}
	// A partition window is sized to overlap the staleness bound.
	if c.partitionsLeft > 0 && (c.rng.Float64() < 0.015 || late) {
		if n := c.nodes[c.rng.Intn(len(c.nodes))]; n.up && !c.isLeader(n) {
			n.partitionedUntil = now.Add(time.Duration(300+c.rng.Intn(1200)) * time.Millisecond)
			c.partitionsLeft--
			c.res.Partitions++
		}
	}
	// A snapshot plus WAL truncation racing the shipper, with retention
	// pins as the only guard.
	if c.rng.Float64() < 0.03 {
		if n := c.nodes[c.rng.Intn(len(c.nodes))]; n.up {
			if err := n.backend.Checkpoint(); err != nil {
				return fmt.Errorf("chaos: checkpoint on %s: %w", n.id, err)
			}
			c.res.Checkpoints++
		}
	}
	return nil
}

// drain pulls every follower of sh until it has applied through head,
// then demands its log ends exactly there: a follower's WAL is a copy of
// its leader's, not merely its state.
func (c *topologySoak) drain(sh *soakShard, head uint64, what string) error {
	for _, n := range sh.nodes {
		if n.fol == nil {
			continue
		}
		for i := 0; n.srv.DB().AppliedLSN() < head; i++ {
			if i > 10000 {
				return fmt.Errorf("chaos: %s never reached head %d", n.id, head)
			}
			if _, err := n.fol.PullOnce(context.Background()); err != nil {
				return fmt.Errorf("chaos: %s on %s: %w", what, n.id, err)
			}
		}
		if got := n.backend.WAL().LastLSN(); got != head {
			return fmt.Errorf("chaos: %s log head %d, leader %d", n.id, got, head)
		}
	}
	return nil
}

// rehome takes one pull from every follower of sh before anything else:
// the pulls register their acks with the leader, which pins its
// retention so no later checkpoint can compact records they still need.
func (c *topologySoak) rehome(sh *soakShard) error {
	for _, n := range sh.nodes {
		if n.fol == nil {
			continue
		}
		if _, err := n.fol.PullOnce(context.Background()); err != nil {
			return fmt.Errorf("chaos: homing %s on its leader: %w", n.id, err)
		}
		n.nextPullAt = c.clk.Now()
	}
	return nil
}

// failover is the planned promotion on shard si: demote the leader,
// drain the followers to the frozen head, promote the next node, and
// rejoin the old leader as a follower of the new one. Every shard but
// the last has the operator reconcile the registry; the last one's
// promotion is left for the router's 503-triggered discovery (or a
// heartbeat) to find.
func (c *topologySoak) failover(si int) error {
	sh := c.shards[si]
	// Every node must be reachable for a planned failover; restart any
	// that chaos has down and heal partitions so the drain can finish.
	for _, n := range sh.nodes {
		if !n.up {
			if c.isOrphan(n) {
				return fmt.Errorf("chaos: failover on %s while %s is mid-resync", sh.name, n.id)
			}
			if err := c.open(n, c.isLeader(n)); err != nil {
				return err
			}
			n.restartAt = time.Time{}
		}
		n.partitionedUntil = time.Time{}
	}
	old := sh.leader()
	// Freeze the head, then drain every follower to it: acked mutations
	// must survive the promotion, and no follower may be left behind a
	// successor that may compact its own prefix.
	old.srv.Demote()
	if err := c.drain(sh, old.backend.WAL().LastLSN(), "failover drain"); err != nil {
		return err
	}
	sh.leaderIdx = (sh.leaderIdx + 1) % len(sh.nodes)
	succ := sh.leader()
	if err := succ.srv.Promote(); err != nil {
		return err
	}
	if err := c.attachLeader(succ); err != nil {
		return err
	}
	// The demoted leader resumes from its own head — its log is a
	// byte-identical prefix of the new leader's.
	c.attachFollower(old)
	if err := c.rehome(sh); err != nil {
		return err
	}
	if c.reg != nil && si < len(c.shards)-1 {
		if err := c.reg.SetRole(old.id, cluster.RoleReplica); err != nil {
			return err
		}
		if err := c.reg.SetRole(succ.id, cluster.RoleLeader); err != nil {
			return err
		}
	}
	c.failedOver[si] = true
	c.res.Failovers++
	return nil
}

// resyncStep advances the scripted orphaning on the first shard: kill a
// follower and drop its pin; then, once the leader's log has provably
// compacted past it, prove a plain rejoin is refused, rejoin it through
// the snapshot-ship path, and demand it stream normally again.
func (c *topologySoak) resyncStep() error {
	sh := c.shards[0]
	lead := sh.leader()
	if !lead.up {
		return nil // wait for the leader to recover
	}
	if c.orphan == nil {
		n := sh.nodes[(sh.leaderIdx+1)%len(sh.nodes)]
		if !n.up {
			return nil // wait for a quiet moment on the target
		}
		c.orphan, c.orphanApplied = n, n.srv.DB().AppliedLSN()
		c.kill(n)
		lead.ld.Forget(n.id)
		return nil
	}
	n := c.orphan
	if err := lead.backend.Checkpoint(); err != nil {
		return err
	}
	c.res.Checkpoints++
	if _, err := lead.backend.WAL().ReadAfter(c.orphanApplied, 1, 0); !errors.Is(err, wal.ErrCompacted) {
		return nil // the log has not outgrown the orphan yet; keep writing
	}
	// Proof first: a plain rejoin must be refused as unresumable.
	n.partitionedUntil = time.Time{} // a stale window must not mask the refusal
	if err := c.open(n, false); err != nil {
		return err
	}
	if _, err := n.fol.PullOnce(context.Background()); !errors.Is(err, replica.ErrNeedsResync) {
		return fmt.Errorf("chaos: orphaned %s expected ErrNeedsResync, got %v", n.id, err)
	}
	c.kill(n)
	// The real rejoin: fetch the leader's snapshot over the wire,
	// install it, recover from it, stream the tail.
	toLeader := c.leaderHandler(0)
	fetch := soakLink(func(_ context.Context, m wire.Message) (wire.Message, error) {
		return codecRoundTrip(toLeader, m)
	})
	if _, err := replica.ResyncDataDir(context.Background(), n.id, fetch, n.dir); err != nil {
		return fmt.Errorf("chaos: snapshot-ship resync of %s: %w", n.id, err)
	}
	if err := c.open(n, false); err != nil {
		return err
	}
	if _, err := n.fol.PullOnce(context.Background()); err != nil {
		return fmt.Errorf("chaos: %s first pull after resync: %w", n.id, err)
	}
	c.res.Resyncs++
	c.resynced = true
	return nil
}

// pullDue lets every live follower pull on its own cadence (NextDelay:
// eager while behind, heartbeat while caught up, backoff while cut off).
// Only the scripted orphan may ever need a resync; any other follower
// pushed there means the retention guard failed.
func (c *topologySoak) pullDue(now time.Time) error {
	for _, n := range c.nodes {
		if !n.up || n.fol == nil || now.Before(n.nextPullAt) {
			continue
		}
		if _, err := n.fol.PullOnce(context.Background()); err != nil {
			if errors.Is(err, replica.ErrNeedsResync) {
				return fmt.Errorf("chaos: %s forced into resync (retention guard failed)", n.id)
			}
			c.res.PullErrors++
		}
		n.nextPullAt = now.Add(max(n.fol.NextDelay(), 10*time.Millisecond))
	}
	return nil
}

// probeStaleness issues a rank query straight to node n (followers only)
// and checks the bounded-staleness contract: the gate must refuse
// exactly when the follower's last leader contact is older than the
// bound (or never happened), and lagging-but-served replies must carry
// the Stale flag.
func (c *topologySoak) probeStaleness(n *soakNode) error {
	if !n.up || n.fol == nil {
		return nil
	}
	c.res.Probes++
	self := n.fol.Status()
	expectRefuse := self.LastContactMS < 0 || self.LastContactMS > soakMaxLag.Milliseconds()
	resp, err := codecRoundTrip(n.handler, &wire.RankRequest{
		UserID: "probe", Category: c.shards[n.shard].category,
	})
	if err != nil {
		return err
	}
	switch r := resp.(type) {
	case *wire.Ack:
		if strings.Contains(r.Message, "staleness") {
			if !expectRefuse {
				return fmt.Errorf("chaos: %s refused rank %dms after leader contact (bound %s)",
					n.id, self.LastContactMS, soakMaxLag)
			}
			c.res.StaleRefused++
			return nil
		}
		// Any other refusal (no rankable data yet) must still have
		// passed the gate first.
		if expectRefuse {
			return fmt.Errorf("chaos: %s answered rank %dms after leader contact (bound %s): %s",
				n.id, self.LastContactMS, soakMaxLag, r.Message)
		}
		return nil
	case *wire.RankResponse:
		if expectRefuse {
			return fmt.Errorf("chaos: %s served rank %dms after leader contact (bound %s)",
				n.id, self.LastContactMS, soakMaxLag)
		}
		if r.Stale {
			c.res.StaleServed++
		} else if self.LagRecords > 0 {
			return fmt.Errorf("chaos: %s lags %d records but served an unflagged rank reply",
				n.id, self.LagRecords)
		}
		return nil
	default:
		return fmt.Errorf("chaos: rank probe got %s reply", resp.Type())
	}
}

// routedRead sends a rank read for a random category through the router.
func (c *topologySoak) routedRead() error {
	app := c.apps[c.rng.Intn(len(c.apps))]
	resp, err := codecRoundTrip(c.router.Handler(), &wire.RankRequest{
		UserID: "probe", Category: app.category,
	})
	if err != nil {
		return nil // shard unavailable through the router
	}
	switch resp.(type) {
	case *wire.RankResponse, *wire.Ack:
		c.res.RoutedReads++
		return nil
	default:
		return fmt.Errorf("chaos: routed rank read got %s reply", resp.Type())
	}
}

// soakOp is one deterministic workload step against one app. The op
// list is a pure function of the config, so the cluster run and each
// baseline apply the exact same mutations in the exact same order —
// only the chaos between them differs.
type soakOp struct {
	app    int
	phone  int
	upload int // -1: participate, else the phone's upload number
}

// buildOps builds each app's joins and upload rounds and interleaves the
// apps evenly, so every shard stays busy across every chaos window. The
// last phone joins halfway through the rounds — past its shard's
// failover — so the new leader must mint its task ID continuing the old
// leader's "task-N" sequence, and the digest comparison against the
// baseline proves it did.
func buildOps(apps, phones int) []soakOp {
	late := phones - 1
	var perApp []soakOp
	for p := 0; p < phones-1; p++ {
		perApp = append(perApp, soakOp{phone: p, upload: -1})
	}
	for u := 0; u < soakUploads; u++ {
		for p := 0; p < phones; p++ {
			if p == late {
				if u < soakUploads/2 {
					continue
				}
				if u == soakUploads/2 {
					perApp = append(perApp, soakOp{phone: late, upload: -1})
				}
			}
			perApp = append(perApp, soakOp{phone: p, upload: u})
		}
	}
	ops := make([]soakOp, 0, apps*len(perApp))
	for _, op := range perApp {
		for a := 0; a < apps; a++ {
			op.app = a
			ops = append(ops, op)
		}
	}
	return ops
}

// applyOp runs one workload op for app against h. done=false means the
// op must be retried later (leader down or refusing writes); a non-nil
// error is a contract violation chaos never excuses.
func applyOp(h transport.Handler, app soakApp, op soakOp, scheds []*wire.Schedule) (done bool, err error) {
	var m wire.Message
	if op.upload < 0 {
		m = &wire.Participate{
			UserID: fmt.Sprintf("%s-user-%d", app.prefix, op.phone),
			Token:  fmt.Sprintf("%s-token-%d", app.prefix, op.phone),
			AppID:  app.id,
			Loc:    wire.Location{Lat: app.lat, Lon: app.lon},
			Budget: 8,
		}
	} else {
		sched := scheds[op.phone]
		if sched == nil {
			return false, fmt.Errorf("chaos: upload before participation for %s phone %d", app.id, op.phone)
		}
		ms := soakEpoch.Add(time.Duration(op.upload+1) * time.Minute).UnixMilli()
		series := make([]wire.SensorSeries, 0, 4)
		for _, sensor := range []string{"temperature", "light", "microphone", "wifi"} {
			series = append(series, wire.SensorSeries{
				Sensor: sensor,
				Samples: []wire.SensorSample{
					{AtUnixMilli: ms, WindowMilli: 5000,
						Readings: []float64{40 + float64(op.phone) + float64(op.upload)/8}},
				},
			})
		}
		m = &wire.DataUpload{
			TaskID: sched.TaskID, AppID: sched.AppID, UserID: sched.UserID,
			ReportID: fmt.Sprintf("%s-%d-%d", app.prefix, op.phone, op.upload),
			Series:   series,
		}
	}
	resp, err := codecRoundTrip(h, m)
	if err != nil {
		return false, nil // leader vanished mid-op: retry
	}
	ack, ok := resp.(*wire.Ack)
	if !ok {
		return false, fmt.Errorf("chaos: op got %s reply", resp.Type())
	}
	if !ack.OK {
		if ack.Code == 503 {
			return false, nil // demoted or replica: retry against the next leader
		}
		return false, fmt.Errorf("chaos: op refused: %d %s", ack.Code, ack.Message)
	}
	if op.upload < 0 {
		inner, err := wire.Decode(ack.Payload)
		if err != nil {
			return false, err
		}
		sched, ok := inner.(*wire.Schedule)
		if !ok {
			return false, fmt.Errorf("chaos: participation ack carried %s", inner.Type())
		}
		scheds[op.phone] = sched
	}
	return true, nil
}

// RunTopologySoak drives the configured topology through the seeded
// chaos schedule and returns its telemetry. See TopologySoakConfig for
// the contract.
func RunTopologySoak(cfg TopologySoakConfig) (*TopologySoakResult, error) {
	apps, err := soakApps(cfg.Shards)
	if err != nil {
		return nil, err
	}
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("chaos: %d nodes per shard; failover needs at least 2", cfg.Nodes)
	}
	if cfg.Phones < 1 {
		return nil, errors.New("chaos: soak needs at least one phone")
	}
	if cfg.BaseDir == "" {
		return nil, errors.New("chaos: soak needs a base dir")
	}
	c := &topologySoak{
		cfg:            cfg,
		clk:            vclock.NewVirtual(soakEpoch),
		rng:            rand.New(rand.NewSource(cfg.Seed ^ 0x5e91d0de)),
		apps:           apps,
		home:           make([]int, len(apps)),
		failedOver:     make([]bool, cfg.Shards),
		killsLeft:      cfg.Kills,
		partitionsLeft: cfg.Partitions,
	}
	for si := 0; si < cfg.Shards; si++ {
		sh := &soakShard{name: fmt.Sprintf("shard-%c", 'a'+si)}
		for ni := 0; ni < cfg.Nodes; ni++ {
			id := fmt.Sprintf("%s-%d", sh.name, ni)
			n := &soakNode{id: id, dir: filepath.Join(cfg.BaseDir, id), shard: si, seq: len(c.nodes)}
			sh.nodes = append(sh.nodes, n)
			c.nodes = append(c.nodes, n)
		}
		c.shards = append(c.shards, sh)
	}
	// Close every live incarnation on every path (a killed one is
	// already released). Close errors are dropped: the verdict is taken
	// and nothing reads the directories afterwards.
	defer func() {
		for _, n := range c.nodes {
			if n.backend != nil {
				_ = n.backend.Close()
			}
		}
	}()
	if cfg.Shards > 1 {
		if err := c.startRouter(); err != nil {
			return nil, err
		}
	}
	for a := range apps {
		c.shards[c.home[a]].category = apps[a].category
	}
	for _, n := range c.nodes {
		if err := c.open(n, c.isLeader(n)); err != nil {
			return nil, err
		}
	}
	// Each category's app exists only on its owning shard — apps arrive
	// via operator provisioning, not the phone protocol.
	for a := range apps {
		if err := c.shards[c.home[a]].leader().srv.CreateApp(apps[a].store()); err != nil {
			return nil, err
		}
	}
	for _, sh := range c.shards {
		if err := c.rehome(sh); err != nil {
			return nil, err
		}
	}
	ops := buildOps(len(apps), cfg.Phones)
	if err := c.run(ops); err != nil {
		return nil, err
	}
	if err := c.converge(ops); err != nil {
		return nil, err
	}
	return &c.res, nil
}

// startRouter builds the cluster map and the router in front of it.
// Rendezvous places the categories; if two land on one shard, the later
// one is pinned onto a free shard so each shard owns exactly one
// category (the digest comparison depends on it).
func (c *topologySoak) startRouter() error {
	c.reg = cluster.NewRegistry(
		cluster.WithRegistryClock(c.clk),
		cluster.WithMemberTTL(soakTTL),
	)
	shardIdx := map[string]int{}
	for si, sh := range c.shards {
		c.reg.AddShard(sh.name)
		shardIdx[sh.name] = si
		for ni, n := range sh.nodes {
			role := cluster.RoleReplica
			if ni == sh.leaderIdx {
				role = cluster.RoleLeader
			}
			if err := c.reg.AddMember(cluster.Member{Name: n.id, Shard: sh.name, Role: role, Addr: n.id}); err != nil {
				return err
			}
		}
	}
	taken := make([]bool, len(c.shards))
	for a, app := range c.apps {
		c.reg.RegisterApp(app.id, app.category)
		si := shardIdx[c.reg.ShardFor(app.category)]
		if taken[si] {
			for taken[si] {
				si = (si + 1) % len(c.shards)
			}
			c.reg.PinKey(app.category, c.shards[si].name)
		}
		taken[si] = true
		c.home[a] = si
	}
	c.routerObs = obs.NewRegistry()
	dial := func(addr string) (cluster.Sender, error) {
		for _, n := range c.nodes {
			if n.id == addr {
				return soakLink(func(_ context.Context, m wire.Message) (wire.Message, error) {
					if !n.up {
						return nil, fmt.Errorf("chaos: %s is down", n.id)
					}
					return codecRoundTrip(n.handler, m)
				}), nil
			}
		}
		return nil, fmt.Errorf("chaos: no such member %s", addr)
	}
	rt, err := cluster.NewRouter("router-0", c.reg, dial,
		cluster.WithRouterClock(c.clk),
		// Base -1: no backoff sleeps — the driver is single-threaded on
		// virtual time, so a real sleep would deadlock the run.
		cluster.WithRouterRetry(transport.Retry{Attempts: 3, Base: -1, Seed: c.cfg.Seed + 7}),
		cluster.WithRouterMetrics(c.routerObs),
	)
	if err != nil {
		return err
	}
	c.router = rt
	return nil
}

// run is the chaos loop: one virtual tick per step until the workload
// is acknowledged, every kill and partition is spent, every node is back
// up, the scripted orphan (if any) has resynced, and soakMinSteps have
// passed.
func (c *topologySoak) run(ops []soakOp) error {
	scheds := make([][]*wire.Schedule, len(c.apps))
	for a := range scheds {
		scheds[a] = make([]*wire.Schedule, c.cfg.Phones)
	}
	entry := make([]transport.Handler, len(c.apps))
	for a := range entry {
		if c.router != nil {
			entry[a] = c.router.Handler()
		} else {
			entry[a] = c.leaderHandler(c.home[a])
		}
	}
	opIdx := 0
	for step := 0; opIdx < len(ops) || c.killsLeft > 0 || c.partitionsLeft > 0 || c.anyDown() ||
		(c.router != nil && !c.resynced) || step < soakMinSteps; step++ {
		if step >= soakMaxSteps {
			return fmt.Errorf("chaos: no convergence after %d steps (op %d/%d, %d kills and %d partitions left, resynced %t)",
				step, opIdx, len(ops), c.killsLeft, c.partitionsLeft, c.resynced)
		}
		c.res.Steps = step + 1
		c.clk.Advance(time.Duration(10+c.rng.Intn(90)) * time.Millisecond)
		now := c.clk.Now()

		if err := c.restartDue(now); err != nil {
			return err
		}
		if err := c.chaosStep(now, step >= soakMinSteps); err != nil {
			return err
		}
		// One planned failover per shard, spread evenly over the workload.
		for si := range c.shards {
			if !c.failedOver[si] && opIdx >= (si+1)*len(ops)/(len(c.shards)+1) {
				if err := c.failover(si); err != nil {
					return err
				}
			}
		}
		if c.router != nil {
			// The scripted orphaning, once the first shard's failover has
			// settled.
			if c.failedOver[0] && !c.resynced && opIdx >= len(ops)/2 {
				if err := c.resyncStep(); err != nil {
					return err
				}
			}
			// Router heartbeats on a coarse seeded cadence.
			if c.rng.Float64() < 0.05 {
				c.router.HeartbeatOnce(context.Background())
			}
		}
		if err := c.pullDue(now); err != nil {
			return err
		}
		if c.rng.Float64() < 0.2 {
			if err := c.probeStaleness(c.nodes[c.rng.Intn(len(c.nodes))]); err != nil {
				return err
			}
		}
		if c.router != nil && c.rng.Float64() < 0.1 {
			if err := c.routedRead(); err != nil {
				return err
			}
		}
		// One workload op, strictly in order: a deferred op is retried
		// until the cluster accepts it. Ops are paced out so writes keep
		// landing while chaos is in flight.
		if opIdx < len(ops) && (step%4 == 0 || step >= soakMinSteps) {
			op := ops[opIdx]
			done, err := applyOp(entry[op.app], c.apps[op.app], op, scheds[op.app])
			if err != nil {
				return err
			}
			if done {
				opIdx++
				c.res.Ops++
			} else {
				c.res.OpRetries++
			}
		}
	}
	return nil
}

// converge checks the end state: the registry agrees with the cluster
// and the router discovered the unannounced failover (sharded
// topologies); every shard heals, folds its leader's features, and
// drains every follower to the leader's log head; and every node's
// digest equals its category's never-crashed baseline.
func (c *topologySoak) converge(ops []soakOp) error {
	if c.router != nil {
		for _, sh := range c.shards {
			want := sh.leader().id
			if got, ok := c.reg.LeaderOf(sh.name); !ok || got.Name != want {
				return fmt.Errorf("chaos: registry says %s leads %s, cluster says %s", got.Name, sh.name, want)
			}
		}
		c.res.RouterFailovers = int(c.routerObs.Snapshot().Counters["sor_cluster_failovers_total"])
		if c.res.RouterFailovers == 0 {
			return errors.New("chaos: the unannounced failover was never discovered by the router")
		}
	}
	for _, sh := range c.shards {
		for _, n := range sh.nodes {
			n.partitionedUntil = time.Time{}
		}
		lead := sh.leader()
		lead.srv.Processor().Process()
		if err := c.drain(sh, lead.backend.WAL().LastLSN(), "final drain"); err != nil {
			return err
		}
	}
	c.res.Digests = map[string]string{}
	for a, app := range c.apps {
		want, err := runBaseline(filepath.Join(c.cfg.BaseDir, "baseline-"+app.id), app, a, ops, c.cfg.Phones)
		if err != nil {
			return err
		}
		for _, n := range c.shards[c.home[a]].nodes {
			if got := StateDigest(n.srv.DB(), app.category, app.id); got != want {
				return fmt.Errorf("chaos: %s digest %.12s diverged from %s baseline %.12s", n.id, got, app.id, want)
			}
		}
		c.res.Digests[app.category] = want
	}
	return nil
}

// runBaseline applies app a's ops, in order, to a single never-crashed
// node, folds once, and returns its state digest.
func runBaseline(dir string, app soakApp, a int, ops []soakOp, phones int) (string, error) {
	backend := store.NewDurableBackend(dir, store.WithSnapshotInterval(time.Hour))
	srv, err := server.New(server.Config{
		Storage: backend,
		Now:     func() time.Time { return soakEpoch },
		Catalog: server.DefaultCatalog(),
	})
	if err != nil {
		return "", err
	}
	if err := srv.Open(); err != nil {
		return "", err
	}
	defer srv.Close()
	if err := srv.CreateApp(app.store()); err != nil {
		return "", err
	}
	scheds := make([]*wire.Schedule, phones)
	for _, op := range ops {
		if op.app != a {
			continue
		}
		done, err := applyOp(srv.Handler(), app, op, scheds)
		if err != nil {
			return "", fmt.Errorf("chaos: baseline op: %w", err)
		}
		if !done {
			return "", errors.New("chaos: baseline op deferred with no chaos running")
		}
	}
	srv.Processor().Process()
	return StateDigest(srv.DB(), app.category, app.id), nil
}

// StateDigest hashes a store's externally visible state into one
// comparable string: users, apps, participations, anchors, the dedup
// window, every stored upload body in sequence order, and the feature
// matrix bit-for-bit (Updated stamps excluded — they are wall-clock).
// Scheduler internals and WAL positions are deliberately outside the
// digest: replicas do not run the scheduler, and compaction
// legitimately shifts log offsets without changing state.
func StateDigest(db *store.Store, category, appID string) string {
	h := sha256.New()
	put := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }

	users := db.Users()
	sort.Slice(users, func(i, j int) bool { return users[i].ID < users[j].ID })
	for _, u := range users {
		put("user|%s|%s|%s\n", u.ID, u.Name, u.Token)
	}
	apps := db.Apps()
	sort.Slice(apps, func(i, j int) bool { return apps[i].ID < apps[j].ID })
	for _, a := range apps {
		put("app|%s|%s|%s|%s|%x|%x|%x|%d\n",
			a.ID, a.Creator, a.Category, a.Place,
			math.Float64bits(a.Lat), math.Float64bits(a.Lon),
			math.Float64bits(a.RadiusM), a.PeriodSec)
	}
	for _, p := range db.ParticipationsByApp(appID) {
		put("part|%s|%s|%s|%d|%d|%d\n",
			p.TaskID, p.UserID, p.Token, p.Budget, p.Status, p.Joined.UnixNano())
	}
	anchors := db.Anchors()
	sort.Slice(anchors, func(i, j int) bool { return anchors[i].AppID < anchors[j].AppID })
	for _, a := range anchors {
		put("anchor|%s|%d\n", a.AppID, a.AnchorUnix)
	}
	for _, id := range db.SeenReportIDs(appID) {
		put("seen|%s\n", id)
	}
	for _, u := range db.AllUploads() {
		put("upload|%d|%s|%d|", u.Seq, u.AppID, u.Received.UnixNano())
		h.Write(u.Body)
		put("\n")
	}
	rows := db.FeaturesByCategory(category)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Place != rows[j].Place {
			return rows[i].Place < rows[j].Place
		}
		return rows[i].Feature < rows[j].Feature
	})
	for _, r := range rows {
		put("feat|%s|%s|%x|%d\n", r.Place, r.Feature, math.Float64bits(r.Value), r.Samples)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Summary renders the soak telemetry for logs.
func (r *TopologySoakResult) Summary() string {
	cats := make([]string, 0, len(r.Digests))
	for cat := range r.Digests {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	digests := make([]string, len(cats))
	for i, cat := range cats {
		digests[i] = fmt.Sprintf("%s %.12s", cat, r.Digests[cat])
	}
	return fmt.Sprintf(
		"%d ops in %d steps (%d deferred); %d kills, %d partitions, %d checkpoints; "+
			"%d planned failovers (%d router-discovered), %d snapshot-ship resyncs; %d pull errors; "+
			"%d rank probes (%d stale-flagged, %d refused), %d routed reads; digests %s",
		r.Ops, r.Steps, r.OpRetries, r.Kills, r.Partitions, r.Checkpoints,
		r.Failovers, r.RouterFailovers, r.Resyncs, r.PullErrors,
		r.Probes, r.StaleServed, r.StaleRefused, r.RoutedReads, strings.Join(digests, ", "))
}
