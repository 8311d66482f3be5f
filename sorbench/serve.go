package main

// The deployed shape: one process hosting a durable WALSyncGrouped
// leader (HTTP + device streams), a WAL-shipped replica (HTTP + device
// streams, serving rank reads), and a single-shard cluster router (HTTP),
// all on loopback listeners. The generator starts it as a child process
// and talks to it over stdin/stdout: one JSON command per line in, one
// JSON reply per line out. Nothing on that pipe mutates server state;
// every mutation arrives as a generated wire message on a socket.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"sor"
	"sor/internal/obs"
	"sor/internal/ranking"
	"sor/internal/wire"
)

// Replica configuration shared by both assemblies.
const (
	pullInterval  = 10 * time.Millisecond
	maxReplicaLag = 2 * time.Second
	shardName     = "s0"
)

// readyInfo is the child's first stdout line.
type readyInfo struct {
	LeaderStream  string `json:"leader_stream"`
	ReplicaStream string `json:"replica_stream"`
	RouterHTTP    string `json:"router_http"`
	Policy        string `json:"policy"`
}

// shape is a running deployed shape, however it was assembled.
type shape struct {
	leader, replica  *sor.Server
	obs              map[string]*sor.Observer // leader, replica, router
	ready            readyInfo
	spans            *spanLog // traced assembly only
	close            func() error
	leaderLSN        func() uint64
	replicaLSN       func() uint64
	replicaFollowing func() error
}

// command is one control request from the generator.
type command struct {
	Op      string              `json:"op"`
	Queries []oracleQuery       `json:"queries,omitempty"`
	Seen    map[string][]string `json:"seen,omitempty"` // app → ReportIDs
}

// oracleQuery asks for the top-k of one profile from the row ranker, or
// from a columnar ranker built cold from the matrix.
type oracleQuery struct {
	Category string           `json:"category"`
	Prefs    []wire.PrefEntry `json:"prefs"`
	TopK     int              `json:"top_k"`
	Columnar bool             `json:"columnar,omitempty"`
}

// statsReply is the child's report (partial for snap).
type statsReply struct {
	RSSMB       float64                 `json:"rss_mb"`
	CPUMS       float64                 `json:"cpu_ms"`
	WALBytes    float64                 `json:"wal_bytes"`
	LagMS       []float64               `json:"lag_ms"`
	LagRecords  []float64               `json:"lag_records"`
	LeaderLSN   uint64                  `json:"leader_lsn"`
	ReplicaLSN  uint64                  `json:"replica_lsn"`
	Metrics     map[string]obs.Snapshot `json:"metrics"`
	SpansFile   string                  `json:"spans_file,omitempty"`
	TracerSpans int                     `json:"tracer_spans"`
	Err         string                  `json:"err,omitempty"`
}

func serveMain(args []string) error {
	opt, err := parseOptions("serve", args)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sh *shape
	if opt.trace {
		sh, err = startTracedShape(ctx, opt.dir)
	} else {
		sh, err = startShape(ctx, opt.dir)
	}
	if err != nil {
		return err
	}
	defer sh.close()
	if err := createApps(sh.leader, appsFor(opt.workload, opt.size())); err != nil {
		return err
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(sh.ready); err != nil {
		return err
	}
	lag := &lagSampler{}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 64<<20)
	for in.Scan() {
		var c command
		if err := json.Unmarshal(in.Bytes(), &c); err != nil {
			return fmt.Errorf("serve: bad command: %w", err)
		}
		var reply any
		switch c.Op {
		case "sync":
			reply = syncReply(sh)
		case "lag-start":
			lag.start(sh)
			reply = map[string]bool{"ok": true}
		case "snap":
			reply = snapshot(sh)
		case "replay":
			reply = replayRank(sh, opt)
		case "stats":
			reply = collectStats(sh, lag, opt.dir)
		case "oracle":
			reply = runOracle(sh, c.Queries)
		case "seen":
			reply = unseen(sh, c.Seen)
		case "quit":
			return nil
		default:
			return fmt.Errorf("serve: unknown op %q", c.Op)
		}
		if err := out.Encode(reply); err != nil {
			return err
		}
	}
	return in.Err()
}

// startShape assembles the three nodes with sor.StartNode, as sord does.
func startShape(ctx context.Context, dir string) (*shape, error) {
	clusterMap := filepath.Join(dir, "cluster.json")
	newObs := func() *sor.Observer { return sor.NewObserver(sor.WithTracer(sor.NewTracer(0))) }
	sh := &shape{obs: map[string]*sor.Observer{"leader": newObs(), "replica": newObs(), "router": newObs()}}
	var nodes []*sor.RunningNode
	sh.close = func() error {
		var first error
		for i := len(nodes) - 1; i >= 0; i-- {
			if err := nodes[i].Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	leader, err := sor.StartNode(ctx, sor.Node{
		Name: "leader", Role: sor.RoleLeader,
		Listen: "127.0.0.1:0", StreamListen: "127.0.0.1:0",
		Data:           filepath.Join(dir, "leader"),
		DurableOptions: []sor.DurableOption{sor.WithWALSync(sor.WALSyncGrouped)},
		Cluster:        clusterMap, Shard: shardName,
		Observer: sh.obs["leader"], Catalog: benchCatalog(),
	})
	if err != nil {
		return nil, err
	}
	nodes = append(nodes, leader)
	replica, err := sor.StartNode(ctx, sor.Node{
		Name: "replica", Role: sor.RoleReplica,
		Listen: "127.0.0.1:0", StreamListen: "127.0.0.1:0",
		Data:           filepath.Join(dir, "replica"),
		DurableOptions: []sor.DurableOption{sor.WithWALSync(sor.WALSyncGrouped)},
		Cluster:        clusterMap, Shard: shardName,
		Leader:        "http://" + leader.Addr(),
		MaxReplicaLag: maxReplicaLag, PullInterval: pullInterval,
		Observer: sh.obs["replica"], Catalog: benchCatalog(),
	})
	if err != nil {
		sh.close()
		return nil, err
	}
	nodes = append(nodes, replica)
	router, err := sor.StartNode(ctx, sor.Node{
		Name: "router", Role: sor.RoleRouter, Listen: "127.0.0.1:0",
		Cluster: clusterMap, Observer: sh.obs["router"],
	})
	if err != nil {
		sh.close()
		return nil, err
	}
	nodes = append(nodes, router)
	sh.leader, sh.replica = leader.Server(), replica.Server()
	sh.leaderLSN = func() uint64 { return leader.Server().DB().AppliedLSN() }
	sh.replicaLSN = func() uint64 { return replica.Server().DB().AppliedLSN() }
	sh.replicaFollowing = replica.Err
	sh.ready = readyInfo{
		LeaderStream:  leader.StreamAddr(),
		ReplicaStream: replica.StreamAddr(),
		RouterHTTP:    "http://" + router.Addr(),
		Policy:        sor.WALSyncGrouped.String(),
	}
	return sh, nil
}

// createApps registers the workload's applications on the leader, the
// way sord registers its canonical apps, in parallel so WAL group commit
// batches their records.
func createApps(srv *sor.Server, apps []appDef) error {
	const workers = 32
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	next := make(chan appDef)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range next {
				if err := srv.CreateApp(sor.Application{
					ID: a.ID, Creator: "sorbench", Category: a.Category, Place: a.Place,
					Lat: a.Lat, Lon: a.Lon, RadiusM: 500, Script: "return 1", PeriodSec: a.PeriodSec,
				}); err != nil {
					select {
					case errs <- fmt.Errorf("app %s: %w", a.ID, err):
					default:
					}
				}
			}
		}()
	}
	for _, a := range apps {
		next <- a
	}
	close(next)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// syncReply waits until the replica has applied everything the leader
// appended.
func syncReply(sh *shape) map[string]any {
	deadline := time.Now().Add(60 * time.Second)
	for {
		l, r := sh.leaderLSN(), sh.replicaLSN()
		if r >= l {
			return map[string]any{"ok": true, "lsn": l}
		}
		if err := sh.replicaFollowing(); err != nil || time.Now().After(deadline) {
			return map[string]any{"ok": false, "leader": l, "replica": r, "err": fmt.Sprint(err)}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// lagSampler measures replication lag from outside both nodes: it polls
// the leader's log head and the replica's applied position every
// millisecond, and times each leader LSN from first sighting to the
// replica applying it.
type lagSampler struct {
	stop    chan struct{}
	done    chan struct{}
	lagMS   []float64
	records []float64
}

func (l *lagSampler) start(sh *shape) {
	l.stop, l.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(l.done)
		type seen struct {
			lsn uint64
			at  time.Time
		}
		var pending []seen
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-tick.C:
			}
			now := time.Now()
			head, applied := sh.leaderLSN(), sh.replicaLSN()
			if n := len(pending); head > applied && (n == 0 || pending[n-1].lsn < head) {
				pending = append(pending, seen{head, now})
			}
			i := 0
			for ; i < len(pending) && pending[i].lsn <= applied; i++ {
				l.lagMS = append(l.lagMS, float64(now.Sub(pending[i].at))/1e6)
			}
			pending = pending[i:]
			if head > applied {
				l.records = append(l.records, float64(head-applied))
			} else {
				l.records = append(l.records, 0)
			}
		}
	}()
}

func (l *lagSampler) finish() {
	if l.stop != nil {
		close(l.stop)
		<-l.done
		l.stop = nil
	}
}

// snapshot reads every node's metrics (what /debug/metrics serves) and
// the process's CPU time, peak memory and WAL bytes.
func snapshot(sh *shape) statsReply {
	r := statsReply{Metrics: map[string]obs.Snapshot{}, CPUMS: cpuMS(), RSSMB: peakRSSMB(), WALBytes: walBytes(sh)}
	for name, o := range sh.obs {
		r.Metrics[name] = o.Metrics().Snapshot()
	}
	return r
}

func collectStats(sh *shape, lag *lagSampler, dir string) statsReply {
	lag.finish()
	r := statsReply{
		LagMS:      lag.lagMS,
		LagRecords: lag.records,
		LeaderLSN:  sh.leaderLSN(),
		ReplicaLSN: sh.replicaLSN(),
		Metrics:    map[string]obs.Snapshot{},
	}
	for name, o := range sh.obs {
		r.Metrics[name] = o.Metrics().Snapshot()
	}
	if sh.spans != nil {
		r.SpansFile = filepath.Join(dir, "spans.json")
		recs := sh.spans.drain()
		for name, o := range sh.obs {
			for _, s := range o.Tracer().Spans() {
				recs = append(recs, spanRec{Node: name, Name: s.Name, Req: string(s.RequestID),
					Start: s.Start.UnixNano(), Dur: int64(s.Duration)})
				r.TracerSpans++
			}
		}
		if err := writeJSON(r.SpansFile, recs); err != nil {
			r.Err = err.Error()
		}
	}
	return r
}

// walBytes is what the leader and the replica have appended to their
// write-ahead logs.
func walBytes(sh *shape) float64 {
	var n int64
	for _, node := range []string{"leader", "replica"} {
		n += sh.obs[node].Metrics().Counter("sor_wal_append_bytes_total").Value()
	}
	return float64(n)
}

// cpuMS is the CPU time (user + system) this process has used.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// peakRSSMB reads this process's peak resident set (VmHWM).
func peakRSSMB() float64 { return procStatusMB("VmHWM:") }

// procStatusMB reads one kB field of /proc/self/status, in MB.
func procStatusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field) {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, field)), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// unseen returns, per node, the ReportIDs its dedup window lacks.
func unseen(sh *shape, ids map[string][]string) map[string][]string {
	out := map[string][]string{"leader": nil, "replica": nil}
	for node, srv := range map[string]*sor.Server{"leader": sh.leader, "replica": sh.replica} {
		for app, list := range ids {
			for _, id := range list {
				if !srv.DB().ReportSeen(app, id) {
					out[node] = append(out[node], id)
				}
			}
		}
	}
	return out
}

// oracleAnswer is the oracle's top-k for one query, or why not.
type oracleAnswer struct {
	Order []string `json:"order"`
	Err   string   `json:"err,omitempty"`
}

// runOracle ranks each query over the replica's current feature matrix,
// with sor.RankPlaces (the row ranker, full ranking) or with a columnar
// ranker built cold from that matrix, and returns the top-k places.
func runOracle(sh *shape, qs []oracleQuery) []oracleAnswer {
	out := make([]oracleAnswer, len(qs))
	matrices := map[string]*sor.Matrix{}
	columnar := map[string]*ranking.ColumnarRanker{}
	for i, q := range qs {
		order, err := func() ([]string, error) {
			m, ok := matrices[q.Category]
			if !ok {
				var err error
				if m, err = sh.replica.FeatureMatrix(q.Category); err != nil {
					return nil, err
				}
				matrices[q.Category] = m
			}
			prof := toProfile(q.Prefs)
			if !q.Columnar {
				res, err := sor.RankPlaces(m, prof)
				if err != nil {
					return nil, err
				}
				return res.Order, nil
			}
			cr, ok := columnar[q.Category]
			if !ok {
				var err error
				if cr, err = ranking.NewColumnarRanker(m); err != nil {
					return nil, err
				}
				columnar[q.Category] = cr
			}
			res, err := cr.RankTopK(prof, q.TopK, nil)
			if err != nil {
				return nil, err
			}
			return res.Order, nil
		}()
		if err != nil {
			out[i].Err = err.Error()
			continue
		}
		k := min(q.TopK, len(order))
		if k <= 0 {
			k = len(order)
		}
		out[i].Order = append([]string(nil), order[:k]...)
	}
	return out
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
