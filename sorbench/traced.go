package main

// The traced assembly builds the same three roles from the same
// constructors sor.StartNode uses, so it can wrap a span around each
// node's transport.Handler before it is mounted on a listener, around
// the router's dialed Senders, and around the follower's leader client.
// Spans are kept in memory and written out once, at the end of the run.

import (
	"context"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"sor"
	"sor/internal/cluster"
	"sor/internal/obs"
	"sor/internal/replica"
	"sor/internal/store"
	"sor/internal/transport"
	"sor/internal/wire"
)

// spanRec is one recorded span. Times are unix nanoseconds.
type spanRec struct {
	Node  string `json:"node"`
	Name  string `json:"name"`
	Type  string `json:"type,omitempty"`
	Req   string `json:"req,omitempty"`
	Start int64  `json:"start"`
	Dur   int64  `json:"dur"`
}

// spanLog collects spans in memory.
type spanLog struct {
	mu   sync.Mutex
	recs []spanRec
}

func (l *spanLog) add(node, name string, ctx context.Context, m wire.Message, t0 time.Time) {
	rec := spanRec{Node: node, Name: name, Type: m.Type().String(),
		Req: string(obs.RequestIDFrom(ctx)), Start: t0.UnixNano(), Dur: int64(time.Since(t0))}
	l.mu.Lock()
	l.recs = append(l.recs, rec)
	l.mu.Unlock()
}

func (l *spanLog) drain() []spanRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.recs
	l.recs = nil
	return out
}

// handler wraps a node's dispatcher in a "handler" span.
func (l *spanLog) handler(node string, h sor.Handler) sor.Handler {
	return func(ctx context.Context, m wire.Message) (wire.Message, error) {
		t0 := time.Now()
		resp, err := h(ctx, m)
		l.add(node, "handler", ctx, m, t0)
		return resp, err
	}
}

// tracedSender wraps an outbound Sender (router forward, follower pull).
type tracedSender struct {
	log        *spanLog
	node, name string
	next       cluster.Sender
}

func (s tracedSender) Send(ctx context.Context, m wire.Message) (wire.Message, error) {
	t0 := time.Now()
	resp, err := s.next.Send(ctx, m)
	s.log.add(s.node, s.name, ctx, m, t0)
	return resp, err
}

// tracedNode is one hand-assembled member or router with its listeners.
type tracedNode struct {
	httpSrv  *http.Server
	httpLn   net.Listener
	stream   *sor.StreamServer
	streamLn net.Listener
	closers  []func() error
	wg       sync.WaitGroup
}

func (n *tracedNode) listen(h sor.Handler, o *sor.Observer, sessions *sor.SessionRegistry) error {
	wh, err := sor.NewHTTPHandler(h, sor.WithHandlerObserver(o))
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle(sor.ServerPath, wh)
	sor.RegisterDebug(mux, o)
	if n.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	n.httpSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	n.wg.Add(1)
	go func() { defer n.wg.Done(); _ = n.httpSrv.Serve(n.httpLn) }()
	if sessions == nil {
		return nil
	}
	if n.stream, err = sor.NewStreamServer(h, sessions, sor.WithStreamServerObserver(o)); err != nil {
		return err
	}
	if n.streamLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	n.wg.Add(1)
	go func() { defer n.wg.Done(); _ = n.stream.Serve(n.streamLn) }()
	return nil
}

func (n *tracedNode) shutdown() error {
	if n.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = n.httpSrv.Shutdown(ctx)
		cancel()
	}
	if n.stream != nil {
		_ = n.stream.Close()
	}
	var first error
	for i := len(n.closers) - 1; i >= 0; i-- {
		if err := n.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	n.wg.Wait()
	return first
}

// startTracedShape assembles leader, replica and router by hand.
func startTracedShape(ctx context.Context, dir string) (*shape, error) {
	ctx, cancel := context.WithCancel(ctx)
	log := &spanLog{}
	newObs := func() *sor.Observer { return sor.NewObserver(sor.WithTracer(sor.NewTracer(1 << 18))) }
	sh := &shape{spans: log, obs: map[string]*sor.Observer{"leader": newObs(), "replica": newObs(), "router": newObs()}}
	clusterMap := filepath.Join(dir, "cluster.json")
	var nodes []*tracedNode
	sh.close = func() error {
		cancel()
		var first error
		for i := len(nodes) - 1; i >= 0; i-- {
			if err := nodes[i].shutdown(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	fail := func(err error) (*shape, error) {
		sh.close()
		return nil, err
	}
	register := func(name, role, addr string) error {
		reg, err := cluster.LoadRegistry(clusterMap)
		if err != nil {
			return err
		}
		reg.AddShard(shardName)
		return reg.AddMember(cluster.Member{Name: name, Shard: shardName, Role: role, Addr: addr})
	}

	// Leader: durable store, §IV processor cadence, WAL shipping.
	lo := sh.obs["leader"]
	ln := &tracedNode{}
	nodes = append(nodes, ln)
	lstore := store.NewDurableBackend(filepath.Join(dir, "leader"),
		store.WithMetrics(lo.Metrics()), sor.WithWALSync(sor.WALSyncGrouped))
	lsessions := sor.NewSessionRegistry(sor.WithSessionMetrics(lo.Metrics()))
	lsrv, err := sor.NewServer(sor.WithStorage(lstore), sor.WithCatalog(benchCatalog()),
		sor.WithTransport(lsessions), sor.WithObserver(lo))
	if err != nil {
		return fail(err)
	}
	if err := lsrv.Open(); err != nil {
		return fail(err)
	}
	ln.closers = append(ln.closers, lsrv.Close)
	if _, err := lsrv.StartProcessing(ctx, 30*time.Second); err != nil {
		return fail(err)
	}
	repl, err := replica.NewLeader(lstore.WAL(), replica.WithStateDir(lstore.Dir()),
		replica.WithLeaderMetrics(lo.Metrics()), replica.WithSnapshotSource(lstore))
	if err != nil {
		return fail(err)
	}
	lh := cluster.MemberHandler("leader", func() string { return sor.RoleLeader },
		lstore.WAL().LastLSN, replica.Handler(repl, lsrv.Handler()))
	if err := ln.listen(log.handler("leader", lh), lo, lsessions); err != nil {
		return fail(err)
	}
	leaderURL := "http://" + ln.httpLn.Addr().String()
	if err := register("leader", sor.RoleLeader, leaderURL); err != nil {
		return fail(err)
	}

	// Replica: own durable log, follower pull loop, staleness gate.
	ro := sh.obs["replica"]
	rn := &tracedNode{}
	nodes = append(nodes, rn)
	rstore := store.NewDurableBackend(filepath.Join(dir, "replica"),
		store.WithMetrics(ro.Metrics()), sor.WithWALSync(sor.WALSyncGrouped))
	rsessions := sor.NewSessionRegistry(sor.WithSessionMetrics(ro.Metrics()))
	rsrv, err := sor.NewServer(sor.WithStorage(rstore), sor.WithCatalog(benchCatalog()),
		sor.WithTransport(rsessions), sor.WithObserver(ro), sor.WithMaxReplicaLag(maxReplicaLag))
	if err != nil {
		return fail(err)
	}
	if err := rsrv.OpenAsReplica(); err != nil {
		return fail(err)
	}
	rn.closers = append(rn.closers, rsrv.Close)
	client, err := sor.NewClient(leaderURL)
	if err != nil {
		return fail(err)
	}
	follower := replica.NewFollower("replica", rsrv.DB(),
		tracedSender{log: log, node: "replica", name: "pull", next: client},
		replica.WithFollowerMetrics(ro.Metrics()), replica.WithPullInterval(pullInterval))
	rsrv.SetReplicaLagProbe(follower.LagProbe())
	var followErr error
	var followMu sync.Mutex
	rn.wg.Add(1)
	go func() {
		defer rn.wg.Done()
		err := follower.Run(ctx)
		if ctx.Err() == nil {
			followMu.Lock()
			followErr = err
			followMu.Unlock()
		}
	}()
	rh := cluster.MemberHandler("replica", func() string { return sor.RoleReplica },
		func() uint64 { return follower.Status().AppliedLSN }, rsrv.Handler())
	if err := rn.listen(log.handler("replica", rh), ro, rsessions); err != nil {
		return fail(err)
	}
	if err := register("replica", sor.RoleReplica, "http://"+rn.httpLn.Addr().String()); err != nil {
		return fail(err)
	}

	// Router: forwards to the shard leader over dialed, traced Senders.
	xo := sh.obs["router"]
	xn := &tracedNode{}
	nodes = append(nodes, xn)
	reg, err := cluster.LoadRegistry(clusterMap)
	if err != nil {
		return fail(err)
	}
	rt, err := cluster.NewRouter("router", reg, func(addr string) (cluster.Sender, error) {
		c, err := transport.NewClient(addr)
		if err != nil {
			return nil, err
		}
		return tracedSender{log: log, node: "router", name: "forward", next: c}, nil
	}, cluster.WithRouterMetrics(xo.Metrics()))
	if err != nil {
		return fail(err)
	}
	xn.wg.Add(1)
	go func() { defer xn.wg.Done(); rt.RunHeartbeats(ctx, cluster.DefaultHeartbeatInterval) }()
	if err := xn.listen(log.handler("router", rt.Handler()), xo, nil); err != nil {
		return fail(err)
	}

	sh.leader, sh.replica = lsrv, rsrv
	sh.leaderLSN = lstore.WAL().LastLSN
	sh.replicaLSN = func() uint64 { return rsrv.DB().AppliedLSN() }
	sh.replicaFollowing = func() error {
		followMu.Lock()
		defer followMu.Unlock()
		return followErr
	}
	sh.ready = readyInfo{
		LeaderStream:  ln.streamLn.Addr().String(),
		ReplicaStream: rn.streamLn.Addr().String(),
		RouterHTTP:    "http://" + xn.httpLn.Addr().String(),
		Policy:        sor.WALSyncGrouped.String(),
	}
	return sh, nil
}
