package main

// The three workloads. Each one sets up through generated wire messages
// only, measures an open-loop phase on connection A (with B running
// alongside) and then a saturation phase on A, and checks the outputs.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sor"
	"sor/internal/wire"
)

// Metric classes recorded on A and B.
const (
	classStream = "stream" // the workload's main A call
	classHeavy  = "heavy"  // its expensive A call
	classBatch  = "batch"  // B: a routed 32-report batch
	classOther  = "other"  // calls timed but not reported end to end
)

const routedBatch = 32

// ingestGatewayPace paces B's gateway in ingest: a fixed 1280 reports/s
// alongside A, with slack over a routed batch's latency, so the open
// loop offers the same work every run (an unpaced caller's volume, and
// with it the per-call figures, would follow its latency).
const ingestGatewayPace = 25 * time.Millisecond

// env is one workload run against one deployed shape.
type env struct {
	o     options
	sz    size
	sys   *system
	conns *connCounter
	rec   *recorder
	a     *sor.StreamClient
	b     *sor.Client
	bt    *http.Transport
	token string

	tasksMu sync.Mutex
	tasks   map[string]string // user → task ID

	ackedReports  atomic.Int64 // reports acked OK (all phases)
	ackedMu       sync.Mutex
	ackedIDs      map[string][]string // app → acked ReportIDs, in ack order
	failedReports atomic.Int64        // reports in calls that failed
	acksOK        atomic.Int64        // participates + leaves acked (all phases)
	writes        atomic.Int64        // write calls attempted (all phases)

	pushes     atomic.Int64
	pushBudget atomic.Int64 // pushed schedules over budget
	stopEvents chan struct{}
	eventsDone chan struct{}

	checks      []string
	e2e         map[string]float64
	start       statsReply // deployed shape's counters when measuring began
	wireStart   int64      // connection bytes when measuring began
	writesStart int64      // write calls when measuring began
	phase       struct{ open, sat time.Duration }

	// rank state
	epochMu sync.Mutex
	epochs  map[string][]epochObs
	stale   atomic.Int64
	// join_storm state
	pop [][]string // per app: members in join order
	wl  workload
}

type epochObs struct {
	sent, recv int64
	epoch      int64
}

func (e *env) fail(format string, args ...any) {
	e.checks = append(e.checks, fmt.Sprintf(format, args...))
}

func (e *env) setTask(user, task string) {
	e.tasksMu.Lock()
	e.tasks[user] = task
	e.tasksMu.Unlock()
}

func (e *env) task(user string) string {
	e.tasksMu.Lock()
	defer e.tasksMu.Unlock()
	return e.tasks[user]
}

// withTasks fills server-assigned task IDs into report templates.
func (e *env) withTasks(ups []*wire.DataUpload) []*wire.DataUpload {
	for _, u := range ups {
		u.TaskID = e.task(u.UserID)
	}
	return ups
}

// watchEvents drains pushes on A, checking pushed schedules' budgets.
func (e *env) watchEvents(budget int) {
	e.stopEvents, e.eventsDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(e.eventsDone)
		for {
			select {
			case <-e.stopEvents:
				return
			case m := <-e.a.Events():
				e.pushes.Add(1)
				if s, ok := m.(*wire.Schedule); ok && budget > 0 && len(s.AtUnix) > budget {
					e.pushBudget.Add(1)
				}
			}
		}
	}()
}

func (e *env) closeConns() {
	if e.stopEvents != nil {
		close(e.stopEvents)
		<-e.eventsDone
		e.stopEvents = nil
	}
	if e.a != nil {
		_ = e.a.Close()
		e.a = nil
	}
	if e.bt != nil {
		e.bt.CloseIdleConnections()
	}
}

// participate joins p over send and records its task; the returned
// schedule is checked against p's budget.
func (e *env) participate(ctx context.Context, rec *recorder, path, class string, due time.Time,
	send func(context.Context, wire.Message) (wire.Message, error), p participant) bool {
	e.writes.Add(1)
	_, ok := rec.call(ctx, path, class, due, func(ctx context.Context) (wire.Message, error) {
		return send(ctx, p.message(e.token))
	}, func(m wire.Message) error {
		if err := ackOK(m); err != nil {
			return err
		}
		inner, err := wire.Decode(m.(*wire.Ack).Payload)
		if err != nil {
			return err
		}
		s, ok := inner.(*wire.Schedule)
		if !ok {
			return fmt.Errorf("participate answered with %s", inner.Type())
		}
		if len(s.AtUnix) > p.Budget {
			return fmt.Errorf("schedule of %d measurements exceeds budget %d", len(s.AtUnix), p.Budget)
		}
		e.setTask(p.User, s.TaskID)
		return nil
	})
	if ok {
		e.acksOK.Add(1)
	}
	return ok
}

// uploadBatch sends reports as one DataUploadBatch.
func (e *env) uploadBatch(ctx context.Context, rec *recorder, path, class string, due time.Time,
	send func(context.Context, wire.Message) (wire.Message, error), ups []*wire.DataUpload) bool {
	batch := &wire.DataUploadBatch{Uploads: make([]wire.DataUpload, len(ups))}
	for i, u := range e.withTasks(ups) {
		batch.Uploads[i] = *u
	}
	_, ok := rec.call(ctx, path, class, due, func(ctx context.Context) (wire.Message, error) {
		return send(ctx, batch)
	}, ackOK)
	e.settle(ups, ok)
	return ok
}

// settle counts one upload call and its reports as acked or not,
// keeping acked ReportIDs.
func (e *env) settle(ups []*wire.DataUpload, ok bool) {
	e.writes.Add(1)
	if !ok {
		e.failedReports.Add(int64(len(ups)))
		return
	}
	e.ackedReports.Add(int64(len(ups)))
	e.ackedMu.Lock()
	for _, u := range ups {
		e.ackedIDs[u.AppID] = append(e.ackedIDs[u.AppID], u.ReportID)
	}
	e.ackedMu.Unlock()
}

func (e *env) uploadOne(ctx context.Context, rec *recorder, class string, due time.Time, up *wire.DataUpload) bool {
	up.TaskID = e.task(up.UserID)
	_, ok := rec.call(ctx, "stream", class, due, func(ctx context.Context) (wire.Message, error) {
		return e.a.Send(ctx, up)
	}, ackOK)
	e.settle([]*wire.DataUpload{up}, ok)
	return ok
}

// window runs n jobs with at most w in flight.
func window(w, n int, job func(i int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, w)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			job(i)
		}(i)
	}
	wg.Wait()
}

// workload is one named load shape.
type workload interface {
	// setup brings the fresh deployed shape to the measured state.
	setup(e *env) error
	// measure runs the open-loop and saturation phases.
	measure(e *env) error
	// verify checks outputs after the run (stats are the final counters).
	verify(e *env, st statsReply)
	// inputs hashes the first generated inputs of every stream.
	inputs(seed int64, sz size, ih *inputHash)
	// samples are generated messages per wire type, for the codec replay.
	samples(seed int64, sz size) map[string][]wire.Message
	// walOps are the messages the WAL replay sends: prep first, then the
	// A-stream calls whose logged bytes it averages.
	walOps(seed int64, sz size) (prep, ops []wire.Message)
}

// openDone marks the end of the open-loop phase: the per-call figures
// are read here, after a fixed amount of offered work.
func (e *env) openDone() {
	// The replica's copy of the open loop's records counts toward
	// wal_bytes_per_write, so it must have applied them all first.
	if err := e.sync(); err != nil {
		e.fail("%v", err)
	}
	var r statsReply
	if err := e.sys.call(command{Op: "snap"}, &r); err != nil {
		e.fail("snap: %v", err)
	}
	e.e2e["peak_rss_mb"] = r.RSSMB
	e.rec.mu.Lock()
	calls := e.rec.attempted
	e.rec.mu.Unlock()
	if calls > 0 {
		e.e2e["cpu_us_per_call"] = (r.CPUMS - e.start.CPUMS) * 1e3 / float64(calls)
		e.e2e["wire_bytes_per_call"] = float64(e.conns.bytes.Load()-e.wireStart) / float64(calls)
	}
	if writes := e.writes.Load() - e.writesStart; writes > 0 {
		e.e2e["wal_bytes_per_write"] = (r.WALBytes - e.start.WALBytes) / float64(writes)
	}
}

// withTask returns a copy of u carrying a placeholder task ID.
func withTask(u *wire.DataUpload) *wire.DataUpload {
	c := *u
	c.TaskID = placeholderTask
	return &c
}

func batchOf(ups []*wire.DataUpload) *wire.DataUploadBatch {
	b := &wire.DataUploadBatch{Uploads: make([]wire.DataUpload, len(ups))}
	for i, u := range ups {
		b.Uploads[i] = *withTask(u)
	}
	return b
}

func workloadFor(name string) workload {
	switch name {
	case "ingest":
		return &ingestWL{}
	case "rank":
		return &rankWL{}
	default:
		return &joinWL{}
	}
}

var reportBase = time.Unix(1_700_000_000, 0).UTC()

// ---------------------------------------------------------------- ingest

type ingestWL struct {
	parts        []participant
	open         []*wire.DataUpload // open-loop reports, in send order
	openOps      [][2]int           // [first report, count] per open-loop op
	due          []time.Duration
	bGen, satGen *reportGen
	bMu, satMu   sync.Mutex
}

func ingestParts(sz size) []participant {
	apps := appsFor("ingest", sz)
	parts := make([]participant, sz.ingestUsers)
	for i := range parts {
		a := apps[i%len(apps)]
		parts[i] = participant{User: fmt.Sprintf("ingest-u%d", i), App: a.ID, Lat: a.Lat, Lon: a.Lon, Budget: 50}
	}
	return parts
}

// plan generates the open-loop schedule and reports for one run.
func (w *ingestWL) plan(seed int64, sz size, open time.Duration) {
	w.parts = ingestParts(sz)
	n := int(sz.ingestRate*open.Seconds()*1.5) + 16
	w.due = poissonDue(streamRNG(seed, "ingest-due"), sz.ingestRate, n)
	g := newReportGen(seed, "a", w.parts, reportBase)
	w.open, w.openOps = nil, nil
	for i := 0; i < n && w.due[i] < open; i++ {
		k := 1
		if i%sz.ingestBatchEvery == sz.ingestBatchEvery-1 {
			k = routedBatch
		}
		w.openOps = append(w.openOps, [2]int{len(w.open), k})
		w.open = append(w.open, g.batch(k)...)
	}
	w.bGen = newReportGen(seed, "b", w.parts, reportBase)
	w.satGen = newReportGen(seed, "sat", w.parts, reportBase)
}

func (w *ingestWL) inputs(seed int64, sz size, ih *inputHash) {
	w.plan(seed, sz, 2*time.Second)
	for _, p := range w.parts {
		ih.msg(p.message("gw"))
	}
	for _, d := range w.due {
		ih.dur(d)
	}
	for _, u := range w.open {
		ih.msg(u)
	}
	for i := 0; i < 64; i++ {
		ih.msg(w.bGen.next())
		ih.msg(w.satGen.next())
	}
}

func (w *ingestWL) samples(seed int64, sz size) map[string][]wire.Message {
	w.plan(seed, sz, 2*time.Second)
	out := map[string][]wire.Message{}
	for _, op := range w.openOps {
		if op[1] == 1 && len(out["upload"]) < 64 {
			out["upload"] = append(out["upload"], withTask(w.open[op[0]]))
		}
	}
	for i := 0; i < 8; i++ {
		out["batch"] = append(out["batch"], batchOf(w.bGen.batch(routedBatch)))
	}
	for _, p := range w.parts {
		out["participate"] = append(out["participate"], p.message("gw"))
	}
	return out
}

func (w *ingestWL) walOps(seed int64, sz size) (prep, ops []wire.Message) {
	w.plan(seed, sz, 2*time.Second)
	for _, p := range w.parts {
		prep = append(prep, p.message("gw"))
	}
	for _, op := range w.openOps {
		if op[1] == 1 && len(ops) < 64 {
			ops = append(ops, w.open[op[0]])
		}
	}
	return prep, ops
}

func (w *ingestWL) setup(e *env) error {
	w.plan(e.o.seed, e.sz, e.phase.open)
	var err error
	if e.a, err = e.conns.stream(e.sys.ready.LeaderStream, e.token, e.o.seed); err != nil {
		return err
	}
	e.watchEvents(0)
	if e.b, e.bt, err = e.conns.httpConn(e.sys.ready.RouterHTTP); err != nil {
		return err
	}
	rec := setupRecorder()
	window(16, len(w.parts), func(i int) {
		e.participate(context.Background(), rec, "stream", classOther, time.Now(), e.a.Send, w.parts[i])
	})
	if rec.failed > 0 {
		return fmt.Errorf("ingest setup: %d participates failed: %v", rec.failed, rec.errs)
	}
	return nil
}

func (w *ingestWL) measure(e *env) error {
	ctx := context.Background()
	b := closedLoop(int(e.phase.open/ingestGatewayPace), ingestGatewayPace, func(i int, due time.Time) {
		w.bMu.Lock()
		ups := w.bGen.batch(routedBatch)
		w.bMu.Unlock()
		e.uploadBatch(ctx, e.rec, "routed", classBatch, due, e.b.Send, ups)
	})
	openLoop(e.rec, time.Now(), w.due, e.phase.open, func(i int, due time.Time) {
		op := w.openOps[i]
		ups := w.open[op[0] : op[0]+op[1]]
		if op[1] == 1 {
			e.uploadOne(ctx, e.rec, classStream, due, ups[0])
			return
		}
		e.uploadBatch(ctx, e.rec, "stream", classHeavy, due, e.a.Send, ups)
	})
	b.Wait()
	e.openDone()
	rate := saturate(e.sz.ingestWindow, e.phase.sat, func() int {
		w.satMu.Lock()
		ups := w.satGen.batch(routedBatch)
		w.satMu.Unlock()
		if e.uploadBatch(ctx, e.rec, "stream", classOther, time.Now(), e.a.Send, ups) {
			return len(ups)
		}
		return 0
	})
	e.e2e["stream_max_rps"] = rate
	return nil
}

func (w *ingestWL) verify(e *env, st statsReply) {
	verifyIngest(e, st)
}

// seenTail is how many of each app's last acked ReportIDs verifyIngest
// looks up. Fewer than reportWindowSize (8192) reports per app can have
// entered the store's dedup window after them, in-flight ones included,
// so every one of them must still be there.
const seenTail = 1000

// verifyIngest checks exactly-once storage against the leader's ingest
// counters (every acked report stored once, nothing stored twice), and
// looks each app's last seenTail acked ReportIDs up in the leader's and
// the replica's dedup windows.
func verifyIngest(e *env, st statsReply) {
	q := map[string][]string{}
	e.ackedMu.Lock()
	for app, ids := range e.ackedIDs {
		q[app] = ids[max(0, len(ids)-seenTail):]
	}
	e.ackedMu.Unlock()
	var missing map[string][]string
	if err := e.sys.call(command{Op: "seen", Seen: q}, &missing); err != nil {
		e.fail("seen: %v", err)
	}
	for node, ids := range missing {
		if len(ids) > 0 {
			e.fail("%s lost %d acked reports, e.g. %v", node, len(ids), ids[:min(3, len(ids))])
		}
	}
	c := st.Metrics["leader"].Counters
	accepted, acked, unsure := c["sor_ingest_accepted_total"], e.ackedReports.Load(), e.failedReports.Load()
	if accepted < acked || accepted > acked+unsure {
		e.fail("leader stored %d reports; generator had %d acked (+%d unacked)", accepted, acked, unsure)
	}
	if d := c["sor_ingest_duplicate_total"]; d != 0 {
		e.fail("%d duplicate reports", d)
	}
	if r := c["sor_ingest_rejected_total"]; r != 0 {
		e.fail("%d reports rejected", r)
	}
}

// ------------------------------------------------------------------ rank

type rankWL struct {
	near             *profilePop
	nearDue, deepDue []time.Duration
	nearPicks        [][]wire.PrefEntry
	deep             [][]wire.PrefEntry
	seedParts        []participant
	bigParts         []participant
	deepParts        []participant
	bGen, dGen       *reportGen // B's trickle into each category
	bMu, satMu       sync.Mutex
	oracleNear       [][]wire.PrefEntry
	oracleDeep       [][]wire.PrefEntry
}

func (w *rankWL) plan(seed int64, sz size, open time.Duration) {
	apps := appsFor("rank", sz)
	w.seedParts = make([]participant, len(apps))
	w.bigParts, w.deepParts = nil, nil
	latent := streamRNG(seed, "latent")
	for i, a := range apps {
		p := participant{User: "seed-" + a.ID, App: a.ID, Lat: a.Lat, Lon: a.Lon, Budget: 50}
		if a.Category == catBig {
			p.Shape, p.Q = shapeLatent, latent.Float64()
			w.bigParts = append(w.bigParts, p)
		} else {
			p.Shape, p.Q = shapeAnti, float64(i-sz.bigPlaces)/1000
			w.deepParts = append(w.deepParts, p)
		}
		w.seedParts[i] = p
	}
	w.near = newNearProfiles(seed, sz.nearProfiles)
	n := int(sz.rankRate*open.Seconds()*1.5) + 16
	w.nearDue = poissonDue(streamRNG(seed, "near-due"), sz.rankRate, n)
	w.nearPicks = make([][]wire.PrefEntry, n)
	for i := range w.nearPicks {
		_, w.nearPicks[i] = w.near.pick()
	}
	nd := int(sz.deepRate*open.Seconds()*1.5) + 4
	w.deepDue = poissonDue(streamRNG(seed, "deep-due"), sz.deepRate, nd)
	dr := streamRNG(seed, "deep-profiles")
	w.deep = make([][]wire.PrefEntry, nd)
	for i := range w.deep {
		w.deep[i] = deepProfile(dr)
	}
	w.bGen = newReportGen(seed, "b", w.bigParts, reportBase)
	w.dGen = newReportGen(seed, "d", w.deepParts, reportBase)
	or := streamRNG(seed, "oracle")
	w.oracleNear, w.oracleDeep = nil, nil
	for i := 0; i < sz.oracleSamples; i++ {
		w.oracleNear = append(w.oracleNear, w.near.profiles[or.Intn(len(w.near.profiles))])
		w.oracleDeep = append(w.oracleDeep, deepProfile(or))
	}
}

func (w *rankWL) inputs(seed int64, sz size, ih *inputHash) {
	w.plan(seed, sz, 2*time.Second)
	for _, d := range w.nearDue {
		ih.dur(d)
	}
	for _, d := range w.deepDue {
		ih.dur(d)
	}
	for _, p := range w.nearPicks {
		ih.msg(&wire.RankRequest{Category: catBig, Prefs: p, TopK: 10})
	}
	for _, p := range w.deep {
		ih.msg(&wire.RankRequest{Category: catDeep, Prefs: p, TopK: 10})
	}
	for _, u := range w.seedReports(seed) {
		ih.msg(u)
	}
	for i := 0; i < 64; i++ {
		ih.msg(w.bGen.next())
		ih.msg(w.dGen.next())
	}
}

// seedReports is one report per place, shaped by the place's category.
func (w *rankWL) seedReports(seed int64) []*wire.DataUpload {
	g := newReportGen(seed, "seed", w.seedParts, reportBase)
	out := make([]*wire.DataUpload, len(w.seedParts))
	for i, p := range w.seedParts {
		out[i] = g.report(p)
	}
	return out
}

func (w *rankWL) samples(seed int64, sz size) map[string][]wire.Message {
	w.plan(seed, sz, 2*time.Second)
	out := map[string][]wire.Message{}
	for i := 0; i < 64 && i < len(w.nearPicks); i++ {
		out["rank"] = append(out["rank"], &wire.RankRequest{Category: catBig, UserID: "near", Prefs: w.nearPicks[i], TopK: 10})
	}
	for i := 0; i < 8; i++ {
		out["batch"] = append(out["batch"], batchOf(w.bGen.batch(routedBatch)))
	}
	for i := 0; i < 64 && i < len(w.seedParts); i++ {
		out["participate"] = append(out["participate"], w.seedParts[i].message("seeder"))
	}
	return out
}

// walOps is empty: rank reads log nothing.
func (w *rankWL) walOps(seed int64, sz size) (prep, ops []wire.Message) { return nil, nil }

func (w *rankWL) setup(e *env) error {
	w.plan(e.o.seed, e.sz, e.phase.open)
	ctx := context.Background()
	// Seed both categories through the leader over a setup stream, then
	// close it before opening A on the replica.
	s, err := e.conns.stream(e.sys.ready.LeaderStream, "seeder", e.o.seed)
	if err != nil {
		return err
	}
	rec := setupRecorder()
	window(64, len(w.seedParts), func(i int) {
		e.participate(ctx, rec, "stream", classOther, time.Now(), s.Send, w.seedParts[i])
	})
	reports := w.seedReports(e.o.seed)
	nb := (len(reports) + routedBatch - 1) / routedBatch
	window(8, nb, func(i int) {
		end := (i + 1) * routedBatch
		if end > len(reports) {
			end = len(reports)
		}
		e.uploadBatch(ctx, rec, "stream", classOther, time.Now(), s.Send, reports[i*routedBatch:end])
	})
	// A leader-side read of each category folds the seeded reports into
	// feature rows, which the replica then receives through the WAL.
	for _, cat := range []string{catBig, catDeep} {
		if err := e.rankOnce(ctx, rec, "stream", s.Send, cat, w.near.profiles[0]); err != nil {
			return fmt.Errorf("rank setup: leader read %s: %w", cat, err)
		}
	}
	_ = s.Close()
	if rec.failed > 0 {
		return fmt.Errorf("rank setup: %d calls failed: %v", rec.failed, rec.errs)
	}
	if e.b, e.bt, err = e.conns.httpConn(e.sys.ready.RouterHTTP); err != nil {
		return err
	}
	if err := e.sync(); err != nil {
		return err
	}
	if e.a, err = e.conns.stream(e.sys.ready.ReplicaStream, e.token, e.o.seed); err != nil {
		return err
	}
	e.watchEvents(0)
	for _, cat := range []string{catBig, catDeep} {
		if err := e.rankOnce(ctx, rec, "stream", e.a.Send, cat, w.near.profiles[0]); err != nil {
			return fmt.Errorf("rank setup: replica read %s: %w", cat, err)
		}
	}
	return nil
}

// rankOnce sends one untimed top-10 read.
func (e *env) rankOnce(ctx context.Context, rec *recorder, path string,
	send func(context.Context, wire.Message) (wire.Message, error), cat string, prefs []wire.PrefEntry) error {
	if _, ok := rec.call(ctx, path, classOther, time.Now(), func(ctx context.Context) (wire.Message, error) {
		return send(ctx, &wire.RankRequest{Category: cat, UserID: "setup", Prefs: prefs, TopK: 10})
	}, rankOK(10)); !ok {
		return fmt.Errorf("%v", rec.errs)
	}
	return nil
}

func rankOK(k int) func(wire.Message) error {
	return func(m wire.Message) error {
		if ack, ok := m.(*wire.Ack); ok {
			return refusal{ack}
		}
		r, ok := m.(*wire.RankResponse)
		if !ok {
			return fmt.Errorf("unexpected %s reply", m.Type())
		}
		if len(r.Ranked) != k {
			return fmt.Errorf("ranking of %d places, want %d", len(r.Ranked), k)
		}
		return nil
	}
}

// readA sends one timed top-10 read on A, tracking epochs per category.
func (w *rankWL) readA(e *env, class, cat string, due time.Time, prefs []wire.PrefEntry, user string) bool {
	var sent time.Time
	resp, ok := e.rec.call(context.Background(), "stream", class, due, func(ctx context.Context) (wire.Message, error) {
		sent = time.Now()
		return e.a.Send(ctx, &wire.RankRequest{Category: cat, UserID: user, Prefs: prefs, TopK: 10})
	}, rankOK(10))
	if ok {
		r := resp.(*wire.RankResponse)
		if r.Stale {
			e.stale.Add(1)
		}
		e.epochMu.Lock()
		e.epochs[cat] = append(e.epochs[cat], epochObs{sent: sent.UnixNano(), recv: time.Now().UnixNano(), epoch: r.Epoch})
		e.epochMu.Unlock()
	}
	return ok
}

func (w *rankWL) measure(e *env) error {
	ctx := context.Background()
	b := closedLoop(int(e.phase.open/e.sz.trickleEvery), e.sz.trickleEvery, func(i int, due time.Time) {
		// Even slots upload, alternately into the big and the deep
		// category, so both are folded and merged under A's readers.
		if i%2 == 0 {
			gen := w.bGen
			if i%4 == 2 {
				gen = w.dGen
			}
			w.bMu.Lock()
			ups := gen.batch(routedBatch)
			w.bMu.Unlock()
			e.uploadBatch(ctx, e.rec, "routed", classBatch, due, e.b.Send, ups)
			return
		}
		e.rec.call(ctx, "routed", classOther, due, func(ctx context.Context) (wire.Message, error) {
			return e.b.Send(ctx, &wire.RankRequest{Category: catBig, UserID: "gw", Prefs: w.nearPicks[i%len(w.nearPicks)], TopK: 10})
		}, rankOK(10))
	})
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		openLoop(e.rec, start, w.deepDue, e.phase.open, func(i int, due time.Time) {
			w.readA(e, classHeavy, catDeep, due, w.deep[i], fmt.Sprintf("deep-%d", i))
		})
	}()
	openLoop(e.rec, start, w.nearDue, e.phase.open, func(i int, due time.Time) {
		w.readA(e, classStream, catBig, due, w.nearPicks[i], "near")
	})
	wg.Wait()
	b.Wait()
	e.openDone()
	e.e2e["stream_max_rps"] = saturate(e.sz.rankWindow, e.phase.sat, func() int {
		w.satMu.Lock()
		_, prefs := w.near.pick()
		w.satMu.Unlock()
		if w.readA(e, classOther, catBig, time.Now(), prefs, "near") {
			return 1
		}
		return 0
	})
	return nil
}

func (w *rankWL) verify(e *env, st statsReply) {
	verifyIngest(e, st)
	for cat, obs := range e.epochs {
		if before, after, ok := epochRegression(obs); !ok {
			e.fail("%s: epoch went backwards on A: %d after %d", cat, after, before)
		}
	}
	// Oracle: on the quiesced system, A's top-10 for sampled profiles
	// must equal the row ranker's top-10 over the replica's matrix of each
	// category. Both categories took B's trickle, so the replica served
	// them from epochs it delta-merged under load; on the big one, A's
	// answers must also equal a columnar ranker built cold from the
	// replica's matrix.
	var qs []oracleQuery
	for _, p := range w.oracleNear {
		qs = append(qs, oracleQuery{Category: catDeep, Prefs: p, TopK: 10},
			oracleQuery{Category: catBig, Prefs: p, TopK: 10},
			oracleQuery{Category: catBig, Prefs: p, TopK: 10, Columnar: true})
	}
	for _, p := range w.oracleDeep {
		qs = append(qs, oracleQuery{Category: catDeep, Prefs: p, TopK: 10})
	}
	got := make([][]string, len(qs))
	for i, q := range qs {
		rec := setupRecorder()
		resp, ok := rec.call(context.Background(), "stream", classOther, time.Now(), func(ctx context.Context) (wire.Message, error) {
			return e.a.Send(ctx, &wire.RankRequest{Category: q.Category, UserID: "oracle", Prefs: q.Prefs, TopK: q.TopK})
		}, rankOK(q.TopK))
		if !ok {
			e.fail("oracle query %d: %v", i, rec.errs)
			return
		}
		for _, rp := range resp.(*wire.RankResponse).Ranked {
			got[i] = append(got[i], rp.Place)
		}
	}
	var want []oracleAnswer
	if err := e.sys.call(command{Op: "oracle", Queries: qs}, &want); err != nil {
		e.fail("oracle: %v", err)
		return
	}
	for i := range qs {
		if want[i].Err != "" {
			e.fail("oracle %d: %s", i, want[i].Err)
			continue
		}
		if fmt.Sprint(want[i].Order) != fmt.Sprint(got[i]) {
			e.fail("query %d (%s): served top-10 %v, oracle %v", i, qs[i].Category, got[i], want[i].Order)
		}
	}
}

// epochRegression finds a response whose epoch is below one already
// received on the same connection before its request was sent, and
// returns both epochs.
func epochRegression(obs []epochObs) (before, after int64, ok bool) {
	byRecv := append([]epochObs(nil), obs...)
	sort.Slice(byRecv, func(i, j int) bool { return byRecv[i].recv < byRecv[j].recv })
	maxTo := make([]int64, len(byRecv)) // max epoch among byRecv[:k+1]
	for k, o := range byRecv {
		maxTo[k] = o.epoch
		if k > 0 && maxTo[k-1] > o.epoch {
			maxTo[k] = maxTo[k-1]
		}
	}
	for _, o := range byRecv {
		// the responses received strictly before this request was sent
		k := sort.Search(len(byRecv), func(x int) bool { return byRecv[x].recv >= o.sent }) - 1
		if k >= 0 && maxTo[k] > o.epoch {
			return maxTo[k], o.epoch, false
		}
	}
	return 0, 0, true
}

// ------------------------------------------------------------ join_storm

type joinWL struct {
	apps      []appDef
	events    []joinEvent
	uploaders []participant
	bGen      *reportGen
	bMu       sync.Mutex
	popMu     sync.Mutex
	satSeq    atomic.Int64
	largest   int
}

func (w *joinWL) plan(seed int64, sz size, open time.Duration) error {
	w.apps = appsFor("join_storm", sz)
	w.largest = len(w.apps) - 1
	var err error
	if w.events, err = joinStorm(seed, sz, w.apps, open); err != nil {
		return err
	}
	w.uploaders = nil
	for _, a := range w.apps {
		w.uploaders = append(w.uploaders, participant{User: "uploader-" + a.ID, App: a.ID, Lat: a.Lat, Lon: a.Lon, Budget: sz.joinBudget})
	}
	w.bGen = newReportGen(seed, "b", w.uploaders, reportBase)
	return nil
}

func (w *joinWL) initial(seed int64, sz size) [][]participant {
	out := make([][]participant, len(w.apps))
	for i, a := range w.apps {
		for k := 0; k < sz.joinApps[i]; k++ {
			out[i] = append(out[i], participant{User: fmt.Sprintf("pop-%d-%s-%d", seed, a.ID, k),
				App: a.ID, Lat: a.Lat, Lon: a.Lon, Budget: sz.joinBudget})
		}
	}
	return out
}

func (w *joinWL) inputs(seed int64, sz size, ih *inputHash) {
	if err := w.plan(seed, sz, 2*time.Second); err != nil {
		panic(err)
	}
	for _, ps := range w.initial(seed, sz) {
		for _, p := range ps {
			ih.msg(p.message("gw"))
		}
	}
	for _, ev := range w.events {
		ih.dur(ev.Due)
		ih.msg(ev.P.message("gw"))
	}
	for i := 0; i < 64; i++ {
		ih.msg(w.bGen.next())
	}
}

func (w *joinWL) samples(seed int64, sz size) map[string][]wire.Message {
	if err := w.plan(seed, sz, 2*time.Second); err != nil {
		panic(err)
	}
	out := map[string][]wire.Message{}
	for i, ev := range w.events {
		if i == 64 {
			break
		}
		out["participate"] = append(out["participate"], ev.P.message("gw"))
		out["leave"] = append(out["leave"], &wire.Leave{UserID: ev.P.User, AppID: ev.P.App})
	}
	for i := 0; i < 8; i++ {
		out["batch"] = append(out["batch"], batchOf(w.bGen.batch(routedBatch)))
	}
	return out
}

// walOps joins the storm's first arrivals into populated apps, each
// followed by the leave of that app's longest-present member.
func (w *joinWL) walOps(seed int64, sz size) (prep, ops []wire.Message) {
	if err := w.plan(seed, sz, 2*time.Second); err != nil {
		panic(err)
	}
	initial := w.initial(seed, sz)
	for _, ps := range initial {
		for _, p := range ps {
			prep = append(prep, p.message("gw"))
		}
	}
	queue := initial // per app, members in join order
	for i, ev := range w.events {
		if i == 16 {
			break
		}
		leaver := queue[ev.App][0]
		queue[ev.App] = append(queue[ev.App][1:], ev.P)
		ops = append(ops, ev.P.message("gw"), &wire.Leave{UserID: leaver.User, AppID: leaver.App})
	}
	return prep, ops
}

func (w *joinWL) setup(e *env) error {
	if err := w.plan(e.o.seed, e.sz, e.phase.open); err != nil {
		return err
	}
	var err error
	if e.a, err = e.conns.stream(e.sys.ready.LeaderStream, e.token, e.o.seed); err != nil {
		return err
	}
	e.watchEvents(e.sz.joinBudget)
	if e.b, e.bt, err = e.conns.httpConn(e.sys.ready.RouterHTTP); err != nil {
		return err
	}
	rec := setupRecorder()
	ctx := context.Background()
	initial := w.initial(e.o.seed, e.sz)
	e.pop = make([][]string, len(w.apps))
	// Apps join in parallel, so WAL group commit batches their records;
	// within an app, members join one at a time, in a fixed order.
	var wg sync.WaitGroup
	for i := range w.apps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.participate(ctx, rec, "stream", classOther, time.Now(), e.a.Send, w.uploaders[i])
			for _, p := range initial[i] {
				if e.participate(ctx, rec, "stream", classOther, time.Now(), e.a.Send, p) {
					e.pop[i] = append(e.pop[i], p.User)
				}
			}
		}(i)
	}
	wg.Wait()
	if rec.failed > 0 {
		return fmt.Errorf("join_storm setup: %d participates failed: %v", rec.failed, rec.errs)
	}
	return nil
}

// joinLeave joins p into app, then makes the app's longest-present
// member leave, so populations stay steady. It returns the replans
// acked (0–2).
func (w *joinWL) joinLeave(e *env, app int, p participant, class string, due time.Time) int {
	ctx := context.Background()
	n := 0
	if e.participate(ctx, e.rec, "stream", class, due, e.a.Send, p) {
		n++
		w.popMu.Lock()
		e.pop[app] = append(e.pop[app], p.User)
		w.popMu.Unlock()
	}
	w.popMu.Lock()
	var leaver string
	if len(e.pop[app]) > e.sz.joinApps[app] {
		leaver = e.pop[app][0]
		e.pop[app] = e.pop[app][1:]
	}
	w.popMu.Unlock()
	if leaver == "" {
		return n
	}
	e.writes.Add(1)
	_, ok := e.rec.call(ctx, "stream", classOther, time.Now(), func(ctx context.Context) (wire.Message, error) {
		return e.a.Send(ctx, &wire.Leave{UserID: leaver, AppID: w.apps[app].ID})
	}, ackOK)
	if ok {
		e.acksOK.Add(1)
		n++
	}
	return n
}

func (w *joinWL) measure(e *env) error {
	ctx := context.Background()
	b := closedLoop(int(e.phase.open/e.sz.joinTrickleEvery), e.sz.joinTrickleEvery, func(i int, due time.Time) {
		w.bMu.Lock()
		ups := w.bGen.batch(routedBatch)
		w.bMu.Unlock()
		e.uploadBatch(ctx, e.rec, "routed", classBatch, due, e.b.Send, ups)
	})
	due := make([]time.Duration, len(w.events))
	for i, ev := range w.events {
		due[i] = ev.Due
	}
	openLoop(e.rec, time.Now(), due, e.phase.open, func(i int, at time.Time) {
		ev := w.events[i]
		class := classStream
		if ev.App == w.largest {
			class = classHeavy
		}
		w.joinLeave(e, ev.App, ev.P, class, at)
	})
	b.Wait()
	e.openDone()
	e.e2e["stream_max_rps"] = saturate(e.sz.joinWindow, e.phase.sat, func() int {
		k := int(w.satSeq.Add(1))
		app := k % len(w.apps)
		a := w.apps[app]
		p := participant{User: fmt.Sprintf("sat-%d-%d", e.o.seed, k), App: a.ID, Lat: a.Lat, Lon: a.Lon, Budget: e.sz.joinBudget}
		return w.joinLeave(e, app, p, classOther, time.Now())
	})
	return nil
}

func (w *joinWL) verify(e *env, st statsReply) {
	verifyIngest(e, st)
	replans := st.Metrics["leader"].Counters["sor_sched_replans_total"]
	if want := e.acksOK.Load(); replans != want {
		e.fail("leader replanned %d times for %d acked joins and leaves", replans, want)
	}
	if n := e.pushBudget.Load(); n > 0 {
		e.fail("%d pushed schedules exceed their budget", n)
	}
}

// sync waits until the replica has applied the leader's whole log.
func (e *env) sync() error {
	var r struct {
		OK  bool   `json:"ok"`
		Err string `json:"err"`
	}
	if err := e.sys.call(command{Op: "sync"}, &r); err != nil {
		return err
	}
	if !r.OK {
		return fmt.Errorf("replica did not catch up: %s", r.Err)
	}
	return nil
}
