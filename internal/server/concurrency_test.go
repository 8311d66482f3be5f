package server

// Race-enabled concurrency suite for the sharded hot path. These tests are
// only meaningful under `go test -race`: they pin down the invariants
// DESIGN.md's "Concurrency model" section claims — per-app shards never
// cross-contaminate, the data processor may drain while uploaders append,
// rank queries may read while ingest writes, and scheduler churn
// (join/upload/leave) is safe when interleaved arbitrarily.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sor/internal/schedule"
	"sor/internal/sim"
	"sor/internal/store"
	"sor/internal/wal"
	"sor/internal/wire"
	"sor/internal/world"
)

// concApp builds the i-th coffee-shop app at a distinct location so
// geofence checks pass only for its own joiners.
func concApp(i int) store.Application {
	return store.Application{
		ID:       fmt.Sprintf("conc-app-%d", i),
		Creator:  "conc",
		Category: world.CategoryCoffee,
		Place:    fmt.Sprintf("conc-place-%d", i),
		Lat:      43.0 + float64(i), Lon: -76.0,
		RadiusM:   500,
		Script:    testScript,
		PeriodSec: 10800,
	}
}

// concJoin joins a user to concApp(app) and returns the task ID.
func concJoin(t *testing.T, s *Server, app int, userID string) string {
	t.Helper()
	resp, err := s.Handler()(nil, &wire.Participate{
		UserID: userID, Token: "tok-" + userID,
		AppID:  fmt.Sprintf("conc-app-%d", app),
		Loc:    wire.Location{Lat: 43.0 + float64(app), Lon: -76.0},
		Budget: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ack := resp.(*wire.Ack)
	if !ack.OK {
		t.Fatalf("join %s refused: %s", userID, ack.Message)
	}
	inner, err := wire.Decode(ack.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return inner.(*wire.Schedule).TaskID
}

// concReport builds one small report carrying every coffee-shop sensor so
// repeated ingest eventually makes the place fully sensed (rankable).
func concReport(taskID, appID, userID string, at time.Time) *wire.DataUpload {
	ms := at.UnixMilli()
	series := make([]wire.SensorSeries, 0, 4)
	for _, sensor := range []string{"temperature", "light", "microphone", "wifi"} {
		series = append(series, wire.SensorSeries{
			Sensor: sensor,
			Samples: []wire.SensorSample{
				{AtUnixMilli: ms, WindowMilli: 5000, Readings: []float64{1, 2, 3}},
			},
		})
	}
	return &wire.DataUpload{TaskID: taskID, AppID: appID, UserID: userID, Series: series}
}

// TestConcurrentIngestAcrossApps drives parallel single-report uploaders
// over several apps while the data processor drains concurrently, then
// checks nothing was lost: every accepted report is either still pending
// or already processed.
func TestConcurrentIngestAcrossApps(t *testing.T) {
	const apps, usersPerApp, perUser = 4, 2, 40
	s, clock := newTestServer(t)
	for a := 0; a < apps; a++ {
		if err := s.CreateApp(concApp(a)); err != nil {
			t.Fatal(err)
		}
	}
	type uploader struct {
		app            int
		userID, taskID string
	}
	var ups []uploader
	for a := 0; a < apps; a++ {
		for u := 0; u < usersPerApp; u++ {
			userID := fmt.Sprintf("conc-u%d-%d", a, u)
			ups = append(ups, uploader{app: a, userID: userID, taskID: concJoin(t, s, a, userID)})
		}
	}
	h := s.Handler()
	stop := make(chan struct{})
	var drainerDone sync.WaitGroup
	drainerDone.Add(1)
	go func() { // the Data Processor racing the uploaders
		defer drainerDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Processor().Process()
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, len(ups))
	for _, up := range ups {
		wg.Add(1)
		go func(up uploader) {
			defer wg.Done()
			appID := fmt.Sprintf("conc-app-%d", up.app)
			for i := 0; i < perUser; i++ {
				at := clock.Now().Add(time.Duration(i) * 10 * time.Second)
				resp, err := h(nil, concReport(up.taskID, appID, up.userID, at))
				if err != nil {
					errs <- err
					return
				}
				if ack := resp.(*wire.Ack); !ack.OK {
					errs <- fmt.Errorf("upload refused: %s", ack.Message)
					return
				}
			}
		}(up)
	}
	wg.Wait()
	close(stop)
	drainerDone.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s.Processor().Process() // fold in any stragglers
	processed, decodeErrs := s.Processor().Stats()
	if decodeErrs != 0 {
		t.Fatalf("%d decode errors under concurrent ingest", decodeErrs)
	}
	want := apps * usersPerApp * perUser
	if got := processed + s.DB().PendingUploads(); got != want {
		t.Fatalf("reports lost: processed+pending = %d, want %d", got, want)
	}
}

// TestConcurrentBatchIngestMixedValidity sends concurrent batches that mix
// valid reports with forged ones (a valid task claimed by the wrong user)
// and checks the server accepts exactly the valid subset — the
// participation-check cache must not let one worker's forgery poison
// another worker's verification.
func TestConcurrentBatchIngestMixedValidity(t *testing.T) {
	const workers, batches, batchSize = 8, 20, 10
	s, clock := newTestServer(t)
	for a := 0; a < 2; a++ {
		if err := s.CreateApp(concApp(a)); err != nil {
			t.Fatal(err)
		}
	}
	taskA := concJoin(t, s, 0, "batch-alice")
	taskB := concJoin(t, s, 1, "batch-bob")
	h := s.Handler()
	var wg sync.WaitGroup
	var accepted atomic.Int64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < batches; n++ {
				batch := &wire.DataUploadBatch{}
				at := clock.Now().Add(time.Duration(w*batches+n) * 10 * time.Second)
				for i := 0; i < batchSize; i++ {
					up := concReport(taskA, "conc-app-0", "batch-alice", at)
					switch i % 3 {
					case 1: // valid report for the other app's task
						up = concReport(taskB, "conc-app-1", "batch-bob", at)
					case 2: // forged: bob claiming alice's task
						up = concReport(taskA, "conc-app-0", "batch-bob", at)
					}
					batch.Uploads = append(batch.Uploads, *up)
				}
				resp, err := h(nil, batch)
				if err != nil {
					errs <- err
					return
				}
				ack := resp.(*wire.Ack)
				if !ack.OK || ack.Code != 207 {
					errs <- fmt.Errorf("mixed batch: got code %d (%s), want 207", ack.Code, ack.Message)
					return
				}
				var got, total int
				if _, err := fmt.Sscanf(ack.Message, "stored %d/%d", &got, &total); err != nil {
					errs <- fmt.Errorf("unparseable batch ack %q", ack.Message)
					return
				}
				accepted.Add(int64(got))
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// 7 of every 10 reports are valid (i%3 != 2).
	wantAccepted := int64(workers * batches * 7)
	if accepted.Load() != wantAccepted {
		t.Fatalf("accepted %d reports, want %d", accepted.Load(), wantAccepted)
	}
	if pending := s.DB().PendingUploads(); int64(pending) != wantAccepted {
		t.Fatalf("%d uploads pending, want %d", pending, wantAccepted)
	}
}

// TestRankDuringIngest runs rank queries (which drain and recompute
// features) concurrently with single and batched uploaders. The readers
// must never observe torn state, and once ingest settles the category must
// rank with every joined place present.
func TestRankDuringIngest(t *testing.T) {
	const apps = 3
	s, clock := newTestServer(t)
	for a := 0; a < apps; a++ {
		if err := s.CreateApp(concApp(a)); err != nil {
			t.Fatal(err)
		}
	}
	tasks := make([]string, apps)
	for a := 0; a < apps; a++ {
		tasks[a] = concJoin(t, s, a, fmt.Sprintf("rank-u%d", a))
	}
	h := s.Handler()
	var wg sync.WaitGroup
	errs := make(chan error, apps+2)
	for a := 0; a < apps; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			appID := fmt.Sprintf("conc-app-%d", a)
			userID := fmt.Sprintf("rank-u%d", a)
			for i := 0; i < 30; i++ {
				at := clock.Now().Add(time.Duration(i) * 10 * time.Second)
				var msg wire.Message = concReport(tasks[a], appID, userID, at)
				if i%2 == 1 { // alternate single and batched ingest
					msg = &wire.DataUploadBatch{Uploads: []wire.DataUpload{
						*concReport(tasks[a], appID, userID, at),
						*concReport(tasks[a], appID, userID, at.Add(5*time.Second)),
					}}
				}
				resp, err := h(nil, msg)
				if err != nil {
					errs <- err
					return
				}
				if ack := resp.(*wire.Ack); !ack.OK {
					errs <- fmt.Errorf("ingest refused: %s", ack.Message)
					return
				}
			}
		}(a)
	}
	for r := 0; r < 2; r++ { // concurrent rankers
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				resp, err := h(nil, &wire.RankRequest{
					UserID: fmt.Sprintf("ranker-%d", r), Category: world.CategoryCoffee,
				})
				if err != nil {
					errs <- err
					return
				}
				// Early queries may legitimately refuse (no fully sensed
				// place yet); what matters is a well-formed response.
				switch m := resp.(type) {
				case *wire.RankResponse, *wire.Ack:
					_ = m
				default:
					errs <- fmt.Errorf("rank returned %s", resp.Type())
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// After the dust settles every place has all four features.
	resp, err := h(nil, &wire.RankRequest{UserID: "final", Category: world.CategoryCoffee})
	if err != nil {
		t.Fatal(err)
	}
	ranked, ok := resp.(*wire.RankResponse)
	if !ok {
		t.Fatalf("final rank refused: %+v", resp)
	}
	if len(ranked.Ranked) != apps {
		t.Fatalf("ranked %d places, want %d", len(ranked.Ranked), apps)
	}
}

// TestSnapshotEpochsUnderConcurrentIngest hammers the rank-serving
// snapshot layer: batched ingest keeps bumping dirty counters and
// triggering rebuilds while many rankers query. Each ranker asserts it
// never observes a torn matrix read — every response is internally
// consistent (row widths match the features header, places are distinct,
// values are finite) — and that the epoch tag is monotone non-decreasing
// from its point of view.
func TestSnapshotEpochsUnderConcurrentIngest(t *testing.T) {
	const apps, rankers, roundsPerRanker, batchesPerWriter = 3, 4, 25, 40
	s, clock := newTestServer(t)
	for a := 0; a < apps; a++ {
		if err := s.CreateApp(concApp(a)); err != nil {
			t.Fatal(err)
		}
	}
	tasks := make([]string, apps)
	for a := 0; a < apps; a++ {
		tasks[a] = concJoin(t, s, a, fmt.Sprintf("epoch-u%d", a))
	}
	h := s.Handler()
	// Seed every place so rankers get full responses from the start.
	for a := 0; a < apps; a++ {
		if _, err := h(nil, concReport(tasks[a], fmt.Sprintf("conc-app-%d", a),
			fmt.Sprintf("epoch-u%d", a), clock.Now())); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, apps+rankers)
	for a := 0; a < apps; a++ { // batched ingest writers
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			appID := fmt.Sprintf("conc-app-%d", a)
			userID := fmt.Sprintf("epoch-u%d", a)
			for i := 0; i < batchesPerWriter; i++ {
				at := clock.Now().Add(time.Duration(i) * 10 * time.Second)
				batch := &wire.DataUploadBatch{Uploads: []wire.DataUpload{
					*concReport(tasks[a], appID, userID, at),
					*concReport(tasks[a], appID, userID, at.Add(5*time.Second)),
				}}
				if _, err := h(nil, batch); err != nil {
					errs <- err
					return
				}
			}
		}(a)
	}
	for r := 0; r < rankers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastEpoch := int64(-1)
			for i := 0; i < roundsPerRanker; i++ {
				// Alternate bounded and unbounded queries so incremental
				// (column-merged) epochs serve the top-k path under fire.
				topK := 0
				if i%3 == 1 {
					topK = 1 + r%apps
				}
				resp, err := h(nil, &wire.RankRequest{
					UserID: fmt.Sprintf("epoch-ranker-%d", r), Category: world.CategoryCoffee,
					TopK: topK,
				})
				if err != nil {
					errs <- err
					return
				}
				ranked, ok := resp.(*wire.RankResponse)
				if !ok {
					errs <- fmt.Errorf("rank refused mid-ingest: %+v", resp)
					return
				}
				if ranked.Epoch < lastEpoch {
					errs <- fmt.Errorf("epoch regressed %d -> %d", lastEpoch, ranked.Epoch)
					return
				}
				lastEpoch = ranked.Epoch
				if topK > 0 && len(ranked.Ranked) > topK {
					errs <- fmt.Errorf("TopK=%d returned %d places", topK, len(ranked.Ranked))
					return
				}
				seen := make(map[string]bool, len(ranked.Ranked))
				for _, row := range ranked.Ranked {
					if len(row.FeatureValues) != len(ranked.Features) {
						errs <- fmt.Errorf("torn row: %d values for %d features",
							len(row.FeatureValues), len(ranked.Features))
						return
					}
					for _, v := range row.FeatureValues {
						// A freed or torn column arena would surface as
						// garbage here; every served value must be finite.
						if math.IsNaN(v) || math.IsInf(v, 0) {
							errs <- fmt.Errorf("non-finite feature value %v for %s", v, row.Place)
							return
						}
					}
					if seen[row.Place] {
						errs <- fmt.Errorf("place %s ranked twice", row.Place)
						return
					}
					seen[row.Place] = true
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Coherence epilogue: with ingest quiesced, one more rank folds
	// everything and serves all places.
	s.Processor().Process()
	resp, err := h(nil, &wire.RankRequest{UserID: "epoch-final", Category: world.CategoryCoffee})
	if err != nil {
		t.Fatal(err)
	}
	ranked, ok := resp.(*wire.RankResponse)
	if !ok {
		t.Fatalf("final rank refused: %+v", resp)
	}
	if len(ranked.Ranked) != apps {
		t.Fatalf("ranked %d places, want %d", len(ranked.Ranked), apps)
	}
	// Quiesced coherence for the bounded path: the top-1 prefix of the
	// final (possibly column-merged) snapshot must agree with the full
	// ranking it aliases.
	bounded, err := h(nil, &wire.RankRequest{UserID: "epoch-final", Category: world.CategoryCoffee, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := bounded.(*wire.RankResponse)
	if len(b.Ranked) != 1 || b.Ranked[0].Place != ranked.Ranked[0].Place {
		t.Fatalf("bounded top-1 %+v disagrees with full leader %s", b.Ranked, ranked.Ranked[0].Place)
	}
}

// TestSchedulerChurnUnderVirtualClock interleaves bursty join/upload/leave
// traffic for one app while a driver advances the virtual clock — the
// field-test pattern of clusters of users arriving together. Every replan,
// budget decrement, and schedule redistribution runs concurrently; the
// test asserts all participants end the period finished with data stored.
func TestSchedulerChurnUnderVirtualClock(t *testing.T) {
	s, clock := newTestServer(t)
	if err := s.CreateApp(concApp(0)); err != nil {
		t.Fatal(err)
	}
	parts, err := sim.DrawBurstyParticipants(rand.New(rand.NewSource(42)), sim.BurstConfig{
		Users: 24, Bursts: 4, Budget: 6,
	}, t0)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	stop := make(chan struct{})
	var driver sync.WaitGroup
	driver.Add(1)
	go func() { // clock driver: 30 virtual seconds per tick
		defer driver.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clock.Set(clock.Now().Add(30 * time.Second))
				time.Sleep(time.Millisecond)
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, len(parts))
	for _, p := range parts {
		wg.Add(1)
		go func(p schedule.Participant) {
			defer wg.Done()
			errs <- func() error {
				for clock.Now().Before(p.Arrive) { // wait out the virtual clock
					time.Sleep(time.Millisecond)
				}
				resp, err := h(nil, &wire.Participate{
					UserID: p.UserID, Token: "tok-" + p.UserID,
					AppID:  "conc-app-0",
					Loc:    wire.Location{Lat: 43.0, Lon: -76.0},
					Budget: p.Budget,
				})
				if err != nil {
					return err
				}
				ack := resp.(*wire.Ack)
				if !ack.OK {
					return fmt.Errorf("churn join %s refused: %s", p.UserID, ack.Message)
				}
				inner, err := wire.Decode(ack.Payload)
				if err != nil {
					return err
				}
				taskID := inner.(*wire.Schedule).TaskID
				for i := 0; i < 3; i++ {
					at := clock.Now()
					resp, err := h(nil, concReport(taskID, "conc-app-0", p.UserID, at))
					if err != nil {
						return err
					}
					if ack := resp.(*wire.Ack); !ack.OK {
						return fmt.Errorf("churn upload %s refused: %s", p.UserID, ack.Message)
					}
				}
				resp, err = h(nil, &wire.Leave{UserID: p.UserID, AppID: "conc-app-0"})
				if err != nil {
					return err
				}
				if ack := resp.(*wire.Ack); !ack.OK {
					return fmt.Errorf("churn leave %s refused: %s", p.UserID, ack.Message)
				}
				return nil
			}()
		}(p)
	}
	wg.Wait()
	close(stop)
	driver.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	finished := 0
	for _, row := range s.DB().ParticipationsByApp("conc-app-0") {
		if row.Status == store.TaskFinished {
			finished++
		}
	}
	if finished != len(parts) {
		t.Fatalf("%d participants finished, want %d", finished, len(parts))
	}
	if got := s.DB().PendingUploads(); got != 3*len(parts) {
		t.Fatalf("%d uploads pending, want %d", got, 3*len(parts))
	}
}

// TestConcurrentJoinsStoreNewestPlan is the stale-plan regression:
// Online.Join serialises the greedy, but distribution runs after the
// scheduler's lock is released, so concurrent participates on one
// durable app could store their plans' rows in any order and leave rows
// of an older plan behind. After every join returns, each active user's
// stored row must equal the newest plan's assignment.
func TestConcurrentJoinsStoreNewestPlan(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		s, err := New(Config{
			Storage: store.NewDurableBackend(t.TempDir(), store.WithWALSync(wal.SyncGrouped)),
			Now:     (&virtualClock{now: t0}).Now,
			Catalog: DefaultCatalog(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		if err := s.CreateApp(starbucksApp()); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for u := 0; u < 12; u++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				user := fmt.Sprintf("joiner-%02d", u)
				resp, err := s.Handler()(nil, &wire.Participate{
					UserID: user, Token: "tok-" + user, AppID: "app-sb",
					Loc:    wire.Location{Lat: 43.0413, Lon: -76.1350},
					Budget: 3 + u%5,
				})
				if err != nil {
					t.Errorf("join %s: %v", user, err)
				} else if ack := resp.(*wire.Ack); !ack.OK {
					t.Errorf("join %s refused: %s", user, ack.Message)
				}
			}(u)
		}
		wg.Wait()
		plan, err := s.PlanSnapshot("app-sb")
		if err != nil {
			t.Fatal(err)
		}
		tl := s.states.get("app-sb").timeline
		for user, a := range plan.Assignments {
			p, err := s.DB().ActiveParticipationByUser("app-sb", user)
			if err != nil {
				t.Fatal(err)
			}
			row, err := s.DB().Schedule(p.TaskID)
			if err != nil {
				t.Fatal(err)
			}
			var want []int64
			for _, at := range a.Times(tl) {
				want = append(want, at.Unix())
			}
			if !slices.Equal(row.AtUnix, want) {
				t.Fatalf("trial %d: %s stored %v, newest plan (seq %d) assigns %v",
					trial, user, row.AtUnix, plan.Seq, want)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStalePlanDroppedOutOfOrder pins the ordering rule the concurrent
// test above exercises by chance: when two plans of one app reach
// distribution newest first, the older one must not overwrite the rows
// the newer one stored.
func TestStalePlanDroppedOutOfOrder(t *testing.T) {
	s, clock := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	participate(t, s, "alice", "tok-a", 4)
	participate(t, s, "bob", "tok-b", 4)
	st := s.states.get("app-sb")
	st.mu.Lock()
	st.taskOf["carol"], st.tokenOf["carol"] = "task-carol", "tok-c"
	st.mu.Unlock()
	older, err := st.online.Join(clock.Now(), schedule.Participant{
		UserID: "carol", Arrive: clock.Now(), Leave: st.timeline.End(), Budget: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	newer, err := st.online.Leave(clock.Now(), "carol")
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*schedule.Plan{newer, older} {
		if err := s.distributePlan(starbucksApp(), st, plan); err != nil {
			t.Fatal(err)
		}
	}
	for _, user := range []string{"alice", "bob"} {
		p, err := s.DB().ActiveParticipationByUser("app-sb", user)
		if err != nil {
			t.Fatal(err)
		}
		row, err := s.DB().Schedule(p.TaskID)
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for _, at := range newer.Assignments[user].Times(st.timeline) {
			want = append(want, at.Unix())
		}
		if !slices.Equal(row.AtUnix, want) {
			t.Fatalf("%s stored %v, newest plan assigns %v", user, row.AtUnix, want)
		}
	}
	if _, err := s.DB().Schedule("task-carol"); err == nil {
		t.Fatal("the dropped plan stored a row for carol")
	}
}
