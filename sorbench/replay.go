package main

// Replays: layers with no entry point reachable from outside the deployed
// shape are timed by calling their public functions on the workload's
// own generated inputs, single-threaded, in the generator process (wire,
// wal, schedule) or in the deployed shape on its live matrices (ranking,
// rankagg, mcmf). Allocation and byte counts from these replays repeat
// exactly run to run.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sor"
	"sor/internal/coverage"
	"sor/internal/rankagg"
	"sor/internal/ranking"
	"sor/internal/schedule"
	"sor/internal/sim"
	"sor/internal/wal"
	"sor/internal/wire"
)

// scheduleCurve are the populations the replan-cost curve is timed at:
// the users-per-app sweep of the paper's Fig. 14(a), 10 to 55.
var scheduleCurve = []int{10, 25, 40, 55}

// placeholderTask stands in for server-assigned task IDs in replays.
const placeholderTask = "task-100000"

// replayWire times encode and decode of every message type the workload
// sends, and counts their allocations and allocated bytes per message.
func replayWire(o options, vals map[string]float64) {
	samples := workloadFor(o.workload).samples(o.seed, o.size())
	for t, ms := range samples {
		if len(ms) == 0 {
			continue
		}
		n := 4000 / len(ms) * len(ms)
		if n == 0 {
			n = len(ms)
		}
		bodies := make([][]byte, len(ms))
		ns, allocs, bytes := measure(n, func(i int) {
			b, err := wire.Encode(ms[i%len(ms)])
			if err != nil {
				panic(err)
			}
			bodies[i%len(ms)] = b
		})
		vals["wire.encode_ns."+t], vals["wire.encode_allocs."+t], vals["wire.encode_bytes."+t] = ns, allocs, bytes
		ns, allocs, bytes = measure(n, func(i int) {
			if _, err := wire.Decode(bodies[i%len(ms)]); err != nil {
				panic(err)
			}
		})
		vals["wire.decode_ns."+t], vals["wire.decode_allocs."+t], vals["wire.decode_bytes."+t] = ns, allocs, bytes
	}
	if bs := samples["batch"]; len(bs) > 0 {
		b, _ := wire.Encode(bs[0])
		vals["wire.bytes_per_report"] = float64(len(b)) / float64(len(bs[0].(*wire.DataUploadBatch).Uploads))
	}
}

// measure runs op n times and returns ns, allocations and allocated
// bytes per call.
func measure(n int, op func(i int)) (float64, float64, float64) {
	op(0) // warm
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	dt := time.Since(t0)
	runtime.ReadMemStats(&m1)
	// Counts are rounded to a tenth: a stray runtime allocation during
	// the loop must not read as a codec change.
	return float64(dt.Nanoseconds()) / float64(n),
		math.Round(float64(m1.Mallocs-m0.Mallocs)/float64(n)*10) / 10,
		math.Round(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n)*10) / 10
}

// replaySchedule times schedule.Online joins on DrawBurstyParticipants
// arrivals as the population grows, giving the replan-cost curve and
// the schedule rows each replan rewrites (join_storm only).
func replaySchedule(o options, vals map[string]float64) {
	if o.workload != "join_storm" {
		return
	}
	sz := o.size()
	start := time.Unix(0, 0).UTC()
	period := time.Duration(sz.joinPeriodSec) * time.Second
	tl, err := coverage.NewTimeline(start, 10*time.Second, sz.joinPeriodSec/10+1)
	if err != nil {
		panic(err)
	}
	sched, err := schedule.NewScheduler(tl, coverage.GaussianKernel{Sigma: 10}, schedule.WithLazyGreedy())
	if err != nil {
		panic(err)
	}
	online, err := schedule.NewOnline(sched)
	if err != nil {
		panic(err)
	}
	maxN := scheduleCurve[len(scheduleCurve)-1]
	parts, err := sim.DrawBurstyParticipants(streamRNG(o.seed, "curve"), sim.BurstConfig{
		Users: maxN + 1, Bursts: 8, Spread: 3 * time.Minute, Period: period, Budget: sz.joinBudget,
	}, start)
	if err != nil {
		panic(err)
	}
	ms := make([]float64, len(parts)+1) // replan ms at population i
	rows := make([]float64, len(parts)+1)
	for i, p := range parts {
		t0 := time.Now()
		plan, err := online.Join(start, p)
		if err != nil {
			panic(err)
		}
		ms[i+1] = float64(time.Since(t0)) / 1e6
		rows[i+1] = float64(len(plan.Assignments))
	}
	for _, n := range scheduleCurve {
		vals[fmt.Sprintf("schedule.replan_ms.n%d", n)] = median(ms[n-1 : n+2])
	}
	var sum float64
	for _, n := range sz.joinApps {
		sum += rows[n]
	}
	vals["schedule.rows_written_per_replan"] = sum / float64(len(sz.joinApps))
}

// replayWAL measures, on a durable in-process server fed the workload's
// own A-stream messages one at a time, the WAL bytes each logs; then the
// commit wait of a grouped-sync log appending records of that size.
func replayWAL(o options, vals map[string]float64) error {
	dir := filepath.Join(o.work, "replay", fmt.Sprint(os.Getpid()))
	defer os.RemoveAll(dir)
	obsv := sor.NewObserver()
	srv, err := sor.NewServer(
		sor.WithStorage(sor.Durable(filepath.Join(dir, "node"), sor.WithWALSync(sor.WALSyncGrouped), sor.WithStorageMetrics(obsv.Metrics()))),
		sor.WithCatalog(benchCatalog()), sor.WithObserver(obsv))
	if err != nil {
		return err
	}
	if err := srv.Open(); err != nil {
		return err
	}
	defer srv.Close()
	prep, ops := workloadFor(o.workload).walOps(o.seed, o.size())
	for _, a := range appsForReplay(o) {
		if err := srv.CreateApp(sor.Application{ID: a.ID, Creator: "sorbench", Category: a.Category, Place: a.Place,
			Lat: a.Lat, Lon: a.Lon, RadiusM: 500, Script: "return 1", PeriodSec: a.PeriodSec}); err != nil {
			return err
		}
	}
	h := srv.Handler()
	tasks := map[string]string{}
	send := func(m wire.Message) error {
		if u, ok := m.(*wire.DataUpload); ok {
			u.TaskID = tasks[u.UserID]
		}
		resp, err := h(context.Background(), m)
		if err != nil {
			return err
		}
		if ack, ok := resp.(*wire.Ack); ok {
			if !ack.OK {
				return refusal{ack}
			}
			if len(ack.Payload) > 0 {
				if inner, err := wire.Decode(ack.Payload); err == nil {
					if s, ok := inner.(*wire.Schedule); ok {
						tasks[s.UserID] = s.TaskID
					}
				}
			}
		}
		return nil
	}
	for _, m := range prep {
		if err := send(m); err != nil {
			return fmt.Errorf("wal replay setup: %w", err)
		}
	}
	bytes0 := obsv.Metrics().Counter("sor_wal_append_bytes_total").Value()
	for _, m := range ops {
		if err := send(m); err != nil {
			return fmt.Errorf("wal replay: %w", err)
		}
	}
	per := 0.0
	if len(ops) > 0 {
		per = float64(obsv.Metrics().Counter("sor_wal_append_bytes_total").Value()-bytes0) / float64(len(ops))
	}
	vals["wal.bytes_per_op"] = per

	log, err := wal.Open(filepath.Join(dir, "commit"), wal.Options{Sync: wal.SyncGrouped})
	if err != nil {
		return err
	}
	defer log.Close()
	payload := make([]byte, int(math.Max(per, 64)))
	var waits []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := log.Append(payload); err != nil {
			return err
		}
		waits = append(waits, float64(time.Since(t0))/1e3)
	}
	vals["wal.commit_wait_us"] = median(waits)
	return nil
}

// appsForReplay is the app set the WAL replay registers: the workload's
// own, except that rank replays only its small category.
func appsForReplay(o options) []appDef {
	apps := appsFor(o.workload, o.size())
	if o.workload == "rank" {
		return nil
	}
	return apps
}

// replayRank times the rank layers on the replica's live matrices: the
// columnar top-k (with its prefix walk's solved share), a delta merge of
// dirty rows, and the min-cost-flow footrule aggregation of the deep
// profiles.
func replayRank(sh *shape, o options) map[string]float64 {
	out := map[string]float64{}
	if o.workload != "rank" {
		return out
	}
	sz := o.size()
	big, err := sh.replica.FeatureMatrix(catBig)
	if err != nil {
		return out
	}
	deep, err := sh.replica.FeatureMatrix(catDeep)
	if err != nil {
		return out
	}
	crBig, err := ranking.NewColumnarRanker(big)
	if err != nil {
		return out
	}
	near := newNearProfiles(o.seed, sz.nearProfiles)
	var ts, solved []float64
	for i := 0; i < 64 && i < len(near.profiles); i++ {
		prof := toProfile(near.profiles[i])
		t0 := time.Now()
		res, err := crBig.RankTopK(prof, 10, nil)
		if err != nil {
			continue
		}
		ts = append(ts, float64(time.Since(t0))/1e3)
		solved = append(solved, float64(res.Solved)/10)
	}
	out["ranking.topk_us"] = median(ts)
	out["rankagg.solved_per_k.near"] = mean(solved)

	crDeep, err := ranking.NewColumnarRanker(deep)
	if err != nil {
		return out
	}
	rDeep, err := ranking.NewRanker(deep)
	if err != nil {
		return out
	}
	dr := streamRNG(o.seed, "deep-replay")
	solved, ts = nil, nil
	for i := 0; i < 16; i++ {
		prof := toProfile(deepProfile(dr))
		if res, err := crDeep.RankTopK(prof, 10, nil); err == nil {
			solved = append(solved, float64(res.Solved)/10)
		}
		// The min-cost-flow footrule aggregation of the per-feature
		// orders the row ranker derives for this profile.
		res, err := rDeep.Rank(prof)
		if err != nil {
			continue
		}
		c := rankagg.Collection{}
		for _, f := range deep.Features {
			c.Rankings = append(c.Rankings, res.Individual[f.Name])
			c.Weights = append(c.Weights, float64(res.Weights[f.Name]))
		}
		t0 := time.Now()
		if _, _, err := rankagg.FootruleAggregate(c); err == nil {
			ts = append(ts, float64(time.Since(t0))/1e3)
		}
	}
	out["rankagg.solved_per_k.deep"] = mean(solved)
	out["mcmf.solve_us"] = median(ts)

	// Delta merge: 32 dirty rows nudged, as a fold of fresh uploads would.
	const dirty = 32
	m2 := &ranking.Matrix{Places: big.Places, Features: big.Features, Values: make([][]float64, len(big.Values))}
	copy(m2.Values, big.Values)
	rows := make([]int, dirty)
	for i := range rows {
		rows[i] = (i * 7919) % len(big.Values)
		v := append([]float64(nil), big.Values[rows[i]]...)
		for j := range v {
			v[j] *= 1.001
		}
		m2.Values[rows[i]] = v
	}
	sort.Ints(rows)
	var merges []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		if _, err := crBig.Merge(m2, rows); err != nil {
			break
		}
		merges = append(merges, float64(time.Since(t0))/1e3/dirty)
	}
	out["ranking.merge_us_per_dirty_row"] = median(merges)
	return out
}

func toProfile(prefs []wire.PrefEntry) sor.Profile {
	p := sor.Profile{Name: "replay", Prefs: map[string]sor.Preference{}}
	for _, e := range prefs {
		p.Prefs[e.Feature] = sor.Preference{Kind: ranking.PrefKind(e.Kind), Value: e.Value, Weight: e.Weight}
	}
	return p
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
