package main

// The traced run and its per-layer ledger. Span self times come from
// joining the generator's client timings with the spans the traced
// assembly wrapped around every handler, router forward and follower
// pull; counters are deltas of the nodes' /debug/metrics snapshots over
// the measured phase; layers with no entry point reachable from outside
// (wire, wal, ranking, rankagg, mcmf, schedule) are replayed through
// their public functions on the workload's own generated inputs.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// layerUnits lists the per-layer metrics in report order.
var layerUnits = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, t := range wireTypes {
		add("ns", "wire.encode_ns."+t, "wire.decode_ns."+t)
		add("count", "wire.encode_allocs."+t, "wire.decode_allocs."+t)
		add("B", "wire.encode_bytes."+t, "wire.decode_bytes."+t)
	}
	add("B", "wire.bytes_per_report")
	add("us", "session.rtt_self_us")
	add("count", "session.pushes", "session.push_dropped", "session.reconnects")
	add("us", "http.rtt_self_us", "cluster.router_self_us", "cluster.forward_self_us")
	add("count", "cluster.forwards", "cluster.route_retries")
	for _, t := range []string{"upload", "batch", "rank", "participate", "leave"} {
		add("us", "server.handler_self_us."+t)
	}
	add("count", "server.refusals")
	add("us", "store.dedup_us")
	add("count", "store.duplicates")
	add("B", "wal.bytes_per_op")
	add("count", "wal.records_per_fsync")
	add("1/s", "wal.fsyncs_per_s")
	add("us", "wal.commit_wait_us")
	add("us", "replica.pull_rtt_us")
	add("count", "replica.records_per_pull", "replica.lag_records_p99")
	add("us", "processor.fold_us_per_upload")
	add("count", "processor.uploads_folded")
	add("count", "snapshot.rebuilds", "snapshot.delta_rebuilds", "snapshot.rearms")
	add("ms", "snapshot.rebuild_ms_p50")
	add("ratio", "rankcache.hit_ratio")
	add("us", "ranking.merge_us_per_dirty_row", "ranking.topk_us")
	add("ratio", "rankagg.solved_per_k.near", "rankagg.solved_per_k.deep")
	add("us", "mcmf.solve_us")
	add("ratio", "mcmf.warm_block_ratio")
	for _, n := range scheduleCurve {
		add("ms", fmt.Sprintf("schedule.replan_ms.n%d", n))
	}
	add("count", "schedule.replans", "schedule.joins_leaves", "schedule.rows_written_per_replan")
	for _, p := range ledgerParts {
		add("us", "ledger."+p)
	}
	add("us", "unattributed_us.stream", "unattributed_us.routed")
	// The untraced reference run's end-to-end figures that are not gated
	// (main.go's ungatedUnits), kept here without a bound.
	for _, m := range ungatedUnits {
		add(m.unit, "e2e."+m.name)
	}
	add("%", "obs.trace_overhead_pct")
	add("ms", "gen.late_p99_ms")
	add("count", "gen.max_conns")
	return out
}()

// ledgerParts are the per-call means that decompose the two timed paths:
// for each, e2e_us is the client-observed latency from the due time, and
// the other parts plus unattributed_us.<path> add up to it exactly.
var ledgerParts = []string{
	"stream.e2e_us", "stream.session_self_us", "stream.handler_self_us", "stream.dedup_us",
	"routed.e2e_us", "routed.http_self_us", "routed.router_self_us", "routed.forward_self_us", "routed.handler_self_us",
}

// wireTypes are the message types the workloads send.
var wireTypes = []string{"upload", "batch", "rank", "participate", "leave"}

// memberTypes maps wire type names onto ledger type names.
var memberTypes = map[string]string{
	"data-upload": "upload", "data-upload-batch": "batch", "rank-request": "rank",
	"participate": "participate", "leave": "leave",
}

func tracedMain(o options) (result, error) {
	// An untraced run first, for the tracing overhead.
	base, err := runWorkload(o, false, 1)
	if err != nil {
		return result{}, err
	}
	run, err := runWorkload(o, true, 1)
	if err != nil {
		return result{}, err
	}
	vals := map[string]float64{}
	run.ledger(vals)
	run.counters(vals)
	for k, v := range run.replay {
		vals[k] = v
	}
	replayWire(o, vals)
	replaySchedule(o, vals)
	if err := replayWAL(o, vals); err != nil {
		return result{}, err
	}
	if b := median(base.stream()); b > 0 {
		vals["obs.trace_overhead_pct"] = (median(run.stream()) - b) / b * 100
	}
	for k, v := range base.e2eValues() {
		vals["e2e."+k] = v
	}
	late := append([]float64(nil), base.e.rec.late...)
	sort.Float64s(late)
	vals["gen.late_p99_ms"] = percentile(late, 0.99)
	vals["gen.max_conns"] = float64(max(base.e.conns.peak(), run.e.conns.peak()))

	res := result{
		Correct:   len(base.e.checks) == 0 && len(run.e.checks) == 0,
		Attempted: base.e.rec.attempted + run.e.rec.attempted,
		Failed:    base.e.rec.failed + run.e.rec.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Printf("per-layer ledger (%s, traced run; spans: %d wrapped + %d tracer)\n", o.workload, len(run.spans)-run.stats.TracerSpans, run.stats.TracerSpans)
	for _, m := range layerUnits {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		fmt.Printf("  %-36s %14.3f %s\n", m.name, vals[m.name], m.unit)
	}
	return res, nil
}

// readSpans loads the traced run's span file.
func readSpans(path string) ([]spanRec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []spanRec
	return recs, json.Unmarshal(b, &recs)
}

// ledger joins client timings with spans into per-layer self times.
func (r *runOut) ledger(vals map[string]float64) {
	byReq := map[string][]spanRec{}
	var pulls []float64
	handler := map[string][]float64{}
	var dedup []float64
	for _, s := range r.spans {
		switch {
		case s.Name == "pull":
			pulls = append(pulls, us(s.Dur))
		case s.Name == "server.dedup":
			dedup = append(dedup, us(s.Dur))
		}
		if s.Req != "" {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	find := func(req, node, name string) (spanRec, bool) {
		for _, s := range byReq[req] {
			if s.Node == node && s.Name == name {
				return s, true
			}
		}
		return spanRec{}, false
	}
	member := "leader"
	if r.e.o.workload == "rank" {
		member = "replica"
	}
	// chain sums each part of every main-class call per path; what no
	// span covers is unattributed (mostly the generator's queueing from
	// the due time to the send).
	chain := map[string]float64{}
	calls := map[string]float64{}
	var sSelf, rHTTP, rRouter, rFwd []float64
	for _, op := range r.e.rec.ops {
		e2e, rtt := us(op.Done-op.Due), us(op.Done-op.Sent)
		switch op.Path {
		case "stream":
			h, ok := find(op.Req, member, "handler")
			if !ok {
				continue
			}
			var dd float64
			if d, ok := find(op.Req, member, "server.dedup"); ok {
				dd = us(d.Dur)
			}
			t := memberTypes[h.Type]
			handler[t] = append(handler[t], us(h.Dur)-dd)
			if op.Class == classStream {
				sSelf = append(sSelf, rtt-us(h.Dur))
				calls["stream"]++
				chain["stream.e2e_us"] += e2e
				chain["stream.session_self_us"] += rtt - us(h.Dur)
				chain["stream.handler_self_us"] += us(h.Dur) - dd
				chain["stream.dedup_us"] += dd
			}
		case "routed":
			x, ok1 := find(op.Req, "router", "handler")
			f, ok2 := find(op.Req, "router", "forward")
			h, ok3 := find(op.Req, "leader", "handler")
			if !ok1 || !ok2 || !ok3 {
				continue
			}
			t := memberTypes[h.Type]
			handler[t] = append(handler[t], us(h.Dur))
			rHTTP = append(rHTTP, rtt-us(x.Dur))
			rRouter = append(rRouter, us(x.Dur-f.Dur))
			rFwd = append(rFwd, us(f.Dur-h.Dur))
			if op.Class == classBatch {
				calls["routed"]++
				chain["routed.e2e_us"] += e2e
				chain["routed.http_self_us"] += rtt - us(x.Dur)
				chain["routed.router_self_us"] += us(x.Dur - f.Dur)
				chain["routed.forward_self_us"] += us(f.Dur - h.Dur)
				chain["routed.handler_self_us"] += us(h.Dur)
			}
		}
	}
	for t, xs := range handler {
		if t != "" {
			vals["server.handler_self_us."+t] = median(xs)
		}
	}
	vals["store.dedup_us"] = median(dedup)
	vals["replica.pull_rtt_us"] = median(pulls)
	vals["session.rtt_self_us"] = median(sSelf)
	vals["http.rtt_self_us"] = median(rHTTP)
	vals["cluster.router_self_us"] = median(rRouter)
	vals["cluster.forward_self_us"] = median(rFwd)
	for _, path := range []string{"stream", "routed"} {
		if calls[path] == 0 {
			continue
		}
		rest := chain[path+".e2e_us"]
		for _, p := range ledgerParts {
			if strings.HasPrefix(p, path+".") {
				vals["ledger."+p] = chain[p] / calls[path]
				if p != path+".e2e_us" {
					rest -= chain[p]
				}
			}
		}
		vals["unattributed_us."+path] = rest / calls[path]
	}
	if n := len(pulls); n > 0 {
		vals["replica.records_per_pull"] = r.delta("replica", "sor_replica_applied_records_total") / float64(n)
	}
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// delta is a counter's growth on node over the measured phase.
func (r *runOut) delta(node, series string) float64 {
	return float64(r.stats.Metrics[node].Counters[series] - r.e.start.Metrics[node].Counters[series])
}

func (r *runOut) deltaAll(series string) float64 {
	return r.delta("leader", series) + r.delta("replica", series) + r.delta("router", series)
}

// counters fills the metrics read from the nodes' counters.
func (r *runOut) counters(vals map[string]float64) {
	secs := r.e.o.seconds
	vals["session.pushes"] = r.deltaAll("sor_session_pushes_total")
	vals["session.push_dropped"] = r.deltaAll("sor_session_push_dropped_total")
	vals["session.reconnects"] = float64(r.reconnects)
	for k := range r.stats.Metrics["router"].Counters {
		if strings.HasPrefix(k, "sor_cluster_routed_total") {
			vals["cluster.forwards"] += r.delta("router", k)
		}
	}
	vals["cluster.route_retries"] = r.delta("router", "sor_cluster_route_retries_total")
	vals["server.refusals"] = float64(r.e.rec.refusals)
	vals["store.duplicates"] = r.delta("leader", "sor_ingest_duplicate_total")
	if f := r.delta("leader", "sor_wal_fsyncs_total"); f > 0 {
		vals["wal.records_per_fsync"] = r.delta("leader", "sor_wal_appends_total") / f
		vals["wal.fsyncs_per_s"] = f / secs
	}
	lagRecs := append([]float64(nil), r.stats.LagRecords...)
	sort.Float64s(lagRecs)
	vals["replica.lag_records_p99"] = percentile(lagRecs, 0.99)
	folded := r.delta("leader", "sor_processor_uploads_total")
	vals["processor.uploads_folded"] = folded
	if folded > 0 {
		h0, h1 := r.e.start.Metrics["leader"].Histograms["sor_processor_process_ms"], r.stats.Metrics["leader"].Histograms["sor_processor_process_ms"]
		vals["processor.fold_us_per_upload"] = (h1.Mean*float64(h1.Count) - h0.Mean*float64(h0.Count)) * 1e3 / folded
	}
	vals["snapshot.rebuilds"] = r.deltaAll("sor_snapshot_rebuilds_total")
	vals["snapshot.delta_rebuilds"] = r.deltaAll("sor_snapshot_delta_rebuilds_total")
	vals["snapshot.rearms"] = r.deltaAll("sor_snapshot_rearms_total")
	vals["snapshot.rebuild_ms_p50"] = r.stats.Metrics["replica"].Histograms["sor_snapshot_rebuild_ms"].P50
	hits, misses := r.deltaAll("sor_rank_cache_hits_total"), r.deltaAll("sor_rank_cache_misses_total")
	if hits+misses > 0 {
		vals["rankcache.hit_ratio"] = hits / (hits + misses)
	}
	if misses > 0 {
		vals["mcmf.warm_block_ratio"] = r.deltaAll("sor_rank_warm_blocks_total") / misses
	}
	vals["schedule.replans"] = r.delta("leader", "sor_sched_replans_total")
	vals["schedule.joins_leaves"] = float64(r.joinsLeaves)
}
