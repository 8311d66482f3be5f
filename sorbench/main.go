// Command sorbench is the repository's end-to-end benchmark. It starts
// the deployed shape (a durable WALSyncGrouped leader, a WAL-shipped
// replica and a single-shard cluster router) in a child process, drives
// it over loopback TCP through at most two connections — one multiplexed
// device stream (A) and one keep-alive HTTP/1.1 connection to the router
// (B) — checks the outputs, and prints one JSON result line:
//
//	sorbench -workload ingest|rank|join_storm -seed N -seconds S -trace 0|1
//
// -trace 0 reports the end-to-end metrics; -trace 1 runs the traced
// assembly and reports the per-layer ledger. See README.md.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "sorbench serve:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain(os.Args[1:]))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits lists the end-to-end metrics the result line carries: the
// ones BENCHMARK.json bounds. The two byte counts do not depend on how
// fast the shared host runs; setup_s is wall time, bounded because
// work moved into set-up must show.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wal_bytes_per_write", "B"},
	{"wire_bytes_per_call", "B"},
}

// ungatedUnits are measured and printed on every run, and carried by the
// traced ledger as e2e.*, but left out of the result line: the host's
// CPU switches between a fast and a ~35% slower mode for stretches that
// can outlast a run, so over ten seeds none of them repeated within a
// tenth (see README.md), and none gets a bound.
var ungatedUnits = []struct{ name, unit string }{
	{"peak_rss_mb", "MB"},
	{"cpu_us_per_call", "us"},
	{"stream_p50_ms", "ms"},
	{"stream_p99_ms", "ms"},
	{"stream_max_rps", "1/s"},
	{"heavy_p50_ms", "ms"},
	{"routed_batch_p50_ms", "ms"},
	{"repl_lag_p50_ms", "ms"},
	{"repl_lag_p99_ms", "ms"},
}

// workloadNames maps each generic stream metric to its per-workload name.
var workloadNames = map[string]map[string]string{
	"ingest":     {"stream_p50_ms": "upload_p50_ms", "stream_p99_ms": "upload_p99_ms", "stream_max_rps": "upload_max_rps", "heavy_p50_ms": "upload_batch_p50_ms"},
	"rank":       {"stream_p50_ms": "rank_p50_ms", "stream_p99_ms": "rank_p99_ms", "stream_max_rps": "rank_max_qps", "heavy_p50_ms": "rank_deep_p50_ms"},
	"join_storm": {"stream_p50_ms": "join_p50_ms", "stream_p99_ms": "join_p99_ms", "stream_max_rps": "join_max_replans_per_s", "heavy_p50_ms": "join_largest_app_p50_ms"},
}

func benchMain(args []string) int {
	o, err := parseOptions("sorbench", args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sorbench:", err)
		return 2
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "sorbench:", err)
		return 1
	}
	describe(o)
	var res result
	if o.trace {
		res, err = tracedMain(o)
	} else {
		res, err = untracedMain(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sorbench:", err)
		return 1
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// runOut is one measured run.
type runOut struct {
	e           *env
	setups      []float64
	stats       statsReply
	reconnects  int64
	joinsLeaves int64
	spans       []spanRec          // traced runs
	replay      map[string]float64 // traced runs: the shape's rank replays
}

// runWorkload sets the workload up setups times, measures the deployment
// the last of the first half left running, verifies it and tears it
// down, then makes the remaining setups. Spreading the setups over the
// run samples the shared host's speed at more than one moment.
func runWorkload(o options, traced bool, setups int) (*runOut, error) {
	out := &runOut{}
	pre := (setups + 1) / 2
	var e *env
	for i := 0; i < pre; i++ {
		if e != nil {
			if err := e.tearDown(); err != nil {
				return nil, err
			}
		}
		var err error
		if e, err = setUp(o, traced, out); err != nil {
			return nil, err
		}
	}
	if err := measureRun(e, traced, out); err != nil {
		return nil, err
	}
	for i := pre; i < setups; i++ {
		post, err := setUp(o, traced, out)
		if err != nil {
			return nil, err
		}
		if err := post.tearDown(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// setUp starts a fresh deployed shape and brings it to the measured
// state, appending the time that took to out.setups.
func setUp(o options, traced bool, out *runOut) (*env, error) {
	t0 := time.Now()
	sys, err := startSystem(o, traced)
	if err != nil {
		return nil, err
	}
	e := &env{o: o, sz: o.size(), sys: sys, conns: &connCounter{}, rec: newRecorder(traced),
		token: fmt.Sprintf("gw-%d", o.seed), tasks: map[string]string{},
		e2e: map[string]float64{}, epochs: map[string][]epochObs{}, ackedIDs: map[string][]string{}}
	e.phase.open = time.Duration(o.seconds * 0.6 * float64(time.Second))
	e.phase.sat = time.Duration(o.seconds*float64(time.Second)) - e.phase.open
	e.wl = workloadFor(o.workload)
	err = e.wl.setup(e)
	if err == nil {
		err = e.sync()
	}
	if err != nil {
		e.closeConns()
		sys.kill()
		return nil, err
	}
	out.setups = append(out.setups, time.Since(t0).Seconds())
	return e, nil
}

func (e *env) tearDown() error {
	e.closeConns()
	return e.sys.stop()
}

// measureRun measures the set-up deployment e, verifies it and tears it
// down.
func measureRun(e *env, traced bool, out *runOut) error {
	out.e = e
	defer e.tearDown()
	if err := e.sys.call(command{Op: "lag-start"}, &map[string]bool{}); err != nil {
		return err
	}
	if err := e.sys.call(command{Op: "snap"}, &e.start); err != nil {
		return err
	}
	e.wireStart, e.writesStart = e.conns.bytes.Load(), e.writes.Load()
	acks0 := e.acksOK.Load()
	if err := e.wl.measure(e); err != nil {
		return err
	}
	out.joinsLeaves = e.acksOK.Load() - acks0
	out.reconnects = e.a.Stats().Reconnects
	if err := e.sync(); err != nil {
		e.fail("%v", err)
	}
	if err := e.sys.call(command{Op: "stats"}, &out.stats); err != nil {
		return err
	}
	if out.stats.Err != "" {
		return fmt.Errorf("deployed shape: %s", out.stats.Err)
	}
	if traced {
		var err error
		if out.spans, err = readSpans(out.stats.SpansFile); err != nil {
			return err
		}
		if err := e.sys.call(command{Op: "replay"}, &out.replay); err != nil {
			return err
		}
	}
	if out.stats.ReplicaLSN < out.stats.LeaderLSN {
		e.fail("replica applied %d of the leader's %d records", out.stats.ReplicaLSN, out.stats.LeaderLSN)
	}
	e.wl.verify(e, out.stats)
	if n := e.conns.peak(); n > 2 {
		e.fail("generator held %d connections at once (limit 2)", n)
	}
	for _, c := range e.checks {
		fmt.Fprintln(os.Stderr, "check failed:", c)
	}
	for _, s := range e.rec.errs {
		fmt.Fprintln(os.Stderr, "call failed:", s)
	}
	return nil
}

// streamClasses are the classes a workload's stream metrics cover.
func (r *runOut) streamClasses() []string {
	if r.e.o.workload == "join_storm" {
		return []string{classStream, classHeavy}
	}
	return []string{classStream}
}

func (r *runOut) stream() []float64 { return r.e.rec.sorted(r.streamClasses()...) }

// e2eValues computes a run's end-to-end figures (all but setup_s), plus
// the quantiles its two tail figures fell back to.
func (r *runOut) e2eValues() map[string]float64 {
	e := r.e
	q, tail := tailPercentile(r.stream())
	lag := append([]float64(nil), r.stats.LagMS...)
	sort.Float64s(lag)
	lq, lagTail := tailPercentile(lag)
	return map[string]float64{
		"peak_rss_mb":         e.e2e["peak_rss_mb"],
		"cpu_us_per_call":     e.e2e["cpu_us_per_call"],
		"wal_bytes_per_write": e.e2e["wal_bytes_per_write"],
		"wire_bytes_per_call": e.e2e["wire_bytes_per_call"],
		"stream_p50_ms":       median(r.stream()),
		"stream_p99_ms":       tail,
		"stream_tail_q":       q,
		"stream_max_rps":      e.e2e["stream_max_rps"],
		"heavy_p50_ms":        e.rec.p50(classHeavy),
		"routed_batch_p50_ms": e.rec.p50(classBatch),
		"repl_lag_p50_ms":     median(lag),
		"repl_lag_p99_ms":     lagTail,
		"repl_lag_tail_q":     lq,
	}
}

func untracedMain(o options) (result, error) {
	run, err := runWorkload(o, false, o.size().setups[o.workload])
	if err != nil {
		return result{}, err
	}
	e := run.e
	vals := run.e2eValues()
	vals["setup_s"] = median(run.setups)
	res := result{Correct: len(e.checks) == 0, Attempted: e.rec.attempted, Failed: e.rec.failed, Metrics: map[string]metric{}}
	fmt.Printf("samples: stream=%d (tail p%.0f) heavy=%d routed_batch=%d repl_lag=%d (tail p%.0f); stale=%d pushes=%d setups=%v\n",
		len(run.stream()), vals["stream_tail_q"]*100, len(e.rec.sorted(classHeavy)), len(e.rec.sorted(classBatch)),
		len(run.stats.LagMS), vals["repl_lag_tail_q"]*100, e.stale.Load(), e.pushes.Load(), run.setups)
	names := workloadNames[o.workload]
	for _, m := range e2eUnits {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		fmt.Printf("  %-22s %12.4f %s\n", m.name, vals[m.name], m.unit)
	}
	fmt.Println("ungated:")
	for _, m := range ungatedUnits {
		alias := ""
		if n, ok := names[m.name]; ok {
			alias = " (" + n + ")"
		}
		fmt.Printf("  %-22s %12.4f %s%s\n", m.name, vals[m.name], m.unit, alias)
	}
	return res, nil
}

// describe prints the run's configuration and host.
func describe(o options) {
	sz := o.size()
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				cpu = strings.TrimSpace(line[strings.Index(line, ":")+1:])
				break
			}
		}
	}
	var rates string
	switch o.workload {
	case "ingest":
		rates = fmt.Sprintf("A open loop %.0f ops/s (every %dth a %d-report batch), then %d batches in flight; B one %d-report batch per %s",
			sz.ingestRate, sz.ingestBatchEvery, routedBatch, sz.ingestWindow, routedBatch, ingestGatewayPace)
	case "rank":
		rates = fmt.Sprintf("A open loop %.0f near-default reads/s over %d places + %.0f deep reads/s over %d places, then %d reads in flight; B a routed batch (into either category, in turn) or a leader read per %s",
			sz.rankRate, sz.bigPlaces, sz.deepRate, sz.deepPlaces, sz.rankWindow, sz.trickleEvery)
	case "join_storm":
		rates = fmt.Sprintf("A bursty open loop ~%.0f joins/s (+1 leave each) over apps of %v members, then %d join+leave pairs in flight; B one routed batch per %s",
			sz.joinRate, sz.joinApps, sz.joinWindow, sz.joinTrickleEvery)
	}
	fmt.Printf("sorbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("host: nproc=%d cpu=%q go=%s\n", runtime.NumCPU(), cpu, runtime.Version())
	fmt.Printf("shape: leader (WAL %s) + replica (pull %s, max lag %s) + router, data dir fs=%s\n",
		"grouped", pullInterval, maxReplicaLag, fsType(o.work))
	fmt.Printf("connections: A = 1 device stream, B = 1 keep-alive HTTP/1.1 to the router\n")
	fmt.Printf("load: %s\n", rates)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x9123683e:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", st.Type)
	}
}
