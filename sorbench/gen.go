package main

// Generator plumbing: the child process, the two connections, and the
// open-loop / closed-loop / saturation drivers that time every call.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sor"
	"sor/internal/obs"
	"sor/internal/transport/session"
	"sor/internal/wire"
)

// options are the command-line settings shared by generator and child.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	dir      string // child: its data directory
	work     string // generator: scratch root inside the checkout
}

func (o options) size() size {
	if o.tiny {
		return tinySize()
	}
	return fullSize()
}

func parseOptions(name string, args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "ingest | rank | join_storm")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer ledger")
	fs.BoolVar(&o.tiny, "tiny", false, "smoke-test sizes")
	fs.StringVar(&o.dir, "dir", "", "data directory (child)")
	fs.StringVar(&o.work, "work", ".bench_build", "scratch directory for data dirs and span files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = *trace == 1
	switch o.workload {
	case "ingest", "rank", "join_storm":
	default:
		return o, fmt.Errorf("unknown -workload %q (ingest | rank | join_storm)", o.workload)
	}
	if o.seconds <= 0 {
		return o, errors.New("-seconds must be positive")
	}
	return o, nil
}

// system is one running deployed shape (child process).
type system struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Scanner
	ready readyInfo
	dir   string
	mu    sync.Mutex
}

var childSeq atomic.Int64

// startSystem spawns the deployed shape and waits for its ready line.
func startSystem(o options, traced bool) (*system, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(o.work, "run", fmt.Sprintf("%d-%d", os.Getpid(), childSeq.Add(1))))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := []string{"serve", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10), "-dir", dir}
	if traced {
		args = append(args, "-trace", "1")
	}
	if o.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &system{cmd: cmd, in: in, out: bufio.NewScanner(outPipe), dir: dir}
	s.out.Buffer(make([]byte, 1<<20), 256<<20)
	if err := s.read(&s.ready); err != nil {
		s.kill()
		return nil, fmt.Errorf("deployed shape did not start: %w", err)
	}
	return s, nil
}

func (s *system) read(v any) error {
	if !s.out.Scan() {
		if err := s.out.Err(); err != nil {
			return err
		}
		return io.ErrUnexpectedEOF
	}
	return json.Unmarshal(s.out.Bytes(), v)
}

// call sends one control command and decodes its reply.
func (s *system) call(c command, reply any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	if _, err := s.in.Write(append(b, '\n')); err != nil {
		return s.died(err)
	}
	if err := s.read(reply); err != nil {
		return s.died(err)
	}
	return nil
}

// stop asks the child to shut down, waits for it, and removes its data.
func (s *system) stop() error {
	s.mu.Lock()
	_, _ = s.in.Write([]byte(`{"op":"quit"}` + "\n"))
	_ = s.in.Close()
	s.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		err = <-done
		if err == nil {
			err = errors.New("deployed shape did not stop; killed")
		}
	}
	_ = os.RemoveAll(s.dir)
	return err
}

// died explains a broken control pipe by the child's exit status.
func (s *system) died(err error) error {
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case werr := <-done:
		return fmt.Errorf("deployed shape exited (%v): %w", werr, err)
	case <-time.After(5 * time.Second):
		return err
	}
}

func (s *system) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
	_ = os.RemoveAll(s.dir)
}

// connCounter counts the generator's live connections to the system and
// the bytes they carry.
type connCounter struct {
	mu        sync.Mutex
	open, max int
	dialer    net.Dialer
	bytes     atomic.Int64 // sent plus received, all connections
}

func (c *connCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := c.dialer.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.open++
	if c.open > c.max {
		c.max = c.open
	}
	c.mu.Unlock()
	return &countedConn{Conn: conn, c: c}, nil
}

func (c *connCounter) peak() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.max
}

type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (cc *countedConn) Read(b []byte) (int, error) {
	n, err := cc.Conn.Read(b)
	cc.c.bytes.Add(int64(n))
	return n, err
}

func (cc *countedConn) Write(b []byte) (int, error) {
	n, err := cc.Conn.Write(b)
	cc.c.bytes.Add(int64(n))
	return n, err
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() {
		cc.c.mu.Lock()
		cc.c.open--
		cc.c.mu.Unlock()
	})
	return cc.Conn.Close()
}

// streamConn is connection A: one multiplexed device stream.
func (c *connCounter) stream(addr, token string, seed int64) (*sor.StreamClient, error) {
	return sor.NewStreamClient(func(ctx context.Context) (net.Conn, error) {
		return c.dial(ctx, "tcp", addr)
	}, token, sor.WithStreamSeed(seed), sor.WithStreamRetries(0), session.WithEventBuffer(4096))
}

// httpConn is connection B: one keep-alive HTTP/1.1 connection.
func (c *connCounter) httpConn(baseURL string) (*sor.Client, *http.Transport, error) {
	t := &http.Transport{
		DialContext:         c.dial,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	client, err := sor.NewClient(baseURL, sor.WithClientHTTP(&http.Client{Transport: t}), sor.WithClientRetries(0))
	return client, t, err
}

// opRec is one timed client call (kept for the traced ledger).
type opRec struct {
	Req   string
	Path  string // "stream" or "routed"
	Class string
	Due   int64 // unix ns the call was due
	Sent  int64 // unix ns the call started
	Done  int64 // unix ns the reply arrived
}

// recorder collects latencies per class plus attempted/failed counts.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64 // ms from due time, per class
	late      []float64            // ms the generator started late
	attempted int64
	failed    int64
	refusals  int64
	errs      []string
	traced    bool
	ops       []opRec
	timeout   time.Duration
}

// newRecorder times measured calls; setup calls use a longer timeout.
func newRecorder(traced bool) *recorder {
	return &recorder{lat: map[string][]float64{}, traced: traced, timeout: 20 * time.Second}
}

func setupRecorder() *recorder {
	r := newRecorder(false)
	r.timeout = 120 * time.Second
	return r
}

// call times one request: ctx carries a fresh RequestID so traced runs
// can join client timings with server spans.
func (r *recorder) call(ctx context.Context, path, class string, due time.Time,
	send func(ctx context.Context) (wire.Message, error), ok func(wire.Message) error) (wire.Message, bool) {
	id := obs.NewRequestID()
	ctx = obs.WithRequestID(ctx, id)
	ctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	sent := time.Now()
	resp, err := send(ctx)
	done := time.Now()
	if err == nil {
		err = ok(resp)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		var ref refusal
		if errors.As(err, &ref) {
			r.refusals++
		}
		if len(r.errs) < 5 {
			r.errs = append(r.errs, fmt.Sprintf("%s %s: %v", path, class, err))
		}
		return resp, false
	}
	r.lat[class] = append(r.lat[class], float64(done.Sub(due))/1e6)
	if r.traced {
		r.ops = append(r.ops, opRec{Req: string(id), Path: path, Class: class,
			Due: due.UnixNano(), Sent: sent.UnixNano(), Done: done.UnixNano()})
	}
	return resp, true
}

// sorted returns the latencies of the given classes, ascending.
func (r *recorder) sorted(classes ...string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s []float64
	for _, c := range classes {
		s = append(s, r.lat[c]...)
	}
	sort.Float64s(s)
	return s
}

// p50 is the median latency of the classes' calls.
func (r *recorder) p50(classes ...string) float64 { return median(r.sorted(classes...)) }

// refusal is a non-OK Ack.
type refusal struct{ ack *wire.Ack }

func (e refusal) Error() string { return fmt.Sprintf("refused %d: %s", e.ack.Code, e.ack.Message) }

// ackOK accepts an OK Ack with code 200.
func ackOK(m wire.Message) error {
	ack, ok := m.(*wire.Ack)
	if !ok {
		return fmt.Errorf("unexpected %s reply", m.Type())
	}
	if !ack.OK || ack.Code != 200 {
		return refusal{ack}
	}
	return nil
}

// openLoop fires fire(i) at start+due[i] for every due offset below
// limit, without waiting for earlier calls: the offered rate does not
// bend to the system's. It returns once every fired call has finished.
func openLoop(rec *recorder, start time.Time, due []time.Duration, limit time.Duration, fire func(i int, dueAt time.Time)) int {
	var wg sync.WaitGroup
	n := 0
	for i, d := range due {
		if d >= limit {
			break
		}
		dueAt := start.Add(d)
		if wait := time.Until(dueAt); wait > 0 {
			time.Sleep(wait)
		}
		late := float64(time.Since(dueAt)) / 1e6
		rec.mu.Lock()
		rec.late = append(rec.late, late)
		rec.mu.Unlock()
		wg.Add(1)
		n++
		go func(i int) {
			defer wg.Done()
			fire(i, dueAt)
		}(i)
	}
	wg.Wait()
	return n
}

// closedLoop makes n calls of op one at a time, starting at most one
// call per pace. A call's due time is its slot in the pace; a caller that
// falls behind starts the next call as soon as the last one returns, so
// the n calls are made however slow they are, and the work offered does
// not depend on the system's speed.
func closedLoop(n int, pace time.Duration, op func(i int, due time.Time)) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := time.Now()
		for i := 0; i < n; i++ {
			time.Sleep(time.Until(next))
			op(i, next)
			next = next.Add(pace)
		}
	}()
	return &wg
}

// saturate keeps window calls in flight for d and returns the units of
// work completed per second (op reports the units of each call).
func saturate(window int, d time.Duration, op func() int) float64 {
	var units atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				units.Add(int64(op()))
			}
		}()
	}
	wg.Wait()
	return float64(units.Load()) / time.Since(start).Seconds()
}
