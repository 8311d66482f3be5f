package sor

// This file is the system-construction half of the public API: functional
// options for standing up the sensing server, the wire client, and the
// simulated phone frontend without importing any internal package, plus
// the observability surface (metrics registry, request tracer, debug
// endpoints) that instruments all three. The algorithmic half (§III
// scheduling, §IV ranking) lives in sor.go.

import (
	"net/http"
	"time"

	"sor/internal/device"
	"sor/internal/fieldtest"
	"sor/internal/frontend"
	"sor/internal/obs"
	"sor/internal/ranking"
	"sor/internal/server"
	"sor/internal/store"
	"sor/internal/transport"
	"sor/internal/transport/session"
	"sor/internal/wal"
)

// ---- Observability ----

// Observer bundles a metrics registry and a request tracer behind one
// nil-safe handle; passing the same observer to the server, client, and
// frontends stitches one request's spans across every hop.
type Observer = obs.Observer

// ObserverOption customises NewObserver.
type ObserverOption = obs.ObserverOption

// Registry is a sharded metrics registry: counters, gauges, and striped
// histograms behind constant-label handles.
type Registry = obs.Registry

// MetricsSnapshot is a point-in-time read of every series in a registry.
type MetricsSnapshot = obs.Snapshot

// Tracer keeps the most recent completed spans in a bounded ring.
type Tracer = obs.Tracer

// SpanRecord is one completed span.
type SpanRecord = obs.SpanRecord

// RequestID names one logical request end to end — minted by the client,
// carried in the wire envelope, stamped on every span it produces.
type RequestID = obs.RequestID

// NewObserver returns an observer with a fresh registry and tracer.
func NewObserver(opts ...ObserverOption) *Observer { return obs.NewObserver(opts...) }

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewTracer returns a tracer holding up to capacity spans.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// WithTracer substitutes a caller-owned tracer into NewObserver.
func WithTracer(t *Tracer) ObserverOption { return obs.WithTracer(t) }

// RegisterDebug mounts the ops surface — MetricsPath, TracePath, and
// net/http/pprof — onto mux.
func RegisterDebug(mux *http.ServeMux, o *Observer) { obs.RegisterDebug(mux, o) }

// Debug endpoint paths served by RegisterDebug.
const (
	MetricsPath = obs.MetricsPath
	TracePath   = obs.TracePath
)

// ---- Sensing server ----

// Server is one sensing server instance (Fig. 5).
type Server = server.Server

// Store is the backing database standing in for PostgreSQL.
type Store = store.Store

// Application is one registered sensing application.
type Application = store.Application

// User is one registered participant.
type User = store.User

// DataProcessor is the server's §IV-A feature pipeline.
type DataProcessor = server.DataProcessor

// NewStore returns an empty store.
func NewStore() *Store { return store.New() }

// LoadStore restores a store from a JSON snapshot file.
func LoadStore(path string) (*Store, error) { return store.Load(path) }

// ---- Storage backends ----

// Storage abstracts where a server's state lives: Open builds or
// recovers the store, Close shuts it down with whatever durability the
// backend promises, Kill abandons it the way a crash would.
type Storage = store.Backend

// DurableOption tunes Durable.
type DurableOption = store.DurableOption

// WALSyncPolicy selects when a durable backend acknowledges a write:
// once the record is in the kernel page cache (WALSyncOS, the default),
// after a group fsync (WALSyncGrouped), or after a per-record fsync
// (WALSyncEach).
type WALSyncPolicy = wal.SyncPolicy

// WAL acknowledgement policies for WithWALSync.
const (
	WALSyncOS      = wal.SyncOS
	WALSyncGrouped = wal.SyncGrouped
	WALSyncEach    = wal.SyncEach
)

// Memory returns an in-memory storage backend: no files, no recovery,
// state dies with the process.
func Memory() Storage { return store.NewMemoryBackend(nil) }

// Durable returns a disk-backed storage backend rooted at dir: a
// periodically checkpointed snapshot plus a write-ahead log of every
// mutation since, replayed on Open after a crash.
func Durable(dir string, opts ...DurableOption) Storage {
	return store.NewDurableBackend(dir, opts...)
}

// WithSnapshotInterval sets a durable backend's checkpoint cadence
// (default 30s).
func WithSnapshotInterval(d time.Duration) DurableOption {
	return store.WithSnapshotInterval(d)
}

// WithSnapshotPath overrides where a durable backend keeps its snapshot
// file (default <dir>/snapshot.json).
func WithSnapshotPath(path string) DurableOption { return store.WithSnapshotPath(path) }

// WithoutWAL degrades a durable backend to periodic snapshots only (the
// old sord -snapshot behavior): mutations since the last checkpoint are
// lost on a crash.
func WithoutWAL() DurableOption { return store.WithoutWAL() }

// WithWALSync selects the WAL acknowledgement policy.
func WithWALSync(p WALSyncPolicy) DurableOption { return store.WithWALSync(p) }

// WithWALSegmentBytes sets the WAL segment rotation threshold.
func WithWALSegmentBytes(n int64) DurableOption { return store.WithSegmentBytes(n) }

// WithStorageMetrics publishes WAL and checkpoint series into reg.
func WithStorageMetrics(reg *Registry) DurableOption { return store.WithMetrics(reg) }

// DefaultCatalog is the paper's feature catalog: coffee shops and hiking
// trails with their §IV default preferences.
func DefaultCatalog() map[string][]Feature { return server.DefaultCatalog() }

// ServerOption configures NewServer.
type ServerOption func(*server.Config)

// WithStore sets an already-open backing store (default: a fresh empty
// store). Mutually exclusive with WithStorage.
func WithStore(db *Store) ServerOption {
	return func(cfg *server.Config) { cfg.DB = db }
}

// WithStorage hands the server a storage backend (Memory, Durable). The
// server must then be Opened before serving — Open recovers the store
// and rebuilds scheduling state — and Closed on shutdown.
func WithStorage(b Storage) ServerOption {
	return func(cfg *server.Config) { cfg.Storage = b }
}

// WithCatalog sets the category→features catalog (default DefaultCatalog).
func WithCatalog(catalog map[string][]ranking.Feature) ServerOption {
	return func(cfg *server.Config) { cfg.Catalog = catalog }
}

// WithNow injects a clock (tests and simulations).
func WithNow(now func() time.Time) ServerOption {
	return func(cfg *server.Config) { cfg.Now = now }
}

// WithKernel sets the coverage kernel (default Gaussian σ=10 s).
func WithKernel(k Kernel) ServerOption {
	return func(cfg *server.Config) { cfg.Kernel = k }
}

// WithStep sets the timeline discretization (default 10 s).
func WithStep(step time.Duration) ServerOption {
	return func(cfg *server.Config) { cfg.Step = step }
}

// WithTransport attaches the server's outbound push path — typically the
// SessionRegistry a StreamServer serves, so fresh schedules, epoch
// invalidations, and wake-ups ride the live device streams.
func WithTransport(n Notifier) ServerOption {
	return func(cfg *server.Config) { cfg.Push = n }
}

// WithRobustExtraction enables MAD outlier rejection in the Data
// Processor.
func WithRobustExtraction(on bool) ServerOption {
	return func(cfg *server.Config) { cfg.RobustExtraction = on }
}

// WithRankRefresh bounds rank-serving staleness (zero: every rank request
// observes every prior ingest).
func WithRankRefresh(d time.Duration) ServerOption {
	return func(cfg *server.Config) { cfg.RankRefresh = d }
}

// WithMaxReplicaLag bounds how stale a read replica may serve rank
// queries: past this silence from the leader it refuses them (503)
// instead of answering from arbitrarily old state. Zero serves
// regardless of lag; lagging replies carry the Stale flag either way.
// It has no effect on a leader.
func WithMaxReplicaLag(d time.Duration) ServerOption {
	return func(cfg *server.Config) { cfg.MaxReplicaLag = d }
}

// WithObserver instruments the server (and its processor): ingest,
// scheduling, snapshot, and cache metrics plus handler/dedup spans.
func WithObserver(o *Observer) ServerOption {
	return func(cfg *server.Config) { cfg.Observer = o }
}

// WithMetricsRegistry is WithObserver for callers that only want metrics
// into an existing registry: the server gets a fresh observer writing its
// series there.
func WithMetricsRegistry(reg *Registry) ServerOption {
	return func(cfg *server.Config) {
		cfg.Observer = obs.NewObserver(obs.WithRegistry(reg))
	}
}

// NewServer builds a sensing server. With no options it serves a fresh
// in-memory store with the paper's default catalog.
func NewServer(opts ...ServerOption) (*Server, error) {
	cfg := server.Config{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.DB == nil && cfg.Storage == nil {
		cfg.DB = store.New()
	}
	if cfg.Catalog == nil {
		cfg.Catalog = server.DefaultCatalog()
	}
	return server.New(cfg)
}

// ---- Transport ----

// Client sends SOR wire messages to a server with retry/backoff.
type Client = transport.Client

// ClientOption configures NewClient.
type ClientOption = transport.ClientOption

// Handler is the server-side message dispatcher NewHTTPHandler wraps.
type Handler = transport.Handler

// HandlerOption configures NewHTTPHandler.
type HandlerOption = transport.HandlerOption

// ServerPath is the single SOR wire endpoint.
const ServerPath = transport.Path

// NewClient creates a wire client for a server base URL.
func NewClient(baseURL string, opts ...ClientOption) (*Client, error) {
	return transport.NewClient(baseURL, opts...)
}

// Retry is the consolidated retry envelope every retrying layer
// accepts — the wire client, the stream client, the frontend outbox,
// the cluster router, and StartNode. Zero fields keep the layer's
// defaults; Attempts < 0 disables retries; Base == -1 disables backoff
// sleeps entirely (deterministic tests); Seed != 0 makes jitter
// reproducible.
type Retry = transport.Retry

// WithClientRetry applies a consolidated retry envelope to the wire
// client.
func WithClientRetry(r Retry) ClientOption { return transport.WithRetry(r) }

// WithClientRetries sets the retry budget for transport failures.
//
// Deprecated: use WithClientRetry.
func WithClientRetries(n int) ClientOption { return transport.WithRetries(n) }

// WithClientSeed makes retry jitter deterministic.
//
// Deprecated: use WithClientRetry.
func WithClientSeed(seed int64) ClientOption { return transport.WithRetrySeed(seed) }

// WithClientHTTP substitutes the underlying *http.Client.
func WithClientHTTP(h *http.Client) ClientOption { return transport.WithHTTPClient(h) }

// WithClientObserver instruments the client: send/retry metrics and a
// "client.send" span per attempt, all under one minted RequestID.
func WithClientObserver(o *Observer) ClientOption { return transport.WithObserver(o) }

// WithClientRetryObserver installs a hook called before every retry
// sleep with the attempt number, chosen delay, and triggering error.
func WithClientRetryObserver(fn func(attempt int, delay time.Duration, err error)) ClientOption {
	return transport.WithRetryObserver(fn)
}

// NewHTTPHandler binds a server's Handler to HTTP at ServerPath.
func NewHTTPHandler(h Handler, opts ...HandlerOption) (http.Handler, error) {
	return transport.NewHTTPHandler(h, opts...)
}

// WithHandlerObserver instruments the HTTP endpoint and propagates the
// wire envelope's trace RequestID onto the request context.
func WithHandlerObserver(o *Observer) HandlerOption {
	return transport.WithHandlerObserver(o)
}

// ---- Stream transport ----

// Conn is the device-side transport interface: Send/SendBatch for the
// request/reply half, Events for server-initiated pushes, Close to
// release it. The one-shot HTTP Client and the persistent StreamClient
// both implement it, so device code switches transports with a flag.
type Conn = transport.Conn

// Notifier is the server's outbound push hook: given a device token, get
// that phone to ping home. A SessionRegistry and the deprecated Push
// both implement it.
type Notifier = transport.Notifier

// StreamClient is the persistent session transport's device side: one
// long-lived framed connection multiplexing uploads, acks, and pushes,
// with automatic reconnect under capped full-jitter backoff.
type StreamClient = session.Client

// StreamClientOption configures DialStream / NewStreamClient.
type StreamClientOption = session.ClientOption

// StreamDialer opens the raw connection a StreamClient frames over.
type StreamDialer = session.Dialer

// StreamServer accepts device streams on a listener and dispatches
// their request frames into a server Handler.
type StreamServer = session.Server

// StreamServerOption configures NewStreamServer.
type StreamServerOption = session.ServerOption

// SessionRegistry tracks every live device stream on a server — who is
// connected, how fresh, with bounded per-session push queues — and
// implements Notifier, so WithTransport accepts it directly.
type SessionRegistry = session.Registry

// SessionRegistryOption configures NewSessionRegistry.
type SessionRegistryOption = session.RegistryOption

// DialStream connects a device to a server's stream endpoint. The
// returned client dials lazily and re-dials on connection loss.
func DialStream(addr, token string, opts ...StreamClientOption) (*StreamClient, error) {
	return session.Dial(addr, token, opts...)
}

// NewStreamClient builds a stream client over a custom dialer (tests,
// fault injection, in-process pipes).
func NewStreamClient(dial StreamDialer, token string, opts ...StreamClientOption) (*StreamClient, error) {
	return session.NewClient(dial, token, opts...)
}

// NewSessionRegistry returns an empty session registry. Hand it to both
// NewStreamServer and the server's WithTransport.
func NewSessionRegistry(opts ...SessionRegistryOption) *SessionRegistry {
	return session.NewRegistry(opts...)
}

// WithSessionMetrics publishes the sor_session_* series into reg.
func WithSessionMetrics(reg *Registry) SessionRegistryOption {
	return session.WithRegistryMetrics(reg)
}

// NewStreamServer binds a handler and a session registry to a stream
// endpoint; drive it with Serve on any net.Listener.
func NewStreamServer(h Handler, reg *SessionRegistry, opts ...StreamServerOption) (*StreamServer, error) {
	return session.NewServer(h, reg, opts...)
}

// WithStreamServerObserver instruments the stream endpoint (request,
// handshake-error, and decode-error counters).
func WithStreamServerObserver(o *Observer) StreamServerOption {
	return session.WithServerObserver(o)
}

// WithStreamRetry applies a consolidated retry envelope to the stream
// client's per-send retries and reconnect backoff.
func WithStreamRetry(r Retry) StreamClientOption { return session.WithClientRetry(r) }

// WithStreamRetries sets the stream client's per-send retry budget.
//
// Deprecated: use WithStreamRetry.
func WithStreamRetries(n int) StreamClientOption { return session.WithClientRetries(n) }

// WithStreamSeed makes stream retry jitter deterministic.
//
// Deprecated: use WithStreamRetry.
func WithStreamSeed(seed int64) StreamClientOption { return session.WithClientSeed(seed) }

// WithStreamObserver instruments the stream client through the same
// retry series the HTTP client reports.
func WithStreamObserver(o *Observer) StreamClientOption { return session.WithClientObserver(o) }

// WithStreamOnResume installs the resume hook: it fires on each
// successful re-dial after a connection loss — the place to flush a
// frontend's outbox so interrupted reports go out immediately.
func WithStreamOnResume(fn func()) StreamClientOption { return session.WithOnResume(fn) }

// ---- Mobile frontend ----

// Frontend is the simulated phone-side system frontend.
type Frontend = frontend.Frontend

// FrontendOption configures NewFrontend.
type FrontendOption = frontend.Option

// Sender is the frontend's transport dependency (Client implements it).
type Sender = frontend.Sender

// Phone is one simulated handset.
type Phone = device.Phone

// PhoneConfig parameterizes NewPhone.
type PhoneConfig = device.Config

// Trajectory is a phone's simulated movement through a place.
type Trajectory = device.Trajectory

// NewPhone builds a simulated handset.
func NewPhone(cfg PhoneConfig) (*Phone, error) { return device.New(cfg) }

// NewFrontend builds the frontend for a phone.
func NewFrontend(phone *Phone, sender Sender, opts ...FrontendOption) (*Frontend, error) {
	return frontend.New(phone, sender, opts...)
}

// WithOutboxCapacity bounds the store-and-forward queue.
func WithOutboxCapacity(n int) FrontendOption { return frontend.WithOutboxCapacity(n) }

// WithOutboxRetry applies a consolidated retry envelope to the outbox's
// flush backoff. Attempts is ignored: the outbox never gives up — its
// bounded queue is the retry budget.
func WithOutboxRetry(r Retry) FrontendOption { return frontend.WithOutboxRetry(r) }

// WithFrontendObserver instruments the frontend's outbox (fleet-aggregate
// depth gauge, delivery counters).
func WithFrontendObserver(o *Observer) FrontendOption { return frontend.WithObserver(o) }

// BuiltinProfiles returns the paper's five named preference profiles for
// a category (Table II) — the profiles sorctl's rank subcommand offers.
func BuiltinProfiles(category string) []Profile { return fieldtest.Profiles(category) }
