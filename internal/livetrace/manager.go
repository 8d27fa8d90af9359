package livetrace

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// Defaults and bounds for session configuration.
const (
	// DefaultPending is the bounded ring depth: at most this many decoded
	// windows wait between the socket reader and the analyzer before the
	// reader stops draining the connection.
	DefaultPending = 4
	// DefaultIdleTimeout tears down a session whose connection delivers no
	// bytes for this long.
	DefaultIdleTimeout = 60 * time.Second
	// MaxWindow caps a client-requested window size so a hostile request
	// cannot make the server allocate an arbitrarily large event ring.
	MaxWindow = 1 << 16
)

// Config configures a Manager.
type Config struct {
	// Store files completed streams; required. Spool files also live in
	// its directory so the final rename is same-filesystem.
	Store *workload.Store

	// Pending is the ring depth in windows (0 = DefaultPending).
	Pending int

	// IdleTimeout fails a session when its connection goes quiet for this
	// long (0 = DefaultIdleTimeout; negative disables).
	IdleTimeout time.Duration

	// Metrics, when non-nil, receives the live-session instruments.
	Metrics *obs.Registry

	// analyzerGate, when non-nil, makes every analyzer wait for one token
	// per window before applying it — the fault-injection tests' handle
	// for holding the analyzer still deterministically. A gated analyzer
	// still unblocks on manager shutdown.
	analyzerGate chan struct{}
}

// Manager owns the live sessions of one server: it mints session IDs,
// tracks every session for listing, and tears all of them down on Close.
type Manager struct {
	cfg    Config
	m      metrics
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	seq      int
	sessions map[string]*Session
	order    []string
}

// NewManager returns a Manager over cfg.Store.
func NewManager(cfg Config) *Manager {
	if cfg.Pending <= 0 {
		cfg.Pending = DefaultPending
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		cfg:      cfg,
		m:        newMetrics(cfg.Metrics),
		ctx:      ctx,
		cancel:   cancel,
		sessions: make(map[string]*Session),
	}
}

// Begin registers a new session whose StreamingSource window is window
// events (workload.DefaultWindow when not positive, clamped to MaxWindow).
// The caller must then drive the session with Run exactly once.
func (m *Manager) Begin(window int) (*Session, error) {
	if window <= 0 {
		window = workload.DefaultWindow
	}
	if window > MaxWindow {
		window = MaxWindow
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("livetrace: manager closed")
	}
	m.seq++
	s := &Session{
		id:      fmt.Sprintf("live-%d", m.seq),
		mgr:     m,
		window:  window,
		state:   StateRunning,
		created: time.Now(),
	}
	m.sessions[s.id] = s
	m.order = append(m.order, s.id)
	m.m.active.Inc()
	return s, nil
}

// Get returns the session with the given ID.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// List returns every session's Info in creation order.
func (m *Manager) List() []Info {
	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.order))
	for _, id := range m.order {
		sessions = append(sessions, m.sessions[id])
	}
	m.mu.Unlock()
	out := make([]Info, len(sessions))
	for i, s := range sessions {
		out[i] = s.Info()
	}
	return out
}

// Close tears down every running session (they finish failed with a
// shutdown error) and waits for all analyzer goroutines to exit. Safe to
// call more than once.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
}

// track registers one analyzer goroutine with the manager's wait group,
// refusing when the manager is already closing (Close may already be in
// wg.Wait; adding after that would race).
func (m *Manager) track() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.wg.Add(1)
	return true
}

// metrics holds the live-session instruments; the zero value is the
// disabled form (obs instruments no-op on nil receivers).
type metrics struct {
	active      *obs.Gauge
	done        *obs.Counter
	failed      *obs.Counter
	bytes       *obs.Counter
	windows     *obs.Counter
	stalls      *obs.Counter
	dropped     *obs.Counter
	subscribers *obs.Gauge
}

// newMetrics materialises the live instruments against r (all no-ops when
// r is nil). The dropped-windows counter is created — so it renders as an
// explicit 0 on /metrics — but never incremented: the bounded ring makes
// dropping structurally impossible, and CI asserts the zero.
func newMetrics(r *obs.Registry) metrics {
	if r == nil {
		return metrics{}
	}
	sessions := r.CounterVec("cherivoke_live_sessions_total",
		"Live trace sessions finished, by outcome.", "outcome")
	return metrics{
		active: r.Gauge("cherivoke_live_sessions_active",
			"Live trace sessions currently ingesting."),
		done:   sessions.With(StateDone),
		failed: sessions.With(StateFailed),
		bytes: r.Counter("cherivoke_live_bytes_ingested_total",
			"Trace bytes read from live ingestion connections."),
		windows: r.Counter("cherivoke_live_windows_total",
			"Event windows analyzed across all live sessions."),
		stalls: r.Counter("cherivoke_live_backpressure_stalls_total",
			"Times a live reader found no free window buffer and stopped draining its socket until the analyzer caught up."),
		dropped: r.Counter("cherivoke_live_dropped_windows_total",
			"Live windows dropped under backpressure. Always zero: the bounded ring stalls the reader instead of dropping."),
		subscribers: r.Gauge("cherivoke_live_subscribers",
			"SSE subscribers currently attached to live sessions."),
	}
}
