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
	// DefaultIdleTimeout tears down a session whose connection delivers no
	// bytes for this long.
	DefaultIdleTimeout = 60 * time.Second
	// MaxWindow caps a client-requested window size so a hostile request
	// cannot make the server allocate an arbitrarily large event buffer.
	MaxWindow = 1 << 16
)

// Config configures a Manager.
type Config struct {
	// Store files completed streams; required. Spool files also live in
	// its directory so the final rename is same-filesystem.
	Store *workload.Store

	// IdleTimeout fails a session when its connection goes quiet for this
	// long (0 = DefaultIdleTimeout; negative disables).
	IdleTimeout time.Duration

	// Metrics, when non-nil, receives the live-session instruments.
	Metrics *obs.Registry
}

// Manager owns the live sessions of one server: it mints session IDs,
// tracks every session for listing, and tears all of them down on Close.
type Manager struct {
	cfg    Config
	m      metrics
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	closed   bool
	seq      int
	sessions map[string]*Session
	order    []string
}

// NewManager returns a Manager over cfg.Store.
func NewManager(cfg Config) *Manager {
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

// Close tears down every running session: each finishes failed at its
// next window, and Begin refuses from then on. Safe to call more than once.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancel()
}

// metrics holds the live-session instruments; the zero value is the
// disabled form (obs instruments no-op on nil receivers).
type metrics struct {
	active      *obs.Gauge
	done        *obs.Counter
	failed      *obs.Counter
	bytes       *obs.Counter
	windows     *obs.Counter
	subscribers *obs.Gauge
}

// newMetrics materialises the live instruments against r (all no-ops when
// r is nil). The dropped-windows counter is registered — so it renders as
// an explicit 0 on /metrics — but never incremented: a session reads its
// connection only to decode the window it applies next, so it has nothing
// to drop, and CI asserts the zero.
func newMetrics(r *obs.Registry) metrics {
	if r == nil {
		return metrics{}
	}
	sessions := r.CounterVec("cherivoke_live_sessions_total",
		"Live trace sessions finished, by outcome.", "outcome")
	r.Counter("cherivoke_live_dropped_windows_total",
		"Live windows dropped under backpressure. Always zero: a session stops reading its connection while it analyses a window instead of dropping one.")
	return metrics{
		active: r.Gauge("cherivoke_live_sessions_active",
			"Live trace sessions currently ingesting."),
		done:   sessions.With(StateDone),
		failed: sessions.With(StateFailed),
		bytes: r.Counter("cherivoke_live_bytes_ingested_total",
			"Trace bytes read from live ingestion connections."),
		windows: r.Counter("cherivoke_live_windows_total",
			"Event windows analyzed across all live sessions."),
		subscribers: r.Gauge("cherivoke_live_subscribers",
			"SSE subscribers currently attached to live sessions."),
	}
}
