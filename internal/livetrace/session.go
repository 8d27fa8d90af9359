package livetrace

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// subscriberBuffer is each SSE subscriber's frame-channel depth. A consumer
// slower than the session has intermediate frames coalesced (each frame is
// a complete snapshot, so skipping frames loses nothing); the terminal
// transition is guaranteed separately by the channel close.
const subscriberBuffer = 16

// Session is one live ingestion stream. It is created by Manager.Begin and
// driven by Run on the connection's goroutine; all other methods are safe
// to call concurrently with Run.
type Session struct {
	id      string
	mgr     *Manager
	window  int
	created time.Time

	bytes atomic.Uint64 // connection bytes read (countingReader)

	mu         sync.Mutex
	state      string
	errMsg     string
	name       string
	format     string
	windows    uint64
	events     uint64
	traceHash  string
	reconciled bool
	finalStats *workload.StreamStats
	finished   time.Time
	subs       map[chan Frame]struct{}
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Info returns a snapshot of the session's externally visible state.
func (s *Session) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := Info{
		ID:         s.id,
		Name:       s.name,
		Format:     s.format,
		State:      s.state,
		Error:      s.errMsg,
		Window:     s.window,
		Windows:    s.windows,
		Events:     s.events,
		Bytes:      s.bytes.Load(),
		TraceHash:  s.traceHash,
		Reconciled: s.reconciled,
		Created:    s.created,
	}
	if s.finalStats != nil {
		final := *s.finalStats
		info.Stats = &final
	}
	if !s.finished.IsZero() {
		f := s.finished
		info.Finished = &f
	}
	return info
}

// Subscribe attaches a frame consumer. live is false when the session has
// already reached a terminal state (the caller reads Info instead). The
// channel closes on the terminal transition; the returned cancel must be
// called when the consumer detaches (it is idempotent, and safe after
// close).
func (s *Session) Subscribe() (frames <-chan Frame, cancel func(), live bool) {
	s.mu.Lock()
	if s.state != StateRunning {
		s.mu.Unlock()
		return nil, func() {}, false
	}
	ch := make(chan Frame, subscriberBuffer)
	if s.subs == nil {
		s.subs = make(map[chan Frame]struct{})
	}
	s.subs[ch] = struct{}{}
	s.mu.Unlock()
	s.mgr.m.subscribers.Inc()
	var once sync.Once
	cancel = func() {
		once.Do(func() {
			s.mu.Lock()
			delete(s.subs, ch)
			s.mu.Unlock()
			s.mgr.m.subscribers.Dec()
		})
	}
	return ch, cancel, true
}

// Run ingests the stream from body until end of trace or failure, then
// finishes the session in its terminal state and returns the failure (nil
// for a reconciled done session). setDeadline, when non-nil, is used to
// roll an idle deadline forward before every read (the HTTP handler passes
// http.ResponseController.SetReadDeadline). Run must be called exactly
// once, on the connection's goroutine, and starts no goroutine of its own:
// reading, decoding and analysing on that one goroutine is what ties the
// session's lifetime to the connection's and pushes back on the producer.
func (s *Session) Run(ctx context.Context, body io.Reader, setDeadline func(time.Time) error) error {
	err := s.run(ctx, body, setDeadline)
	s.finish(err)
	return err
}

func (s *Session) run(ctx context.Context, body io.Reader, setDeadline func(time.Time) error) error {
	mgr := s.mgr
	// Spool in the store's directory so filing the finished stream is a
	// same-filesystem rename inside Store.File.
	spool, err := os.CreateTemp(mgr.cfg.Store.Dir(), "live-*.spool")
	if err != nil {
		return fmt.Errorf("livetrace: creating spool: %w", err)
	}
	defer os.Remove(spool.Name())
	defer spool.Close()

	// Pipeline: count -> idle deadline -> tee into the spool -> buffered
	// decode. The tee sits before the decoder's read-ahead buffer, so
	// read-ahead bytes land in the spool with the rest and the spool is
	// always an exact prefix of the connection's bytes.
	var src io.Reader = &countingReader{r: body, n: &s.bytes, c: mgr.m.bytes}
	if setDeadline != nil && mgr.cfg.IdleTimeout > 0 {
		src = &idleReader{r: src, set: setDeadline, idle: mgr.cfg.IdleTimeout}
	}
	tee := io.TeeReader(src, spool)
	tr, err := workload.NewTraceReader(tee)
	if err != nil {
		return fmt.Errorf("livetrace: %w", err)
	}
	hdr := tr.Header()
	s.mu.Lock()
	s.name, s.format = hdr.Name, tr.Format()
	s.mu.Unlock()
	source := workload.NewStreamingSource(tr, s.window)
	sys, err := core.New(AnalysisConfig())
	if err != nil {
		return fmt.Errorf("livetrace: analysis: %w", err)
	}
	ir := workload.NewIncrementalReplay(sys, nil)

	// Read, decode and apply a window at a time on this goroutine. The
	// connection is read only inside NextWindow, so while a window is
	// applied nothing drains the socket: when analysis falls behind, TCP
	// flow control pushes back on the producer, and no window is ever
	// queued or dropped. A session dies with its connection (ctx) or its
	// manager, whichever goes first, at its next window.
	for {
		if err := cmp.Or(ctx.Err(), mgr.ctx.Err()); err != nil {
			return fmt.Errorf("livetrace: session torn down: %w", err)
		}
		win, err := source.NextWindow()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("livetrace: %w", err)
		}
		if err := ir.ApplyWindow(win); err != nil {
			return fmt.Errorf("livetrace: analysis: %w", err)
		}
		s.publish(ir.Stats(), len(win))
	}
	stats := ir.Stats()

	// Clean end of trace. Drain whatever the decoder has not consumed
	// through the tee (belt-and-braces: the codecs read to EOF on their
	// own), file the spool, and reconcile.
	if _, err := io.Copy(io.Discard, tee); err != nil {
		return fmt.Errorf("livetrace: draining stream tail: %w", err)
	}
	if err := spool.Close(); err != nil {
		return fmt.Errorf("livetrace: closing spool: %w", err)
	}
	info, err := mgr.cfg.Store.File(spool.Name())
	if err != nil {
		return fmt.Errorf("livetrace: filing trace: %w", err)
	}

	// Reconciliation: a fresh post-hoc replay of the stored bytes must
	// match the live accumulation byte-for-byte in canonical JSON. This
	// runs on every completed session, not just in tests — a divergence
	// here means the incremental path broke, and the session must not
	// report success on numbers it cannot prove.
	recon, err := s.replayStored(info.Hash)
	if err != nil {
		return fmt.Errorf("livetrace: reconciliation replay of %s: %w", info.Hash, err)
	}
	liveJSON, err := json.Marshal(stats)
	if err != nil {
		return err
	}
	postJSON, err := json.Marshal(recon)
	if err != nil {
		return err
	}
	if !bytes.Equal(liveJSON, postJSON) {
		return fmt.Errorf("livetrace: reconciliation failed for trace %s: live accumulation %s != post-hoc replay %s", info.Hash, liveJSON, postJSON)
	}

	s.mu.Lock()
	s.traceHash = info.Hash
	s.reconciled = true
	s.finalStats = &stats
	s.mu.Unlock()
	return nil
}

// publish records one analyzed window and fans the snapshot out to
// subscribers. Sends never block: a full subscriber channel has this frame
// coalesced into the next one the subscriber reads (every frame is a
// complete snapshot).
func (s *Session) publish(stats workload.StreamStats, events int) {
	s.mgr.m.windows.Inc()
	s.mu.Lock()
	s.windows++
	s.events += uint64(events)
	frame := Frame{
		Seq:     s.windows,
		Windows: s.windows,
		Events:  s.events,
		Bytes:   s.bytes.Load(),
		Stats:   stats,
	}
	for ch := range s.subs {
		select {
		case ch <- frame:
		default:
		}
	}
	s.mu.Unlock()
}

// finish moves the session to its terminal state exactly once and closes
// every subscriber channel.
func (s *Session) finish(err error) {
	s.mu.Lock()
	if s.state != StateRunning {
		s.mu.Unlock()
		return
	}
	if err != nil {
		s.state = StateFailed
		s.errMsg = err.Error()
		s.finalStats = nil
	} else {
		s.state = StateDone
	}
	s.finished = time.Now()
	subs := s.subs
	s.subs = nil
	s.mu.Unlock()
	for ch := range subs {
		close(ch)
	}
	s.mgr.m.active.Dec()
	if err != nil {
		s.mgr.m.failed.Inc()
	} else {
		s.mgr.m.done.Inc()
	}
}

// replayStored replays the filed trace from scratch under AnalysisConfig
// with the session's window — the reference side of the reconciliation.
func (s *Session) replayStored(hash string) (workload.StreamStats, error) {
	tr, _, err := s.mgr.cfg.Store.OpenTrace(hash)
	if err != nil {
		return workload.StreamStats{}, err
	}
	defer tr.Close()
	sys, err := core.New(AnalysisConfig())
	if err != nil {
		return workload.StreamStats{}, err
	}
	return workload.ReplayStreamStats(sys, workload.NewStreamingSource(tr, s.window))
}

// countingReader counts connection bytes into the session's atomic total
// and the shared ingest counter.
type countingReader struct {
	r io.Reader
	n *atomic.Uint64
	c *obs.Counter
}

// Read implements io.Reader.
func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.n.Add(uint64(n))
		cr.c.Add(uint64(n))
	}
	return n, err
}

// idleReader rolls a read deadline forward before every read, so a
// connection that goes quiet fails the session after the idle timeout
// instead of holding it (and its spool) open forever. Deadline-setting
// failures are ignored: a transport without deadlines simply has no idle
// teardown.
type idleReader struct {
	r    io.Reader
	set  func(time.Time) error
	idle time.Duration
}

// Read implements io.Reader.
func (ir *idleReader) Read(p []byte) (int, error) {
	_ = ir.set(time.Now().Add(ir.idle))
	return ir.r.Read(p)
}
