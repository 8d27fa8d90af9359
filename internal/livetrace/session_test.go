// Fault injection for live ingestion: every way a stream can die —
// mid-stream disconnect, torn tail, idle connection, manager shutdown —
// must end in a clean terminal state: session failed, spool removed, no
// goroutine leaked, no partial stats published as final. The happy path
// must end done, filed in the store, and reconciled byte-identically with
// a post-hoc replay, and must never read its connection further ahead of
// the analysis than the window it decodes.
package livetrace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/core"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// newTestManager builds a manager over a store in a fresh temp dir.
func newTestManager(t *testing.T, cfg Config) (*Manager, *workload.Store) {
	t.Helper()
	store, err := workload.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	m := NewManager(cfg)
	t.Cleanup(m.Close)
	return m, store
}

// recordEncoded records a small omnetpp run and returns its binary
// encoding (a few thousand events, at least two sweeps).
func recordEncoded(t *testing.T) []byte {
	t.Helper()
	p, ok := workload.ByName("omnetpp")
	if !ok {
		t.Fatal("unknown profile omnetpp")
	}
	sys, err := core.New(AnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := workload.NewBinaryTraceWriter(&buf, workload.TraceHeader{Name: p.Name, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(sys, p, workload.Options{Seed: 23, MaxLiveBytes: 2 << 20, MinSweeps: 2, Stream: w}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertNoSpools fails if any live-*.spool file survived in the store dir:
// every teardown path must remove its spool.
func assertNoSpools(t *testing.T, store *workload.Store) {
	t.Helper()
	spools, err := filepath.Glob(filepath.Join(store.Dir(), "live-*.spool"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spools) != 0 {
		t.Fatalf("spool files left behind: %v", spools)
	}
}

func TestLiveSessionReconciles(t *testing.T) {
	testutil.CheckGoroutines(t)
	encoded := recordEncoded(t)
	m, store := newTestManager(t, Config{})
	sess, err := m.Begin(256)
	if err != nil {
		t.Fatal(err)
	}

	frames, cancel, live := sess.Subscribe()
	if !live {
		t.Fatal("session not live before Run")
	}
	defer cancel()
	var seqs []uint64
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for f := range frames {
			seqs = append(seqs, f.Seq)
		}
	}()

	if err := sess.Run(context.Background(), bytes.NewReader(encoded), nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	<-collected

	info := sess.Info()
	if info.State != StateDone || !info.Reconciled || info.TraceHash == "" || info.Stats == nil {
		t.Fatalf("want done+reconciled with stats, got %+v", info)
	}
	if info.Finished == nil {
		t.Fatal("done session has no finished time")
	}
	if len(seqs) == 0 {
		t.Fatal("no frames delivered")
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("subscriber saw non-increasing seq: %d after %d", seqs[i], seqs[i-1])
		}
	}

	// The filed trace is a normal stored trace...
	stat, err := store.Stat(info.TraceHash)
	if err != nil {
		t.Fatalf("stored trace: %v", err)
	}
	if uint64(stat.Events) != info.Stats.Events {
		t.Fatalf("stored trace has %d events, session accumulated %d", stat.Events, info.Stats.Events)
	}
	// ...and an independent post-hoc replay byte-matches the final stats.
	tr, _, err := store.OpenTrace(info.TraceHash)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sys, err := core.New(AnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	recon, err := workload.ReplayStreamStats(sys, workload.NewStreamingSource(tr, 0))
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(*info.Stats)
	wantJSON, _ := json.Marshal(recon)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("final stats diverge from post-hoc replay:\n  %s\nvs\n  %s", gotJSON, wantJSON)
	}
	assertNoSpools(t, store)
}

func TestLiveSessionCorruptTail(t *testing.T) {
	testutil.CheckGoroutines(t)
	encoded := recordEncoded(t)
	m, store := newTestManager(t, Config{})
	sess, err := m.Begin(64)
	if err != nil {
		t.Fatal(err)
	}
	// Torn tail: the stream ends mid-record with no end record — the
	// sticky-error decode path. The session must fail, file nothing, and
	// publish no final stats.
	torn := encoded[:len(encoded)-7]
	if err := sess.Run(context.Background(), bytes.NewReader(torn), nil); err == nil {
		t.Fatal("torn stream reported success")
	}
	info := sess.Info()
	if info.State != StateFailed || info.Stats != nil || info.Reconciled || info.TraceHash != "" {
		t.Fatalf("want failed with no final stats, got %+v", info)
	}
	if infos, err := store.List(); err != nil || len(infos) != 0 {
		t.Fatalf("torn stream was filed: %v, %v", infos, err)
	}
	assertNoSpools(t, store)
}

func TestLiveSessionRejectsLegacyJSON(t *testing.T) {
	testutil.CheckGoroutines(t)
	m, store := newTestManager(t, Config{})
	sess, err := m.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.NewReader(`{"name":"x","seed":1,"events":[]}`)
	err = sess.Run(context.Background(), body, nil)
	if err == nil || !strings.Contains(err.Error(), "unrecognised trace format") {
		t.Fatalf("want an unrecognised-format rejection, got %v", err)
	}
	if sess.Info().State != StateFailed {
		t.Fatalf("want failed, got %s", sess.Info().State)
	}
	assertNoSpools(t, store)
}

func TestLiveSessionMidStreamDisconnect(t *testing.T) {
	testutil.CheckGoroutines(t)
	encoded := recordEncoded(t)
	m, store := newTestManager(t, Config{})
	sess, err := m.Begin(64)
	if err != nil {
		t.Fatal(err)
	}
	// The producer sends half the stream and then the connection dies.
	pr, pw := io.Pipe()
	go func() {
		_, _ = pw.Write(encoded[:len(encoded)/2])
		pw.CloseWithError(errors.New("connection reset by peer"))
	}()
	err = sess.Run(context.Background(), pr, nil)
	if err == nil {
		t.Fatal("disconnected stream reported success")
	}
	info := sess.Info()
	if info.State != StateFailed || info.Stats != nil || info.TraceHash != "" {
		t.Fatalf("want failed with no final stats, got %+v", info)
	}
	if infos, err := store.List(); err != nil || len(infos) != 0 {
		t.Fatalf("partial stream was filed: %v, %v", infos, err)
	}
	assertNoSpools(t, store)
}

// TestLiveSessionBackpressure pins that a session reads its connection only
// to decode the window it applies next: while it analyses a window nothing
// drains the socket, so a producer faster than the analysis is pushed back
// on by TCP flow control instead of filling a queue. On every read of the
// body, the bytes read so far must lie within the end of the next window
// plus the decoder's 4 KiB read buffer. A reader that decoded windows ahead
// of the analysis would pass that bound by whole windows.
func TestLiveSessionBackpressure(t *testing.T) {
	testutil.CheckGoroutines(t)
	encoded := recordEncoded(t)
	const window = 1024
	ends := windowEnds(t, encoded, window)
	if len(ends) < 4 {
		t.Fatalf("trace has %d windows of %d events; the bound needs several", len(ends), window)
	}
	m, store := newTestManager(t, Config{})
	sess, err := m.Begin(window)
	if err != nil {
		t.Fatal(err)
	}
	body := &probeReader{r: bytes.NewReader(encoded), windows: func() uint64 { return sess.Info().Windows }}
	if err := sess.Run(context.Background(), body, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if info := sess.Info(); info.State != StateDone || !info.Reconciled || info.Windows != uint64(len(ends)) {
		t.Fatalf("want done+reconciled over %d windows, got %+v", len(ends), info)
	}
	const readBuffer = 4096
	for _, r := range body.reads {
		next := len(encoded) // every window applied: only the drain reads
		if r.windows < uint64(len(ends)) {
			next = ends[r.windows]
		}
		if r.read > next+readBuffer {
			t.Fatalf("with %d of %d windows applied the session had read %d bytes, past the next window's end at %d plus %d buffered",
				r.windows, len(ends), r.read, next, readBuffer)
		}
	}
	assertNoSpools(t, store)
}

// windowEnds returns the stream offset at which each window of the given
// size ends: a decode through one-byte reads never buffers past the record
// it waits for, so the bytes read after each window are exactly its end.
func windowEnds(t *testing.T, encoded []byte, window int) []int {
	t.Helper()
	cr := &probeReader{r: iotest.OneByteReader(bytes.NewReader(encoded))}
	tr, err := workload.NewTraceReader(cr)
	if err != nil {
		t.Fatal(err)
	}
	src := workload.NewStreamingSource(tr, window)
	var ends []int
	for {
		_, err := src.NextWindow()
		if err == io.EOF {
			return ends
		}
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, cr.n)
	}
}

// probeReader counts the bytes read through it and, when windows is set,
// records after every read the total so far and the windows applied then.
type probeReader struct {
	r       io.Reader
	n       int
	windows func() uint64
	reads   []probeRead
}

// probeRead is one read seen by a probeReader.
type probeRead struct {
	read    int
	windows uint64
}

func (p *probeReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	p.n += n
	if p.windows != nil {
		p.reads = append(p.reads, probeRead{p.n, p.windows()})
	}
	return n, err
}

func TestLiveSessionManagerShutdownMidStream(t *testing.T) {
	testutil.CheckGoroutines(t)
	encoded := recordEncoded(t)
	m, store := newTestManager(t, Config{})
	sess, err := m.Begin(64)
	if err != nil {
		t.Fatal(err)
	}
	frames, cancel, live := sess.Subscribe()
	if !live {
		t.Fatal("session not live before Run")
	}
	defer cancel()

	// The producer sends half the stream, and the rest only once the
	// manager has shut down, so the stream cannot end before the shutdown.
	pr, pw := io.Pipe()
	closed := make(chan struct{})
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		half := len(encoded) / 2
		if _, err := pw.Write(encoded[:half]); err != nil {
			return
		}
		<-closed
		if _, err := pw.Write(encoded[half:]); err != nil {
			return
		}
		pw.Close()
	}()
	done := make(chan error, 1)
	go func() { done <- sess.Run(context.Background(), pr, nil) }()

	if _, ok := <-frames; !ok {
		t.Fatal("session ended before its first frame")
	}
	m.Close()
	close(closed)

	err = <-done
	pr.CloseWithError(errors.New("test over")) // unblock the producer
	<-wrote
	if err == nil {
		t.Fatal("session survived manager shutdown")
	}
	info := sess.Info()
	if info.State != StateFailed || info.Stats != nil || info.TraceHash != "" {
		t.Fatalf("want failed with no final stats, got %+v", info)
	}
	if infos, lerr := store.List(); lerr != nil || len(infos) != 0 {
		t.Fatalf("interrupted stream was filed: %v, %v", infos, lerr)
	}
	if _, err := m.Begin(0); err == nil {
		t.Fatal("Begin succeeded on a closed manager")
	}
	assertNoSpools(t, store)
}

func TestLiveSessionIdleTimeout(t *testing.T) {
	testutil.CheckGoroutines(t)
	encoded := recordEncoded(t)
	m, store := newTestManager(t, Config{IdleTimeout: 30 * time.Millisecond})
	sess, err := m.Begin(64)
	if err != nil {
		t.Fatal(err)
	}
	// A pipe that delivers a prefix and then goes quiet forever; the idle
	// deadline hook simulates the connection's read deadline by failing
	// reads after the deadline passes.
	pr, pw := io.Pipe()
	go func() {
		_, _ = pw.Write(encoded[:len(encoded)/2])
		// Keep the pipe open: no EOF, no data — pure silence.
	}()
	defer pw.Close()
	dr := &deadlineReader{r: pr}
	err = sess.Run(context.Background(), dr, dr.set)
	if err == nil {
		t.Fatal("idle stream reported success")
	}
	if info := sess.Info(); info.State != StateFailed || info.Stats != nil {
		t.Fatalf("want failed with no final stats, got %+v", info)
	}
	assertNoSpools(t, store)
}

// deadlineReader gives a plain io.Reader a read deadline, standing in for
// a net.Conn's SetReadDeadline in the idle-timeout test. Reads past the
// deadline fail with os.ErrDeadlineExceeded; reads racing the deadline are
// cut off by it.
type deadlineReader struct {
	r  io.Reader
	mu sync.Mutex
	at time.Time
}

func (d *deadlineReader) set(at time.Time) error {
	d.mu.Lock()
	d.at = at
	d.mu.Unlock()
	return nil
}

func (d *deadlineReader) deadline() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.at
}

func (d *deadlineReader) Read(p []byte) (int, error) {
	at := d.deadline()
	if !at.IsZero() && time.Now().After(at) {
		return 0, os.ErrDeadlineExceeded
	}
	type result struct {
		n   int
		err error
	}
	ch := make(chan result, 1)
	go func() {
		n, err := d.r.Read(p)
		ch <- result{n, err}
	}()
	var timer *time.Timer
	var expire <-chan time.Time
	if !at.IsZero() {
		timer = time.NewTimer(time.Until(at))
		defer timer.Stop()
		expire = timer.C
	}
	select {
	case res := <-ch:
		return res.n, res.err
	case <-expire:
		return 0, os.ErrDeadlineExceeded
	}
}
