package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/livetrace"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

// liveIngest streams recorded CVTR traces into POST /live on a loopback
// server. Its unit is one round: a client streams every trace once, the two
// clients half a round apart. Every session must end done and reconciled,
// with the stats the benchmark computed for that trace itself.
type liveIngest struct {
	dir    string
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	traces [][]byte // [seedIndex*len(liveProfiles)+profile]
	want   [][]byte // canonical JSON of each trace's ReplayStreamStats
}

var liveProfiles = []string{"xalancbmk", "dealII", "soplex", "omnetpp"}

func setupLive(cfg config) (_ session, err error) {
	// 8 MiB heaps and 3 sweeps make streams of 36k–220k events.
	wopts := workload.Options{MaxLiveBytes: 8 << 20, MinSweeps: 3}
	if cfg.size == sizeTiny {
		wopts = workload.Options{MaxLiveBytes: 1 << 20, MinSweeps: 1}
	}
	l := &liveIngest{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: poolWorkers}}}
	defer func() {
		if err != nil {
			l.close()
		}
	}()
	for _, seed := range []uint64{cfg.seed, cfg.seed + 1} {
		for _, p := range liveProfiles {
			tr, err := recordTrace(p, seed, livetrace.AnalysisConfig(), wopts)
			if err != nil {
				return nil, err
			}
			want, err := replayStats(tr, livetrace.AnalysisConfig())
			if err != nil {
				return nil, err
			}
			l.traces = append(l.traces, tr)
			l.want = append(l.want, want)
		}
	}
	if l.dir, err = os.MkdirTemp(cfg.dir, "live-ingest-"); err != nil {
		return nil, err
	}
	if l.srv, err = server.New(server.Options{Workers: poolWorkers, TraceDir: filepath.Join(l.dir, "traces")}); err != nil {
		return nil, err
	}
	l.ts = httptest.NewServer(l.srv.Handler())
	return l, nil
}

func (l *liveIngest) unit(c, i int, tr *tracer) (unitResult, error) {
	var u unitResult
	for j := range l.traces {
		k := (j + c*len(l.traces)/2) % len(l.traces)
		u.ops++
		st, err := l.stream(k, fmt.Sprintf("r%d-t%d", i, k), tr)
		if err != nil {
			u.failed++
			return u, err
		}
		u.events += st.Mallocs + st.Frees
		u.swept += st.Sweep.BytesRead + st.Sweep.BytesWritten
	}
	return u, nil
}

// sendTimer notes when the request body has been read to its end: the
// moment the last byte went out. The transport reads it on its own
// goroutine, and with the server's early (full-duplex) response the client
// learns of completion only through the network, hence the atomic.
type sendTimer struct {
	r    io.Reader
	done atomic.Int64 // UnixNano, 0 until EOF
}

func (s *sendTimer) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err == io.EOF {
		s.done.CompareAndSwap(0, time.Now().UnixNano())
	}
	return n, err
}

// stream sends trace k through POST /live and checks the final session
// info against the stats computed at setup.
func (l *liveIngest) stream(k int, requestID string, tr *tracer) (workload.StreamStats, error) {
	var st workload.StreamStats
	trace := l.traces[k]
	start := time.Now()
	id := tr.begin(0, "stream", requestID)
	defer tr.end(id)
	body := &sendTimer{r: bytes.NewReader(trace)} // unknown length: sent chunked, like a pipe
	req, err := http.NewRequest(http.MethodPost, l.ts.URL+"/live", body)
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Request-Id", requestID)
	resp, err := l.client.Do(req)
	if err != nil {
		return st, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	finished := time.Now()
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("POST /live: %s: %s", resp.Status, b)
	}
	if sent := body.done.Load(); sent != 0 {
		tr.record(id, "send", requestID, start, time.Unix(0, sent))
		tr.record(id, "finish", requestID, time.Unix(0, sent), finished)
	}

	var info livetrace.Info
	if err := json.Unmarshal(b, &info); err != nil {
		return st, fmt.Errorf("decoding the final session info: %w", err)
	}
	if info.State != livetrace.StateDone || !info.Reconciled || info.Stats == nil {
		return st, fmt.Errorf("live session %s ended %s (reconciled %v): %s", info.ID, info.State, info.Reconciled, info.Error)
	}
	if info.Bytes != uint64(len(trace)) {
		return st, fmt.Errorf("live session %s read %d bytes of %d", info.ID, info.Bytes, len(trace))
	}
	got, err := json.Marshal(info.Stats)
	if err != nil {
		return st, err
	}
	if !bytes.Equal(got, l.want[k]) {
		return st, fmt.Errorf("live session %s stats differ from the benchmark's own replay of the trace", info.ID)
	}
	return *info.Stats, nil
}

// check verifies that no analysis window was ever dropped.
func (l *liveIngest) check() []error {
	samples, err := l.scrape()
	if err != nil {
		return []error{err}
	}
	if n := obs.Sum(samples, "cherivoke_live_dropped_windows_total"); n != 0 {
		return []error{fmt.Errorf("%v live windows dropped", n)}
	}
	return nil
}

func (l *liveIngest) scrape() ([]obs.Sample, error) {
	return scrapeAll(l.client, []*httptest.Server{l.ts})
}

func (l *liveIngest) outputs() map[string]string   { return nil }
func (l *liveIngest) probe() ([]byte, core.Config) { return l.traces[1], livetrace.AnalysisConfig() }

func (l *liveIngest) close() {
	if l.ts != nil {
		l.ts.Close()
	}
	if l.srv != nil {
		l.srv.Close()
	}
	l.client.CloseIdleConnections()
	if l.dir != "" {
		os.RemoveAll(l.dir)
	}
}
