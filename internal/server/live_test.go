// Service-level tests for live trace ingestion: the full-duplex POST /live
// contract (session ID in the early response header, final Info in the
// body), the SSE frame stream, idle-timeout teardown over real connection
// read deadlines, and N concurrent live streams racing concurrent campaign
// submissions — each stream isolated, each SSE sequence stable.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/livetrace"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// newLiveTestServer is newTestServer plus a Server.Close cleanup: live
// sessions own goroutines, so the server must be torn down (after the
// listener, so in-flight requests finish first) for the leak check to pass.
func newLiveTestServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// recordLiveTrace records a small omnetpp run and returns its binary
// encoding plus the event count a complete replay must report.
func recordLiveTrace(t *testing.T) ([]byte, int) {
	t.Helper()
	p, ok := workload.ByName("omnetpp")
	if !ok {
		t.Fatal("unknown profile omnetpp")
	}
	sys, err := core.New(livetrace.AnalysisConfig())
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
	r, err := workload.NewTraceReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for ; ; events++ {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), events
}

// followLiveSSE consumes one live session's event stream to its terminal
// info, checking frame isolation (stats only for this session's windows,
// strictly increasing seq) and that the stream ends with a terminal info
// whose ID matches. attached, when non-nil, is called once the initial info
// event has been received — proof the subscription is active. Returns the
// terminal info and the number of stats frames seen.
func followLiveSSE(ts *httptest.Server, id string, attached func()) (livetrace.Info, int, error) {
	resp, err := http.Get(ts.URL + "/live/" + id + "/events")
	if err != nil {
		return livetrace.Info{}, 0, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return livetrace.Info{}, 0, fmt.Errorf("live %s: content type %q", id, ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var event string
	var lastSeq uint64
	frames := 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "stats":
				var f livetrace.Frame
				if err := json.Unmarshal(data, &f); err != nil {
					return livetrace.Info{}, frames, fmt.Errorf("live %s: bad frame: %v", id, err)
				}
				if f.Seq <= lastSeq {
					return livetrace.Info{}, frames, fmt.Errorf("live %s: seq %d after %d", id, f.Seq, lastSeq)
				}
				lastSeq = f.Seq
				frames++
			case "info":
				var info livetrace.Info
				if err := json.Unmarshal(data, &info); err != nil {
					return livetrace.Info{}, frames, fmt.Errorf("live %s: bad info: %v", id, err)
				}
				if info.ID != id {
					return livetrace.Info{}, frames, fmt.Errorf("live %s: stream leaked info for %s", id, info.ID)
				}
				if attached != nil {
					attached()
					attached = nil
				}
				if info.State != livetrace.StateRunning {
					return info, frames, nil
				}
			}
		}
	}
	return livetrace.Info{}, frames, fmt.Errorf("live %s: stream ended without a terminal info", id)
}

// streamLive POSTs encoded trace bytes to /live in chunks and returns the
// final Info from the response body. The session ID is sent to idc (which
// is always closed before return) as soon as the early response header
// arrives — while the body is still being produced — which is itself the
// full-duplex contract under test. When release is non-nil the producer
// writes one chunk and then holds the rest of the stream until release
// closes, keeping the session running while a subscriber attaches.
func streamLive(ts *httptest.Server, encoded []byte, window int, idc chan<- string, release <-chan struct{}) (livetrace.Info, error) {
	if idc != nil {
		defer close(idc)
	}
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		const chunk = 8 << 10
		for off := 0; off < len(encoded); off += chunk {
			end := min(off+chunk, len(encoded))
			if _, err := pw.Write(encoded[off:end]); err != nil {
				done <- err
				return
			}
			if release != nil {
				<-release
				release = nil
			}
		}
		done <- pw.Close()
	}()
	url := ts.URL + "/live"
	if window > 0 {
		url += fmt.Sprintf("?window=%d", window)
	}
	resp, err := http.Post(url, "application/octet-stream", pr)
	if err != nil {
		pr.CloseWithError(err)
		return livetrace.Info{}, err
	}
	defer resp.Body.Close()
	id := resp.Header.Get("X-Live-Session")
	if id == "" {
		return livetrace.Info{}, fmt.Errorf("no X-Live-Session header (status %d)", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/live/"+id {
		return livetrace.Info{}, fmt.Errorf("Location %q for session %s", loc, id)
	}
	if idc != nil {
		idc <- id
	}
	var info livetrace.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return livetrace.Info{}, fmt.Errorf("decoding final info: %v", err)
	}
	if err := <-done; err != nil {
		return info, fmt.Errorf("writing stream: %v", err)
	}
	if info.ID != id {
		return info, fmt.Errorf("final info for %s on session %s", info.ID, id)
	}
	return info, nil
}

// liveStreamResult is everything one gated live run produced.
type liveStreamResult struct {
	final   livetrace.Info // from the POST response body
	sseInfo livetrace.Info // terminal info from the SSE stream
	frames  int            // stats frames the subscriber saw
}

// runGatedLiveStream streams encoded to /live with a concurrent SSE
// subscriber, holding the stream's tail until the subscriber has received
// its initial info — so every run is guaranteed to exercise live frames,
// not just a post-hoc terminal snapshot.
func runGatedLiveStream(ts *httptest.Server, encoded []byte, window int) (liveStreamResult, error) {
	idc := make(chan string, 1)
	attached := make(chan struct{})
	type sseRes struct {
		info   livetrace.Info
		frames int
		err    error
	}
	ssec := make(chan sseRes, 1)
	go func() {
		var once sync.Once
		markAttached := func() { once.Do(func() { close(attached) }) }
		// A closed idc (streamLive failed early) yields "", a 404, and a
		// fast error — the producer is unblocked either way.
		info, frames, err := followLiveSSE(ts, <-idc, markAttached)
		markAttached()
		ssec <- sseRes{info, frames, err}
	}()
	final, err := streamLive(ts, encoded, window, idc, attached)
	sse := <-ssec
	if err != nil {
		return liveStreamResult{}, err
	}
	if sse.err != nil {
		return liveStreamResult{}, sse.err
	}
	return liveStreamResult{final: final, sseInfo: sse.info, frames: sse.frames}, nil
}

// TestLiveIngestEndToEnd drives the happy path over real HTTP: the early
// header names the session while it is still running, SSE frames stream to
// a concurrent subscriber, and the final body reports done + reconciled
// with the trace filed in the store.
func TestLiveIngestEndToEnd(t *testing.T) {
	testutil.CheckGoroutines(t)
	ts := newLiveTestServer(t, Options{TraceDir: t.TempDir()})
	encoded, events := recordLiveTrace(t)

	res, err := runGatedLiveStream(ts, encoded, 256)
	if err != nil {
		t.Fatal(err)
	}
	final := res.final
	if final.State != livetrace.StateDone || !final.Reconciled {
		t.Fatalf("final info: state %q reconciled %v (%s)", final.State, final.Reconciled, final.Error)
	}
	if final.Events != uint64(events) {
		t.Errorf("final events %d, trace has %d", final.Events, events)
	}
	if final.TraceHash == "" || final.Stats == nil {
		t.Fatalf("done session missing trace hash or stats: %+v", final)
	}
	if res.sseInfo.State != livetrace.StateDone || res.frames == 0 {
		t.Errorf("SSE terminal state %q after %d frames", res.sseInfo.State, res.frames)
	}
	// The SSE subscriber attached while the tail was held, so the session
	// was observably running mid-stream; its terminal info must carry the
	// same reconciled result the POST body reported.
	if res.sseInfo.TraceHash != final.TraceHash || !res.sseInfo.Reconciled {
		t.Errorf("SSE terminal info diverges from POST body: %+v vs %+v", res.sseInfo, final)
	}

	// The filed trace is fetchable through the ordinary trace endpoints.
	resp, err := http.Get(ts.URL + "/traces/" + final.TraceHash)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /traces/%s: %d", final.TraceHash, resp.StatusCode)
	}

	// And the session survives in the listing, terminal and reconciled.
	var list []livetrace.Info
	if code := getJSON(t, ts.URL+"/live", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("GET /live: %d, %d entries", code, len(list))
	}
	if list[0].State != livetrace.StateDone || !list[0].Reconciled {
		t.Errorf("listed session: %+v", list[0])
	}
}

// TestLiveIngestBadRequests covers the request-validation edges.
func TestLiveIngestBadRequests(t *testing.T) {
	testutil.CheckGoroutines(t)
	ts := newLiveTestServer(t, Options{TraceDir: t.TempDir()})

	resp, err := http.Post(ts.URL+"/live?window=bogus", "application/octet-stream", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus window: %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/live/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown session info: %d", code)
	}
	resp, err = http.Get(ts.URL + "/live/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session events: %d", resp.StatusCode)
	}
}

// TestLiveIngestIdleTimeout exercises the rolling read deadline over a real
// connection: a producer that goes quiet mid-stream is torn down, the
// session fails, and the failure still reaches the client as the response
// body.
func TestLiveIngestIdleTimeout(t *testing.T) {
	testutil.CheckGoroutines(t)
	ts := newLiveTestServer(t, Options{TraceDir: t.TempDir(), LiveIdleTimeout: 100 * time.Millisecond})
	encoded, _ := recordLiveTrace(t)

	pr, pw := io.Pipe()
	respc := make(chan livetrace.Info, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/live", "application/octet-stream", pr)
		if err != nil {
			errc <- err
			return
		}
		defer resp.Body.Close()
		var info livetrace.Info
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			errc <- fmt.Errorf("decoding final info: %v", err)
			return
		}
		respc <- info
	}()
	// Half a stream, then silence: the idle deadline must fire.
	if _, err := pw.Write(encoded[:len(encoded)/2]); err != nil {
		t.Fatal(err)
	}
	defer pw.Close()

	select {
	case info := <-respc:
		if info.State != livetrace.StateFailed || info.Error == "" {
			t.Fatalf("idle session: state %q error %q", info.State, info.Error)
		}
		if !strings.Contains(info.Error, "timeout") {
			t.Errorf("idle error %q does not mention the timeout", info.Error)
		}
		if info.Stats != nil || info.TraceHash != "" {
			t.Errorf("failed session leaked final stats: %+v", info)
		}
	case err := <-errc:
		t.Fatalf("idle-timeout request failed before delivering info: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("idle timeout never fired")
	}
}

// TestConcurrentLiveStreamsAndCampaigns races several live ingestion
// streams against concurrent campaign submissions under -race: sessions
// must stay isolated (each SSE stream sees only its own session, with
// strictly increasing seq), every stream must reconcile, and the campaigns
// must be untouched by the firehose traffic.
func TestConcurrentLiveStreamsAndCampaigns(t *testing.T) {
	testutil.CheckGoroutines(t)
	ts := newLiveTestServer(t, Options{Workers: 2, TraceDir: t.TempDir()})
	encoded, events := recordLiveTrace(t)

	const streams = 3
	var wg sync.WaitGroup
	errs := make(chan error, streams+2)

	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := runGatedLiveStream(ts, encoded, 512)
			if err == nil {
				info := res.final
				switch {
				case info.State != livetrace.StateDone || !info.Reconciled:
					err = fmt.Errorf("live %s: state %q reconciled %v (%s)", info.ID, info.State, info.Reconciled, info.Error)
				case info.Events != uint64(events):
					err = fmt.Errorf("live %s: %d events, trace has %d", info.ID, info.Events, events)
				case res.sseInfo.State != livetrace.StateDone || res.frames == 0:
					err = fmt.Errorf("live %s: SSE terminal %q after %d frames", info.ID, res.sseInfo.State, res.frames)
				}
			}
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub := submit(t, ts, trafficSpec(fmt.Sprintf("live-race-%d", i), 2), 2)
			errs <- readSSE(ts, sub.ID)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}

	var list []livetrace.Info
	if code := getJSON(t, ts.URL+"/live", &list); code != http.StatusOK || len(list) != streams {
		t.Fatalf("GET /live: %d, %d entries", code, len(list))
	}
	seen := make(map[string]bool)
	for _, info := range list {
		if info.State != livetrace.StateDone || !info.Reconciled || info.Events != uint64(events) {
			t.Errorf("session %s: %+v", info.ID, info)
		}
		if seen[info.ID] {
			t.Errorf("duplicate session id %s", info.ID)
		}
		seen[info.ID] = true
	}

	var campaigns []Status
	if code := getJSON(t, ts.URL+"/campaigns", &campaigns); code != http.StatusOK || len(campaigns) != 2 {
		t.Fatalf("campaign list: %d, %d entries", code, len(campaigns))
	}
	for _, st := range campaigns {
		if st.State != StateDone || st.JobsFailed != 0 {
			t.Errorf("campaign %s: %+v", st.ID, st)
		}
	}
}
