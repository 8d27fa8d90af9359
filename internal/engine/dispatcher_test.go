package engine

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
)

// fakeWorker is a minimal worker process for dispatcher tests: it speaks
// the internal job protocol (decode JobRequest, execute, respond) and can
// be switched into a failing mode — the dispatcher cannot tell a crashed
// worker from one answering 500s, so flipping the switch is "killing" it.
type fakeWorker struct {
	ts       *httptest.Server
	jobs     atomic.Int64
	failing  atomic.Bool
	rejected atomic.Int64 // when >0 via rejecting, count of 404s served
	// rejecting makes the worker answer 404 for jobs while staying
	// healthy — the missing-trace shape of refusal.
	rejecting atomic.Bool
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	w := &fakeWorker{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		if w.failing.Load() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		rw.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("POST /internal/jobs", func(rw http.ResponseWriter, r *http.Request) {
		if w.failing.Load() {
			http.Error(rw, "worker down", http.StatusInternalServerError)
			return
		}
		if w.rejecting.Load() {
			w.rejected.Add(1)
			http.Error(rw, "trace not available on this worker", http.StatusNotFound)
			return
		}
		var req JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		w.jobs.Add(1)
		jr := campaign.ExecuteJob(req.Spec, req.Job, nil)
		json.NewEncoder(rw).Encode(JobResponse{Key: req.Key, Result: jr})
	})
	w.ts = httptest.NewServer(mux)
	t.Cleanup(w.ts.Close)
	return w
}

// newTestDispatcher builds a dispatcher over the given fake workers and
// cleans it up with the test.
func newTestDispatcher(t *testing.T, opts DispatcherOptions, workers ...*fakeWorker) *Dispatcher {
	t.Helper()
	remotes := make([]*RemoteRunner, len(workers))
	for i, w := range workers {
		remotes[i] = NewRemoteRunner(w.ts.URL, "")
	}
	d := NewDispatcher(remotes, opts)
	t.Cleanup(d.Close)
	return d
}

// runLocal is the reference output every dispatch path must reproduce.
func runLocal(t *testing.T, spec campaign.Spec) (*campaign.Result, []byte, []byte) {
	t.Helper()
	res, err := campaign.Run(context.Background(), spec, campaign.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, c := artifacts(t, res)
	return res, j, c
}

// resolveWith runs spec through a fresh engine wired to the given runner
// and returns its artifacts.
func resolveWith(t *testing.T, runner Runner, spec campaign.Spec) (*campaign.Result, []byte, []byte) {
	t.Helper()
	e, err := New(NewMemStore(), Options{Workers: 2, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := e.Resolve(context.Background(), spec, ResolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j, c := artifacts(t, res)
	return res, j, c
}

func TestShardIndexStableAndInRange(t *testing.T) {
	spec := testSpec("povray", "hmmer", "omnetpp", "xalancbmk")
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 7} {
		seen := map[int]bool{}
		for _, job := range jobs {
			key := JobKey(spec, job, "")
			idx := shardIndex(key, n)
			if idx < 0 || idx >= n {
				t.Fatalf("shardIndex(%q, %d) = %d out of range", key, n, idx)
			}
			if idx != shardIndex(key, n) {
				t.Fatalf("shardIndex not deterministic for %q", key)
			}
			seen[idx] = true
		}
		t.Logf("n=%d: %d jobs spread over %d shards", n, len(jobs), len(seen))
	}
	// Non-hex keys must still land in range via the FNV fallback.
	if idx := shardIndex("not-a-hex-key", 3); idx < 0 || idx >= 3 {
		t.Fatalf("fallback shardIndex out of range: %d", idx)
	}
}

// TestDispatcherByteIdentity is the distribution determinism contract at
// the engine layer: a two-worker fleet produces artifacts byte-identical
// to a single-process run of the same spec, and every job ran remotely.
func TestDispatcherByteIdentity(t *testing.T) {
	spec := testSpec("povray", "hmmer")
	_, wantJSON, wantCSV := runLocal(t, spec)

	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	d := newTestDispatcher(t, DispatcherOptions{}, w1, w2)
	_, gotJSON, gotCSV := resolveWith(t, d, spec)

	if string(gotJSON) != string(wantJSON) {
		t.Error("distributed JSON artifact differs from single-process run")
	}
	if string(gotCSV) != string(wantCSV) {
		t.Error("distributed CSV artifact differs from single-process run")
	}
	st := d.Stats()
	if got := w1.jobs.Load() + w2.jobs.Load(); got != 2 || st.Remote != 2 {
		t.Errorf("want 2 remote executions, workers saw %d, stats %+v", got, st)
	}
	if st.LocalFallback != 0 {
		t.Errorf("unexpected local fallbacks: %+v", st)
	}
}

// TestDispatcherReassignsFromDeadWorker kills one worker's half of the
// fleet before dispatch: its jobs must be reassigned to the survivor and
// the artifacts must not change.
func TestDispatcherReassignsFromDeadWorker(t *testing.T) {
	spec := testSpec("povray", "hmmer", "omnetpp", "xalancbmk")
	_, wantJSON, _ := runLocal(t, spec)

	dead, alive := newFakeWorker(t), newFakeWorker(t)
	dead.failing.Store(true)
	d := newTestDispatcher(t, DispatcherOptions{}, dead, alive)
	_, gotJSON, _ := resolveWith(t, d, spec)

	if string(gotJSON) != string(wantJSON) {
		t.Error("artifact differs after worker failure")
	}
	jobs, _ := spec.Jobs()
	preferDead := 0
	for _, job := range jobs {
		if shardIndex(JobKey(spec, job, ""), 2) == 0 {
			preferDead++
		}
	}
	st := d.Stats()
	if st.Remote != len(jobs) || st.Reassigned != preferDead {
		t.Errorf("want %d remote with %d reassigned, got %+v (dead executed %d)",
			len(jobs), preferDead, st, dead.jobs.Load())
	}
	if dead.jobs.Load() != 0 {
		t.Errorf("dead worker executed %d jobs", dead.jobs.Load())
	}
	if states := d.WorkerStates(); !states[0].Down || states[1].Down {
		t.Errorf("worker states after failure: %+v", states)
	}
}

// TestDispatcherLocalFallback: with the whole fleet dead, every job runs
// locally and the campaign still completes with identical artifacts.
func TestDispatcherLocalFallback(t *testing.T) {
	spec := testSpec("povray", "hmmer")
	_, wantJSON, _ := runLocal(t, spec)

	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	w1.failing.Store(true)
	w2.failing.Store(true)
	d := newTestDispatcher(t, DispatcherOptions{}, w1, w2)
	_, gotJSON, _ := resolveWith(t, d, spec)

	if string(gotJSON) != string(wantJSON) {
		t.Error("artifact differs under total fleet failure")
	}
	if st := d.Stats(); st.LocalFallback != 2 || st.Remote != 0 {
		t.Errorf("want 2 local fallbacks, got %+v", st)
	}
}

// TestDispatcherNoWorkersRunsLocally covers the degenerate configuration:
// an empty fleet is plain local execution, no fallback accounting.
func TestDispatcherNoWorkersRunsLocally(t *testing.T) {
	spec := testSpec()
	_, wantJSON, _ := runLocal(t, spec)
	d := newTestDispatcher(t, DispatcherOptions{})
	_, gotJSON, _ := resolveWith(t, d, spec)
	if string(gotJSON) != string(wantJSON) {
		t.Error("artifact differs with empty fleet")
	}
	if d.Capacity() != 0 {
		t.Errorf("empty fleet capacity = %d", d.Capacity())
	}
}

// TestDispatcherRejectionKeepsWorkerUp: a worker that refuses jobs with a
// 4xx (a trace it does not hold) must stay in the rotation — the jobs
// reroute, the artifacts do not change, and one unroutable campaign cannot
// collapse a healthy fleet.
func TestDispatcherRejectionKeepsWorkerUp(t *testing.T) {
	spec := testSpec("povray", "hmmer", "omnetpp", "xalancbmk")
	_, wantJSON, _ := runLocal(t, spec)

	rejector, alive := newFakeWorker(t), newFakeWorker(t)
	rejector.rejecting.Store(true)
	d := newTestDispatcher(t, DispatcherOptions{}, rejector, alive)
	_, gotJSON, _ := resolveWith(t, d, spec)

	if string(gotJSON) != string(wantJSON) {
		t.Error("artifact differs when a worker rejects jobs")
	}
	if states := d.WorkerStates(); states[0].Down || states[1].Down {
		t.Errorf("a rejecting worker must stay in the rotation: %+v", states)
	}
	if rejector.jobs.Load() != 0 {
		t.Errorf("rejecting worker executed %d jobs", rejector.jobs.Load())
	}
	if rejector.rejected.Load() == 0 {
		t.Skip("no job preferred the rejecting worker for this key layout")
	}
	if st := d.Stats(); st.Remote+st.LocalFallback != 4 {
		t.Errorf("jobs unaccounted for: %+v", st)
	}
}

// TestDispatcherHealthRevival: a worker marked down rejoins the rotation
// once a probe finds it healthy again.
func TestDispatcherHealthRevival(t *testing.T) {
	w := newFakeWorker(t)
	w.failing.Store(true)
	d := newTestDispatcher(t, DispatcherOptions{}, w)

	spec := testSpec()
	jobs, _ := spec.Jobs()
	key := JobKey(spec, jobs[0], "")
	if _, err := d.RunJob(context.Background(), key, spec, jobs[0]); err != nil {
		t.Fatalf("local fallback should have absorbed the failure: %v", err)
	}
	if states := d.WorkerStates(); !states[0].Down {
		t.Fatal("worker not marked down after failure")
	}

	w.failing.Store(false)
	d.probeDown(context.Background())
	if states := d.WorkerStates(); states[0].Down {
		t.Fatal("worker not revived by health probe")
	}
	if _, err := d.RunJob(context.Background(), key, spec, jobs[0]); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Remote != 1 || w.jobs.Load() != 1 {
		t.Errorf("revived worker did not execute: %+v (worker saw %d)", st, w.jobs.Load())
	}
}

// TestRemoteRunnerBoundsResponse: a worker whose 200 response is a valid
// JobResponse padded past maxJobResponseBytes with an unknown field gets an
// error, not a job result.
func TestRemoteRunnerBoundsResponse(t *testing.T) {
	spec := testSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	key := JobKey(spec, jobs[0], "")
	pad := strings.Repeat("x", 2<<20)
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		body, _ := json.Marshal(struct {
			JobResponse
			Pad string `json:"pad"`
		}{JobResponse{Key: key, Result: campaign.JobResult{Job: jobs[0]}}, pad})
		rw.Write(body)
	}))
	defer ts.Close()

	jr, err := NewRemoteRunner(ts.URL, "").RunJob(context.Background(), key, spec, jobs[0])
	if err == nil {
		t.Fatalf("a %d-byte response was accepted as job %d's result", len(pad), jr.Job.ID)
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("error %q does not name the bound", err)
	}
}
