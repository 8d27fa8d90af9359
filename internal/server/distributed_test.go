package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/revoke"
	"repro/internal/sim"
)

// newWorker starts a worker-mode server and returns its base URL.
func newWorker(t *testing.T, token string) *httptest.Server {
	t.Helper()
	return newTestServer(t, Options{Workers: 1, Worker: true, AuthToken: token})
}

// killableWorker fronts a worker-mode server with a switch that simulates
// the process dying: once killed, every request — health checks included —
// is answered with a refused-looking 502.
type killableWorker struct {
	ts     *httptest.Server
	killed atomic.Bool
	served atomic.Int64
}

func newKillableWorker(t *testing.T, token string) *killableWorker {
	t.Helper()
	s, err := New(Options{Workers: 1, Worker: true, AuthToken: token})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	inner := s.Handler()
	k := &killableWorker{}
	k.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if k.killed.Load() {
			http.Error(w, "worker killed", http.StatusBadGateway)
			return
		}
		if r.URL.Path == "/internal/jobs" {
			k.served.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(k.ts.Close)
	return k
}

func distSpec() campaign.Spec {
	return campaign.Spec{
		Name:      "dist",
		Profiles:  []string{"povray", "hmmer", "omnetpp", "xalancbmk"},
		MaxLive:   []uint64{1 << 20},
		MinSweeps: 1,
		MaxEvents: 10000,
	}
}

// runAndFetch submits spec, waits for completion, and returns the terminal
// status plus the JSON and CSV artifact bodies.
func runAndFetch(t *testing.T, ts *httptest.Server, spec campaign.Spec, workers int) (Status, []byte, []byte) {
	t.Helper()
	sub := submit(t, ts, spec, workers)
	st := waitDone(t, ts, sub.ID)
	if st.State != StateDone {
		t.Fatalf("campaign state %q (%s)", st.State, st.Error)
	}
	_, jsonBody, _ := get(t, ts.URL+"/campaigns/"+sub.ID+"/results")
	_, csvBody, _ := get(t, ts.URL+"/campaigns/"+sub.ID+"/results?format=csv")
	return st, jsonBody, csvBody
}

// TestCoordinatorByteIdentity is the acceptance criterion end to end: a
// campaign run through a coordinator with two workers produces JSON and CSV
// artifacts byte-identical to the same spec on a single-node server, the
// coordinator's healthz lists the fleet, and resubmission is served
// entirely from the shared store.
func TestCoordinatorByteIdentity(t *testing.T) {
	const token = "test-token"
	single := newTestServer(t, Options{Workers: 2})
	_, wantJSON, wantCSV := runAndFetch(t, single, distSpec(), 2)

	w1, w2 := newWorker(t, token), newWorker(t, token)
	coord := newTestServer(t, Options{
		WorkerURLs: []string{w1.URL, w2.URL},
		AuthToken:  token,
	})

	var health struct {
		Status  string               `json:"status"`
		Workers []engine.WorkerState `json:"workers"`
	}
	if code := getJSON(t, coord.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health.Status != "ok" || len(health.Workers) != 2 {
		t.Fatalf("coordinator healthz: %+v", health)
	}

	st, gotJSON, gotCSV := runAndFetch(t, coord, distSpec(), 0)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("coordinator JSON artifact differs from single-node run")
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Error("coordinator CSV artifact differs from single-node run")
	}
	if st.CacheHits != 0 {
		t.Errorf("cold distributed run reported %d cache hits", st.CacheHits)
	}

	// Resubmission: the fleet's results landed in the coordinator's
	// store, so nothing executes anywhere.
	st2, warmJSON, warmCSV := runAndFetch(t, coord, distSpec(), 0)
	if st2.CacheHits != st2.JobsTotal || st2.JobsTotal == 0 {
		t.Fatalf("resubmission executed jobs: %d hits of %d", st2.CacheHits, st2.JobsTotal)
	}
	if !bytes.Equal(warmJSON, wantJSON) || !bytes.Equal(warmCSV, wantCSV) {
		t.Error("warm distributed artifacts differ from single-node run")
	}
}

// TestCoordinatorSurvivesWorkerDeath kills one of two workers mid-campaign:
// the coordinator must reassign its jobs to the survivor (or run them
// locally) and the final artifacts must stay byte-identical to a
// single-node run.
func TestCoordinatorSurvivesWorkerDeath(t *testing.T) {
	const token = "test-token"
	single := newTestServer(t, Options{Workers: 2})
	_, wantJSON, wantCSV := runAndFetch(t, single, distSpec(), 2)

	// Both workers are killable; whichever serves the first job is the
	// victim, so the kill lands mid-campaign whatever the shard layout.
	w1, w2 := newKillableWorker(t, token), newKillableWorker(t, token)
	coord := newTestServer(t, Options{
		WorkerURLs: []string{w1.ts.URL, w2.ts.URL},
		AuthToken:  token,
		// Serial dispatch makes "mid-campaign" deterministic: the kill
		// lands between two job boundaries.
		Workers:        1,
		WorkerInFlight: 1,
	})

	sub := submit(t, coord, distSpec(), 1)
	deadline := time.Now().Add(60 * time.Second)
	for w1.served.Load()+w2.served.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no worker served a job in time")
		}
		var st Status
		getJSON(t, coord.URL+"/campaigns/"+sub.ID, &st)
		if st.State != StateRunning {
			t.Fatalf("campaign finished before any worker served a job (state %q)", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim := w1
	if w2.served.Load() > 0 {
		victim = w2
	}
	victim.killed.Store(true)

	st := waitDone(t, coord, sub.ID)
	if st.State != StateDone || st.JobsFailed != 0 {
		t.Fatalf("campaign after worker death: state %q, %d failed (%s)", st.State, st.JobsFailed, st.Error)
	}
	_, gotJSON, _ := get(t, coord.URL+"/campaigns/"+sub.ID+"/results")
	_, gotCSV, _ := get(t, coord.URL+"/campaigns/"+sub.ID+"/results?format=csv")
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("JSON artifact differs after mid-campaign worker death")
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Error("CSV artifact differs after mid-campaign worker death")
	}
}

// TestInternalJobsAuth: the internal API refuses requests without the
// configured bearer token and accepts well-formed authenticated ones.
func TestInternalJobsAuth(t *testing.T) {
	const token = "s3cret"
	worker := newWorker(t, token)

	spec := distSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(engine.JobRequest{
		Key:  engine.JobKey(spec, jobs[0], ""),
		Spec: spec,
		Job:  jobs[0],
	})
	if err != nil {
		t.Fatal(err)
	}

	post := func(auth string) int {
		req, err := http.NewRequest(http.MethodPost, worker.URL+"/internal/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post(""); code != http.StatusUnauthorized {
		t.Errorf("no token: %d, want 401", code)
	}
	if code := post("Bearer wrong"); code != http.StatusUnauthorized {
		t.Errorf("wrong token: %d, want 401", code)
	}
	if code := post("Bearer " + token); code != http.StatusOK {
		t.Errorf("valid token: %d, want 200", code)
	}

	// A non-worker server must not expose the internal API at all.
	plain := newTestServer(t, Options{})
	req, _ := http.NewRequest(http.MethodPost, plain.URL+"/internal/jobs", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("non-worker /internal/jobs: %d, want 404", resp.StatusCode)
	}
}

// TestInternalJobsKeyMismatch: a worker recomputes the job key and refuses
// a request whose key does not match its own computation.
func TestInternalJobsKeyMismatch(t *testing.T) {
	worker := newWorker(t, "")
	spec := distSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(engine.JobRequest{Key: "deadbeef", Spec: spec, Job: jobs[0]})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(worker.URL+"/internal/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("mismatched key: %d, want 409", resp.StatusCode)
	}
}

// TestInternalJobsRejectsBadSweepConfigs: a worker checks the job it is
// handed, which never passed through Spec.Jobs. A variant one shard past
// revoke.MaxShards, an image sweep with an unknown kernel, a laundering
// image sweep and a negative min_sweeps or max_events (which would measure
// nothing) each come back as a failed job instead of running.
func TestInternalJobsRejectsBadSweepConfigs(t *testing.T) {
	worker := newWorker(t, "")
	for _, tc := range []struct {
		name, want string
		edit       func(*campaign.Spec, *campaign.Job)
	}{
		{"wide variant", "shards", func(_ *campaign.Spec, j *campaign.Job) { j.Variant.Revoke.Shards = revoke.MaxShards + 1 }},
		{"unknown image kernel", "kernel", func(s *campaign.Spec, _ *campaign.Job) {
			s.ImageSweeps = []revoke.Config{{Kernel: sim.KernelVector + 1}}
		}},
		{"laundering image sweep", "launders", func(s *campaign.Spec, _ *campaign.Job) {
			s.ImageSweeps = []revoke.Config{{UseCapDirty: true, Launder: true}}
		}},
		{"negative min_sweeps", "min_sweeps -1", func(_ *campaign.Spec, j *campaign.Job) { j.MinSweeps = -1 }},
		{"negative max_events", "max_events -1", func(_ *campaign.Spec, j *campaign.Job) { j.MaxEvents = -1 }},
	} {
		spec := distSpec()
		jobs, err := spec.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		job := jobs[0]
		tc.edit(&spec, &job)
		body, err := json.Marshal(engine.JobRequest{Key: engine.JobKey(spec, job, ""), Spec: spec, Job: job})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(worker.URL+"/internal/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got engine.JobResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(got.Result.Error, tc.want) {
			t.Errorf("%s: status %d, job error %q; want a failed job naming %q",
				tc.name, resp.StatusCode, got.Result.Error, tc.want)
		}
		if got.Result.Mallocs != 0 {
			t.Errorf("%s: the rejected job ran: %d mallocs", tc.name, got.Result.Mallocs)
		}
	}
}
