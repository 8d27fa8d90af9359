package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

// postJob sends one internal job request to a worker and returns the
// decoded response.
func postJob(t *testing.T, ts *httptest.Server, token string, req engine.JobRequest) engine.JobResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/internal/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("internal job status %d", resp.StatusCode)
	}
	var jr engine.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr
}

// TestWorkerReadThroughSharedStore proves the worker half of the shared
// store: two worker processes pointed at one SQLite file compute a given
// job once between them. The first request executes; the repeat on the
// same worker and the request on the sibling are both answered from the
// store, byte-identically, with the read-through counter moving and the
// executed counter standing still.
func TestWorkerReadThroughSharedStore(t *testing.T) {
	const token = "rt-token"
	store := "sqlite:" + filepath.Join(t.TempDir(), "store.db")
	w1 := newTestServer(t, Options{Workers: 1, Worker: true, AuthToken: token, Store: store})
	w2 := newTestServer(t, Options{Workers: 1, Worker: true, AuthToken: token, Store: store})

	spec := distSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	req := engine.JobRequest{Key: engine.JobKey(spec, jobs[0], ""), Spec: spec, Job: jobs[0]}

	first := postJob(t, w1, token, req)
	if first.Result.Error != "" {
		t.Fatalf("job failed: %s", first.Result.Error)
	}
	repeat := postJob(t, w1, token, req)
	sibling := postJob(t, w2, token, req)
	want, _ := json.Marshal(first)
	for name, got := range map[string]engine.JobResponse{"repeat": repeat, "sibling": sibling} {
		b, _ := json.Marshal(got)
		if !bytes.Equal(b, want) {
			t.Errorf("%s response diverges from the executed one", name)
		}
	}

	s1, s2 := scrape(t, w1.URL), scrape(t, w2.URL)
	if got := obs.Sum(append(s1, s2...), obs.MetricJobsExecuted); got != 1 {
		t.Errorf("fleet-summed %s = %v, want 1 (the store must absorb the repeats)", obs.MetricJobsExecuted, got)
	}
	if got := obs.Sum(s1, "cherivoke_worker_readthrough_hits_total"); got != 1 {
		t.Errorf("worker 1 read-through hits = %v, want 1", got)
	}
	if got := obs.Sum(s2, "cherivoke_worker_readthrough_hits_total"); got != 1 {
		t.Errorf("worker 2 read-through hits = %v, want 1 (sibling's result not visible)", got)
	}
}

// TestMemWorkerKeepsNoResults pins that an in-memory store is not a result
// store: a `-worker -store mem:` process executes a repeated job every
// time instead of reading through (and saving into) a process-local map
// that would grow with every job it ever ran.
func TestMemWorkerKeepsNoResults(t *testing.T) {
	const token = "mem-token"
	w := newTestServer(t, Options{Workers: 1, Worker: true, AuthToken: token, Store: "mem:"})
	spec := distSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	req := engine.JobRequest{Key: engine.JobKey(spec, jobs[0], ""), Spec: spec, Job: jobs[0]}
	for i := 0; i < 2; i++ {
		if resp := postJob(t, w, token, req); resp.Result.Error != "" {
			t.Fatalf("job failed: %s", resp.Result.Error)
		}
	}
	samples := scrape(t, w.URL)
	if got := obs.Sum(samples, "cherivoke_worker_readthrough_hits_total"); got != 0 {
		t.Errorf("mem: worker read-through hits = %v, want 0", got)
	}
	if got := obs.Sum(samples, obs.MetricJobsExecuted); got != 2 {
		t.Errorf("mem: worker executed %v jobs, want 2 (both requests)", got)
	}
}

// TestTwoCoordinatorsShareOneStore is the multi-coordinator acceptance
// test: two coordinator processes over one SQLite store race the same
// spec. Between them every job executes exactly once (the lease protocol),
// each coordinator serves both campaigns (shared visibility), and all
// artifacts are byte-identical to a plain single-node run.
func TestTwoCoordinatorsShareOneStore(t *testing.T) {
	single := newTestServer(t, Options{Workers: 2})
	_, wantJSON, wantCSV := runAndFetch(t, single, distSpec(), 2)

	store := "sqlite:" + filepath.Join(t.TempDir(), "fleet.db")
	c1 := newTestServer(t, Options{Workers: 2, Store: store})
	c2 := newTestServer(t, Options{Workers: 2, Store: store})
	coords := []*httptest.Server{c1, c2}

	// Submission is asynchronous, so both campaigns resolve concurrently
	// over the shared store even though we submit from one goroutine.
	subs := make([]SubmitResponse, 2)
	for i, c := range coords {
		subs[i] = submit(t, c, distSpec(), 2)
	}
	for i, c := range coords {
		if st := waitDone(t, c, subs[i].ID); st.State != StateDone {
			t.Fatalf("coordinator %d campaign state %q (%s)", i, st.State, st.Error)
		}
	}
	if subs[0].ID == subs[1].ID {
		t.Fatalf("both coordinators minted campaign %s (CAS create failed)", subs[0].ID)
	}

	// Every (coordinator, campaign) pair serves the same bytes as the
	// single-node run — including the campaign the other coordinator minted.
	for i, c := range coords {
		for _, sub := range subs {
			if code, body, _ := get(t, c.URL+"/campaigns/"+sub.ID+"/results"); code != http.StatusOK {
				t.Errorf("coordinator %d results for %s: status %d", i, sub.ID, code)
			} else if !bytes.Equal(body, wantJSON) {
				t.Errorf("coordinator %d JSON artifact for %s diverges from single-node run", i, sub.ID)
			}
			if _, body, _ := get(t, c.URL+"/campaigns/"+sub.ID+"/results?format=csv"); !bytes.Equal(body, wantCSV) {
				t.Errorf("coordinator %d CSV artifact for %s diverges from single-node run", i, sub.ID)
			}
		}
	}

	// Zero duplicate executions fleet-wide: summing the executed counter
	// across both coordinators gives the job count exactly once.
	all := append(scrape(t, c1.URL), scrape(t, c2.URL)...)
	if got := obs.Sum(all, obs.MetricJobsExecuted); got != float64(subs[0].Jobs) {
		t.Errorf("fleet-summed %s = %v, want %d", obs.MetricJobsExecuted, got, subs[0].Jobs)
	}
}
