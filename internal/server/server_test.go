package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
)

// newTestServer builds a Server over opts and serves it from httptest.
func newTestServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// submit posts a small campaign and returns its id.
func submit(t *testing.T, ts *httptest.Server, spec campaign.Spec, workers int) SubmitResponse {
	t.Helper()
	body, err := json.Marshal(SubmitRequest{Spec: spec, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// waitDone polls the status endpoint until the campaign leaves the running
// state.
func waitDone(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st Status
		if code := getJSON(t, ts.URL+"/campaigns/"+id, &st); code != http.StatusOK {
			t.Fatalf("status code %d", code)
		}
		if st.State != StateRunning {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("campaign did not finish in time")
	return Status{}
}

func testSpec() campaign.Spec {
	return campaign.Spec{
		Name:      "smoke",
		Profiles:  []string{"povray"},
		MaxLive:   []uint64{1 << 20},
		MinSweeps: 1,
		MaxEvents: 10000,
	}
}

func TestServerLifecycle(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2})

	// Liveness.
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}

	sub := submit(t, ts, testSpec(), 2)
	if sub.Jobs != 1 {
		t.Fatalf("submitted %d jobs, want 1", sub.Jobs)
	}

	st := waitDone(t, ts, sub.ID)
	if st.State != StateDone {
		t.Fatalf("final state %q (error %q)", st.State, st.Error)
	}
	if st.JobsDone != 1 || st.JobsFailed != 0 || st.Summary == nil {
		t.Fatalf("status %+v", st)
	}

	// JSON results parse back into a campaign.Result.
	resp, err := http.Get(ts.URL + "/campaigns/" + sub.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	var res campaign.Result
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 || res.Jobs[0].Job.Profile != "povray" || res.Jobs[0].Error != "" {
		t.Fatalf("results: %+v", res.Summary)
	}
	if res.Jobs[0].Stats.Sweeps == 0 {
		t.Error("campaign job never swept")
	}

	// CSV results carry the header plus one row.
	resp, err = http.Get(ts.URL + "/campaigns/" + sub.ID + "/results?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	csvBody, _ := func() ([]byte, error) {
		defer resp.Body.Close()
		var b bytes.Buffer
		_, err := b.ReadFrom(resp.Body)
		return b.Bytes(), err
	}()
	lines := strings.Split(strings.TrimSpace(string(csvBody)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "id,profile,variant") {
		t.Fatalf("csv: %q", string(csvBody))
	}

	// Listing includes the campaign.
	var list []Status
	if code := getJSON(t, ts.URL+"/campaigns", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("list: %d, %d entries", code, len(list))
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	ts := newTestServer(t, Options{})

	// Unknown campaign.
	if code := getJSON(t, ts.URL+"/campaigns/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown campaign: %d", code)
	}
	// Invalid spec (unknown profile).
	bad, _ := json.Marshal(SubmitRequest{Spec: campaign.Spec{Profiles: []string{"not-a-benchmark"}}})
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec: %d", resp.StatusCode)
	}
	// Garbage body.
	resp, err = http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: %d", resp.StatusCode)
	}
}

// TestServerRejectsOversizedRequests: a body past maxRequestBytes, on POST
// /campaigns or a worker's POST /internal/jobs, and a small spec whose axes
// multiply past campaign.MaxJobs, are refused with 400 before any work.
func TestServerRejectsOversizedRequests(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	worker := newWorker(t, "")
	// Leading whitespace is valid JSON, so only the size can refuse these.
	pad := func(b []byte) []byte { return append(bytes.Repeat([]byte(" "), maxRequestBytes), b...) }

	spec := campaign.Spec{Profiles: []string{"povray"}, MaxLive: []uint64{1 << 20}, MinSweeps: 1, MaxEvents: 1000}
	submission, err := json.Marshal(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	jobRequest, err := json.Marshal(engine.JobRequest{Key: engine.JobKey(spec, jobs[0], ""), Spec: spec, Job: jobs[0]})
	if err != nil {
		t.Fatal(err)
	}
	wide := spec
	for i := 0; i <= campaign.MaxJobs; i++ {
		wide.Seeds = append(wide.Seeds, uint64(i+1))
	}
	wideSubmission, err := json.Marshal(SubmitRequest{Spec: wide})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, url string
		body      []byte
	}{
		{"padded submission", ts.URL + "/campaigns", pad(submission)},
		{"padded job request", worker.URL + "/internal/jobs", pad(jobRequest)},
		{"spec past MaxJobs", ts.URL + "/campaigns", wideSubmission},
	} {
		resp, err := http.Post(tc.url, "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s (%d bytes): status %d, want 400", tc.name, len(tc.body), resp.StatusCode)
		}
	}
	var list []Status
	if code := getJSON(t, ts.URL+"/campaigns", &list); code != http.StatusOK || len(list) != 0 {
		t.Errorf("refused submissions created campaigns: %d, %d entries", code, len(list))
	}
}

func TestServerResultsConflictWhileRunning(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})

	// A bigger campaign so it is still running when we poke it.
	spec := campaign.Spec{Profiles: []string{"xalancbmk", "omnetpp", "dealII"}, MinSweeps: 2}
	sub := submit(t, ts, spec, 1)

	code := getJSON(t, ts.URL+"/campaigns/"+sub.ID+"/results", nil)
	if code != http.StatusConflict && code != http.StatusOK {
		t.Errorf("results while running: %d", code)
	}

	// Cancel and wait for a terminal state.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	st := waitDone(t, ts, sub.ID)
	if st.State != StateCancelled && st.State != StateDone {
		t.Errorf("state after cancel: %q", st.State)
	}
}

func TestServerEventsStream(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})

	sub := submit(t, ts, testSpec(), 1)
	resp, err := http.Get(ts.URL + "/campaigns/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	// The stream must deliver an initial status event and eventually a
	// terminal status event; progress events arrive in between.
	sc := bufio.NewScanner(resp.Body)
	var events []string
	var sawTerminal bool
	for sc.Scan() && !sawTerminal {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
			continue
		}
		if strings.HasPrefix(line, "data: ") && events[len(events)-1] == "status" {
			var st Status
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				t.Fatalf("bad status payload: %v", err)
			}
			if st.State != StateRunning {
				sawTerminal = true
			}
		}
	}
	if len(events) == 0 || events[0] != "status" {
		t.Fatalf("events: %v", events)
	}
	if !sawTerminal {
		t.Fatalf("no terminal status event; saw %v", events)
	}
}
