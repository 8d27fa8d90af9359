package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

// scrape fetches and parses /metrics, failing the test on any malformed
// exposition — every scrape doubles as a format-validity check.
func scrape(t *testing.T, baseURL string) []obs.Sample {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content-type %q", ct)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("scrape did not parse as Prometheus text format: %v", err)
	}
	return samples
}

// TestMetricsDuringCampaign scrapes /metrics concurrently while a campaign
// runs (the race detector watches the registry's hot paths), then checks the
// settled counters: every job executed exactly once, a resubmission served
// entirely from cache.
func TestMetricsDuringCampaign(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			// t.Fatal is test-goroutine-only; report via t.Error here.
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				_, perr := obs.ParseText(resp.Body)
				resp.Body.Close()
				if perr != nil {
					t.Errorf("concurrent scrape did not parse: %v", perr)
					return
				}
			}
		}()
	}

	sub := submit(t, ts, distSpec(), 2)
	waitDone(t, ts, sub.ID)
	close(stop)
	wg.Wait()

	samples := scrape(t, ts.URL)
	jobs := float64(sub.Jobs)
	if got := obs.Sum(samples, obs.MetricJobsExecuted); got != jobs {
		t.Errorf("%s = %v, want %v", obs.MetricJobsExecuted, got, jobs)
	}
	if got := obs.Sum(samples, "cherivoke_pool_jobs_completed_total"); got != jobs {
		t.Errorf("pool completed = %v, want %v", got, jobs)
	}
	if got := obs.Sum(samples, "cherivoke_engine_campaigns_submitted_total"); got != 1 {
		t.Errorf("campaigns submitted = %v, want 1", got)
	}
	if got := obs.Sum(samples, "cherivoke_engine_cache_hits_total"); got != 0 {
		t.Errorf("cache hits after cold run = %v, want 0", got)
	}

	// A resubmission is answered from the job-result store: the hit counter
	// moves, the executed counter does not.
	sub2 := submit(t, ts, distSpec(), 2)
	waitDone(t, ts, sub2.ID)
	samples = scrape(t, ts.URL)
	if got := obs.Sum(samples, "cherivoke_engine_cache_hits_total"); got != jobs {
		t.Errorf("cache hits after warm run = %v, want %v", got, jobs)
	}
	if got := obs.Sum(samples, obs.MetricJobsExecuted); got != jobs {
		t.Errorf("%s after warm run = %v, want %v (cached jobs must not count)", obs.MetricJobsExecuted, got, jobs)
	}
}

// TestFleetMetricsSumToCampaignJobs runs a campaign through a coordinator
// with two workers and checks the acceptance criterion: summing
// cherivoke_jobs_executed_total across every process's /metrics equals the
// campaign's job count — each job counted exactly once, wherever it ran.
func TestFleetMetricsSumToCampaignJobs(t *testing.T) {
	const token = "fleet-token"
	w1, w2 := newWorker(t, token), newWorker(t, token)
	coord := newTestServer(t, Options{
		WorkerURLs: []string{w1.URL, w2.URL},
		AuthToken:  token,
	})

	sub := submit(t, coord, distSpec(), 0)
	waitDone(t, coord, sub.ID)

	var all []obs.Sample
	for _, u := range []string{coord.URL, w1.URL, w2.URL} {
		all = append(all, scrape(t, u)...)
	}
	if got := obs.Sum(all, obs.MetricJobsExecuted); got != float64(sub.Jobs) {
		t.Errorf("fleet-summed %s = %v, want %d", obs.MetricJobsExecuted, got, sub.Jobs)
	}

	// The coordinator's healthz now carries the full dispatch stats.
	var health struct {
		Status   string `json:"status"`
		Dispatch struct {
			Remote        int `json:"remote"`
			Reassigned    int `json:"reassigned"`
			LocalFallback int `json:"local_fallback"`
			Markdowns     int `json:"markdowns"`
		} `json:"dispatch"`
	}
	if code := getJSON(t, coord.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health.Dispatch.Remote+health.Dispatch.LocalFallback != sub.Jobs {
		t.Errorf("dispatch stats %+v do not account for %d jobs", health.Dispatch, sub.Jobs)
	}
}

// TestRequestIDMiddleware checks the correlation-ID contract: an inbound
// X-Request-Id is echoed back, and a missing one is generated.
func TestRequestIDMiddleware(t *testing.T) {
	ts := newTestServer(t, Options{})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-chose-this")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-chose-this" {
		t.Errorf("inbound request ID not echoed: got %q", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got == "" {
		t.Error("no request ID generated for ID-less request")
	}
}

// lockedBuffer is a log sink that handler goroutines may write while the
// test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestWorkerLogsCorrelationIDs checks the coordinator→worker hop: a job
// that a RemoteRunner sends under a request ID and a campaign ID is logged
// by the worker's request line with both, so worker logs join coordinator
// logs.
func TestWorkerLogsCorrelationIDs(t *testing.T) {
	var logs lockedBuffer
	obs.SetLogger(slog.New(slog.NewJSONHandler(&logs, nil)))
	t.Cleanup(func() { obs.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, nil))) })
	worker := newTestServer(t, Options{Workers: 1, Worker: true})

	spec := distSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.WithCampaignID(obs.WithRequestID(context.Background(), "req-hop"), "c000042")
	if _, err := engine.NewRemoteRunner(worker.URL, "").RunJob(ctx, engine.JobKey(spec, jobs[0], ""), spec, jobs[0]); err != nil {
		t.Fatal(err)
	}
	worker.Close() // waits for the handler, which logs after it responds

	requestID, campaignID := workerJobLogIDs(t, logs.String())
	if requestID != "req-hop" || campaignID != "c000042" {
		t.Errorf("worker logged request_id %q and campaign_id %q, want req-hop and c000042", requestID, campaignID)
	}
}

// workerJobLogIDs returns the request and campaign IDs of the first POST
// /internal/jobs request line in a JSON log.
func workerJobLogIDs(t *testing.T, logs string) (requestID, campaignID string) {
	t.Helper()
	for _, line := range strings.Split(logs, "\n") {
		var rec struct {
			Msg, Route string
			RequestID  string `json:"request_id"`
			CampaignID string `json:"campaign_id"`
		}
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "request" && rec.Route == "POST /internal/jobs" {
			return rec.RequestID, rec.CampaignID
		}
	}
	t.Fatalf("no POST /internal/jobs request line in the log:\n%s", logs)
	return "", ""
}

// TestSubmitRequestIDReachesWorker checks the whole fleet path: a campaign
// submitted under an X-Request-Id runs its jobs under that ID, so the
// worker's request line for each job carries the submitting request's ID.
func TestSubmitRequestIDReachesWorker(t *testing.T) {
	var logs lockedBuffer
	obs.SetLogger(slog.New(slog.NewJSONHandler(&logs, nil)))
	t.Cleanup(func() { obs.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, nil))) })
	worker := newWorker(t, "")
	coord := newTestServer(t, Options{Workers: 1, WorkerURLs: []string{worker.URL}})

	spec := distSpec()
	spec.Profiles = spec.Profiles[:1]
	body, err := json.Marshal(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, coord.URL+"/campaigns", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "submit-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	if st := waitDone(t, coord, sub.ID); st.State != StateDone {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}
	worker.Close() // waits for the handler, which logs after it responds

	requestID, campaignID := workerJobLogIDs(t, logs.String())
	if requestID != "submit-req-1" || campaignID != sub.ID {
		t.Errorf("worker logged request_id %q and campaign_id %q, want submit-req-1 and %s", requestID, campaignID, sub.ID)
	}
}

// TestHTTPRequestMetrics checks that requests are counted under their route
// pattern, not the raw path — one series per route however many IDs exist.
func TestHTTPRequestMetrics(t *testing.T) {
	ts := newTestServer(t, Options{})
	for _, path := range []string{"/campaigns/a", "/campaigns/b", "/campaigns/c"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	samples := scrape(t, ts.URL)
	var found bool
	for _, s := range samples {
		if s.Name != "cherivoke_http_requests_total" {
			continue
		}
		if strings.Contains(s.Labels["route"], "{id}") && s.Labels["class"] == "4xx" {
			found = true
			if s.Value != 3 {
				t.Errorf("route series %v = %v, want 3", s.Labels, s.Value)
			}
		}
		if strings.Contains(s.Labels["route"], "/campaigns/a") {
			t.Errorf("raw path leaked into route label: %v", s.Labels)
		}
	}
	if !found {
		t.Error("no cherivoke_http_requests_total series for the /campaigns/{id} route")
	}
}

// TestDashboardServed checks the embedded dashboard: the index at
// /dashboard, a 404 for assets that do not exist.
func TestDashboardServed(t *testing.T) {
	ts := newTestServer(t, Options{})
	code, body, hdr := get(t, ts.URL+"/dashboard")
	if code != http.StatusOK {
		t.Fatalf("/dashboard status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("/dashboard content-type %q", ct)
	}
	if !bytes.Contains(body, []byte("cherivoke live operations")) {
		t.Error("/dashboard does not serve the embedded index")
	}
	if code, _, _ := get(t, ts.URL+"/dashboard/no-such-file.js"); code != http.StatusNotFound {
		t.Errorf("missing dashboard asset: status %d, want 404", code)
	}
}

// TestPprofGated checks that the profiling endpoints exist only under
// Options.Pprof.
func TestPprofGated(t *testing.T) {
	off := newTestServer(t, Options{})
	if code, _, _ := get(t, off.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof reachable without opt-in: status %d", code)
	}
	on := newTestServer(t, Options{Pprof: true})
	if code, _, _ := get(t, on.URL+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof index with -pprof: status %d, want 200", code)
	}
}
