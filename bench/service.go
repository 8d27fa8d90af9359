package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/livetrace"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

// service is a campaign fleet on loopback: a coordinator and two workers,
// each an httptest server over one sqlite: store. Its unit is a pair of
// campaigns from one client: a fresh spec (cold: every job executes and is
// written to the store) and then the same spec again (warm: every job is a
// cache hit read back).
type service struct {
	dir      string
	servers  []*server.Server
	https    []*httptest.Server
	coord    string
	client   *http.Client
	seed     uint64
	profiles []string
	events   int
	rep      []byte

	coldJobs atomic.Int64
}

const serviceToken = "bench-token"

func setupService(cfg config) (_ session, err error) {
	s := &service{
		seed:     cfg.seed,
		profiles: []string{"povray", "hmmer", "omnetpp", "xalancbmk"},
		events:   10000,
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * poolWorkers}},
	}
	if cfg.size == sizeTiny {
		s.profiles, s.events = s.profiles[:2], 2000
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.dir, err = os.MkdirTemp(cfg.dir, "campaign-service-"); err != nil {
		return nil, err
	}
	store := "sqlite:" + filepath.Join(s.dir, "fleet.db")
	var workerURLs []string
	for i := range 2 {
		url, err := s.start(server.Options{
			Workers: 1, Worker: true, AuthToken: serviceToken, Store: store,
			TraceDir: filepath.Join(s.dir, fmt.Sprintf("traces-worker%d", i)),
		})
		if err != nil {
			return nil, err
		}
		workerURLs = append(workerURLs, url)
	}
	if s.coord, err = s.start(server.Options{
		Workers: poolWorkers, Store: store, WorkerURLs: workerURLs, AuthToken: serviceToken,
		TraceDir: filepath.Join(s.dir, "traces-coordinator"),
	}); err != nil {
		return nil, err
	}
	if s.rep, err = recordTrace("omnetpp", cfg.seed, livetrace.AnalysisConfig(), s.wopts()); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *service) wopts() workload.Options {
	return workload.Options{MaxLiveBytes: 1 << 20, MinSweeps: 1, MaxEvents: s.events}
}

// start serves a server.New(opts) on a loopback httptest listener.
func (s *service) start(opts server.Options) (string, error) {
	srv, err := server.New(opts)
	if err != nil {
		return "", err
	}
	ts := httptest.NewServer(srv.Handler())
	s.servers = append(s.servers, srv)
	s.https = append(s.https, ts)
	return ts.URL, nil
}

// spec is unit i's campaign: its own seed, so no two cold campaigns share a
// job.
func (s *service) spec(i int) campaign.Spec {
	w := s.wopts()
	return campaign.Spec{
		Name:      fmt.Sprintf("bench-%d", i),
		Profiles:  s.profiles,
		MaxLive:   []uint64{w.MaxLiveBytes},
		Seeds:     []uint64{s.seed + uint64(i)},
		MinSweeps: w.MinSweeps,
		MaxEvents: w.MaxEvents,
	}
}

func (s *service) unit(_, i int, tr *tracer) (unitResult, error) {
	spec := s.spec(i)
	cold, err := s.campaign(spec, fmt.Sprintf("c%d-cold", i), "campaign.cold", tr)
	if err != nil {
		return unitResult{ops: 1, failed: 1}, err
	}
	warm, err := s.campaign(spec, fmt.Sprintf("c%d-warm", i), "campaign.warm", tr)
	if err != nil {
		return unitResult{ops: 2, failed: 1}, err
	}
	u := unitResult{ops: 2}
	var res campaign.Result
	switch {
	case !bytes.Equal(cold.body, warm.body):
		err = errors.New("warm artifact differs from its cold twin's")
	case warm.status.CacheHits != warm.status.JobsTotal:
		err = fmt.Errorf("warm campaign executed jobs: %d cache hits of %d", warm.status.CacheHits, warm.status.JobsTotal)
	default:
		err = json.Unmarshal(cold.body, &res)
	}
	if err != nil {
		u.failed = 1
		return u, err
	}
	// Only the cold campaign simulated anything.
	var w work
	w.add(&res)
	u.events, u.swept = w.events, w.swept
	s.coldJobs.Add(int64(len(res.Jobs)))
	return u, nil
}

type campaignOutcome struct {
	status server.Status
	body   []byte // the JSON artifact
}

// campaign submits spec, follows its SSE stream until the terminal status,
// and fetches the JSON artifact, sending requestID on every request.
func (s *service) campaign(spec campaign.Spec, requestID, name string, tr *tracer) (campaignOutcome, error) {
	var out campaignOutcome
	id := tr.begin(0, name, requestID)
	defer tr.end(id)

	sp := tr.begin(id, "submit", requestID)
	body, err := json.Marshal(server.SubmitRequest{Spec: spec})
	if err != nil {
		return out, err
	}
	var sub server.SubmitResponse
	b, err := s.do(http.MethodPost, s.coord+"/campaigns", requestID, bytes.NewReader(body), http.StatusAccepted)
	if err == nil {
		err = json.Unmarshal(b, &sub)
	}
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("submitting %s: %w", spec.Name, err)
	}

	sp = tr.begin(id, "wait", requestID)
	b, err = s.do(http.MethodGet, s.coord+"/campaigns/"+sub.ID+"/events", requestID, nil, http.StatusOK)
	if err == nil {
		out.status, err = lastStatus(b)
	}
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("following %s: %w", sub.ID, err)
	}
	if out.status.State != server.StateDone || out.status.JobsFailed != 0 {
		return out, fmt.Errorf("campaign %s ended %s with %d failed jobs: %s", sub.ID, out.status.State, out.status.JobsFailed, out.status.Error)
	}

	sp = tr.begin(id, "results", requestID)
	out.body, err = s.do(http.MethodGet, s.coord+"/campaigns/"+sub.ID+"/results", requestID, nil, http.StatusOK)
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("fetching %s results: %w", sub.ID, err)
	}
	return out, nil
}

// do sends one request and returns the whole response body, which must
// carry status want.
func (s *service) do(method, url, requestID string, body io.Reader, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-Id", requestID)
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// lastStatus returns the last "status" event of an SSE stream.
func lastStatus(stream []byte) (server.Status, error) {
	var st server.Status
	found := false
	for _, frame := range strings.Split(string(stream), "\n\n") {
		if !strings.HasPrefix(frame, "event: status\n") {
			continue
		}
		data, ok := strings.CutPrefix(strings.TrimPrefix(frame, "event: status\n"), "data: ")
		if !ok {
			return st, fmt.Errorf("malformed status event %q", frame)
		}
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return st, err
		}
		found = true
	}
	if !found {
		return st, errors.New("event stream carried no status")
	}
	return st, nil
}

// check verifies that the fleet executed each cold job exactly once and
// nothing else: summed over all three processes, jobs_executed_total must
// equal the cold jobs.
func (s *service) check() []error {
	samples, err := s.scrape()
	if err != nil {
		return []error{err}
	}
	if got, want := obs.Sum(samples, obs.MetricJobsExecuted), s.coldJobs.Load(); got != float64(want) {
		return []error{fmt.Errorf("fleet executed %v jobs, want %d (one per cold job)", got, want)}
	}
	return nil
}

func (s *service) scrape() ([]obs.Sample, error) { return scrapeAll(s.client, s.https) }

func (s *service) outputs() map[string]string   { return nil }
func (s *service) probe() ([]byte, core.Config) { return s.rep, livetrace.AnalysisConfig() }

func (s *service) close() {
	for _, ts := range s.https {
		ts.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	s.client.CloseIdleConnections()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// scrapeAll concatenates the /metrics samples of every server.
func scrapeAll(client *http.Client, servers []*httptest.Server) ([]obs.Sample, error) {
	var all []obs.Sample
	for _, ts := range servers {
		resp, err := client.Get(ts.URL + "/metrics")
		if err != nil {
			return nil, err
		}
		samples, err := obs.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", ts.URL, err)
		}
		all = append(all, samples...)
	}
	return all, nil
}
