package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// ErrJobRejected marks a worker's deliberate refusal of one request (a 4xx
// status: a trace this worker does not hold, a key mismatch, a bad
// credential). The worker is alive and answering — the job must be routed
// elsewhere, but the worker stays in the rotation. Transport failures and
// 5xx statuses do not wrap this error; they mean the worker itself is
// gone.
var ErrJobRejected = errors.New("engine: job rejected by worker")

// Runner executes one expanded job, identified by its content key (JobKey).
// It is the engine's distribution seam: LocalRunner executes in process,
// RemoteRunner forwards to one worker's internal job API, and Dispatcher
// shards a campaign's jobs across a fleet of RemoteRunners. Implementations
// must be safe for concurrent use and must return exactly the JobResult
// campaign.ExecuteJob would produce for the same (spec, job) — the
// determinism contract that keeps artifacts byte-identical at any worker
// count, process granularity included.
type Runner interface {
	RunJob(ctx context.Context, key string, spec campaign.Spec, job campaign.Job) (campaign.JobResult, error)
}

// LocalRunner executes jobs in the current process. It is the default when
// no distribution is configured, and the Dispatcher's fallback when every
// remote worker is unavailable.
type LocalRunner struct {
	// Traces resolves Job.TraceRef for trace-driven jobs (nil when the
	// deployment has no trace store).
	Traces campaign.TraceOpener

	// executed counts the engine's own in-process executions (nil for
	// the Dispatcher's fallback, which counts its own).
	executed *obs.Counter
}

// RunJob implements Runner. Job execution is not interruptible mid-job, so
// ctx only gates the start; the campaign pool stops dispatching on cancel.
func (l *LocalRunner) RunJob(ctx context.Context, _ string, spec campaign.Spec, job campaign.Job) (campaign.JobResult, error) {
	if err := ctx.Err(); err != nil {
		return campaign.JobResult{}, err
	}
	jr := campaign.ExecuteJob(spec, job, l.Traces)
	l.executed.Inc()
	return jr, nil
}

// JobRequest is the body of the internal worker API's POST /internal/jobs:
// one expanded job plus the normalised spec it came from, keyed by the
// coordinator-computed JobKey. The worker recomputes the key (resolving any
// trace ref against its own store) and rejects a mismatch, so a fleet never
// mixes results across diverging inputs.
type JobRequest struct {
	Key  string        `json:"key"`
	Spec campaign.Spec `json:"spec"`
	Job  campaign.Job  `json:"job"`
}

// JobResponse is the worker's answer: the echoed key and the executed
// job's result. A job-level failure travels inside Result.Error with HTTP
// 200 — only transport and validation failures use error statuses, which
// is what tells the dispatcher to reassign.
type JobResponse struct {
	Key    string             `json:"key"`
	Result campaign.JobResult `json:"result"`
}

// maxJobResponseBytes bounds the body of a worker's job response, as the
// worker bounds the request's at 1 MiB. A job result marshals to about
// 3 KB, so a longer body is a faulty worker's, not a result.
const maxJobResponseBytes = 1 << 20

// RemoteRunner executes jobs on one worker process over its internal HTTP
// job API, authenticating with a bearer token when one is configured.
type RemoteRunner struct {
	base   string
	token  string
	client *http.Client
}

// NewRemoteRunner returns a runner for the worker at baseURL (scheme +
// host, e.g. "http://10.0.0.7:8080"); token is sent as a bearer credential
// on every internal request ("" sends none). No request timeout is imposed
// on job execution — full-scale jobs run for minutes; cancellation arrives
// through the context.
func NewRemoteRunner(baseURL, token string) *RemoteRunner {
	return &RemoteRunner{
		base:   strings.TrimRight(baseURL, "/"),
		token:  token,
		client: &http.Client{},
	}
}

// URL returns the worker's base URL.
func (r *RemoteRunner) URL() string { return r.base }

// RunJob implements Runner: POST /internal/jobs on the worker. Any non-200
// status, transport failure, or key mismatch is returned as an error — the
// caller's cue to try another worker. 4xx statuses wrap ErrJobRejected:
// the worker answered and refused this request, which is not evidence it
// is down.
func (r *RemoteRunner) RunJob(ctx context.Context, key string, spec campaign.Spec, job campaign.Job) (campaign.JobResult, error) {
	body, err := json.Marshal(JobRequest{Key: key, Spec: spec, Job: job})
	if err != nil {
		return campaign.JobResult{}, fmt.Errorf("engine: encoding job request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/internal/jobs", bytes.NewReader(body))
	if err != nil {
		return campaign.JobResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if r.token != "" {
		req.Header.Set("Authorization", "Bearer "+r.token)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return campaign.JobResult{}, fmt.Errorf("engine: worker %s: %w", r.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return campaign.JobResult{}, fmt.Errorf("%w: %s: status %d: %s", ErrJobRejected, r.base, resp.StatusCode, bytes.TrimSpace(msg))
		}
		return campaign.JobResult{}, fmt.Errorf("engine: worker %s: status %d: %s", r.base, resp.StatusCode, bytes.TrimSpace(msg))
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxJobResponseBytes+1))
	if err != nil {
		return campaign.JobResult{}, fmt.Errorf("engine: worker %s: reading response: %w", r.base, err)
	}
	if len(raw) > maxJobResponseBytes {
		return campaign.JobResult{}, fmt.Errorf("engine: worker %s: response exceeds %d bytes", r.base, maxJobResponseBytes)
	}
	var jres JobResponse
	if err := json.Unmarshal(raw, &jres); err != nil {
		return campaign.JobResult{}, fmt.Errorf("engine: worker %s: decoding response: %w", r.base, err)
	}
	if jres.Key != key {
		return campaign.JobResult{}, fmt.Errorf("engine: worker %s: job key mismatch (sent %.12s, got %.12s)", r.base, key, jres.Key)
	}
	return jres.Result, nil
}

// Healthy probes the worker's liveness endpoint; nil means the worker
// answered.
func (r *RemoteRunner) Healthy(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("engine: worker %s: healthz status %d", r.base, resp.StatusCode)
	}
	return nil
}
