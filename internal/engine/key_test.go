package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/campaign"
	"repro/internal/engine"
)

// hopRunner is a campaign.JobRunner that makes the coordinator→worker hop
// instead of executing: it keys each job the way the coordinator does,
// marshals the engine.JobRequest a RemoteRunner sends, decodes it the way
// POST /internal/jobs does, and recomputes the key the way the worker does.
// A mismatch is a 409 that sends every job of the campaign to the
// coordinator's local fallback.
type hopRunner struct{ t *testing.T }

// RunJob implements campaign.JobRunner. It runs on a pool goroutine, so it
// reports with Errorf (never Fatalf) and fails the job instead.
func (h hopRunner) RunJob(_ context.Context, spec campaign.Spec, job campaign.Job) (campaign.JobResult, error) {
	key := engine.JobKey(spec, job, "")
	body, err := json.Marshal(engine.JobRequest{Key: key, Spec: spec, Job: job})
	if err != nil {
		h.t.Errorf("marshalling the job request: %v", err)
		return campaign.JobResult{}, err
	}
	var req engine.JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		h.t.Errorf("the worker cannot decode the request the coordinator sent: %v\n%s", err, body)
		return campaign.JobResult{}, err
	}
	if got := engine.JobKey(req.Spec, req.Job, ""); got != req.Key {
		h.t.Errorf("job key changed across the hop: coordinator %.12s, worker %.12s\n%s", req.Key, got, body)
		return campaign.JobResult{}, errors.New("job key mismatch")
	}
	return campaign.JobResult{Job: job}, nil
}

// checkHop decodes data into a spec the way POST /campaigns does and runs
// every job of it through the hop. It skips a spec the hop does not cover:
// one the server would refuse, one naming a trace (its key needs a trace
// store), or one expanding past 64 jobs.
func checkHop(t *testing.T, data []byte) {
	var spec campaign.Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return
	}
	jobs, err := spec.Jobs()
	if err != nil || spec.TraceRef != "" || len(jobs) > 64 {
		return
	}
	if _, err := campaign.Run(context.Background(), spec, campaign.RunOptions{Workers: 1, Runner: hopRunner{t}}); err != nil {
		t.Fatalf("campaign.Run over a valid spec: %v", err)
	}
}

// FuzzJobKeyHop checks that no campaign spec a server accepts changes a
// job's key across the coordinator→worker JSON hop.
func FuzzJobKeyHop(f *testing.F) {
	f.Add([]byte(`{"profiles":["povray"],"image_sweeps":[]}`))
	f.Add([]byte(`{}`))
	// Every field but trace_ref, which the hop skips.
	f.Add([]byte(`{
		"name": "every-field",
		"profiles": ["povray", "hmmer"],
		"variants": [
			{"name": "v", "revoke": {"kernel": 2, "use_cap_dirty": true, "use_cload_tags": true, "shards": 4, "launder": true},
			 "concurrent_sweep": true, "unmap_large": true, "typed_reuse": true},
			{"name": "df", "revoke": {}, "direct_free": true}
		],
		"fractions": [0.25, 0.5],
		"max_live": [1048576],
		"seeds": [1, 18446744073709551615],
		"min_sweeps": 1,
		"max_events": 10000,
		"quarantine_min_bytes": 65536,
		"scaled_startup": true,
		"traffic": "x86",
		"baseline": true,
		"sweep_image_self": true,
		"image_sweeps": [{"kernel": 1, "use_cload_tags": true}, {}],
		"trace_window": 512
	}`))
	f.Fuzz(checkHop)
}
