package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// maxSpecBytes is the request-body cap POST /campaigns decodes a spec
// under; a longer body never reaches Validate.
const maxSpecBytes = 1 << 20

// FuzzCampaignSpec decodes raw bytes as POST /campaigns does (at most 1
// MiB, unknown fields refused, nothing after the value) and expands the
// spec. Whatever the bytes, nothing panics, Validate and Jobs agree, and a
// valid spec expands to at most MaxJobs jobs, each of which passes the
// check runJob applies to a job and survives the JSON round trip to a
// worker unchanged. CI runs it for a fixed budget beside the other fuzz
// targets.
func FuzzCampaignSpec(f *testing.F) {
	f.Add([]byte(`{"name":"fig6","profiles":["astar","omnetpp","xalancbmk"],` +
		`"variants":[{"name":"cherivoke","revoke":{"kernel":2,"use_cap_dirty":true,"launder":true}}],` +
		`"max_live":[25165824],"min_sweeps":2,"scaled_startup":true,"baseline":true}`))
	f.Add([]byte(`{"name":"traffic","profiles":["xalancbmk"],"traffic":"cheri",` +
		`"variants":[{"name":"cloadtags","revoke":{"use_cap_dirty":true,"use_cload_tags":true}}],` +
		`"image_sweeps":[{"kernel":1},{"use_cload_tags":true}],"sweep_image_self":true}`))
	seeds := make([]string, MaxJobs/2+1)
	for i := range seeds {
		seeds[i] = fmt.Sprint(i + 1)
	}
	f.Add([]byte(`{"profiles":["povray","hmmer"],"seeds":[` + strings.Join(seeds, ",") + `]}`))
	f.Add([]byte(`{"profiles":["povray"],"variants":[{"name":"wide","revoke":{"shards":9}}]}`))
	f.Add([]byte(`{"profiles":["omnetpp"],"max_live":[1048576],"min_sweeps":-1}`))
	f.Add([]byte(`{"profiles":["omnetpp"],"max_live":[1048576],"max_events":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxSpecBytes {
			return
		}
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil || dec.Decode(new(json.RawMessage)) != io.EOF {
			return
		}
		jobs, err := spec.Jobs()
		if verr := spec.Validate(); (verr == nil) != (err == nil) {
			t.Fatalf("Validate = %v, Jobs = %v", verr, err)
		}
		if err != nil {
			return
		}
		if len(jobs) == 0 || len(jobs) > MaxJobs {
			t.Fatalf("valid spec expands to %d jobs, want 1..%d", len(jobs), MaxJobs)
		}
		imageSweeps := spec.withDefaults().ImageSweeps
		for _, job := range jobs {
			if err := checkJob(job.Variant, job.MinSweeps, job.MaxEvents, imageSweeps); err != nil {
				t.Fatalf("job %d fails the per-job check: %v", job.ID, err)
			}
			if _, ok := workload.ByName(job.Profile); !ok && job.TraceRef == "" {
				t.Fatalf("job %d has unknown profile %q", job.ID, job.Profile)
			}
			b, err := json.Marshal(job)
			if err != nil {
				t.Fatalf("job %d: %v", job.ID, err)
			}
			var back Job
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&back); err != nil || !reflect.DeepEqual(back, job) {
				t.Fatalf("job %d changed across a JSON round trip: %+v, then %+v (%v)", job.ID, job, back, err)
			}
		}
	})
}
