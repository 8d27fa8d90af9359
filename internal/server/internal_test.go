package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/engine"
)

// FuzzInternalJobs feeds a worker's POST /internal/jobs raw bodies. Whatever
// the bytes, the worker must not panic and must answer 200, 400, 404 or 409.
// A 200 must answer a body that is one JSON value with nothing after it,
// and must decode as a JobResponse that echoes the request's key. The
// key binds every field that changes a result, so a mutated body that still
// runs runs the small seed job.
func FuzzInternalJobs(f *testing.F) {
	spec := campaign.Spec{Profiles: []string{"povray"}, MaxLive: []uint64{1 << 20}, MinSweeps: 1, MaxEvents: 2000}
	jobs, err := spec.Jobs()
	if err != nil {
		f.Fatal(err)
	}
	body := func(key string, job campaign.Job) []byte {
		if key == "" {
			key = engine.JobKey(spec, job, "")
		}
		b, err := json.Marshal(engine.JobRequest{Key: key, Spec: spec, Job: job})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	valid := body("", jobs[0])
	wide, traced := jobs[0], jobs[0]
	wide.Variant.Revoke.Shards = 9
	traced.TraceRef = "0123456789ab"
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(bytes.Repeat([]byte(" "), maxRequestBytes), valid...))
	f.Add(bytes.Replace(valid, []byte(`{"key"`), []byte(`{"unknown":1,"key"`), 1))
	f.Add(body(strings.Repeat("0", 64), jobs[0]))
	f.Add(body("", wide))
	f.Add(body("", traced))
	f.Add(append(slices.Clip(valid), "garbage{{{"...))

	s, err := New(Options{Workers: 1, Worker: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/internal/jobs", bytes.NewReader(raw)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
			return
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var req engine.JobRequest
		reqDec := json.NewDecoder(bytes.NewReader(raw))
		if err := reqDec.Decode(&req); err != nil {
			t.Fatalf("accepted a body that does not decode: %v", err)
		}
		if err := reqDec.Decode(new(json.RawMessage)); err != io.EOF {
			t.Fatalf("accepted a body with data after its JSON value")
		}
		var resp engine.JobResponse
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("200 body is not a JobResponse: %v", err)
		}
		if resp.Key != req.Key {
			t.Fatalf("response key %q, request key %q", resp.Key, req.Key)
		}
	})
}
