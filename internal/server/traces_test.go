package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/quarantine"
	"repro/internal/workload"
)

// TestTraceDirLifetime pins where the trace store lives: without TraceDir,
// New makes a temporary directory and Close removes it; a TraceDir that
// cannot be made fails New.
func TestTraceDirLifetime(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := s.traces.Dir()
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("temporary trace directory after New: %v", err)
	}
	s.Close()
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("temporary trace directory after Close: %v, want it removed", err)
	}

	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := New(Options{TraceDir: filepath.Join(file, "traces")}); err == nil {
		s.Close()
		t.Error("New succeeded with a trace directory under a regular file")
	}
}

// recordTestTrace records a small omnetpp run binary-encoded, using the
// same workload options as a testSpec-shaped campaign job.
func recordTestTrace(t *testing.T) []byte {
	t.Helper()
	p, _ := workload.ByName("omnetpp")
	sys, err := core.New(core.Config{
		Policy: quarantine.Policy{Fraction: 0.25, MinBytes: 64 << 10},
		Revoke: campaign.PaperVariant().Revoke,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := workload.NewBinaryTraceWriter(&buf, workload.TraceHeader{Name: p.Name, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(sys, p, workload.Options{
		Seed: 11, MaxLiveBytes: 1 << 20, MinSweeps: 1, MaxEvents: 10000, Stream: w,
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceUploadListInfo(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2, TraceDir: t.TempDir()})
	data := recordTestTrace(t)

	resp, err := http.Post(ts.URL+"/traces", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var up TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	if up.Hash == "" || up.Size != int64(len(data)) || up.Events == 0 || up.Name != "omnetpp" {
		t.Fatalf("upload response %+v", up)
	}
	if up.URL != "/traces/"+up.Hash {
		t.Fatalf("upload URL %q", up.URL)
	}

	var list []TraceResponse
	if code := getJSON(t, ts.URL+"/traces", &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(list) != 1 || list[0].Hash != up.Hash {
		t.Fatalf("list %+v", list)
	}

	var info TraceResponse
	if code := getJSON(t, ts.URL+"/traces/"+up.Hash, &info); code != http.StatusOK {
		t.Fatalf("info status %d", code)
	}
	if info.Events != up.Events || info.Format != workload.FormatBinary {
		t.Fatalf("info %+v", info)
	}
	// Prefix resolution over HTTP too.
	if code := getJSON(t, ts.URL+"/traces/"+up.Hash[:10], &info); code != http.StatusOK {
		t.Fatalf("prefix info status %d", code)
	}
	if code := getJSON(t, ts.URL+"/traces/ffffffffffff", nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace status %d", code)
	}

	// Garbage, and the retired single-document JSON trace, are rejected
	// with 400 and not filed.
	for _, body := range []string{"junk", `{"name":"x","seed":1,"events":[{"op":109,"size":64}]}`} {
		resp, err = http.Post(ts.URL+"/traces", "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("upload of %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if code := getJSON(t, ts.URL+"/traces", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("store grew after rejected upload: %d entries", len(list))
	}
}

// TestTraceDrivenCampaignOverHTTP is the end-to-end flow the ingestion
// endpoint exists for: upload a trace, submit a campaign referencing it by
// hash, and read back artifacts stamped with that hash.
func TestTraceDrivenCampaignOverHTTP(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2, TraceDir: t.TempDir()})

	resp, err := http.Post(ts.URL+"/traces", "application/octet-stream", bytes.NewReader(recordTestTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	var up TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	spec := campaign.Spec{
		Name:     "trace-driven",
		TraceRef: up.Hash,
		MaxLive:  []uint64{1 << 20},
		Traffic:  campaign.TrafficX86,
	}
	sub := submit(t, ts, spec, 2)
	st := waitDone(t, ts, sub.ID)
	if st.State != StateDone {
		t.Fatalf("campaign state %q (%s)", st.State, st.Error)
	}

	var res campaign.Result
	if code := getJSON(t, ts.URL+"/campaigns/"+sub.ID+"/results", &res); code != http.StatusOK {
		t.Fatalf("results status %d", code)
	}
	if len(res.Jobs) != 1 {
		t.Fatalf("%d jobs, want 1", len(res.Jobs))
	}
	if res.Jobs[0].TraceHash != up.Hash {
		t.Fatalf("artifact trace hash %q, want %q", res.Jobs[0].TraceHash, up.Hash)
	}
	if res.Jobs[0].Stats.Sweeps == 0 {
		t.Fatal("trace-driven job swept nothing")
	}

	// A submission referencing an unknown trace fails at submit time.
	body, _ := json.Marshal(SubmitRequest{Spec: campaign.Spec{TraceRef: "eeeeeeeeeeee"}})
	resp, err = http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown trace_ref submit status %d", resp.StatusCode)
	}
}
