package campaign

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/quarantine"
	"repro/internal/workload"
)

// recordCampaignTrace records a trace with exactly the workload options a
// default campaign job would use, and files it in a fresh store.
func recordCampaignTrace(t testing.TB, spec Spec) (*workload.Store, string) {
	t.Helper()
	job := mustJobs(t, spec)[0]
	p, _ := workload.ByName(job.Profile)
	sys, err := core.New(core.Config{
		Policy: quarantine.Policy{Fraction: job.Fraction, MinBytes: job.QuarantineMinBytes},
		Revoke: job.Variant.Revoke,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := workload.NewBinaryTraceWriter(&buf, workload.TraceHeader{Name: p.Name, Seed: job.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(sys, p, workload.Options{
		Seed:         job.Seed,
		MaxLiveBytes: job.MaxLiveBytes,
		MinSweeps:    job.MinSweeps,
		MaxEvents:    job.MaxEvents,
		Stream:       w,
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	store, err := workload.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	info, err := store.Put(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return store, info.Hash
}

func mustJobs(t testing.TB, spec Spec) []Job {
	t.Helper()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestTraceCampaignMatchesGenerator replays a recorded trace through a
// TraceRef campaign and checks the measured results match the generator
// campaign that would have produced the same events: same system activity,
// same sweeps, same simulated overheads, and the artifact carries the
// trace's content hash.
func TestTraceCampaignMatchesGenerator(t *testing.T) {
	genSpec := Spec{
		Profiles:  []string{"omnetpp"},
		MaxLive:   []uint64{1 << 21},
		MinSweeps: 2,
		MaxEvents: 20000,
		Traffic:   TrafficX86,
	}
	store, hash := recordCampaignTrace(t, genSpec)

	genRes, err := Run(context.Background(), genSpec, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	traceSpec := genSpec
	traceSpec.TraceRef = hash
	traceSpec.Profiles = nil // default to the TraceProfile sentinel
	traceSpec.TraceWindow = 128
	traceRes, err := Run(context.Background(), traceSpec, RunOptions{Workers: 2, Traces: store})
	if err != nil {
		t.Fatal(err)
	}

	g, tr := genRes.Jobs[0], traceRes.Jobs[0]
	if tr.Error != "" {
		t.Fatalf("trace job failed: %s", tr.Error)
	}
	if tr.TraceHash != hash {
		t.Fatalf("trace hash %q, want %q", tr.TraceHash, hash)
	}
	if tr.Job.Profile != TraceProfile {
		t.Fatalf("trace job profile %q, want the %q sentinel", tr.Job.Profile, TraceProfile)
	}
	if g.Mallocs != tr.Mallocs || g.Frees != tr.Frees || g.FreedBytes != tr.FreedBytes {
		t.Fatalf("event volume: generator (%d, %d, %d) vs trace (%d, %d, %d)",
			g.Mallocs, g.Frees, g.FreedBytes, tr.Mallocs, tr.Frees, tr.FreedBytes)
	}
	if g.Stats != tr.Stats {
		t.Fatalf("system stats diverge:\n generator %+v\n trace     %+v", g.Stats, tr.Stats)
	}
	if g.Stats.Sweeps == 0 {
		t.Fatal("no sweeps fired; the comparison is vacuous")
	}
	if g.PlusSweep != tr.PlusSweep || g.QuarantineOnly != tr.QuarantineOnly || g.PlusShadow != tr.PlusShadow {
		t.Fatalf("overhead bars: generator (%v, %v, %v) vs trace (%v, %v, %v)",
			g.QuarantineOnly, g.PlusShadow, g.PlusSweep, tr.QuarantineOnly, tr.PlusShadow, tr.PlusSweep)
	}
	if g.PeakFootprint != tr.PeakFootprint {
		t.Fatalf("peak footprint %d vs %d", g.PeakFootprint, tr.PeakFootprint)
	}
	if g.Traffic == nil || tr.Traffic == nil {
		t.Fatal("traffic reports missing")
	}
	if !reflect.DeepEqual(g.Traffic, tr.Traffic) {
		t.Fatalf("DRAM traffic diverges: %+v vs %+v", g.Traffic, tr.Traffic)
	}
}

// TestTraceSpecValidation covers the TraceRef-specific Jobs() rules.
func TestTraceSpecValidation(t *testing.T) {
	if _, err := (Spec{TraceRef: "abc", ScaledStartup: true}).Jobs(); err == nil {
		t.Error("scaled_startup with trace_ref accepted")
	}
	if _, err := (Spec{TraceWindow: -1}).Jobs(); err == nil {
		t.Error("negative trace window accepted")
	}
	if _, err := (Spec{TraceRef: "abc", Seeds: []uint64{1, 2}}).Jobs(); err == nil {
		t.Error("multi-valued seeds axis accepted with trace_ref (would duplicate identical jobs)")
	}
	if _, err := (Spec{TraceRef: "abc", MaxLive: []uint64{1 << 20, 2 << 20}}).Jobs(); err == nil {
		t.Error("multi-valued max_live axis accepted with trace_ref")
	}
	// Variants and fractions remain real axes for trace replays.
	jobs := mustJobs(t, Spec{TraceRef: "abc", Fractions: []float64{0.125, 0.5}})
	if len(jobs) != 2 {
		t.Errorf("fractions axis collapsed for trace spec: %d jobs", len(jobs))
	}
	if _, err := (Spec{Profiles: []string{TraceProfile}}).Jobs(); err == nil {
		t.Error("the trace sentinel accepted without a trace_ref")
	}
	jobs = mustJobs(t, Spec{TraceRef: "abc"})
	if len(jobs) != 1 || jobs[0].Profile != TraceProfile || jobs[0].TraceRef != "abc" {
		t.Errorf("trace spec expanded to %+v", jobs)
	}
	// An explicit known profile stays allowed (controlled comparison).
	jobs = mustJobs(t, Spec{TraceRef: "abc", Profiles: []string{"omnetpp"}})
	if jobs[0].Profile != "omnetpp" {
		t.Errorf("explicit profile lost: %+v", jobs[0])
	}
}

// TestTraceRunRequiresOpener: a trace spec without a configured opener must
// fail fast, before any job runs.
func TestTraceRunRequiresOpener(t *testing.T) {
	if _, err := Run(context.Background(), Spec{TraceRef: "abc"}, RunOptions{}); err == nil {
		t.Fatal("Run accepted a trace spec without a trace opener")
	}
}
