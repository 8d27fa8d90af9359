package campaign

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/revoke"
	"repro/internal/sim"
)

// quickSpec is a small but representative campaign: two profiles (one
// sweep-heavy, one sparse), two variants (CHERIvoke + direct-free baseline),
// two fractions, matched-baseline runs and both kinds of image sweep — every
// job-runner code path at test scale.
func quickSpec() Spec {
	return Spec{
		Name:           "quick",
		Profiles:       []string{"povray", "hmmer"},
		Variants:       []Variant{PaperVariant(), {Name: "direct-free", DirectFree: true}},
		Fractions:      []float64{0.25, 0.5},
		MaxLive:        []uint64{2 << 20},
		MinSweeps:      1,
		MaxEvents:      20000,
		ScaledStartup:  true,
		Baseline:       true,
		SweepImageSelf: true,
		ImageSweeps: []revoke.Config{
			{Kernel: sim.KernelSimple, UseCapDirty: true},
			{Kernel: sim.KernelVector, UseCapDirty: true},
		},
	}
}

func TestJobsExpansionOrder(t *testing.T) {
	spec := quickSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// 2 profiles × 2 variants × 2 fractions × 1 live × 1 seed.
	if len(jobs) != 8 {
		t.Fatalf("got %d jobs, want 8", len(jobs))
	}
	for i, j := range jobs {
		if j.ID != i {
			t.Errorf("job %d has ID %d", i, j.ID)
		}
	}
	// Profile-major, then variant, then fraction.
	if jobs[0].Profile != "povray" || jobs[4].Profile != "hmmer" {
		t.Errorf("profile order: %q, %q", jobs[0].Profile, jobs[4].Profile)
	}
	if jobs[0].Variant.Name != "cherivoke" || jobs[2].Variant.Name != "direct-free" {
		t.Errorf("variant order: %q, %q", jobs[0].Variant.Name, jobs[2].Variant.Name)
	}
	if jobs[0].Fraction != 0.25 || jobs[1].Fraction != 0.5 {
		t.Errorf("fraction order: %v, %v", jobs[0].Fraction, jobs[1].Fraction)
	}
	// Defaults fill in.
	if jobs[0].Seed != DefaultSeed || jobs[0].QuarantineMinBytes != DefaultQuarantineMinBytes {
		t.Errorf("defaults not applied: %+v", jobs[0])
	}
}

func TestJobsValidation(t *testing.T) {
	if _, err := (Spec{Profiles: []string{"no-such-benchmark"}}).Jobs(); err == nil {
		t.Error("unknown profile not rejected")
	}
	if _, err := (Spec{Fractions: []float64{-1}}).Jobs(); err == nil {
		t.Error("negative fraction not rejected")
	}
	if _, err := (Spec{ImageSweeps: []revoke.Config{{UseCapDirty: true, Launder: true}}}).Jobs(); err == nil {
		t.Error("laundering image sweep not rejected")
	}
	jobs, err := (Spec{}).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 17 {
		t.Errorf("zero spec expands to %d jobs, want 17 (all profiles)", len(jobs))
	}
}

// TestSpecValidateRejectsSweepConfigs: a variant or image sweep whose shard
// width lies outside [0, revoke.MaxShards], or whose kernel is none of sim's
// three, is refused; the widest width and every kernel are accepted.
func TestSpecValidateRejectsSweepConfigs(t *testing.T) {
	for _, bad := range []revoke.Config{
		{Shards: -1},
		{Shards: revoke.MaxShards + 1},
		{Kernel: sim.KernelVector + 1},
		{Kernel: -1},
	} {
		variant := Spec{Profiles: []string{"povray"}, Variants: []Variant{{Name: "bad", Revoke: bad}}}
		if err := variant.Validate(); err == nil {
			t.Errorf("variant %+v accepted", bad)
		}
		image := Spec{Profiles: []string{"povray"}, ImageSweeps: []revoke.Config{bad}}
		if err := image.Validate(); err == nil {
			t.Errorf("image sweep %+v accepted", bad)
		}
	}
	for _, k := range []sim.Kernel{sim.KernelSimple, sim.KernelUnrolled, sim.KernelVector} {
		widest := revoke.Config{Kernel: k, Shards: revoke.MaxShards}
		spec := Spec{Profiles: []string{"povray"}, Variants: []Variant{{Revoke: widest}}, ImageSweeps: []revoke.Config{widest}}
		if err := spec.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", widest, err)
		}
	}
}

// TestJobsCapsExpansion: a spec whose axes multiply past MaxJobs is refused
// before its job list is allocated, including a product that overflows int
// (8192 entries on each of five axes is 2^65, which wraps to 0).
func TestJobsCapsExpansion(t *testing.T) {
	seeds := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(i + 1)
		}
		return out
	}
	if jobs, err := (Spec{Profiles: []string{"povray"}, Seeds: seeds(MaxJobs)}).Jobs(); err != nil || len(jobs) != MaxJobs {
		t.Fatalf("a spec of exactly MaxJobs: %d jobs, %v", len(jobs), err)
	}
	// Fatal, not Error: without the cap the overflow case below never
	// returns.
	if _, err := (Spec{Profiles: []string{"povray", "hmmer"}, Seeds: seeds(MaxJobs/2 + 1)}).Jobs(); err == nil {
		t.Fatalf("a spec of %d jobs was expanded past MaxJobs", MaxJobs+2)
	}
	const wrap = 1 << 13
	huge := Spec{Variants: make([]Variant, wrap), Seeds: seeds(wrap)}
	for i := 0; i < wrap; i++ {
		huge.Profiles = append(huge.Profiles, "povray")
		huge.Fractions = append(huge.Fractions, 0.25)
		huge.MaxLive = append(huge.MaxLive, 1<<20)
	}
	if _, err := huge.Jobs(); err == nil {
		t.Fatal("a spec whose job count overflows int was expanded")
	}
}

// TestWorkerCountInvariance is the subsystem's core guarantee: the
// aggregated artifacts are byte-identical whether the campaign runs
// serially or on eight workers.
func TestWorkerCountInvariance(t *testing.T) {
	spec := quickSpec()
	artifacts := func(workers int) (jsonOut, csvOut []byte) {
		t.Helper()
		res, err := Run(context.Background(), spec, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.FirstError(); err != nil {
			t.Fatal(err)
		}
		var jb, cb bytes.Buffer
		if err := res.WriteJSON(&jb); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteCSV(&cb); err != nil {
			t.Fatal(err)
		}
		return jb.Bytes(), cb.Bytes()
	}

	json1, csv1 := artifacts(1)
	json8, csv8 := artifacts(8)
	if !bytes.Equal(json1, json8) {
		t.Errorf("JSON artifacts differ between 1 and 8 workers:\n--- 1 worker ---\n%.2000s\n--- 8 workers ---\n%.2000s", json1, json8)
	}
	if !bytes.Equal(csv1, csv8) {
		t.Errorf("CSV artifacts differ between 1 and 8 workers:\n%s\nvs\n%s", csv1, csv8)
	}
}

func TestRunResults(t *testing.T) {
	res, err := Run(context.Background(), quickSpec(), RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if res.Summary.Jobs != 8 || res.Summary.Failed != 0 {
		t.Fatalf("summary %+v", res.Summary)
	}
	if res.Summary.GeomeanRuntime <= 0 {
		t.Errorf("geomean runtime %v", res.Summary.GeomeanRuntime)
	}
	for _, j := range res.Jobs {
		if j.Job.Variant.DirectFree {
			// The insecure baseline pays no overhead and never sweeps.
			if j.PlusSweep < 0.999 || j.PlusSweep > 1.001 {
				t.Errorf("job %d direct-free runtime %.4f, want 1.0", j.Job.ID, j.PlusSweep)
			}
			if j.Stats.Sweeps != 0 {
				t.Errorf("job %d direct-free swept %d times", j.Job.ID, j.Stats.Sweeps)
			}
			continue
		}
		if j.Stats.Sweeps == 0 {
			t.Errorf("job %d (%s) never swept", j.Job.ID, j.Job.Profile)
		}
		if j.PlusSweep < j.PlusShadow || j.PlusShadow < j.QuarantineOnly {
			t.Errorf("job %d bars not cumulative: %+v", j.Job.ID, j)
		}
		if j.MemoryOverhead < 1 {
			t.Errorf("job %d memory overhead %.3f < 1", j.Job.ID, j.MemoryOverhead)
		}
		if j.ImageSweepSelf == nil || len(j.ImageSweeps) != 2 {
			t.Errorf("job %d missing image sweeps", j.Job.ID)
			continue
		}
		// The vector kernel stores every swept line back, so its image
		// sweep must report at least as many bytes written.
		if j.ImageSweeps[1].BytesWritten < j.ImageSweeps[0].BytesWritten {
			t.Errorf("job %d: vector image sweep wrote %d < simple %d",
				j.Job.ID, j.ImageSweeps[1].BytesWritten, j.ImageSweeps[0].BytesWritten)
		}
	}
	povray := 0
	for _, j := range res.Jobs {
		if j.Job.Profile == "povray" {
			povray++
		}
	}
	if povray != 4 {
		t.Errorf("%d povray rows, want 4", povray)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, quickSpec(), RunOptions{Workers: 2}); err == nil {
		t.Error("cancelled run returned nil error")
	}
}
