package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/mem"
	"repro/internal/revoke"
	"repro/internal/sim"
)

// fig10Spec is a reduced Figure-10 campaign: traffic replay through the x86
// hierarchy with the paper variant sweeping at the given shard width.
func fig10Spec(shards int) Spec {
	v := PaperVariant()
	v.Revoke.Shards = shards
	return Spec{
		Name:          "fig10",
		Profiles:      []string{"xalancbmk", "povray"},
		Variants:      []Variant{v},
		MaxLive:       []uint64{2 << 20},
		MinSweeps:     2,
		MaxEvents:     40000,
		ScaledStartup: true,
		Traffic:       TrafficX86,
	}
}

func runArtifacts(t *testing.T, spec Spec, workers int) (jobsJSON, csvOut []byte, res *Result) {
	t.Helper()
	res, err := Run(context.Background(), spec, RunOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	jb, err := json.MarshalIndent(res.Jobs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	if err := res.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	return jb, cb.Bytes(), res
}

// TestTrafficWorkerInvariance extends the byte-identical worker-count
// guarantee to traffic-enabled campaigns: each job owns its hierarchy, so
// the full JSON and CSV artifacts — traffic columns included — are the same
// on one worker and on eight.
func TestTrafficWorkerInvariance(t *testing.T) {
	spec := fig10Spec(4)
	run := func(workers int) (j, c []byte) {
		res, err := Run(context.Background(), spec, RunOptions{Workers: workers})
		if err != nil {
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
	json1, csv1 := run(1)
	json8, csv8 := run(8)
	if !bytes.Equal(json1, json8) {
		t.Errorf("traffic-enabled JSON artifacts differ between 1 and 8 workers:\n%.1500s\nvs\n%.1500s", json1, json8)
	}
	if !bytes.Equal(csv1, csv8) {
		t.Errorf("traffic-enabled CSV artifacts differ between 1 and 8 workers:\n%s\nvs\n%s", csv1, csv8)
	}
}

// TestTrafficShardInvarianceArtifacts is the end-to-end Figure-10 guarantee:
// a campaign whose sweeps run 4-way sharded measures, byte for byte, the
// same work and the same DRAM traffic as the identical campaign sweeping
// serially. Priced *time* (the plus_sweep bars) is deliberately excluded —
// §3.5's whole point is that a sharded sweep finishes faster — so the
// comparison covers every measured quantity: workload volume, densities,
// footprints, per-sweep stats and the full traffic report.
func TestTrafficShardInvarianceArtifacts(t *testing.T) {
	_, _, res := runArtifacts(t, fig10Spec(1), 2)
	_, _, resSharded := runArtifacts(t, fig10Spec(4), 2)
	for i, jr := range res.Jobs {
		sh := resSharded.Jobs[i]
		measured := func(j JobResult) []byte {
			j.Job.Variant.Revoke.Shards = 0                       // the one config delta
			j.QuarantineOnly, j.PlusShadow, j.PlusSweep = 0, 0, 0 // priced time
			j.Stats.QuarantineSeconds, j.Stats.BaselineFreeCost = 0, 0
			j.Stats.ShadowSeconds, j.Stats.SweepSeconds = 0, 0
			j.Stats.BackgroundSweepSeconds = 0
			b, err := json.MarshalIndent(j, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if a, b := measured(jr), measured(sh); !bytes.Equal(a, b) {
			t.Errorf("job %d measured results differ between serial and sharded sweeps:\n%.1500s\nvs\n%.1500s",
				i, a, b)
		}
	}
	// The artifacts actually carry traffic: a determinism guarantee over
	// all-zero columns would be vacuous.
	for _, jr := range res.Jobs {
		if jr.Traffic == nil {
			t.Fatalf("job %d missing traffic report", jr.Job.ID)
		}
		if jr.Traffic.Model != TrafficX86 {
			t.Errorf("job %d traffic model %q", jr.Job.ID, jr.Traffic.Model)
		}
		if jr.Traffic.OffCoreBytes == 0 || jr.Traffic.DRAMReadBytes == 0 {
			t.Errorf("job %d (%s): zero sweep traffic in %+v",
				jr.Job.ID, jr.Job.Profile, jr.Traffic.HierarchyStats)
		}
		if len(jr.Traffic.Levels) != 4 {
			t.Errorf("job %d: %d hierarchy levels, want 4", jr.Job.ID, len(jr.Traffic.Levels))
		}
	}
}

// TestTrafficValidation covers the new spec axis: unknown models are
// rejected, and a hierarchy smuggled into a variant's revoke config (shared
// runtime state) is replaced by a per-job one.
func TestTrafficValidation(t *testing.T) {
	if _, err := (Spec{Traffic: "pdp11"}).Jobs(); err == nil {
		t.Error("unknown traffic model not rejected")
	}
	if _, err := (Spec{Traffic: TrafficCHERI}).Jobs(); err != nil {
		t.Errorf("cheri traffic model rejected: %v", err)
	}

	// A shared hierarchy on the variant, or on an image sweep, must not be
	// used by jobs or their image sweeps: the run below would race on it
	// (and trip -race) if it were, and its traffic is not in the job key.
	shared := mem.NewX86Hierarchy()
	v := PaperVariant()
	v.Revoke.Hierarchy = shared
	res, err := Run(context.Background(), Spec{
		Profiles:       []string{"povray", "hmmer"},
		Variants:       []Variant{v},
		MaxLive:        []uint64{1 << 20},
		MinSweeps:      1,
		MaxEvents:      10000,
		SweepImageSelf: true,
		ImageSweeps:    []revoke.Config{{UseCLoadTags: true, Hierarchy: shared}},
	}, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if got := shared.Stats(); got != (mem.HierarchyStats{}) {
		t.Errorf("campaign jobs charged the spec-level hierarchy: %+v", got)
	}
	for _, jr := range res.Jobs {
		if jr.Traffic != nil {
			t.Errorf("job %d has a traffic report without Spec.Traffic", jr.Job.ID)
		}
		if jr.ImageSweepSelf == nil || jr.ImageSweepSelf.TrafficReplayed {
			t.Errorf("job %d: self image sweep missing or charged to a hierarchy", jr.Job.ID)
		}
		for i, st := range jr.ImageSweeps {
			if st.TrafficReplayed {
				t.Errorf("job %d image sweep %d charged to a hierarchy", jr.Job.ID, i)
			}
		}
	}
}

// TestImageSweepTrafficMarker pins that post-run image sweeps stay off the
// job's traffic books: they run with no hierarchy, and their stats say so.
func TestImageSweepTrafficMarker(t *testing.T) {
	spec := fig10Spec(2)
	spec.SweepImageSelf = true
	spec.ImageSweeps = []revoke.Config{{Kernel: sim.KernelSimple, UseCapDirty: true}}
	_, _, res := runArtifacts(t, spec, 2)
	for _, jr := range res.Jobs {
		if jr.ImageSweepSelf.TrafficReplayed {
			t.Errorf("job %d: self image sweep replayed traffic", jr.Job.ID)
		}
		for i, st := range jr.ImageSweeps {
			if st.TrafficReplayed {
				t.Errorf("job %d image sweep %d replayed traffic", jr.Job.ID, i)
			}
		}
	}
}
