package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestBaselineMatchesDirectRerun checks Figure 5b's matched baseline on
// every profile at -quick scale. A Baseline job feeds a direct-free system
// its mallocs and frees as they happen; the reference is a second,
// direct-free generator run of the same profile and seed bounded to the
// job's frees (sweeps never fire in direct mode, so the free count is its
// only terminator). Both must reach the same footprint.
func TestBaselineMatchesDirectRerun(t *testing.T) {
	opts := Quick()
	spec := opts.spec(workload.Names(workload.All()))
	spec.Baseline = true
	res, err := opts.run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		p, _ := workload.ByName(jr.Job.Profile)
		events := int(jr.Frees)
		if events == 0 {
			events = 1
		}
		sys, err := core.New(core.Config{DirectFree: true})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := workload.Run(sys, p, workload.Options{
			Seed:         jr.Job.Seed,
			MaxLiveBytes: jr.Job.MaxLiveBytes,
			MinSweeps:    1, // never reached in direct mode
			MaxEvents:    events,
		})
		if err != nil {
			t.Fatalf("%s: reference run: %v", p.Name, err)
		}
		if ref.Mallocs != jr.Mallocs || ref.Frees != jr.Frees || ref.FreedBytes != jr.FreedBytes {
			t.Errorf("%s: reference run made (%d, %d, %d) mallocs, frees, freed bytes; the job (%d, %d, %d)",
				p.Name, ref.Mallocs, ref.Frees, ref.FreedBytes, jr.Mallocs, jr.Frees, jr.FreedBytes)
		}
		if jr.BaselinePeakFootprint == 0 || jr.BaselinePeakFootprint != ref.PeakFootprint {
			t.Errorf("%s: baseline footprint %d, direct rerun %d", p.Name, jr.BaselinePeakFootprint, ref.PeakFootprint)
		}
		want := max(1, float64(jr.PeakFootprint)/float64(ref.PeakFootprint))
		if jr.MemoryOverhead != want {
			t.Errorf("%s: memory overhead %v, want %v", p.Name, jr.MemoryOverhead, want)
		}
	}
	if len(res.Jobs) != len(workload.All()) {
		t.Fatalf("%d jobs, want one per profile (%d)", len(res.Jobs), len(workload.All()))
	}
}
