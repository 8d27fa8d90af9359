package experiments

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/workload"
)

// TestCLoadTagsMetamorphic runs the paper variant over every SPEC profile at
// quick scale with and without CLoadTags. CLoadTags only skips lines whose
// tag probe is zero (§3.4.1), so it must revoke exactly what the plain sweep
// revokes, leave the same heap image, and never read more lines.
func TestCLoadTagsMetamorphic(t *testing.T) {
	paper := campaign.PaperVariant()
	cload := paper
	cload.Name = "cherivoke-cloadtags"
	cload.Revoke.UseCLoadTags = true
	var names []string
	for _, p := range workload.SPEC() {
		names = append(names, p.Name)
	}
	spec := Quick().spec(names, paper, cload)
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*len(names) {
		t.Fatalf("%d jobs, want %d", len(jobs), 2*len(names))
	}
	// Jobs expand profile-major, so each profile's two variants are
	// adjacent.
	for i := 0; i < len(jobs); i += 2 {
		without := campaign.ExecuteJob(spec, jobs[i], nil)
		with := campaign.ExecuteJob(spec, jobs[i+1], nil)
		name := jobs[i].Profile
		if without.Error != "" || with.Error != "" {
			t.Fatalf("%s: %q, %q", name, without.Error, with.Error)
		}
		if jobs[i+1].Profile != name || !with.Job.Variant.Revoke.UseCLoadTags || without.Job.Variant.Revoke.UseCLoadTags {
			t.Fatalf("%s: jobs %+v and %+v are not the profile's two variants", name, jobs[i], jobs[i+1])
		}
		type outcome struct {
			mallocs, frees, sweeps, capsRevoked uint64
			pageDensity, lineDensity            float64
		}
		of := func(r campaign.JobResult) outcome {
			return outcome{r.Mallocs, r.Frees, r.Stats.Sweeps, r.Stats.CapsRevoked, r.FinalPageDensity, r.FinalLineDensity}
		}
		if of(with) != of(without) {
			t.Errorf("%s: with CLoadTags %+v, without %+v", name, of(with), of(without))
		}
		if w, wo := with.Stats.LastSweep.LinesSwept, without.Stats.LastSweep.LinesSwept; w > wo {
			t.Errorf("%s: last sweep read %d lines with CLoadTags, %d without", name, w, wo)
		}
	}
}
