package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/revoke"
	"repro/internal/sim"
)

// AblationRow is one configuration of a sweep ablation.
type AblationRow struct {
	Name       string
	SimMicros  float64 // simulated sweep time, µs
	BytesRead  uint64  // data bytes the sweep fetched
	TagProbes  uint64
	PagesSwept uint64
}

// ablationSpec is the ablations' campaign shape: one profile, one sweep per
// run (the measurement is the post-run image re-sweep, not the run itself),
// unscaled default machine.
func ablationSpec(opts Options, profile string, variants []campaign.Variant) campaign.Spec {
	return campaign.Spec{
		Profiles:       []string{profile},
		Variants:       variants,
		Fractions:      []float64{opts.Fraction},
		MaxLive:        []uint64{opts.MaxLiveBytes},
		Seeds:          []uint64{opts.Seed},
		MinSweeps:      1,
		SweepImageSelf: true,
	}
}

// AblationAssists sweeps one workload's heap image under the four
// hardware-assist combinations (§6.3): neither, PTE CapDirty only,
// CLoadTags only, both. Timing uses the CHERI FPGA machine — the system the
// paper measures its assists on (§5.3 explicitly does not model CLoadTags
// on x86, where the deep cache hierarchy makes the probe cost comparable to
// the line read it would save). Whether CLoadTags helps is also
// density-dependent: on dense heaps the probes cost more than the skipped
// lines save, the paper's "can even lower performance" case.
func AblationAssists(opts Options, workloadName string) ([]AblationRow, error) {
	machine := sim.CHERIFPGA()
	variants := []campaign.Variant{
		{Name: "no assists"},
		{Name: "PTE CapDirty", Revoke: revoke.Config{UseCapDirty: true}},
		{Name: "CLoadTags", Revoke: revoke.Config{UseCLoadTags: true}},
		{Name: "both", Revoke: revoke.Config{UseCapDirty: true, UseCLoadTags: true}},
	}
	res, err := opts.run(ablationSpec(opts, workloadName, variants))
	if err != nil {
		return nil, fmt.Errorf("ablation %s: %w", workloadName, err)
	}
	out := make([]AblationRow, 0, len(res.Jobs))
	for _, jr := range res.Jobs {
		st := jr.ImageSweepSelf
		cfg := jr.Job.Variant.Revoke
		out = append(out, AblationRow{
			Name:       jr.Job.Variant.Name,
			SimMicros:  machine.SweepTime(cfg.Kernel.Costs(), st.Work(1)) * 1e6,
			BytesRead:  st.BytesRead,
			TagProbes:  st.TagProbes,
			PagesSwept: st.PagesSwept,
		})
	}
	return out, nil
}

// AblationParallel sweeps the same heap with 1–8 shards (§3.5).
func AblationParallel(opts Options) ([]AblationRow, error) {
	machine := sim.X86()
	var variants []campaign.Variant
	for _, shards := range []int{1, 2, 4, 8} {
		variants = append(variants, campaign.Variant{
			Name:   fmt.Sprintf("%d shard(s)", shards),
			Revoke: revoke.Config{UseCapDirty: true, Shards: shards},
		})
	}
	res, err := opts.run(ablationSpec(opts, "omnetpp", variants))
	if err != nil {
		return nil, err
	}
	out := make([]AblationRow, 0, len(res.Jobs))
	for _, jr := range res.Jobs {
		st := jr.ImageSweepSelf
		cfg := jr.Job.Variant.Revoke
		out = append(out, AblationRow{
			Name:       jr.Job.Variant.Name,
			SimMicros:  machine.SweepTime(cfg.Kernel.Costs(), st.Work(cfg.Shards)) * 1e6,
			BytesRead:  st.BytesRead,
			PagesSwept: st.PagesSwept,
		})
	}
	return out, nil
}

// ExtensionRow compares one deployment variant end to end.
type ExtensionRow struct {
	Name        string
	Runtime     float64 // normalised execution time
	Sweeps      uint64
	UnmappedMiB float64
	HeapMiB     float64
	Safety      string
}

// Extensions evaluates the paper's §8 extension directions on the
// worst-case workload (xalancbmk): stop-the-world CHERIvoke, concurrent
// sweeping (§3.5), page-granularity unmapping for large frees (Oscar-style),
// Cling-style typed reuse alone, and the insecure baseline. The sweeping
// variants run as one campaign; the non-sweeping variants run as a second
// whose event volume is bounded to the stop-the-world run's (sweeps never
// fire there, so nothing else terminates them).
func Extensions(opts Options) ([]ExtensionRow, error) {
	type extVariant struct {
		v      campaign.Variant
		safety string
	}
	paper := campaign.PaperVariant().Revoke
	sweeping := []extVariant{
		{campaign.Variant{Name: "CHERIvoke (stop-the-world)", Revoke: paper},
			"full heap temporal safety"},
		{campaign.Variant{Name: "CHERIvoke + concurrent sweep", Revoke: paper, ConcurrentSweep: true},
			"full heap temporal safety"},
		{campaign.Variant{Name: "CHERIvoke + unmap large frees", Revoke: paper, UnmapLarge: true},
			"full heap temporal safety"},
	}
	direct := []extVariant{
		{campaign.Variant{Name: "Cling-style typed reuse only", DirectFree: true, TypedReuse: true},
			"partial: same-class confusion remains"},
		{campaign.Variant{Name: "insecure direct free", DirectFree: true},
			"none"},
	}
	variantsOf := func(evs []extVariant) []campaign.Variant {
		out := make([]campaign.Variant, len(evs))
		for i, ev := range evs {
			out[i] = ev.v
		}
		return out
	}

	res, err := opts.run(opts.spec([]string{"xalancbmk"}, variantsOf(sweeping)...))
	if err != nil {
		return nil, err
	}
	events := int(res.Jobs[0].Frees) // match the stop-the-world run's volume
	directSpec := opts.spec([]string{"xalancbmk"}, variantsOf(direct)...)
	directSpec.MaxEvents = events
	directRes, err := opts.run(directSpec)
	if err != nil {
		return nil, err
	}

	variants := append(sweeping, direct...)
	jobs := append(res.Jobs, directRes.Jobs...)
	out := make([]ExtensionRow, len(jobs))
	for i, jr := range jobs {
		out[i] = ExtensionRow{
			Name:        jr.Job.Variant.Name,
			Runtime:     jr.PlusSweep,
			Sweeps:      jr.Stats.Sweeps,
			UnmappedMiB: float64(jr.Stats.UnmappedBytes) / (1 << 20),
			HeapMiB:     float64(jr.HeapBytes) / (1 << 20),
			Safety:      variants[i].safety,
		}
	}
	return out, nil
}

// InvariancePoint is one heap scale of the scale-invariance check.
type InvariancePoint struct {
	LiveMiB float64
	Runtime float64 // normalised execution time
}

// ScaleInvariance validates the reproduction's central scaling argument
// (§6.1.3): CHERIvoke's relative overhead is invariant under live-heap
// scaling, because sweeps shrink and speed up together. It runs xalancbmk
// at four simulated heap sizes — one campaign over the heap-scale axis.
func ScaleInvariance(opts Options) ([]InvariancePoint, error) {
	spec := opts.spec([]string{"xalancbmk"})
	spec.MaxLive = []uint64{2 << 20, 4 << 20, 8 << 20, 16 << 20}
	res, err := opts.run(spec)
	if err != nil {
		return nil, err
	}
	out := make([]InvariancePoint, len(res.Jobs))
	for i, jr := range res.Jobs {
		out[i] = InvariancePoint{
			LiveMiB: float64(jr.Job.MaxLiveBytes) / (1 << 20),
			Runtime: jr.PlusSweep,
		}
	}
	return out, nil
}
