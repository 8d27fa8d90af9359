package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/revoke"
	"repro/internal/shadow"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig7Row is one benchmark's sweep bandwidth under the three kernel
// implementations (Figure 7, MiB/s).
type Fig7Row struct {
	Name      string
	Bandwidth map[sim.Kernel]float64 // effective read bandwidth, bytes/s
}

// fig7Kernels is Figure 7's kernel order; the campaign image-sweeps each
// job's final heap under every kernel (the vector kernel's unconditional
// line write-back changes the work summary, so each needs its own sweep).
var fig7Kernels = []sim.Kernel{sim.KernelSimple, sim.KernelUnrolled, sim.KernelVector}

// Fig7 regenerates Figure 7: the memory bandwidth achieved by the sweep loop
// with each optimisation level, over the heap images of the
// allocation-intensive benchmarks. The system's full read bandwidth is the
// x86 machine's 19,405 MiB/s.
func Fig7(opts Options) ([]Fig7Row, error) {
	// Figure 7 keeps only the 13 benchmarks "featuring significant
	// deallocation": it drops bzip2, lbm, libquantum and sjeng, whose
	// free traffic or pointer density rounds to zero.
	var profiles []string
	for _, p := range workload.All() {
		if p.AllocIntensive() && p.PageDensity >= 0.03 {
			profiles = append(profiles, p.Name)
		}
	}
	spec := opts.spec(profiles)
	for _, k := range fig7Kernels {
		// Sweep the final heap image non-destructively: the shadow map
		// is empty after the last drain, so nothing is revoked and all
		// three kernels see identical state.
		spec.ImageSweeps = append(spec.ImageSweeps, revoke.Config{
			Kernel:      k,
			UseCapDirty: true,
		})
	}
	res, err := opts.run(spec)
	if err != nil {
		return nil, err
	}
	out := make([]Fig7Row, 0, len(res.Jobs))
	for _, jr := range res.Jobs {
		p, _ := workload.ByName(jr.Job.Profile)
		machine := scaledMachine(p, opts)
		row := Fig7Row{Name: jr.Job.Profile, Bandwidth: map[sim.Kernel]float64{}}
		if len(jr.ImageSweeps) != len(fig7Kernels) {
			return nil, fmt.Errorf("fig7 %s: %d image sweeps, want %d",
				jr.Job.Profile, len(jr.ImageSweeps), len(fig7Kernels))
		}
		for i, k := range fig7Kernels {
			row.Bandwidth[k] = machine.SweepBandwidth(k.Costs(), jr.ImageSweeps[i].Work(1))
		}
		out = append(out, row)
	}
	return out, nil
}

// Fig8aRow is one benchmark's swept-memory proportion under each hardware
// assist (Figure 8a).
type Fig8aRow struct {
	Name     string
	CapDirty float64 // proportion of memory still swept with PTE CapDirty
	Tags     float64 // proportion with CLoadTags line elimination
}

// Fig8a regenerates Figure 8a: the proportion of memory that must be swept
// per benchmark, at page granularity (PTE CapDirty) and cache-line
// granularity (CLoadTags), measured from the workload's final heap image.
func Fig8a(opts Options) ([]Fig8aRow, error) {
	res, err := opts.run(opts.spec(workload.Names(workload.All())))
	if err != nil {
		return nil, err
	}
	out := make([]Fig8aRow, len(res.Jobs))
	for i, jr := range res.Jobs {
		out[i] = Fig8aRow{Name: jr.Job.Profile, CapDirty: jr.FinalPageDensity, Tags: jr.FinalLineDensity}
	}
	return out, nil
}

// Fig8bPoint is one density point of Figure 8b: normalised sweep execution
// time under an assist, plotted against the assist's target-granularity
// density (page density for PTE CapDirty, line density for CLoadTags).
type Fig8bPoint struct {
	Density  float64
	CapDirty float64 // normalised time, PTE CapDirty vs full sweep
	Tags     float64 // normalised time, CLoadTags vs full sweep
	Ideal    float64 // the x=y ideal
}

// Fig8b regenerates Figure 8b on the CHERI FPGA machine model: synthetic
// heap images at controlled densities are swept with and without each
// assist, and execution time is normalised to the unassisted sweep. PTE
// CapDirty tracks the ideal line closely; CLoadTags pays a per-line probe
// (~10-cycle round trip, §6.3) that keeps it above ideal and above 1.0 at
// very high densities.
func Fig8b(opts Options) ([]Fig8bPoint, error) {
	machine := sim.CHERIFPGA()
	kernel := sim.KernelSimple // the FPGA's scalar in-order loop
	const pages = 128
	var out []Fig8bPoint
	for step := 1; step <= 10; step++ {
		d := float64(step) / 10
		pageTime, err := assistRatio(d, pages, true, false, machine, kernel, opts.Seed)
		if err != nil {
			return nil, err
		}
		lineTime, err := assistRatio(d, pages, false, true, machine, kernel, opts.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig8bPoint{Density: d, CapDirty: pageTime, Tags: lineTime, Ideal: d})
	}
	return out, nil
}

// assistRatio builds a synthetic image at density d (page-granularity when
// pageAssist, line-granularity otherwise), sweeps it with and without the
// assist, and returns the normalised time.
func assistRatio(d float64, pages int, pageAssist, lineAssist bool, machine sim.Machine, kernel sim.Kernel, seed uint64) (float64, error) {
	base := core.DefaultHeapBase
	m := mem.New()
	if err := m.Map(base, uint64(pages)*mem.PageSize); err != nil {
		return 0, err
	}
	sm, err := shadow.New(base, uint64(pages)*mem.PageSize)
	if err != nil {
		return 0, err
	}
	root := cap.MustRoot(0, 1<<48)
	obj, err := root.SetBoundsExact(base, 64)
	if err != nil {
		return 0, err
	}
	if pageAssist {
		// Fraction d of pages carry capabilities on every line.
		capPages := int(d * float64(pages))
		for p := 0; p < capPages; p++ {
			for l := uint64(0); l < mem.LinesPerPage; l++ {
				addr := base + uint64(p)*mem.PageSize + l*mem.LineSize
				if err := m.RawStoreCap(addr, obj); err != nil {
					return 0, err
				}
			}
		}
	} else {
		// All pages dirty; fraction d of each page's lines carry a
		// capability.
		capLines := int(d * float64(mem.LinesPerPage))
		for p := 0; p < pages; p++ {
			for l := 0; l < capLines; l++ {
				addr := base + uint64(p)*mem.PageSize + uint64(l)*mem.LineSize
				if err := m.RawStoreCap(addr, obj); err != nil {
					return 0, err
				}
			}
			if capLines == 0 {
				// Keep the page CapDirty so only CLoadTags can
				// eliminate work.
				addr := base + uint64(p)*mem.PageSize
				if err := m.RawStoreCap(addr, obj); err != nil {
					return 0, err
				}
				if err := m.ClearTag(addr); err != nil {
					return 0, err
				}
			}
		}
	}

	timeFor := func(cfg revoke.Config) (float64, error) {
		cfg.Kernel = kernel
		st, err := revoke.New(m, sm, cfg).Sweep(nil)
		if err != nil {
			return 0, err
		}
		return machine.SweepTime(kernel.Costs(), st.Work(1)), nil
	}
	baseT, err := timeFor(revoke.Config{})
	if err != nil {
		return 0, err
	}
	assistT, err := timeFor(revoke.Config{UseCapDirty: pageAssist, UseCLoadTags: lineAssist})
	if err != nil {
		return 0, err
	}
	return assistT / baseT, nil
}

// Fig9Row is one quarantine-size point of Figure 9.
type Fig9Row struct {
	HeapOverheadPct float64
	Xalancbmk       float64 // normalised execution time
	Omnetpp         float64
}

// Fig9 regenerates Figure 9: normalised execution time for the two
// highest-overhead workloads at varying heap overhead — a single campaign
// over the profile × quarantine-fraction grid.
func Fig9(opts Options) ([]Fig9Row, error) {
	fractions := []float64{0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0}
	spec := opts.spec([]string{"xalancbmk", "omnetpp"})
	spec.Fractions = fractions
	res, err := opts.run(spec)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig9Row, len(fractions))
	for i, f := range fractions {
		rows[i].HeapOverheadPct = f * 100
	}
	for _, jr := range res.Jobs {
		for i, f := range fractions {
			if jr.Job.Fraction != f {
				continue
			}
			if jr.Job.Profile == "xalancbmk" {
				rows[i].Xalancbmk = jr.PlusSweep
			} else {
				rows[i].Omnetpp = jr.PlusSweep
			}
		}
	}
	return rows, nil
}

// Fig10Row is one benchmark's off-core traffic overhead (Figure 10, %).
type Fig10Row struct {
	Name               string
	TrafficOverheadPct float64
}

// fig10Shards is the sweep width Figure 10 prices: the paper's §3.5
// parallel sweep on the x86 part's four cores. The sweep's traffic charge
// ignores the width, which changes priced sweep time only.
const fig10Shards = 4

// Fig10 regenerates Figure 10: the extra off-core traffic generated by
// sweeping, relative to the application's own traffic over the same
// simulated interval. The sweeps are priced at fig10Shards with the x86
// cache-hierarchy traffic model attached; each job owns its hierarchy and
// the off-core bytes are measured on it (line fills, tag-table fills and
// revocation write-backs, net of cache hits) rather than estimated from raw
// byte counts.
func Fig10(opts Options) ([]Fig10Row, error) {
	return fig10At(opts, fig10Shards)
}

// fig10At is Fig10 at an explicit sweep width; the determinism tests compare
// its rows across widths byte for byte.
func fig10At(opts Options, shards int) ([]Fig10Row, error) {
	variant := campaign.PaperVariant()
	variant.Revoke.Shards = shards
	spec := opts.spec(workload.Names(workload.All()), variant)
	spec.Traffic = campaign.TrafficX86
	res, err := opts.run(spec)
	if err != nil {
		return nil, err
	}
	out := make([]Fig10Row, len(res.Jobs))
	for i, jr := range res.Jobs {
		p, _ := workload.ByName(jr.Job.Profile)
		appBytes := p.TrafficMiBs * sim.MiB * jr.AppSeconds
		pct := 0.0
		if appBytes > 0 {
			sweepBytes := float64(jr.SweepTrafficBytes)
			if jr.Traffic != nil {
				sweepBytes = float64(jr.Traffic.OffCoreBytes)
			}
			pct = sweepBytes / appBytes * 100
		}
		out[i] = Fig10Row{Name: jr.Job.Profile, TrafficOverheadPct: pct}
	}
	return out, nil
}
