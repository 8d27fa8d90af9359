package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sim"
)

func TestTable1TwoSystems(t *testing.T) {
	rows := Table1()
	if len(rows) != 2 {
		t.Fatalf("Table 1 has %d rows, want 2", len(rows))
	}
	if rows[0].System != "x86-64" || rows[1].System != "CHERI" {
		t.Errorf("rows: %+v", rows)
	}
}

func TestTable2ReproducesDeallocationMetadata(t *testing.T) {
	rows, err := Table2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 17 {
		t.Fatalf("Table 2 has %d rows, want 17", len(rows))
	}
	for _, r := range rows {
		if r.PaperFreeRateMiB >= 1 {
			// Free rate is pinned by construction: within 2%.
			ratio := r.MeasuredFreeRateMiB / r.PaperFreeRateMiB
			if ratio < 0.98 || ratio > 1.02 {
				t.Errorf("%s: free rate %.1f vs paper %.1f", r.Name, r.MeasuredFreeRateMiB, r.PaperFreeRateMiB)
			}
		}
		// Page density is statistical: ±0.25 absolute.
		if diff := r.MeasuredPageDensity - r.PaperPageDensity; diff > 0.25 || diff < -0.25 {
			t.Errorf("%s: page density %.2f vs paper %.2f", r.Name, r.MeasuredPageDensity, r.PaperPageDensity)
		}
	}
}

func TestFig6ShapeMatchesPaper(t *testing.T) {
	decs, err := Fig6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Decomposition{}
	for _, d := range decs {
		byName[d.Name] = d
	}
	// §6.1.3: exactly the high free-rate × high-density benchmarks break
	// 5%: dealII, omnetpp, soplex, xalancbmk.
	for _, name := range []string{"dealII", "omnetpp", "xalancbmk"} {
		if byName[name].PlusSweep < 1.05 {
			t.Errorf("%s total %.3f, want > 1.05", name, byName[name].PlusSweep)
		}
	}
	for _, name := range []string{"bzip2", "gobmk", "povray", "sjeng", "hmmer"} {
		if byName[name].PlusSweep > 1.05 {
			t.Errorf("%s total %.3f, want <= 1.05", name, byName[name].PlusSweep)
		}
	}
	// ffmpeg's huge free rate is offset by its 4%% pointer density
	// (§6.1.3); it stays low but lands slightly above the paper's ~2%
	// at simulation scale (see EXPERIMENTS.md).
	if byName["ffmpeg"].PlusSweep > 1.07 {
		t.Errorf("ffmpeg total %.3f, want <= 1.07", byName["ffmpeg"].PlusSweep)
	}
	// xalancbmk is the worst case, driven substantially by the
	// quarantine cache effect (§6.1.1), and stays under ~1.8.
	x := byName["xalancbmk"]
	for _, d := range decs {
		if d.PlusSweep > x.PlusSweep {
			t.Errorf("%s (%.3f) exceeds xalancbmk (%.3f)", d.Name, d.PlusSweep, x.PlusSweep)
		}
	}
	if x.QuarantineOnly < 1.10 {
		t.Errorf("xalancbmk quarantine-only %.3f, want > 1.10 (its 22%% cache effect)", x.QuarantineOnly)
	}
	if x.PlusSweep > 1.8 {
		t.Errorf("xalancbmk total %.3f, want < 1.8", x.PlusSweep)
	}
	// Bars accumulate.
	for _, d := range decs {
		if d.PlusShadow < d.QuarantineOnly-1e-9 || d.PlusSweep < d.PlusShadow-1e-9 {
			t.Errorf("%s: bars not cumulative: %+v", d.Name, d)
		}
	}
	// Headline number: SPEC geomean execution overhead ~4.7%.
	var runtimes []float64
	for _, d := range decs {
		if d.Name != "ffmpeg" {
			runtimes = append(runtimes, d.PlusSweep)
		}
	}
	if g := campaign.Geomean(runtimes); g < 1.02 || g > 1.09 {
		t.Errorf("SPEC geomean %.4f, want ~1.047 (within [1.02, 1.09])", g)
	}
}

func TestFig5CheriVokeWins(t *testing.T) {
	rows, err := Fig5(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("Fig5 has %d rows, want 16", len(rows))
	}
	var cvRun, cvMem []float64
	schemeRun := map[string][]float64{}
	for _, r := range rows {
		cvRun = append(cvRun, r.CheriVoke.Runtime)
		cvMem = append(cvMem, r.CheriVoke.Memory)
		for name, o := range r.Schemes {
			schemeRun[name] = append(schemeRun[name], o.Runtime)
		}
	}
	cvG := campaign.Geomean(cvRun)
	// Figure 5a: CHERIvoke "significantly outperforms any other
	// technique" in the geomean.
	for name, runs := range schemeRun {
		if g := campaign.Geomean(runs); g <= cvG {
			t.Errorf("%s geomean %.3f <= CHERIvoke %.3f", name, g, cvG)
		}
	}
	// Worst cases: CHERIvoke max ~1.51; DangSan blows past 4.
	maxCV, maxDS := 0.0, 0.0
	for _, r := range rows {
		if r.CheriVoke.Runtime > maxCV {
			maxCV = r.CheriVoke.Runtime
		}
		if d := r.Schemes["DangSan"].Runtime; d > maxDS {
			maxDS = d
		}
	}
	if maxCV > 1.8 {
		t.Errorf("CHERIvoke max %.3f, want < 1.8 (paper: 1.51)", maxCV)
	}
	if maxDS < 4 {
		t.Errorf("DangSan max %.3f, want > 4 (paper: 31.6 cut off)", maxDS)
	}
	// Figure 5b: CHERIvoke memory overhead average ~12.5%, max ~1.35.
	memG := campaign.Geomean(cvMem)
	if memG > 1.35 || memG < 1.0 {
		t.Errorf("CHERIvoke memory geomean %.3f, want ~1.1", memG)
	}
}

func TestFig7BandwidthShapes(t *testing.T) {
	rows, err := Fig7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("Fig7 has %d rows, want 13 (allocation-intensive subset)", len(rows))
	}
	peak := sim.X86().DRAMReadBW
	var best float64
	for _, r := range rows {
		s, u, v := r.Bandwidth[sim.KernelSimple], r.Bandwidth[sim.KernelUnrolled], r.Bandwidth[sim.KernelVector]
		if s <= 0 || u <= 0 || v <= 0 {
			t.Errorf("%s: zero bandwidth %v", r.Name, r.Bandwidth)
			continue
		}
		if s > u {
			t.Errorf("%s: simple %.0f > unrolled %.0f MiB/s", r.Name, s/sim.MiB, u/sim.MiB)
		}
		if v > peak {
			t.Errorf("%s: vector exceeds machine read bandwidth", r.Name)
		}
		if v > best {
			best = v
		}
	}
	// The best vectorised sweep should reach ~8 GiB/s (~39% of peak).
	if util := best / peak; util < 0.30 || util > 0.50 {
		t.Errorf("best vector utilisation %.2f, want ~0.39", util)
	}
	// mcf and milc under-utilise (§6.2: small, fragmented sweeps).
	byName := map[string]Fig7Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if milc := byName["milc"].Bandwidth[sim.KernelVector]; milc >= best*0.9 {
		t.Errorf("milc vector %.0f MiB/s not below best %.0f MiB/s", milc/sim.MiB, best/sim.MiB)
	}
}

func TestFig8aProportions(t *testing.T) {
	rows, err := Fig8a(Quick())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig8aRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Tags > r.CapDirty+1e-9 {
			t.Errorf("%s: CLoadTags proportion %.3f above CapDirty %.3f", r.Name, r.Tags, r.CapDirty)
		}
		if r.CapDirty < 0 || r.CapDirty > 1 {
			t.Errorf("%s: CapDirty %.3f out of range", r.Name, r.CapDirty)
		}
	}
	// omnetpp sweeps nearly everything at page granularity but much less
	// at line granularity (its Figure 8a bars).
	if o := byName["omnetpp"]; o.CapDirty < 0.6 || o.Tags > o.CapDirty*0.9 {
		t.Errorf("omnetpp proportions %+v lack the page/line gap", o)
	}
	// bzip2 sweeps nothing.
	if b := byName["bzip2"]; b.CapDirty > 0.05 {
		t.Errorf("bzip2 CapDirty %.3f, want ~0", b.CapDirty)
	}
}

func TestFig8bAssistCurves(t *testing.T) {
	pts, err := Fig8b(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Fatalf("Fig8b has %d points, want 10", len(pts))
	}
	for _, p := range pts {
		// PTE CapDirty hugs the ideal x=y line (§6.3).
		if diff := p.CapDirty - p.Ideal; diff < -0.02 || diff > 0.15 {
			t.Errorf("density %.1f: CapDirty %.3f too far from ideal %.3f", p.Density, p.CapDirty, p.Ideal)
		}
		// CLoadTags pays its probe: above ideal everywhere.
		if p.Tags < p.Ideal {
			t.Errorf("density %.1f: CLoadTags %.3f below ideal", p.Density, p.Tags)
		}
	}
	// At full density CLoadTags is pure overhead: normalised time > 1
	// ("can even lower performance", §6.3).
	last := pts[len(pts)-1]
	if last.Tags <= 1 {
		t.Errorf("CLoadTags at density 1.0 = %.3f, want > 1", last.Tags)
	}
	// Both curves must rise with density.
	for i := 1; i < len(pts); i++ {
		if pts[i].CapDirty < pts[i-1].CapDirty {
			t.Errorf("CapDirty curve not monotonic at %.1f", pts[i].Density)
		}
	}
}

func TestFig9TradeOff(t *testing.T) {
	rows, err := Fig9(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("Fig9 has %d rows", len(rows))
	}
	// Execution time falls as heap overhead grows, for both workloads.
	first, last := rows[0], rows[len(rows)-1]
	if !(first.Xalancbmk > last.Xalancbmk) {
		t.Errorf("xalancbmk: %.3f@%.0f%% not above %.3f@%.0f%%",
			first.Xalancbmk, first.HeapOverheadPct, last.Xalancbmk, last.HeapOverheadPct)
	}
	if !(first.Omnetpp > last.Omnetpp) {
		t.Errorf("omnetpp: %.3f@%.0f%% not above %.3f@%.0f%%",
			first.Omnetpp, first.HeapOverheadPct, last.Omnetpp, last.HeapOverheadPct)
	}
	// At 12.5% quarantine xalancbmk is painful; at 200% it is modest.
	if first.Xalancbmk < 1.3 {
		t.Errorf("xalancbmk at 12.5%% = %.3f, want > 1.3", first.Xalancbmk)
	}
	if last.Xalancbmk > 1.35 {
		t.Errorf("xalancbmk at 200%% = %.3f, want < 1.35", last.Xalancbmk)
	}
}

func TestFig10TrafficModest(t *testing.T) {
	rows, err := Fig10(Quick())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Name] = r.TrafficOverheadPct
		if r.TrafficOverheadPct < 0 || r.TrafficOverheadPct > 40 {
			t.Errorf("%s: traffic overhead %.1f%% out of the figure's range", r.Name, r.TrafficOverheadPct)
		}
	}
	// §6.5: traffic overhead is "comparable to (dealII) or significantly
	// lower than" the performance overhead for the expensive benchmarks.
	if byName["xalancbmk"] <= 0 || byName["omnetpp"] <= 0 {
		t.Error("allocation-intensive benchmarks must show sweep traffic")
	}
	if byName["bzip2"] != 0 {
		t.Errorf("bzip2 traffic overhead %.2f%%, want 0", byName["bzip2"])
	}
}

// TestFig10ShardInvariance is the figure-level byte-for-byte guarantee: the
// Figure 10 rows — sweep DRAM traffic relative to application traffic — are
// identical whether the sweeps run serially or 8-way sharded, because the
// sweep's closed-form traffic charge does not depend on the partition.
func TestFig10ShardInvariance(t *testing.T) {
	serial, err := fig10At(Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := fig10At(Quick(), 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("Figure 10 artifact differs between serial and sharded sweeps:\n%s\nvs\n%s", a, b)
	}
}
