// Command cherivoke regenerates the tables and figures of the CHERIvoke
// paper's evaluation on the simulated CHERI system.
//
// Usage:
//
//	cherivoke [-quick] [-seed N] [-workers N] [table1|table2|fig5|fig6|fig7|fig8|fig9|fig10|ablations|invariance|all]
//	cherivoke trace record [-quick] [-seed N] [-format binary|ndjson] [-o out] <benchmark>
//	cherivoke trace info <file|->
//	cherivoke replay [-stats] <file>                   # replay a trace under both allocators
//	cherivoke live [-server URL] [-window N] <file|->  # stream a trace into a running server's /live
//	cherivoke campaign [-workers N] [-statedir dir] [-trace file|-] [-o out.json] [-csv out.csv] [spec.json]
//	cherivoke serve [-addr :8080] [-workers N] [-tracedir dir] [-statedir dir] [-pprof]
//
// Output is textual: each figure prints the same rows/series the paper
// plots. Everything is deterministic for a given seed: figure sweeps run as
// concurrent campaigns (internal/campaign) whose results are independent of
// the worker count. Traces stream through the codecs of
// docs/TRACE_FORMAT.md, so `trace record | campaign -trace -` pipes a
// recording of any length into a campaign with a bounded event buffer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/livetrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	// Subcommands with their own flag sets dispatch before the global
	// figure flags.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			if err := serveCmd(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "campaign":
			if err := campaignCmd(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "trace":
			if err := traceCmd(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "replay":
			if err := replayCmd(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "live":
			if err := liveCmd(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		}
	}

	quick := flag.Bool("quick", false, "reduced-scale run (seconds instead of minutes)")
	seed := flag.Uint64("seed", 0, "workload generator seed (0 = default)")
	workers := flag.Int("workers", 0, "campaign worker-pool width (0 = GOMAXPROCS); never changes results")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cherivoke [-quick] [-seed N] [-workers N] [table1|table2|fig5..fig10|ablations|invariance|all]\n")
		fmt.Fprintf(os.Stderr, "       cherivoke trace record [-quick] [-seed N] [-format binary|ndjson] [-o out] <benchmark>\n")
		fmt.Fprintf(os.Stderr, "       cherivoke trace info <file|->\n")
		fmt.Fprintf(os.Stderr, "       cherivoke replay [-stats] <file>\n")
		fmt.Fprintf(os.Stderr, "       cherivoke live [-server URL] [-window N] <file|->\n")
		fmt.Fprintf(os.Stderr, "       cherivoke campaign [-workers N] [-statedir dir] [-trace file|-] [-o out.json] [-csv out.csv] [spec.json]\n")
		fmt.Fprintf(os.Stderr, "       cherivoke serve [-addr :8080] [-workers N] [-tracedir dir] [-statedir dir]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	opts := experiments.Default()
	if *quick {
		opts = experiments.Quick()
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	opts.Workers = *workers

	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}

	runners := map[string]func(experiments.Options) error{
		"table1":     func(experiments.Options) error { return table1() },
		"table2":     table2,
		"fig5":       fig5,
		"fig6":       fig6,
		"fig7":       fig7,
		"fig8":       fig8,
		"fig9":       fig9,
		"fig10":      fig10,
		"ablations":  ablations,
		"invariance": invariance,
	}
	order := []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "ablations", "invariance"}

	if what == "all" {
		for _, name := range order {
			if err := runners[name](opts); err != nil {
				fatal(err)
			}
		}
		return
	}
	run, ok := runners[what]
	if !ok {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(opts); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cherivoke:", err)
	os.Exit(1)
}

// replayCmd streams a trace file (any encoding) under the CHERIvoke
// configuration, with a direct-free system fed the same mallocs and frees
// as they are replayed, and prints the comparison. It is one streaming pass
// over the file; nothing is materialised. With -stats it instead prints the
// CHERIvoke replay's accumulated StreamStats as JSON — the same shape a
// live session reports, so the two can be diffed byte-for-byte.
func replayCmd(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	stats := fs.Bool("stats", false, "print the CHERIvoke replay's accumulated stream stats as JSON (the live-session reconciliation format)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cherivoke replay [-stats] <file>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	if *stats {
		return replayStats(fs.Arg(0))
	}
	return replayCompare(fs.Arg(0))
}

// replayStats replays path under the live-ingestion analysis configuration
// and prints the accumulated StreamStats JSON.
func replayStats(path string) error {
	st, _, err := replayFile(path, nil)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// replayCompare compares the live-ingestion analysis configuration (the
// paper's CHERIvoke defaults) against the direct-free baseline in one pass.
func replayCompare(path string) error {
	base, err := core.New(core.Config{DirectFree: true})
	if err != nil {
		return err
	}
	st, hdr, err := replayFile(path, base)
	if err != nil {
		return fmt.Errorf("replaying: %w", err)
	}
	fmt.Printf("trace %q: %d events (seed %#x)\n", hdr.Name, st.Events, hdr.Seed)
	line := func(name string, heap, sweeps, caps uint64, sweepSeconds float64) {
		fmt.Printf("  %-12s heap %6.2f MiB, %3d sweeps, %6d caps revoked, sweep time %8.3f ms\n",
			name, float64(heap)/(1<<20), sweeps, caps, sweepSeconds*1e3)
	}
	line("CHERIvoke", st.HeapBytes, st.Sweeps, st.CapsRevoked, st.SweepSeconds)
	bs := base.Stats()
	line("direct-free", base.HeapBytes(), bs.Sweeps, bs.CapsRevoked, bs.SweepSeconds)
	return nil
}

// replayFile streams the trace at path through a fresh system under the
// live-ingestion analysis configuration, feeding base (when non-nil) the
// same mallocs and frees, and returns the replay's StreamStats and the
// trace header.
func replayFile(path string, base *core.System) (workload.StreamStats, workload.TraceHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return workload.StreamStats{}, workload.TraceHeader{}, err
	}
	tr, err := workload.NewTraceReader(f)
	if err != nil {
		f.Close()
		return workload.StreamStats{}, workload.TraceHeader{}, err
	}
	defer tr.Close()
	sys, err := core.New(livetrace.AnalysisConfig())
	if err != nil {
		return workload.StreamStats{}, workload.TraceHeader{}, err
	}
	st, err := workload.NewIncrementalReplay(sys, base).Replay(workload.NewStreamingSource(tr, 0))
	return st, tr.Header(), err
}

func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func table1() error {
	fmt.Println("== Table 1: System setup ==")
	w := newTab()
	for _, r := range experiments.Table1() {
		fmt.Fprintf(w, "%s\t%s\n", r.System, r.Spec)
	}
	return w.Flush()
}

func table2(opts experiments.Options) error {
	fmt.Println("\n== Table 2: Deallocation metadata (measured vs paper) ==")
	rows, err := experiments.Table2(opts)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "Benchmark\tPages w/ pointers\t(paper)\tFree rate MiB/s\t(paper)\tFrees k/s\t(paper)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.0f%%\t%.0f%%\t%.0f\t%.0f\t%.0f\t%.0f\n",
			r.Name,
			r.MeasuredPageDensity*100, r.PaperPageDensity*100,
			r.MeasuredFreeRateMiB, r.PaperFreeRateMiB,
			r.MeasuredFreesPerSec/1000, r.PaperFreesPerSec/1000)
	}
	return w.Flush()
}

func fig5(opts experiments.Options) error {
	fmt.Println("\n== Figure 5: CHERIvoke vs state-of-the-art temporal-safety systems ==")
	rows, err := experiments.Fig5(opts)
	if err != nil {
		return err
	}
	schemes := []string{"Oscar", "pSweeper", "DangSan", "Boehm-GC"}

	fmt.Println("-- (a) Normalised execution time --")
	w := newTab()
	fmt.Fprintln(w, "Benchmark\tCHERIvoke\tOscar\tpSweeper\tDangSan\tBoehm-GC")
	var cv []float64
	per := map[string][]float64{}
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f", r.Name, r.CheriVoke.Runtime)
		cv = append(cv, r.CheriVoke.Runtime)
		for _, s := range schemes {
			fmt.Fprintf(w, "\t%.2f", r.Schemes[s].Runtime)
			per[s] = append(per[s], r.Schemes[s].Runtime)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "geomean\t%.3f", campaign.Geomean(cv))
	for _, s := range schemes {
		fmt.Fprintf(w, "\t%.3f", campaign.Geomean(per[s]))
	}
	fmt.Fprintln(w)
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("-- (b) Normalised memory utilisation --")
	w = newTab()
	fmt.Fprintln(w, "Benchmark\tCHERIvoke\tOscar\tpSweeper\tDangSan\tBoehm-GC")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f", r.Name, r.CheriVoke.Memory)
		for _, s := range schemes {
			fmt.Fprintf(w, "\t%.2f", r.Schemes[s].Memory)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func fig6(opts experiments.Options) error {
	fmt.Println("\n== Figure 6: Decomposition of run-time overheads (25% heap overhead) ==")
	decs, err := experiments.Fig6(opts)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "Benchmark\tquarantine only\t+ shadow space\t+ sweeping")
	var totals []float64
	for _, d := range decs {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\n", d.Name, d.QuarantineOnly, d.PlusShadow, d.PlusSweep)
		if d.Name != "ffmpeg" {
			totals = append(totals, d.PlusSweep)
		}
	}
	fmt.Fprintf(w, "geomean (SPEC)\t\t\t%.3f\n", campaign.Geomean(totals))
	return w.Flush()
}

func fig7(opts experiments.Options) error {
	fmt.Println("\n== Figure 7: Sweep-loop memory bandwidth (MiB/s; system read bandwidth 19405 MiB/s) ==")
	rows, err := experiments.Fig7(opts)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "Benchmark\tSimple loop\tUnrolled+pipelined\tAVX2")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.0f\n", r.Name,
			r.Bandwidth[sim.KernelSimple]/sim.MiB,
			r.Bandwidth[sim.KernelUnrolled]/sim.MiB,
			r.Bandwidth[sim.KernelVector]/sim.MiB)
	}
	return w.Flush()
}

func fig8(opts experiments.Options) error {
	fmt.Println("\n== Figure 8a: Proportion of memory swept under each assist ==")
	rows, err := experiments.Fig8a(opts)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "Benchmark\tPTE CapDirty\tCLoadTags")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\n", r.Name, r.CapDirty, r.Tags)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("-- Figure 8b: Normalised sweep time vs density (CHERI FPGA model) --")
	pts, err := experiments.Fig8b(opts)
	if err != nil {
		return err
	}
	w = newTab()
	fmt.Fprintln(w, "Density\tPTE dirty\tCLoadTags\tIdealised")
	for _, p := range pts {
		fmt.Fprintf(w, "%.1f\t%.3f\t%.3f\t%.3f\n", p.Density, p.CapDirty, p.Tags, p.Ideal)
	}
	return w.Flush()
}

func fig9(opts experiments.Options) error {
	fmt.Println("\n== Figure 9: Execution time vs heap overhead (worst-case workloads) ==")
	rows, err := experiments.Fig9(opts)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "Heap overhead %\tXalancbmk\tOmnetpp")
	for _, r := range rows {
		fmt.Fprintf(w, "%.1f\t%.3f\t%.3f\n", r.HeapOverheadPct, r.Xalancbmk, r.Omnetpp)
	}
	return w.Flush()
}

func ablations(opts experiments.Options) error {
	fmt.Println("\n== Ablations: hardware assists (CHERI FPGA timing; §6.3) ==")
	for _, wl := range []string{"omnetpp", "hmmer"} {
		rows, err := experiments.AblationAssists(opts, wl)
		if err != nil {
			return err
		}
		fmt.Printf("-- %s --\n", wl)
		w := newTab()
		fmt.Fprintln(w, "Configuration\tsim µs/sweep\tMB read\ttag probes\tpages swept")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.0f\t%.2f\t%d\t%d\n",
				r.Name, r.SimMicros, float64(r.BytesRead)/(1<<20), r.TagProbes, r.PagesSwept)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}

	fmt.Println("\n== Ablations: parallel sweep (§3.5) ==")
	rows, err := experiments.AblationParallel(opts)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "Shards\tsim µs/sweep")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.0f\n", r.Name, r.SimMicros)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("\n== Extensions (§8) on xalancbmk ==")
	exts, err := experiments.Extensions(opts)
	if err != nil {
		return err
	}
	w = newTab()
	fmt.Fprintln(w, "Variant\texec time\tsweeps\tunmapped MiB\theap MiB\tsafety")
	for _, e := range exts {
		fmt.Fprintf(w, "%s\t%.3f\t%d\t%.1f\t%.1f\t%s\n",
			e.Name, e.Runtime, e.Sweeps, e.UnmappedMiB, e.HeapMiB, e.Safety)
	}
	return w.Flush()
}

func invariance(opts experiments.Options) error {
	fmt.Println("\n== Scale invariance of relative overhead (xalancbmk; §6.1.3) ==")
	pts, err := experiments.ScaleInvariance(opts)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "Simulated live heap MiB\tnormalised exec time")
	for _, p := range pts {
		fmt.Fprintf(w, "%.0f\t%.3f\n", p.LiveMiB, p.Runtime)
	}
	return w.Flush()
}

func fig10(opts experiments.Options) error {
	fmt.Println("\n== Figure 10: Off-core-traffic overhead (%) ==")
	rows, err := experiments.Fig10(opts)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "Benchmark\tTraffic overhead %")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f\n", r.Name, r.TrafficOverheadPct)
	}
	return w.Flush()
}
