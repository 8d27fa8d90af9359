package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

const (
	// poolWorkers is every workload's campaign pool width, and clients
	// never exceed it: the benchmark is sized for a 2-core machine.
	poolWorkers = 2
	// A run sets its workload up at least minSetups times, and up to
	// maxSetups while the set-ups so far took under setupBudget; setup_s is
	// their median. Two workloads set up in 10–20 ms, where one preempted
	// set-up moves a small sample's median, so those take up to 31.
	minSetups, maxSetups = 5, 31
	setupBudget          = 2 * time.Second
)

// sizeClass scales a workload's inputs.
type sizeClass int

const (
	sizeFull sizeClass = iota // the benchmark's sizes
	sizeTiny                  // milliseconds per unit, for the package tests
)

// config is one run's settings.
type config struct {
	seed     uint64
	seconds  float64
	traced   bool
	size     sizeClass
	dir      string // scratch directory for stores and traces
	traceDir string // where a traced run writes profiles, spans and layers.txt
}

// unitResult is what one unit of work did.
type unitResult struct {
	ops, failed   int    // operations attempted and failed in the unit
	events, swept uint64 // simulated mallocs+frees, simulated bytes swept
}

// session is one set-up instance of a workload.
type session interface {
	// unit runs the workload's i-th unit of work for client c, recording
	// spans on tr (nil outside the traced phase).
	unit(c, i int, tr *tracer) (unitResult, error)
	// scrape returns the /metrics samples of all the session's in-process
	// servers (none when it has no server).
	scrape() ([]obs.Sample, error)
	// check runs the end-of-run correctness checks.
	check() []error
	// outputs returns digests of the run's deterministic outputs, by name,
	// for comparison against the goldens (nil when there are none).
	outputs() map[string]string
	// probe returns the workload's representative trace and the system
	// configuration to replay it under.
	probe() (trace []byte, cfg core.Config)
	close()
}

// workloadDef is one named workload.
type workloadDef struct {
	name, why string
	clients   int
	// rssUnits is how many of a run's first completed units peak_rss_mib
	// is taken over, so a faster commit is not charged for the extra units
	// it fits into the same time (campaign-service's store grows with every
	// campaign).
	rssUnits int
	setup    func(cfg config) (session, error)
}

// phase is one measured interval of a run.
type phase struct {
	latMs         []float64 // per-unit wall time
	ops           int
	failed        int
	unitsRate     float64 // units/s
	events, swept uint64  // simulated mallocs+frees and bytes swept, all units
	peakRSSMiB    float64 // median of the per-unit peaks over the first rssUnits units
	errs          []error
}

// measure runs units on clients closed-loop clients until seconds have
// elapsed; a unit in flight at the deadline completes. Units take their
// indices from next, which carries over between a run's phases so no unit
// repeats another's inputs. Rates sum each client's count over its own busy
// span, so a client idling while the other finishes its last unit does not
// dilute them. Each of the first rssUnits completions reads the peak RSS
// since the previous one and resets it; the phase reports their median,
// which unlike the process's all-time peak does not swing with how the
// garbage collector's cycles happened to line up with one unit's heap
// peak. The first error stops every client.
func measure(s session, clients, rssUnits int, seconds float64, next *atomic.Int64, tr *tracer) phase {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	type totals struct {
		n, ops, failed int
		events, swept  uint64
		last           time.Time
		lat            []float64
		err            error
	}
	tot := make([]totals, clients)
	var stop atomic.Bool
	var rssMu sync.Mutex
	var rss []float64 // peak RSS between consecutive completions
	resetPeakRSS()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tot[c]
			for !stop.Load() && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				u, err := s.unit(c, i, tr)
				t.ops += u.ops
				t.failed += u.failed
				if err != nil {
					if u.failed == 0 {
						t.failed++
					}
					t.err = fmt.Errorf("unit %d: %w", i, err)
					stop.Store(true)
					return
				}
				t.last = time.Now()
				rssMu.Lock()
				if len(rss) < rssUnits {
					rss = append(rss, peakRSSMiB())
					resetPeakRSS()
				}
				rssMu.Unlock()
				t.n++
				t.events += u.events
				t.swept += u.swept
				t.lat = append(t.lat, float64(t.last.Sub(t0).Nanoseconds())/1e6)
			}
		}()
	}
	wg.Wait()
	var ph phase
	for _, t := range tot {
		ph.ops += t.ops
		ph.failed += t.failed
		ph.latMs = append(ph.latMs, t.lat...)
		ph.events += t.events
		ph.swept += t.swept
		if t.err != nil {
			ph.errs = append(ph.errs, t.err)
		}
		if busy := t.last.Sub(start).Seconds(); t.n > 0 && busy > 0 {
			ph.unitsRate += float64(t.n) / busy
		}
	}
	ph.peakRSSMiB = median(rss)
	if len(rss) == 0 {
		ph.peakRSSMiB = peakRSSMiB()
	}
	return ph
}

// runWorkload sets def up several times, keeping the last, measures it,
// checks its outputs and prints the report; the returned result is the
// report's last line. An untraced run states its times at the nominal host
// speed (see hostSpeed) and prints them unscaled too.
func runWorkload(w io.Writer, def workloadDef, cfg config) result {
	fmt.Fprintf(w, "bench: workload=%s seed=%d trace=%d seconds=%g\n", def.name, cfg.seed, btoi(cfg.traced), cfg.seconds)
	defs := endToEnd
	var speedBefore float64
	if cfg.traced {
		defs = perLayer
	} else {
		speedBefore = hostSpeed()
	}
	var setups []float64
	var s session
	for spent := time.Duration(0); len(setups) < minSetups || len(setups) < maxSetups && spent < setupBudget; {
		t0 := time.Now()
		next, err := def.setup(cfg)
		if err != nil {
			if s != nil {
				s.close()
			}
			return report(w, defs, nil, 1, 1, []error{fmt.Errorf("setup: %w", err)})
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
		if s != nil {
			s.close()
		}
		s = next
	}
	defer s.close()

	if !cfg.traced {
		var next atomic.Int64
		ph := measure(s, def.clients, def.rssUnits, cfg.seconds, &next, nil)
		checks := append(s.check(), checkOutputs(w, def.name, cfg, s.outputs())...)
		speedAfter := hostSpeed()
		speed := (speedBefore + speedAfter) / 2
		n := len(ph.latMs)
		setup, p50 := median(setups), median(ph.latMs)
		vals := map[string]value{
			"setup_s":      {v: setup * speed, n: len(setups)},
			"units_per_s":  {v: ph.unitsRate / speed, n: n},
			"unit_p50_ms":  {v: p50 * speed, n: n},
			"peak_rss_mib": {v: ph.peakRSSMiB, n: min(n, def.rssUnits)},
		}
		fmt.Fprintf(w, "  host speed %.4g of nominal (%.4g before set-up, %.4g after); times below are scaled by it\n", speed, speedBefore, speedAfter)
		fmt.Fprintf(w, "  unscaled: setup_s %.6g s, units_per_s %.6g 1/s, unit_p50_ms %.6g ms", setup, ph.unitsRate, p50)
		if v, label := tail(ph.latMs); label != "p50" {
			fmt.Fprintf(w, ", unit latency %s %.6g ms", label, v)
		}
		fmt.Fprintln(w)
		return report(w, defs, vals, ph.ops, ph.failed+len(checks), append(ph.errs, checks...))
	}
	return runTraced(w, def, cfg, s)
}

// runTraced is the traced run: half the time untraced as the overhead
// reference, half traced with spans, a CPU profile and /metrics scrapes
// around it, then the probe. It reports the per-layer metrics.
func runTraced(w io.Writer, def workloadDef, cfg config, s session) result {
	fail := func(err error) result {
		return report(w, perLayer, nil, 1, 1, []error{err})
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return fail(err)
	}
	var next atomic.Int64
	base := measure(s, def.clients, def.rssUnits, cfg.seconds/2, &next, nil)

	before, err := s.scrape()
	if err != nil {
		return fail(fmt.Errorf("scraping /metrics: %w", err))
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fail(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr := newTracer()
	traced := measure(s, def.clients, def.rssUnits, cfg.seconds/2, &next, tr)
	runtime.ReadMemStats(&m1)
	pprof.StopCPUProfile()
	after, err := s.scrape()
	if err != nil {
		return fail(fmt.Errorf("scraping /metrics: %w", err))
	}

	prefix := filepath.Join(cfg.traceDir, def.name)
	if err := os.WriteFile(prefix+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return fail(err)
	}
	shares, err := attributeProfile(prefix + ".cpu.pprof")
	if err != nil {
		return fail(fmt.Errorf("reading the CPU profile: %w", err))
	}
	trace, pcfg := s.probe()
	pr, probeErr := runProbe(trace, pcfg, tr)

	checks := append(s.check(), checkOutputs(w, def.name, cfg, s.outputs())...)
	if probeErr != nil {
		checks = append(checks, fmt.Errorf("probe: %w", probeErr))
	}
	spans := tr.snapshot()
	vals := layerValues(shares, spans, before, after, pr)
	vals["runtime.alloc_mib"] = value{v: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)}
	units := len(traced.latMs)
	vals["core.events_per_unit"] = value{v: ratio(float64(traced.events), float64(units)), n: units}
	vals["revoke.swept_mib_per_unit"] = value{v: ratio(float64(traced.swept)/(1<<20), float64(units)), n: units}
	vals["trace.overhead_frac"] = value{v: ratio(base.unitsRate, traced.unitsRate) - 1, n: units}
	if a := vals["trace.attributed_frac"].v; a < 0.9 {
		checks = append(checks, fmt.Errorf("CPU attribution covers %.1f%% of samples, want at least 90%%", a*100))
	}

	if err := writeSpans(prefix+".spans.json", spans); err != nil {
		checks = append(checks, err)
	}
	if err := writeLayers(cfg.traceDir, def.name, shares, vals); err != nil {
		checks = append(checks, err)
	}
	errs := append(append(base.errs, traced.errs...), checks...)
	return report(w, perLayer, vals, base.ops+traced.ops+1, base.failed+traced.failed+len(checks), errs)
}

// checkOutputs prints a run's output digests and compares them with the
// goldens committed for its workload and seed; seeds without goldens are
// checked only by the workload's own invariants.
func checkOutputs(w io.Writer, workloadName string, cfg config, got map[string]string) []error {
	if len(got) == 0 {
		return nil
	}
	want, ok := goldenFor(workloadName, cfg)
	for _, name := range sortedKeys(got) {
		fmt.Fprintf(w, "  digest %s %s\n", name, got[name])
	}
	if !ok {
		fmt.Fprintf(w, "  (no goldens for seed %#x; digests printed, invariants checked)\n", cfg.seed)
		return nil
	}
	errs := compareGolden(want, got)
	if len(errs) == 0 {
		fmt.Fprintf(w, "  (digests match the goldens for seed %#x)\n", cfg.seed)
	}
	return errs
}

// compareGolden reports each output whose digest differs from the golden,
// and each golden output the run did not produce.
func compareGolden(want, got map[string]string) []error {
	var errs []error
	for _, name := range sortedKeys(want) {
		if g, ok := got[name]; !ok {
			errs = append(errs, fmt.Errorf("golden output %s not produced", name))
		} else if g != want[name] {
			errs = append(errs, fmt.Errorf("output %s digest %s, golden %s", name, g, want[name]))
		}
	}
	return errs
}

// peakRSSMiB returns the process's peak resident set (VmHWM) since the last
// resetPeakRSS, falling back to the Go runtime's reserved memory where /proc
// is unavailable.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// recordTrace records one generated workload run as a binary CVTR trace.
func recordTrace(profile string, seed uint64, cfg core.Config, wopts workload.Options) ([]byte, error) {
	p, ok := workload.ByName(profile)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", profile)
	}
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tw, err := workload.NewBinaryTraceWriter(&buf, workload.TraceHeader{Name: profile, Seed: seed})
	if err != nil {
		return nil, err
	}
	wopts.Seed = seed
	wopts.Stream = tw
	if _, err := workload.Run(sys, p, wopts); err != nil {
		return nil, fmt.Errorf("recording %s: %w", profile, err)
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// resetPeakRSS restarts VmHWM from the current resident set (Linux 4.0 and
// later); where that is not possible VmHWM keeps the all-time peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
