package main

import (
	"bytes"
	"log/slog"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestMain(m *testing.M) {
	obs.SetLogger(slog.New(slog.DiscardHandler))
	os.Exit(m.Run())
}

// TestMetricsMatchBenchmarkJSON keeps the metrics a run prints, and the
// workloads it knows, identical to the contract in BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, specs []metricSpec) {
		var got, want []string
		for _, d := range defs {
			got = append(got, d.name+" "+d.unit)
		}
		for _, m := range specs {
			want = append(want, m.Name+" "+m.Unit)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s metrics:\n code %q\n json %q", kind, got, want)
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default --seconds %d", spec.RunSeconds, defaultSeconds)
	}
}

// tinyRun runs one workload at the tiny size and returns its output and
// result.
func tinyRun(t *testing.T, name string, traced bool) (string, result) {
	t.Helper()
	def, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	cfg := config{seed: 7, seconds: 0.5, traced: traced, size: sizeTiny, dir: t.TempDir(), traceDir: t.TempDir()}
	var out bytes.Buffer
	res := runWorkload(&out, def, cfg)
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct %v, attempted %d, failed %d\n%s", name, res.Correct, res.Attempted, res.Failed, out.String())
	}
	if w, parsed, err := parseRun(out.Bytes()); err != nil || w != name || parsed.Attempted != res.Attempted {
		t.Fatalf("parseRun: %q %+v %v", w, parsed, err)
	}
	return out.String(), res
}

// assertMetrics checks that a result carries exactly defs, with their units.
func assertMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: %+v, want unit %s", d.name, m, d.unit)
		}
	}
}

func TestTinyCampaignService(t *testing.T) {
	_, res := tinyRun(t, "campaign-service", false)
	assertMetrics(t, res, endToEnd)
	for _, d := range endToEnd {
		if v := res.Metrics[d.name].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0", d.name, v)
		}
	}
}

func TestTinyLiveIngestTraced(t *testing.T) {
	out, res := tinyRun(t, "live-ingest", true)
	assertMetrics(t, res, perLayer)
	for _, name := range []string{"trace.attributed_frac", "client.stream_ms_p50", "live.windows", "core.malloc_ns", "workload.decode_mib_per_s", "core.events_per_unit", "revoke.swept_mib_per_unit"} {
		if v := res.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0\n%s", name, v, out)
		}
	}
}

func TestTailPermille(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 500}, {5, 500}, {19, 500}, {20, 500}, {39, 500}, {40, 750},
		{100, 900}, {199, 900}, {200, 950}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPermille(c.n); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, label := tail(xs); label != "p99" || math.Abs(v-989.01) > 1e-9 {
		t.Errorf("tail of 0..999 = %v at %s, want 989.01 at p99", v, label)
	}
}

// TestQuartiles pins quartiles and median to Python's
// statistics.quantiles(xs, n=4) and statistics.median.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 4, 2, 8, 7}, 1.75, 4.5, 7.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.med {
			t.Errorf("%v: quartiles %v %v median %v, want %v %v %v", c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.med)
		}
	}
}

// stubSession is a session whose only output is a fixed digest set.
type stubSession struct{ digests map[string]string }

func (s stubSession) unit(int, int, *tracer) (unitResult, error) { return unitResult{ops: 1}, nil }
func (stubSession) scrape() ([]obs.Sample, error)                { return nil, nil }
func (stubSession) check() []error                               { return nil }
func (s stubSession) outputs() map[string]string                 { return s.digests }
func (stubSession) probe() ([]byte, core.Config)                 { return nil, core.Config{} }
func (stubSession) close()                                       {}

// TestGoldenMismatchFails runs a workload whose outputs disagree with the
// committed goldens for its seed: the run must report them and fail.
func TestGoldenMismatchFails(t *testing.T) {
	cfg := config{seed: defaultSeed, seconds: 0.01, size: sizeFull, dir: t.TempDir()}
	want, ok := goldenFor("figures", cfg)
	if !ok || len(want) == 0 {
		t.Fatal("no figures goldens committed for the default seed")
	}
	got := map[string]string{}
	for name, d := range want {
		got[name] = d
	}
	got["fig6"] = strings.Repeat("0", 64)
	def := workloadDef{name: "figures", clients: 1, setup: func(config) (session, error) { return stubSession{got}, nil }}
	var out bytes.Buffer
	res := runWorkload(&out, def, cfg)
	if res.Correct || res.Failed == 0 || !strings.Contains(out.String(), "output fig6 digest") {
		t.Fatalf("mismatching golden passed: %+v\n%s", res, out.String())
	}

	def.setup = func(config) (session, error) { return stubSession{want}, nil }
	out.Reset()
	if res := runWorkload(&out, def, cfg); !res.Correct {
		t.Fatalf("matching goldens failed:\n%s", out.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	around := func(center, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = center + step*float64(i%5-2) // center ± 2 steps
		}
		return xs
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		higherBetter   bool
		want           string
	}{
		{"faster", around(100, 1), around(90, 1), false, improved},
		{"more throughput", around(100, 1), around(110, 1), true, improved},
		{"noise", around(100, 1), around(100.5, 1), false, unchanged},
		{"slower beyond bound", around(100, 1), around(115, 1), false, regressed},
		{"less throughput beyond bound", around(100, 1), around(85, 1), true, regressed},
		{"slower within bound", around(100, 0.5), around(104, 0.5), false, unchanged},
		{"too noisy to tell", around(100, 10), around(103, 10), false, unresolved},
		{"noisy but every change run better", around(100, 5), around(60, 5), false, improved},
		{"no samples", nil, nil, false, unresolved},
	} {
		if got := compareMetric(c.parent, c.change, c.higherBetter, 0.1); got.verdict != c.want {
			t.Errorf("%s: %s (%+v), want %s", c.name, got.verdict, got, c.want)
		}
	}
	// 8 wins of 10 is not enough for a gain, even with separated medians.
	parent, change := around(100, 1), around(96, 1)
	change[0], change[1] = 200, 200
	if got := compareMetric(parent, change, false, 0.1); got.verdict == improved || got.wins != 8 {
		t.Errorf("8 of 10 wins: %s with %d wins", got.verdict, got.wins)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "repro/internal/alloc.(*Allocator).Release", "repro/internal/core.(*System).FreeAddr"}, "alloc"},
		{[]string{"runtime.mapaccess2", "repro/internal/mem.(*Memory).PageView", "main.main"}, "mem"},
		{[]string{"encoding/json.Marshal", "main.(*service).campaign"}, "bench"},
		{[]string{"syscall.Syscall", "net/http.(*conn).readRequest", "net/http.(*conn).serve"}, "server"},
		{[]string{"syscall.Syscall", "net/http.(*persistConn).readLoop"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"__tsan_read", "runtime._System"}, "runtime"},
		{[]string{"_ZN6__tsan9ShadowSetEPNS_9RawShadowES1_S0_", "runtime._System"}, "runtime"},
		{[]string{"syscall.Syscall", "os.(*File).Write"}, "other"},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%q) = %s, want %s", c.frames, got, c.want)
		}
	}
	if !isGC([]string{"runtime.scanobject", "runtime.gcDrain"}) || isGC([]string{"runtime.mallocgc"}) {
		t.Error("isGC misclassifies")
	}
}

// TestParseTraces reads `go tool pprof -traces -unit=ns` output as the Go
// 1.24 toolchain prints it.
func TestParseTraces(t *testing.T) {
	const text = `File: bench
Type: cpu
Duration: 1.13s, Total samples = 60000000ns (5.31%)
-----------+-------------------------------------------------------
10000000ns   runtime.memmove
             repro/internal/alloc.(*Allocator).popFit (inline)
             repro/internal/core.(*System).Malloc
-----------+-------------------------------------------------------
      20000000ns   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
30000000ns   syscall.Syscall
             os.(*File).Write
-----------+-------------------------------------------------------
`
	sh, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	if sh.n != 3 || sh.total != 60e6 || sh.gc != 20e6 {
		t.Errorf("n %d, total %v, gc %v; want 3, 6e7, 2e7", sh.n, sh.total, sh.gc)
	}
	for bucket, want := range map[string]float64{"alloc": 1.0 / 6, bucketRuntime: 2.0 / 6, bucketOther: 3.0 / 6} {
		if got := sh.frac(bucket); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: %v, want %v", bucket, got, want)
		}
	}
	if _, err := parseTraces("-----------+---\n10ms   runtime.memmove\n"); err == nil {
		t.Error("a value in other units parsed")
	}
	if _, err := parseTraces("File: bench\n"); err == nil {
		t.Error("a profile without samples parsed")
	}
}
