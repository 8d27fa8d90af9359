package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// populate registers the same state on r; order controls family and series
// registration order, which must not affect serialisation.
func populate(r *Registry, reversed bool) {
	ops := []func(){
		func() { r.CounterVec("test_jobs_total", "jobs", "via").With("pool").Add(3) },
		func() { r.CounterVec("test_jobs_total", "jobs", "via").With("internal").Add(4) },
		func() { r.Gauge("test_depth", "queue depth").Set(7.5) },
		func() {
			h := r.Histogram("test_seconds", "latency", []float64{0.1, 1})
			h.Observe(0.05)
			h.Observe(2)
		},
		func() { r.Counter("test_alpha_total", "sorts first").Inc() },
	}
	if reversed {
		for i := len(ops) - 1; i >= 0; i-- {
			ops[i]()
		}
		return
	}
	for _, op := range ops {
		op()
	}
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestWritePrometheusDeterministic(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	populate(a, false)
	populate(b, true)
	outA, outB := render(t, a), render(t, b)
	if outA != outB {
		t.Fatalf("registration order changed output:\n--- forward ---\n%s--- reversed ---\n%s", outA, outB)
	}
	if again := render(t, a); again != outA {
		t.Fatalf("repeated serialisation differs:\n%s\nvs\n%s", outA, again)
	}
	// Families must appear in sorted order.
	if !strings.Contains(outA, "test_alpha_total") ||
		strings.Index(outA, "test_alpha_total") > strings.Index(outA, "test_depth") ||
		strings.Index(outA, "test_depth") > strings.Index(outA, "test_jobs_total") {
		t.Fatalf("families not sorted by name:\n%s", outA)
	}
	// Series must be sorted by label value: internal < pool.
	if strings.Index(outA, `via="internal"`) > strings.Index(outA, `via="pool"`) {
		t.Fatalf("series not sorted by label values:\n%s", outA)
	}
	// And the output must parse as valid exposition format.
	samples, err := ParseText(strings.NewReader(outA))
	if err != nil {
		t.Fatalf("own output does not parse: %v\n%s", err, outA)
	}
	if got := Sum(samples, "test_jobs_total"); got != 7 {
		t.Fatalf("Sum(test_jobs_total) = %v, want 7", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "boundary behaviour", []float64{1, 2, 5})
	// Prometheus buckets are cumulative and inclusive: an observation
	// exactly on a boundary belongs to that boundary's bucket.
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 5, 5.0000001, 100} {
		h.Observe(v)
	}
	samples, err := ParseText(strings.NewReader(render(t, r)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"1": 2, "2": 4, "5": 5, "+Inf": 7}
	for _, s := range samples {
		switch s.Name {
		case "test_hist_bucket":
			le := s.Labels["le"]
			if s.Value != want[le] {
				t.Errorf("bucket le=%s = %v, want %v", le, s.Value, want[le])
			}
			delete(want, le)
		case "test_hist_count":
			if s.Value != 7 {
				t.Errorf("count = %v, want 7", s.Value)
			}
		case "test_hist_sum":
			if math.Abs(s.Value-114.5000002) > 1e-6 {
				t.Errorf("sum = %v, want ~114.5", s.Value)
			}
		}
	}
	if len(want) != 0 {
		t.Errorf("buckets missing from output: %v", want)
	}
}

func TestNilRegistryIsFreeAndSafe(t *testing.T) {
	var r *Registry
	r.Counter("x_total", "h").Inc()
	r.Counter("x_total", "h").Add(5)
	r.CounterVec("y_total", "h", "l").With("v").Inc()
	r.Gauge("g", "h").Set(1)
	r.Gauge("g", "h").Dec()
	r.GaugeVec("gv", "h", "l").With("v").Add(2)
	r.Histogram("h", "h", DefBuckets).Observe(1)
	r.HistogramVec("hv", "h", DefBuckets, "l").With("v").Observe(1)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
	if v := r.Counter("x_total", "h").Value(); v != 0 {
		t.Fatalf("nil counter Value = %d", v)
	}
}

func TestGetOrCreateAndMismatchPanics(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("same_total", "first help")
	c1.Inc()
	c2 := r.Counter("same_total", "second help ignored")
	c2.Inc()
	if got := c1.Value(); got != 2 {
		t.Fatalf("get-or-create did not share state: %d", got)
	}
	for name, fn := range map[string]func(){
		"kind":    func() { r.Gauge("same_total", "h") },
		"labels":  func() { r.CounterVec("same_total", "h", "l") },
		"buckets": func() { r.Histogram("test_hist2", "h", []float64{1}); r.Histogram("test_hist2", "h", []float64{2}) },
		"badname": func() { r.Counter("bad-name", "h") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestConcurrentObservationsRace(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.CounterVec("race_total", "h", "w").With("x")
			h := r.Histogram("race_seconds", "h", DefBuckets)
			g := r.Gauge("race_gauge", "h")
			for j := 0; j < 500; j++ {
				c.Inc()
				h.Observe(float64(j) / 100)
				g.Add(1)
				g.Dec()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			render(t, r)
		}
	}()
	wg.Wait()
	<-done
	if got := r.CounterVec("race_total", "h", "w").With("x").Value(); got != 8*500 {
		t.Fatalf("lost increments: %d", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "h", "path").With("a\"b\\c\nd").Inc()
	out := render(t, r)
	samples, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("escaped output does not parse: %v\n%s", err, out)
	}
	for _, s := range samples {
		if s.Name == "esc_total" {
			if got := s.Labels["path"]; got != "a\"b\\c\nd" {
				t.Fatalf("label round-trip = %q", got)
			}
			return
		}
	}
	t.Fatal("sample not found")
}

func TestParseTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value\n",
		"name{l=\"unterminated} 1\n",
		"name{l=unquoted} 1\n",
		"1name 2\n",
		"# TYPE name nonsense\n",
		"# TYPE name counter\n# TYPE name counter\nname 1\n",
		"name{l=\"a\",l=\"b\"} 1\n",
		"name notafloat\n",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText accepted %q", bad)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}
