package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric kinds, matching the Prometheus TYPE vocabulary this registry can
// emit.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// DefBuckets are general-purpose latency histogram boundaries in seconds
// (the Prometheus client defaults).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExpBuckets returns n exponentially spaced boundaries starting at start
// and growing by factor — for histograms whose domain spans orders of
// magnitude (store-op latencies, byte sizes).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry is a set of metric families. All methods are safe for concurrent
// use, and every getter is get-or-create: a second registration of the same
// name returns the existing family (the first help string wins) and panics
// only if kind, label names, or histogram buckets disagree — that is a
// programming error, not a runtime condition. A nil *Registry is a valid
// disabled registry: getters return nil instruments whose methods no-op.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family is one named metric family: its metadata plus one series per
// distinct label-value tuple.
type family struct {
	name    string
	help    string
	kind    string
	labels  []string
	buckets []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series
}

// series holds one label-value tuple's state. Counters and gauges use val
// (counters as integer increments, gauges as float64 bits); histograms use
// the bucket/sum/count fields.
type series struct {
	labelValues []string

	val atomic.Uint64

	buckets []atomic.Uint64 // one per boundary, plus +Inf last
	sum     atomic.Uint64   // float64 bits, CAS-updated
	count   atomic.Uint64
}

func (s *series) addFloat(delta float64) {
	for {
		old := s.val.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if s.val.CompareAndSwap(old, next) {
			return
		}
	}
}

// get returns (creating if needed) the family called name, enforcing that
// kind, labels, and buckets match any existing registration.
func (r *Registry) get(name, help, kind string, labels []string, buckets []float64) *family {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelNameRE.MatchString(l) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %s re-registered with different kind, labels, or buckets", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  map[string]*series{},
	}
	r.families[name] = f
	return f
}

// with returns (creating if needed) the series for the given label values.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		s.buckets = make([]atomic.Uint64, len(f.buckets)+1)
	}
	f.series[key] = s
	return s
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.s.val.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.s.val.Add(n)
	}
}

// Value returns the current count (0 on a nil counter) — for tests and
// in-process health surfaces.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.s.val.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ s *series }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.s.val.Store(math.Float64bits(v))
	}
}

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta float64) {
	if g != nil {
		g.s.addFloat(delta)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.s.val.Load())
}

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	f *family
	s *series
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.f.buckets, v) // first boundary >= v: the Prometheus "le" contract
	h.s.buckets[i].Add(1)
	h.s.count.Add(1)
	for {
		old := h.s.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.s.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it (at
// zero) on first use.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{s: v.f.with(values)}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return &Gauge{s: v.f.with(values)}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return &Histogram{f: v.f, s: v.f.with(values)}
}

// Counter returns the unlabelled counter called name.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{s: r.get(name, help, KindCounter, nil, nil).with(nil)}
}

// CounterVec returns the counter family called name with the given label
// names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.get(name, help, KindCounter, labels, nil)}
}

// Gauge returns the unlabelled gauge called name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{s: r.get(name, help, KindGauge, nil, nil).with(nil)}
}

// GaugeVec returns the gauge family called name with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.get(name, help, KindGauge, labels, nil)}
}

// Histogram returns the unlabelled histogram called name with the given
// bucket boundaries (sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.get(name, help, KindHistogram, nil, buckets)
	return &Histogram{f: f, s: f.with(nil)}
}

// HistogramVec returns the histogram family called name with the given
// buckets and label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.get(name, help, KindHistogram, labels, buckets)}
}

// WritePrometheus serialises the registry in the Prometheus text exposition
// format with canonical ordering: families sorted by name, series within a
// family sorted by label-value tuple. Two registries holding the same state
// serialise to identical bytes regardless of registration or observation
// order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := w.Write([]byte(b.String()))
	return err
}

// write serialises one family.
func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	ss := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		ss = append(ss, s)
	}
	f.mu.Unlock()
	sort.Slice(ss, func(i, j int) bool {
		return strings.Join(ss[i].labelValues, "\xff") < strings.Join(ss[j].labelValues, "\xff")
	})

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range ss {
		switch f.kind {
		case KindCounter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, s.labelValues, "", ""), s.val.Load())
		case KindGauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, s.labelValues, "", ""), formatFloat(math.Float64frombits(s.val.Load())))
		case KindHistogram:
			cum := uint64(0)
			for i := range s.buckets {
				cum += s.buckets[i].Load()
				le := "+Inf"
				if i < len(f.buckets) {
					le = formatFloat(f.buckets[i])
				}
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelValues, "le", le), cum)
			}
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, s.labelValues, "", ""), formatFloat(math.Float64frombits(s.sum.Load())))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, s.labelValues, "", ""), s.count.Load())
		}
	}
}

// labelString renders a {name="value",...} block, optionally with one extra
// pair appended (the histogram "le"); it is empty for an unlabelled series.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus expects: shortest
// round-trip representation, with the +Inf/-Inf/NaN spellings.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry as a Prometheus
// scrape target (the GET /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
