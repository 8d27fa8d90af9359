package workload

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/quarantine"
)

// BenchmarkBinaryTraceDecode measures the CVTR binary decode hot loop in
// isolation: one reader, built outside the timer over loopingMix, so each
// iteration is one Next and allocs/op is exactly the per-record decode
// cost. TestBinaryNextZeroAlloc pins that cost at zero.
func BenchmarkBinaryTraceDecode(b *testing.B) {
	r := loopingMix(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// loopingMix returns a binary reader over a header and then 64 malloc,
// plant and free records, repeated forever by loopingRecords.
func loopingMix(tb testing.TB) TraceReader {
	header := []byte(TraceMagic)
	header = binary.AppendUvarint(header, uint64(TraceVersion))
	header = binary.AppendUvarint(header, DefaultSeed)
	header = binary.AppendUvarint(header, 0) // empty name
	var body []byte
	for i := 0; i < 64; i++ {
		var payload []byte
		var op byte
		switch i % 3 {
		case 0:
			op = EvMalloc
			payload = binary.AppendUvarint(payload, uint64(1024+i))
		case 1:
			op = EvPlant
			payload = binary.AppendUvarint(payload, uint64(i))
			payload = binary.AppendUvarint(payload, uint64(i*16))
		default:
			op = EvFree
			payload = binary.AppendUvarint(payload, uint64(i))
		}
		body = append(body, op)
		body = binary.AppendUvarint(body, uint64(len(payload)))
		body = append(body, payload...)
	}
	r, err := NewTraceReader(&loopingRecords{header: header, body: body})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// BenchmarkTraceWindowDecode measures CVTR window decode in ns/event: a
// recorded xalancbmk trace at live-ingest's scale (8 MiB heap, 3 sweeps),
// read through NewTraceReader and a StreamingSource one DefaultWindow at a
// time. The reader and its window, built per iteration, are outside the
// timer, so allocs/op is the decode's own.
func BenchmarkTraceWindowDecode(b *testing.B) {
	trace := recordXalancbmk(b, Options{MinSweeps: 3, MaxLiveBytes: 8 << 20})
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := NewTraceReader(bytes.NewReader(trace))
		if err != nil {
			b.Fatal(err)
		}
		src := NewStreamingSource(r, DefaultWindow)
		events = 0
		b.StartTimer()
		for {
			win, err := src.NextWindow()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			events += len(win)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

// replayConfig is the live analyzer's quarantine policy
// (livetrace.AnalysisConfig), under which the benchmarks record and replay.
var replayConfig = core.Config{Policy: quarantine.Policy{Fraction: 0.25, MinBytes: 64 << 10}}

// recordXalancbmk records a xalancbmk run under replayConfig as a CVTR
// trace.
func recordXalancbmk(b *testing.B, opts Options) []byte {
	b.Helper()
	sys, err := core.New(replayConfig)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := ByName("xalancbmk")
	var buf bytes.Buffer
	w, err := NewBinaryTraceWriter(&buf, TraceHeader{Name: p.Name, Seed: DefaultSeed})
	if err != nil {
		b.Fatal(err)
	}
	opts.Stream = w
	if _, err := Run(sys, p, opts); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkIncrementalReplay measures the live analyzer's replay in
// ns/event: a recorded xalancbmk trace, decoded once into DefaultWindow
// windows outside the timer, applied window by window through a fresh
// IncrementalReplay per iteration.
func BenchmarkIncrementalReplay(b *testing.B) {
	r, err := NewTraceReader(bytes.NewReader(recordXalancbmk(b, Options{MinSweeps: 2, MaxLiveBytes: 2 << 20})))
	if err != nil {
		b.Fatal(err)
	}
	src := NewStreamingSource(r, DefaultWindow)
	var windows [][]TraceEvent
	events := 0
	for {
		win, err := src.NextWindow()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		windows = append(windows, append([]TraceEvent(nil), win...))
		events += len(win)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := core.New(replayConfig)
		if err != nil {
			b.Fatal(err)
		}
		ir := NewIncrementalReplay(sys, nil)
		b.StartTimer()
		for _, win := range windows {
			if err := ir.ApplyWindow(win); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

// BenchmarkSizeDraw measures the generator's allocation-size draw in
// ns/draw: each iteration draws one size from a planter of every profile
// with a size spread, in turn.
func BenchmarkSizeDraw(b *testing.B) {
	var gs []*planter
	for _, p := range All() {
		if p.SizeSpread > 0 {
			gs = append(gs, newPlanter(p, newRNG(DefaultSeed)))
		}
	}
	var sum uint64
	for b.Loop() {
		for _, g := range gs {
			sum += g.size()
		}
	}
	if sum == 0 {
		b.Fatal("no sizes drawn")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(gs)), "ns/draw")
}
