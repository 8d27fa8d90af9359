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
// isolation: one reader, built outside the timer over loopingRecords, so
// each iteration is one Next and allocs/op is exactly the per-record decode
// cost. TestBinaryNextZeroAlloc pins that cost at zero.
func BenchmarkBinaryTraceDecode(b *testing.B) {
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
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalReplay measures the live analyzer's replay in
// ns/event: a recorded xalancbmk trace, decoded once into DefaultWindow
// windows outside the timer, applied window by window through a fresh
// IncrementalReplay per iteration.
func BenchmarkIncrementalReplay(b *testing.B) {
	cfg := core.Config{Policy: quarantine.Policy{Fraction: 0.25, MinBytes: 64 << 10}}
	sys, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := ByName("xalancbmk")
	var buf bytes.Buffer
	w, err := NewBinaryTraceWriter(&buf, TraceHeader{Name: p.Name, Seed: DefaultSeed})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Run(sys, p, Options{MinSweeps: 2, MaxLiveBytes: 2 << 20, Stream: w}); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	r, err := NewTraceReader(&buf)
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
		sys, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ir := NewIncrementalReplay(sys)
		b.StartTimer()
		for _, win := range windows {
			if err := ir.ApplyWindow(win); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}
