package workload

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/quarantine"
)

// BenchmarkTraceRecordReplay measures trace capture and replay of an
// omnetpp run.
func BenchmarkTraceRecordReplay(b *testing.B) {
	p, _ := ByName("omnetpp")
	var tr Trace
	sys, err := core.New(core.Config{Policy: quarantine.Policy{Fraction: 0.25, MinBytes: 64 << 10}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Run(sys, p, Options{
		MinSweeps: 1, MaxLiveBytes: 2 << 20, Record: &tr,
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replaySys, err := core.New(core.Config{Policy: quarantine.Policy{Fraction: 0.25, MinBytes: 64 << 10}})
		if err != nil {
			b.Fatal(err)
		}
		n, err := Replay(replaySys, &tr)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "events/op")
	}
}

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
	r, err := NewBinaryTraceReader(&loopingRecords{header: header, body: body})
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
