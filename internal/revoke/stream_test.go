// Streamed-vs-whole sweep equality: the acceptance property of the
// streaming trace pipeline. A sweep driven by a trace streamed from the
// binary codec in bounded windows must produce byte-identical revoke.Stats —
// DRAM-traffic counters included — to the same trace decoded whole and
// applied in one window, at shard counts 1 and 4. The test lives in revoke's
// external test package because the property is about the sweep statistics;
// the plumbing under test spans workload (codec, windows) and core (sweep
// triggering).
package revoke_test

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/quarantine"
	"repro/internal/revoke"
	"repro/internal/sim"
	"repro/internal/workload"
)

// recordTrace records one omnetpp run through the binary codec and returns
// the encoded bytes.
func recordTrace(t *testing.T) []byte {
	t.Helper()
	p, ok := workload.ByName("omnetpp")
	if !ok {
		t.Fatal("unknown profile omnetpp")
	}
	sys, err := core.New(core.Config{
		Policy: quarantine.Policy{Fraction: 0.25, MinBytes: 64 << 10},
		Revoke: revoke.Config{Kernel: sim.KernelVector, UseCapDirty: true, Launder: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := workload.NewBinaryTraceWriter(&buf, workload.TraceHeader{Name: p.Name, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(sys, p, workload.Options{Seed: 23, MaxLiveBytes: 2 << 20, MinSweeps: 2, Stream: w}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeAll decodes an encoded trace into one window holding every event.
func decodeAll(t *testing.T, encoded []byte) []workload.TraceEvent {
	t.Helper()
	r, err := workload.NewTraceReader(bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	var events []workload.TraceEvent
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return events
		}
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
}

// sweepStats extracts the per-sweep revoke.Stats from a replayed system.
func sweepStats(sys *core.System) []revoke.Stats {
	reports := sys.Reports()
	out := make([]revoke.Stats, len(reports))
	for i, rep := range reports {
		out[i] = rep.Sweep
	}
	return out
}

func TestStreamedSweepStatsByteIdentical(t *testing.T) {
	encoded := recordTrace(t)
	events := decodeAll(t, encoded)
	for _, shards := range []int{1, 4} {
		cfg := func() core.Config {
			return core.Config{
				Policy: quarantine.Policy{Fraction: 0.25, MinBytes: 64 << 10},
				Revoke: revoke.Config{
					Kernel:       sim.KernelVector,
					UseCapDirty:  true,
					UseCLoadTags: true,
					Launder:      true,
					Shards:       shards,
					Hierarchy:    mem.NewX86Hierarchy(),
				},
			}
		}

		// The whole trace in one window.
		sysMem, err := core.New(cfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.NewIncrementalReplay(sysMem).ApplyWindow(events); err != nil {
			t.Fatalf("shards=%d: whole replay: %v", shards, err)
		}

		// Streamed replay from the binary codec, with a window far
		// smaller than the trace so many window boundaries land inside
		// the run.
		reader, err := workload.NewTraceReader(bytes.NewReader(encoded))
		if err != nil {
			t.Fatal(err)
		}
		src := workload.NewStreamingSource(reader, 256)
		sysStream, err := core.New(cfg())
		if err != nil {
			t.Fatal(err)
		}
		st, err := workload.ReplayStreamStats(sysStream, src)
		if err != nil {
			t.Fatalf("shards=%d: streamed replay: %v", shards, err)
		}
		if st.Events != uint64(len(events)) {
			t.Fatalf("shards=%d: streamed %d events, want %d", shards, st.Events, len(events))
		}

		memStats, streamStats := sweepStats(sysMem), sweepStats(sysStream)
		if len(memStats) == 0 {
			t.Fatalf("shards=%d: no sweeps fired; the comparison is vacuous", shards)
		}
		if !reflect.DeepEqual(memStats, streamStats) {
			t.Fatalf("shards=%d: sweep stats diverge between whole and streamed replay", shards)
		}
		for i := range memStats {
			if !memStats[i].TrafficReplayed {
				t.Fatalf("shards=%d: sweep %d did not replay traffic; DRAM counters unchecked", shards, i)
			}
		}
		// Byte-identical in the serialised sense too: the JSON that lands
		// in campaign artifacts must not diverge either.
		memJSON, err := json.Marshal(memStats)
		if err != nil {
			t.Fatal(err)
		}
		streamJSON, err := json.Marshal(streamStats)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(memJSON, streamJSON) {
			t.Fatalf("shards=%d: serialised sweep stats diverge", shards)
		}
	}
}

// TestStreamedSweepStatsShardInvariant goes one step further: the streamed
// replay's sweep stats are identical across shard counts, which only price
// the sweep (TestShardCountInvariance, for streamed input).
func TestStreamedSweepStatsShardInvariant(t *testing.T) {
	encoded := recordTrace(t)
	var want []revoke.Stats
	for _, shards := range []int{1, 4} {
		reader, err := workload.NewTraceReader(bytes.NewReader(encoded))
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.New(core.Config{
			Policy: quarantine.Policy{Fraction: 0.25, MinBytes: 64 << 10},
			Revoke: revoke.Config{
				Kernel:       sim.KernelVector,
				UseCapDirty:  true,
				UseCLoadTags: true,
				Shards:       shards,
				Hierarchy:    mem.NewX86Hierarchy(),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := workload.ReplayStreamStats(sys, workload.NewStreamingSource(reader, 512)); err != nil {
			t.Fatal(err)
		}
		stats := sweepStats(sys)
		if want == nil {
			want = stats
			continue
		}
		if !reflect.DeepEqual(want, stats) {
			t.Fatalf("streamed sweep stats diverge between shard counts 1 and %d", shards)
		}
	}
}
