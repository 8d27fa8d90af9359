// Window-invariance of the incremental accumulator: the acceptance property
// behind the live firehose's reconciliation guarantee. Folding a recorded
// trace through IncrementalReplay with window sizes 1, DefaultWindow and
// 4×DefaultWindow must produce byte-identical final StreamStats, and those
// stats must reconcile exactly with the generated Run that recorded the
// trace — census counters, freed bytes, peak footprint, folded sweep stats
// and the simulated-time decomposition alike. This extends the
// streamed-sweep suite (internal/revoke/stream_test.go) from per-sweep
// revoke.Stats to the full incremental accumulator.
package workload_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/quarantine"
	"repro/internal/revoke"
	"repro/internal/sim"
	"repro/internal/workload"
)

// incrCfg is the replay configuration shared by the recording run and every
// windowed replay (the CHERIvoke defaults the live analyzer also uses).
func incrCfg() core.Config {
	return core.Config{
		Policy: quarantine.Policy{Fraction: 0.25, MinBytes: 64 << 10},
		Revoke: revoke.Config{Kernel: sim.KernelVector, UseCapDirty: true, Launder: true},
	}
}

func TestIncrementalReplayWindowInvariance(t *testing.T) {
	for _, name := range []string{"omnetpp", "xalancbmk"} {
		t.Run(name, func(t *testing.T) {
			p, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("unknown profile %s", name)
			}

			// Recording run: the generated reference every windowed
			// replay must reconcile with.
			sysRec, err := core.New(incrCfg())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			bw, err := workload.NewBinaryTraceWriter(&buf, workload.TraceHeader{Name: p.Name, Seed: 23})
			if err != nil {
				t.Fatal(err)
			}
			w := &countingWriter{TraceWriter: bw}
			res, err := workload.Run(sysRec, p, workload.Options{
				Seed: 23, MaxLiveBytes: 2 << 20, MinSweeps: 2, Stream: w,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			encoded := buf.Bytes()

			var want []byte
			for _, window := range []int{1, workload.DefaultWindow, 4 * workload.DefaultWindow} {
				reader, err := workload.NewTraceReader(bytes.NewReader(encoded))
				if err != nil {
					t.Fatal(err)
				}
				sys, err := core.New(incrCfg())
				if err != nil {
					t.Fatal(err)
				}
				stats, err := workload.ReplayStreamStats(sys, workload.NewStreamingSource(reader, window))
				if err != nil {
					t.Fatalf("window=%d: %v", window, err)
				}
				if stats.Sweeps < 2 {
					t.Fatalf("window=%d: only %d sweeps fired; the comparison is vacuous", window, stats.Sweeps)
				}
				reconcileWithRun(t, window, stats, res, sysRec, w.events)

				got, err := json.Marshal(stats)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("window=%d: serialised StreamStats diverge from window=1:\n  %s\nvs\n  %s", window, want, got)
				}
			}
		})
	}
}

// countingWriter counts the events a run streams through it.
type countingWriter struct {
	workload.TraceWriter
	events uint64
}

func (w *countingWriter) WriteEvent(ev workload.TraceEvent) error {
	w.events++
	return w.TraceWriter.WriteEvent(ev)
}

// reconcileWithRun asserts a windowed replay's StreamStats against the
// recording run, which streamed events events: every field the two paths
// both measure must agree exactly.
func reconcileWithRun(t *testing.T, window int, stats workload.StreamStats, res workload.Result, sysRec *core.System, events uint64) {
	t.Helper()
	if stats.Events != events {
		t.Fatalf("window=%d: replayed %d events, trace has %d", window, stats.Events, events)
	}
	if stats.Mallocs != res.Mallocs || stats.Frees != res.Frees || stats.FreedBytes != res.FreedBytes {
		t.Fatalf("window=%d: census diverges: got %d/%d/%d mallocs/frees/freed, want %d/%d/%d",
			window, stats.Mallocs, stats.Frees, stats.FreedBytes, res.Mallocs, res.Frees, res.FreedBytes)
	}
	if stats.PeakFootprint != res.PeakFootprint {
		t.Fatalf("window=%d: peak footprint %d, recording run measured %d", window, stats.PeakFootprint, res.PeakFootprint)
	}
	recStats := sysRec.Stats()
	if stats.Sweeps != recStats.Sweeps || stats.CapsRevoked != recStats.CapsRevoked {
		t.Fatalf("window=%d: sweeps %d/revoked %d, recording run %d/%d",
			window, stats.Sweeps, stats.CapsRevoked, recStats.Sweeps, recStats.CapsRevoked)
	}
	if stats.QuarantineSeconds != recStats.QuarantineSeconds ||
		stats.ShadowSeconds != recStats.ShadowSeconds ||
		stats.SweepSeconds != recStats.SweepSeconds {
		t.Fatalf("window=%d: timing decomposition diverges from recording run", window)
	}
	var wantSweep revoke.Stats
	for _, rep := range sysRec.Reports() {
		wantSweep.Add(rep.Sweep)
	}
	got, err := json.Marshal(stats.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wantSweep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("window=%d: folded sweep stats diverge from recording run:\n  %s\nvs\n  %s", window, got, want)
	}
	if stats.HeapBytes != sysRec.HeapBytes() || stats.LiveBytes != sysRec.LiveBytes() ||
		stats.QuarantineBytes != sysRec.QuarantineBytes() {
		t.Fatalf("window=%d: end-state heap geometry diverges from recording run", window)
	}
}
