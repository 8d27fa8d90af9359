// Store benchmarks: per-backend operation latency, lease-protocol
// throughput under contention, and the end-to-end shared-store fleet
// rate. These are the numbers the shared-store fast path (group commit,
// clean-skip reads, fsync-free leases) exists to move.
package engine_test

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
)

// benchStoreKinds enumerates the backends the per-op benches cover.
var benchStoreKinds = []string{"mem", "sqlite"}

// openBenchStore builds a fresh store of the named kind under b's temp dir.
func openBenchStore(b *testing.B, kind string) engine.Store {
	b.Helper()
	switch kind {
	case "mem":
		return engine.NewMemStore()
	case "sqlite":
		s, err := engine.OpenSQLiteStore(filepath.Join(b.TempDir(), "store.db"), b.Logf)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		return s
	default:
		b.Fatalf("unknown store kind %q", kind)
		return nil
	}
}

// benchJobKey returns a well-formed 64-hex job key encoding n.
func benchJobKey(n int) string { return fmt.Sprintf("%064x", n) }

// benchJR builds a representative job record for n.
func benchJR(n int) campaign.JobResult {
	return campaign.JobResult{
		Job:        campaign.Job{ID: n, Profile: "povray", Seed: uint64(n)},
		AppSeconds: 1.5,
		Mallocs:    1 << 16,
		Frees:      1 << 15,
	}
}

// BenchmarkStorePublishJob measures one durable job write per backend — on
// sqlite, a full group-commit cycle (flock, append, fsync) with no
// batchmates to share it.
func BenchmarkStorePublishJob(b *testing.B) {
	for _, kind := range benchStoreKinds {
		b.Run(kind, func(b *testing.B) {
			s := openBenchStore(b, kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.PublishJob(benchJobKey(i), "writer", benchJR(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreGetJob measures a repeated read of one record per backend
// — the path the clean-skip fstat fast path (sqlite) collapses.
func BenchmarkStoreGetJob(b *testing.B) {
	for _, kind := range benchStoreKinds {
		b.Run(kind, func(b *testing.B) {
			s := openBenchStore(b, kind)
			key := benchJobKey(1)
			if err := s.PublishJob(key, "writer", benchJR(1)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Job(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreLeaseCycle measures one acquire/release hand-off per
// backend — on sqlite, two fsync-free lease commits.
func BenchmarkStoreLeaseCycle(b *testing.B) {
	for _, kind := range benchStoreKinds {
		b.Run(kind, func(b *testing.B) {
			s := openBenchStore(b, kind)
			key := benchJobKey(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.AcquireJobLease(key, "bench", time.Minute); err != nil {
					b.Fatal(err)
				}
				if err := s.ReleaseJobLease(key, "bench"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreWriteContention measures N goroutines writing distinct
// jobs through one sqlite handle — the group committer's home turf: the
// writers queue behind one leader and share flock windows and fsyncs.
// fsyncs/op reports how well the batching folds them.
func BenchmarkStoreWriteContention(b *testing.B) {
	s, err := engine.OpenSQLiteStore(filepath.Join(b.TempDir(), "store.db"), b.Logf)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	base := s.Fsyncs()
	var seq int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := int(atomic.AddInt64(&seq, 1))
			if err := s.PublishJob(benchJobKey(10000+n), "writer", benchJR(n)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(s.Fsyncs()-base)/float64(b.N), "fsyncs/op")
	}
}

// BenchmarkSharedStoreFleet is the end-to-end number: two engines — two
// coordinators in miniature — share one sqlite file and race one
// campaign. jobs/sec is the fleet's aggregate completion rate;
// fsyncs/job is the acceptance metric the fast path reduced ≥3x. Both are
// summed over every iteration's campaign and reported once, for the run.
func BenchmarkSharedStoreFleet(b *testing.B) {
	var jobsRun, fsyncs uint64
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := engine.OpenSQLiteStore(filepath.Join(b.TempDir(), fmt.Sprintf("fleet%d.db", i)), b.Logf)
		if err != nil {
			b.Fatal(err)
		}
		opts := engine.Options{LeaseTTL: 5 * time.Second}
		ea, err := engine.New(s, opts)
		if err != nil {
			b.Fatal(err)
		}
		eb, err := engine.New(s, opts)
		if err != nil {
			b.Fatal(err)
		}
		spec := campaign.Spec{
			Name:      "storebench",
			Profiles:  []string{"povray", "xalancbmk"},
			MaxLive:   []uint64{1 << 20},
			Seeds:     []uint64{1, 2, 3, 4, 5, 6},
			MinSweeps: 1,
			MaxEvents: 10000,
		}
		jobs, err := spec.Jobs()
		if err != nil {
			b.Fatal(err)
		}
		base := s.Fsyncs()
		b.StartTimer()
		start := time.Now()
		recA, err := ea.Submit(spec, 2)
		if err != nil {
			b.Fatal(err)
		}
		recB, err := eb.Submit(spec, 2)
		if err != nil {
			b.Fatal(err)
		}
		waitDone(b, ea, recA.ID)
		waitDone(b, eb, recB.ID)
		elapsed += time.Since(start)
		b.StopTimer()
		jobsRun += uint64(len(jobs))
		fsyncs += s.Fsyncs() - base
		s.Close()
		b.StartTimer()
	}
	if jobsRun > 0 {
		b.ReportMetric(float64(jobsRun)/elapsed.Seconds(), "jobs/sec")
		b.ReportMetric(float64(fsyncs)/float64(jobsRun), "fsyncs/job")
	}
}

// waitDone polls e until campaign id leaves the running states.
func waitDone(b *testing.B, e *engine.Engine, id string) {
	b.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		rec, ok := e.Get(id)
		if !ok {
			b.Fatalf("campaign %s vanished", id)
		}
		if rec.State == engine.StateDone {
			return
		}
		if rec.State == engine.StateFailed || rec.State == engine.StateCancelled {
			b.Fatalf("campaign %s ended in state %q: %s", id, rec.State, rec.Error)
		}
		if time.Now().After(deadline) {
			b.Fatalf("campaign %s still %q after 2m", id, rec.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
