package campaign

import "testing"

// BenchmarkExecuteJob measures one campaign job end to end — system
// construction, the workload, and every measurement — in µs/job: a
// generated quick job, and the same job replayed from its recorded trace.
func BenchmarkExecuteJob(b *testing.B) {
	gen := Spec{
		Profiles:  []string{"omnetpp"},
		MaxLive:   []uint64{1 << 21},
		MinSweeps: 2,
		MaxEvents: 20000,
	}
	store, hash := recordCampaignTrace(b, gen)
	traced := gen
	traced.Profiles = nil // the trace's sentinel profile
	traced.TraceRef = hash
	for _, c := range []struct {
		name string
		spec Spec
	}{{"generated", gen}, {"trace", traced}} {
		b.Run(c.name, func(b *testing.B) {
			job := mustJobs(b, c.spec)[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if jr := ExecuteJob(c.spec, job, store); jr.Error != "" {
					b.Fatal(jr.Error)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/job")
		})
	}
}
