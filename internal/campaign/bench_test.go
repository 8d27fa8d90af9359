package campaign

import "testing"

// BenchmarkExecuteJob measures one campaign job end to end — system
// construction, the workload, and every measurement — in µs/job: a
// generated quick omnetpp job, the same job replayed from its recorded
// trace, and mcf as Figure 5 runs it at -quick scale (a 64 MiB live heap of
// multi-page objects, about 600,000 planted capabilities, and the matched
// direct-free baseline).
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
	mcf := Spec{
		Profiles:      []string{"mcf"},
		MaxLive:       []uint64{4 << 20},
		MinSweeps:     2,
		ScaledStartup: true,
		Baseline:      true,
	}
	for _, c := range []struct {
		name string
		spec Spec
	}{{"generated", gen}, {"trace", traced}, {"mcf-baseline", mcf}} {
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
