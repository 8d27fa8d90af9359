package revoke

import (
	"testing"

	"repro/internal/mem"
)

// BenchmarkSweep sweeps a seeded 256-page heap (1 MiB, ~40 capabilities a
// page) with the traffic model off and charged to each hierarchy, for a full
// sweep and for a CapDirty + CLoadTags sweep, and reports host ns per page
// swept. Every timed sweep sees the same image: the first sweep, untimed,
// revokes the painted targets.
func BenchmarkSweep(b *testing.B) {
	traffic := []struct {
		name string
		mk   func() *mem.Hierarchy
	}{{"off", nil}, {"cheri", mem.NewCHERIHierarchy}, {"x86", mem.NewX86Hierarchy}}
	sweeps := []struct {
		name string
		cfg  Config
	}{{"full", Config{}}, {"capdirty-cloadtags", Config{UseCapDirty: true, UseCLoadTags: true}}}
	for _, tr := range traffic {
		for _, sw := range sweeps {
			b.Run("traffic="+tr.name+"/"+sw.name, func(b *testing.B) {
				f := buildSeededHeap(b, 1, 256)
				cfg := sw.cfg
				if tr.mk != nil {
					cfg.Hierarchy = tr.mk()
				}
				s := New(f.mem, f.shadow, cfg)
				if _, err := s.Sweep(nil); err != nil {
					b.Fatal(err)
				}
				var pages uint64
				for b.Loop() {
					st, err := s.Sweep(nil)
					if err != nil {
						b.Fatal(err)
					}
					pages += st.PagesSwept
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pages), "ns/page")
			})
		}
	}
}
