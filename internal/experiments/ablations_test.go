package experiments

import "testing"

func TestAblationAssistsReduceWork(t *testing.T) {
	assists := func(name string) map[string]AblationRow {
		t.Helper()
		rows, err := AblationAssists(Quick(), name)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("got %d rows", len(rows))
		}
		byName := map[string]AblationRow{}
		for _, r := range rows {
			byName[r.Name] = r
		}
		return byName
	}

	// Dense workload (omnetpp): every assist reduces bytes fetched, and
	// line granularity beats page granularity on bytes...
	dense := assists("omnetpp")
	none, pte, clt, both := dense["no assists"], dense["PTE CapDirty"], dense["CLoadTags"], dense["both"]
	if !(pte.BytesRead < none.BytesRead) {
		t.Errorf("CapDirty did not reduce bytes: %d vs %d", pte.BytesRead, none.BytesRead)
	}
	if !(clt.BytesRead < pte.BytesRead) {
		t.Errorf("CLoadTags should reduce bytes below page granularity: %d vs %d",
			clt.BytesRead, pte.BytesRead)
	}
	if both.BytesRead > clt.BytesRead {
		t.Errorf("both assists read more than CLoadTags alone")
	}
	// ...but on a dense heap the per-line probes can cost more time than
	// the skipped lines save (§6.3: CLoadTags "can even lower
	// performance").
	if both.TagProbes == 0 {
		t.Error("both-assists sweep issued no tag probes")
	}

	// Sparse workload (hmmer): fine-grained elimination pays off; the
	// combined configuration must be the fastest (§6.3: "both ... are
	// necessary for optimal work reduction").
	sparse := assists("hmmer")
	sBoth := sparse["both"]
	for name, r := range sparse {
		if sBoth.SimMicros > r.SimMicros+1e-9 {
			t.Errorf("hmmer: both (%.1fµs) slower than %s (%.1fµs)", sBoth.SimMicros, name, r.SimMicros)
		}
	}
}

func TestAblationParallelScales(t *testing.T) {
	rows, err := AblationParallel(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	// More shards never slows the sweep, and 4 shards beats 1 clearly.
	for i := 1; i < len(rows); i++ {
		if rows[i].SimMicros > rows[i-1].SimMicros*1.01 {
			t.Errorf("%s (%.1fµs) slower than %s (%.1fµs)",
				rows[i].Name, rows[i].SimMicros, rows[i-1].Name, rows[i-1].SimMicros)
		}
	}
	if rows[2].SimMicros > rows[0].SimMicros*0.6 {
		t.Errorf("4 shards (%.1fµs) not clearly faster than 1 (%.1fµs)",
			rows[2].SimMicros, rows[0].SimMicros)
	}
}

func TestExtensionsOrdering(t *testing.T) {
	rows, err := Extensions(Quick())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ExtensionRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	base := byName["CHERIvoke (stop-the-world)"]
	conc := byName["CHERIvoke + concurrent sweep"]
	unmap := byName["CHERIvoke + unmap large frees"]
	cling := byName["Cling-style typed reuse only"]
	direct := byName["insecure direct free"]

	if conc.Runtime >= base.Runtime {
		t.Errorf("concurrent sweep (%.3f) not cheaper than stop-the-world (%.3f)", conc.Runtime, base.Runtime)
	}
	if cling.Sweeps != 0 {
		t.Errorf("Cling variant swept %d times", cling.Sweeps)
	}
	if direct.Runtime > 1.001 {
		t.Errorf("insecure baseline runtime %.3f, want 1.0", direct.Runtime)
	}
	if base.Sweeps == 0 {
		t.Error("CHERIvoke variant never swept")
	}
	// xalancbmk frees no chunk that covers a whole page, so its unmap row
	// reads like stop-the-world; internal/campaign's
	// TestUnmapLargeVariantUnmapsMilcFrees runs the variant on milc, where
	// it unmaps.
	if unmap.Runtime > base.Runtime*1.15 {
		t.Errorf("unmap variant much slower: %.3f vs %.3f", unmap.Runtime, base.Runtime)
	}
}

func TestScaleInvariance(t *testing.T) {
	pts, err := ScaleInvariance(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	// §6.1.3: overhead is scale-invariant. Allow ±20% relative spread
	// (small scales are noisier).
	min, max := pts[0].Runtime, pts[0].Runtime
	for _, p := range pts {
		if p.Runtime < min {
			min = p.Runtime
		}
		if p.Runtime > max {
			max = p.Runtime
		}
	}
	if (max - 1) > (min-1)*1.5 {
		t.Errorf("overhead varies too much with scale: min %.3f max %.3f (%+v)", min, max, pts)
	}
}
