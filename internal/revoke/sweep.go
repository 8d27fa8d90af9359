package revoke

import (
	"fmt"
	"math/bits"

	"repro/internal/cap"
	"repro/internal/mem"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// Config selects the sweep implementation.
type Config struct {
	// Kernel selects the inner-loop implementation (timing only; all
	// kernels revoke identically).
	Kernel sim.Kernel `json:"kernel,omitempty"`

	// UseCapDirty restricts the sweep to PTE-CapDirty pages (§3.4.2).
	UseCapDirty bool `json:"use_cap_dirty,omitempty"`

	// UseCLoadTags probes line tags and skips capability-free lines
	// (§3.4.1).
	UseCLoadTags bool `json:"use_cload_tags,omitempty"`

	// Shards is the parallel sweep width (§3.5) that Machine.SweepTime
	// prices, 0 or 1 for one thread, at most MaxShards. The sweep itself
	// always walks its pages once on the calling goroutine: its results
	// do not depend on how the pages would be dealt to threads.
	Shards int `json:"shards,omitempty"`

	// Launder re-cleans CapDirty pages found capability-free (§3.4.2).
	Launder bool `json:"launder,omitempty"`

	// Hierarchy, when non-nil, is charged each sweep's DRAM traffic
	// (Figure 10) through mem.Hierarchy.ChargeSweep, from counts the sweep
	// makes anyway. It is runtime state, not configuration data, and is
	// excluded from serialised campaign specs.
	Hierarchy *mem.Hierarchy `json:"-"`
}

// MaxShards bounds Config.Shards: the x86 machine's eight hardware threads
// (sim.X86().Threads), past which Machine.SweepTime prices every width alike.
const MaxShards = 8

// Validate rejects a configuration the sweep cannot price: a negative
// Shards or one above MaxShards, or a Kernel other than sim's three.
func (c Config) Validate() error {
	if c.Shards < 0 || c.Shards > MaxShards {
		return fmt.Errorf("revoke: shards %d outside [0, %d]", c.Shards, MaxShards)
	}
	switch c.Kernel {
	case sim.KernelSimple, sim.KernelUnrolled, sim.KernelVector:
		return nil
	}
	return fmt.Errorf("revoke: unknown kernel %d", int(c.Kernel))
}

// Stats is the event-count summary of one sweep.
type Stats struct {
	PagesTotal    uint64 `json:"pages_total"`   // mapped pages in the swept segments
	PagesSwept    uint64 `json:"pages_swept"`   // pages actually walked
	PagesSkipped  uint64 `json:"pages_skipped"` // pages excluded by CapDirty
	PageRuns      uint64 `json:"page_runs"`     // contiguous runs of swept pages
	LinesSwept    uint64 `json:"lines_swept"`   // lines whose data was examined
	LinesSkipped  uint64 `json:"lines_skipped"` // lines excluded by CLoadTags
	TagProbes     uint64 `json:"tag_probes"`    // CLoadTags probes issued
	WordsRead     uint64 `json:"words_read"`    // words examined by the kernel
	CapsFound     uint64 `json:"caps_found"`    // tagged capabilities encountered
	CapsRevoked   uint64 `json:"caps_revoked"`  // tags cleared (memory)
	RegsScanned   uint64 `json:"regs_scanned"`  // register-file entries examined
	RegsRevoked   uint64 `json:"regs_revoked"`  // register-file entries revoked
	ShadowLookups uint64 `json:"shadow_lookups"`
	PagesLaunder  uint64 `json:"pages_launder"` // CapDirty bits re-cleaned
	BytesRead     uint64 `json:"bytes_read"`    // data bytes fetched
	BytesWritten  uint64 `json:"bytes_written"` // bytes stored (revocation write-backs)

	// Traffic is the DRAM/off-core traffic this sweep charged to the
	// attached cache hierarchy (Figure 10). TrafficReplayed marks that a
	// hierarchy was attached and charged; it is true exactly when
	// Config.Hierarchy was set.
	TrafficReplayed bool               `json:"traffic_replayed,omitempty"`
	Traffic         mem.HierarchyStats `json:"traffic,omitzero"`
}

// Work converts the stats into the timing model's sweep-work summary. When
// the sweep was charged to a cache hierarchy, the modelled DRAM traffic
// rides along so Machine.SweepTime can price memory time from actual line
// fills and write-backs instead of the analytic byte counts.
func (s Stats) Work(shards int) sim.SweepWork {
	if shards < 1 {
		shards = 1
	}
	w := sim.SweepWork{
		WordsProcessed: s.WordsRead,
		BytesRead:      s.BytesRead,
		BytesWritten:   s.BytesWritten,
		TagProbes:      s.TagProbes,
		PageRuns:       s.PageRuns,
		Shards:         shards,
	}
	if s.TrafficReplayed {
		w.DRAMReadBytes = s.Traffic.DRAMReadBytes
		w.DRAMWriteBytes = s.Traffic.DRAMWriteBytes
		w.TrafficModelled = true
	}
	return w
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.PagesTotal += other.PagesTotal
	s.PagesSwept += other.PagesSwept
	s.PagesSkipped += other.PagesSkipped
	s.PageRuns += other.PageRuns
	s.LinesSwept += other.LinesSwept
	s.LinesSkipped += other.LinesSkipped
	s.TagProbes += other.TagProbes
	s.WordsRead += other.WordsRead
	s.CapsFound += other.CapsFound
	s.CapsRevoked += other.CapsRevoked
	s.RegsScanned += other.RegsScanned
	s.RegsRevoked += other.RegsRevoked
	s.ShadowLookups += other.ShadowLookups
	s.PagesLaunder += other.PagesLaunder
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
	s.TrafficReplayed = s.TrafficReplayed || other.TrafficReplayed
	s.Traffic = s.Traffic.Merge(other.Traffic)
}

// Sweeper revokes dangling capabilities against a shadow map. It is not safe
// for concurrent use: the buffers below are reused across sweeps.
type Sweeper struct {
	mem    *mem.Memory
	shadow *shadow.Map
	cfg    Config

	// The page list a sweep walks and the revocations it finds are kept
	// across sweeps. Campaigns sweep thousands of times over stable
	// page-set sizes, so after the first sweep these reach steady state and
	// the per-sweep allocation count stops scaling with heap size.
	pageBuf    []uint64
	revokedBuf []uint64
}

// New returns a sweeper over m guided by the shadow map sm.
func New(m *mem.Memory, sm *shadow.Map, cfg Config) *Sweeper {
	return &Sweeper{mem: m, shadow: sm, cfg: cfg}
}

// Sweep revokes all capabilities whose base lies in painted shadow-map
// granules, covering every mapped page (or only CapDirty pages) and the
// supplied register file. Registers are updated in place: a register holding
// a revoked capability has its tag cleared, exactly like a memory word.
func (s *Sweeper) Sweep(regs []cap.Capability) (Stats, error) {
	var stats Stats

	// Register file first: cheap and always fully scanned (§3.3 "the
	// sweep must cover ... register files").
	for i := range regs {
		stats.RegsScanned++
		if !regs[i].Tag() {
			continue
		}
		stats.ShadowLookups++
		if s.shadow.Revoked(regs[i].Base()) {
			regs[i] = regs[i].ClearTag()
			stats.RegsRevoked++
		}
	}

	// Both page lists are strictly ascending and duplicate-free, which
	// PageRuns, the window count and the closed-form traffic charge rely
	// on, and which leaves the revocations in ascending address order.
	if s.cfg.UseCapDirty {
		s.pageBuf = s.mem.AppendCapDirtyPages(s.pageBuf[:0])
	} else {
		s.pageBuf = s.mem.AppendAllPages(s.pageBuf[:0])
	}
	stats.PagesTotal = s.mem.PageCount()
	stats.PagesSwept = uint64(len(s.pageBuf))
	stats.PagesSkipped = stats.PagesTotal - stats.PagesSwept

	revoked := s.revokedBuf[:0]
	var windows uint64 // tag-line coverage windows holding a swept page
	window, prev := ^uint64(0), ^uint64(0)
	for i, base := range s.pageBuf {
		if i == 0 || base != prev+mem.PageSize {
			stats.PageRuns++
		}
		prev = base
		if w := base / mem.TagLineCoverage; w != window {
			window = w
			windows++
		}
		if err := s.sweepPage(base, &stats, &revoked); err != nil {
			return stats, err
		}
	}
	s.revokedBuf = revoked

	// Apply revocations: clear tags. The list is ascending, so the lines
	// holding a revocation are counted as runs of one line address.
	var linesRevoked uint64
	prevLine := ^uint64(0)
	for _, addr := range revoked {
		if err := s.mem.ClearTag(addr); err != nil {
			return stats, fmt.Errorf("revoke: clearing tag at %#x: %w", addr, err)
		}
		if line := addr / mem.LineSize; line != prevLine {
			linesRevoked++
			prevLine = line
		}
	}
	stats.CapsRevoked = uint64(len(revoked))
	stats.BytesWritten += uint64(len(revoked)) * mem.GranuleSize
	linesStored := linesRevoked
	if s.cfg.Kernel == sim.KernelVector {
		// The vectorised kernel stores every line back
		// unconditionally (§6.2), trading branches for copy traffic.
		stats.BytesWritten = stats.LinesSwept * mem.LineSize
		linesStored = stats.LinesSwept
	}

	if h := s.cfg.Hierarchy; h != nil {
		var fills uint64 // every probed window fills its tag line once
		if s.cfg.UseCLoadTags {
			fills = windows
		}
		stats.Traffic = h.ChargeSweep(stats.LinesSwept, linesStored, stats.TagProbes, fills)
		stats.TrafficReplayed = true
	}

	if s.cfg.Launder {
		for _, base := range s.pageBuf {
			cleaned, err := s.mem.LaunderCapDirty(base)
			if err != nil {
				return stats, err
			}
			if cleaned {
				stats.PagesLaunder++
			}
		}
	}
	return stats, nil
}

// sweepPage sweeps one page into stats and the revocation list, with one
// page-table lookup and no per-line walk (see the package doc), revoking in
// ascending address order.
func (s *Sweeper) sweepPage(base uint64, stats *Stats, revoked *[]uint64) error {
	view, err := s.mem.PageView(base)
	if err != nil {
		return err
	}
	lines := uint64(mem.LinesPerPage)
	if s.cfg.UseCLoadTags {
		lines = uint64(view.CapLines())
		stats.TagProbes += mem.LinesPerPage
		stats.LinesSkipped += mem.LinesPerPage - lines
	}
	stats.LinesSwept += lines
	stats.BytesRead += lines * mem.LineSize
	stats.WordsRead += lines * (mem.LineSize / mem.WordSize)
	caps := uint64(view.CapCount())
	stats.CapsFound += caps
	stats.ShadowLookups += caps
	if caps == 0 {
		return nil
	}
	var images [64][2]uint64
	var bit [64]uint8
	for i := uint(0); i < mem.GranulesPerPage/64; i++ {
		n := 0
		for w := view.TagWord(i); w != 0; w &= w - 1 {
			bit[n] = uint8(bits.TrailingZeros64(w))
			images[n][0], images[n][1], _ = view.Granule(i*64 + uint(bit[n]))
			n++
		}
		for k, img := range images[:n] {
			if s.shadow.Revoked(cap.DecodeBase(img[0], img[1])) {
				*revoked = append(*revoked, base+uint64(i*64+uint(bit[k]))*mem.GranuleSize)
			}
		}
	}
	return nil
}
