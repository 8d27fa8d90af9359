package workload

import (
	"fmt"
	"math"

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/mem"
)

// Options controls a workload run.
type Options struct {
	// Seed drives the deterministic generator (0 = fixed default).
	Seed uint64

	// MaxLiveBytes caps the simulated live heap; profiles with larger
	// reference heaps are scaled down (free rate and densities kept),
	// which §6.1.3's model shows preserves relative overheads. Default
	// 24 MiB.
	MaxLiveBytes uint64

	// MinSweeps runs the churn phase until this many revocation sweeps
	// have fired (default 3).
	MinSweeps int

	// MaxEvents bounds the churn phase (default 600k allocate/free
	// pairs) so zero-sweep configurations terminate.
	MaxEvents int

	// Stream, when non-nil, receives the run's exact event sequence as it
	// is generated — the generator-to-stream adapter. Nothing is
	// materialised: `trace record` pipes arbitrarily long runs through a
	// codec with constant memory. The caller creates the writer (and its
	// header) and closes it after Run returns.
	Stream TraceWriter
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.MaxLiveBytes == 0 {
		o.MaxLiveBytes = 24 << 20
	}
	if o.MinSweeps == 0 {
		o.MinSweeps = 3
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 600_000
	}
	return o
}

// Result summarises a workload run against a CHERIvoke system.
type Result struct {
	Profile Profile

	// AppSeconds is the simulated application time covered by the churn
	// phase (freed bytes ÷ the profile's free rate).
	AppSeconds float64

	Mallocs    uint64
	Frees      uint64
	FreedBytes uint64

	// Measured Table 2 quantities, for comparison against the paper.
	MeasuredFreeRateMiB float64
	MeasuredFreesPerSec float64
	MeasuredPageDensity float64
	MeasuredLineDensity float64

	// CacheEffectSeconds prices the quarantine cache effect: quarantined
	// lines shared with live data cause extra LLC misses in proportion
	// to the profile's reuse factor (§6.1.1).
	CacheEffectSeconds float64

	// PeakFootprint is the high-water simulated memory footprint (heap +
	// shadow map for CHERIvoke; heap only for the direct baseline). The
	// footprint never shrinks (core.System.MemoryFootprint), so it is the
	// footprint at the end of the run.
	PeakFootprint uint64

	// Scale is simulated-live-heap ÷ profile reference heap.
	Scale float64

	Sys *core.System
}

// TargetLive returns the simulated live-heap size for a profile under the
// given options: the reference heap capped at MaxLiveBytes, floored so that
// at least a dozen mean-sized objects stay live (density sampling over a
// couple of huge mcf/milc allocations would otherwise degenerate).
func TargetLive(p Profile, opts Options) uint64 {
	opts = opts.withDefaults()
	targetLive := uint64(p.LiveHeapMiB * (1 << 20))
	if targetLive > opts.MaxLiveBytes {
		targetLive = opts.MaxLiveBytes
	}
	if targetLive < 1<<20 {
		targetLive = 1 << 20
	}
	if min := uint64(12 * p.MeanAllocBytes()); targetLive < min {
		targetLive = min
		if targetLive > 64<<20 {
			targetLive = 64 << 20
		}
	}
	return targetLive
}

// Scale returns the heap scale factor simulated/reference for a profile:
// callers shrink fixed per-sweep machine costs by it, since a scaled-down
// heap sweeps 1/scale more often than the reference system would.
func Scale(p Profile, opts Options) float64 {
	return float64(TargetLive(p, opts)) / (p.LiveHeapMiB * (1 << 20))
}

// Run replays the profile against sys: a build-up phase fills the live heap
// (planting capabilities to match the profile's pointer densities), then a
// steady-state churn phase allocates and frees at the profile's rates until
// MinSweeps revocations have fired. All timing is simulated; the run is
// deterministic for a given seed.
func Run(sys *core.System, p Profile, opts Options) (Result, error) {
	opts = opts.withDefaults()
	r := newRNG(opts.Seed)
	res := Result{Profile: p}

	targetLive := TargetLive(p, opts)
	res.Scale = Scale(p, opts)

	g := newPlanter(p, r)
	rec := &recorder{w: opts.Stream}

	// Build-up phase: reach the steady-state live heap. A dead Stream
	// sink (e.g. a closed pipe) aborts the loops promptly — there is no
	// point simulating a run whose recording is already lost; the
	// latched error is surfaced below.
	var live liveSet
	for sys.LiveBytes() < targetLive && rec.err == nil {
		if err := g.allocate(sys, &live, rec); err != nil {
			return res, err
		}
		res.Mallocs++
	}

	// Churn phase.
	if p.AllocIntensive() {
		for ev := 0; ev < opts.MaxEvents && rec.err == nil; ev++ {
			if int(sys.Stats().Sweeps) >= opts.MinSweeps {
				break
			}
			if err := g.allocate(sys, &live, rec); err != nil {
				return res, err
			}
			res.Mallocs++
			h, ok := live.take(r, p.TemporalFrag)
			if !ok {
				continue
			}
			rec.free(h.idx)
			if err := sys.FreeAddr(h.addr); err != nil {
				return res, fmt.Errorf("workload %s: freeing %#x: %w", p.Name, h.addr, err)
			}
			res.Frees++
			res.FreedBytes += h.size
		}
	}
	res.PeakFootprint = sys.MemoryFootprint()
	if rec.err != nil {
		return res, fmt.Errorf("workload: streaming trace events: %w", rec.err)
	}

	finishMeasurement(sys, p, &res)
	return res, nil
}

// finishMeasurement computes the post-run measurements shared by generated
// (Run) and streamed (RunStream) replays — keeping them in one place is
// what keeps the two paths' results provably interchangeable
// (TestTraceCampaignMatchesGenerator).
//
//   - Simulated application time: the churn freed FreedBytes at the
//     profile's (unscaled) free rate. Scaling the heap down makes sweeps
//     proportionally smaller and more frequent, leaving the overhead ratio
//     invariant (§6.1.3). Non-allocating profiles get a nominal window.
//   - Table 2 densities are measured "when the quarantine buffer is full"
//     (§5.3): average the per-sweep samples, falling back to the end state
//     for runs that never swept.
//   - Quarantine cache effect: each sweep reported its shared-line count
//     (§6.1.1).
func finishMeasurement(sys *core.System, p Profile, res *Result) {
	if p.FreeRateMiB >= 0.5 && res.FreedBytes > 0 {
		res.AppSeconds = float64(res.FreedBytes) / (p.FreeRateMiB * (1 << 20))
	} else {
		res.AppSeconds = 10
	}
	if res.AppSeconds > 0 {
		res.MeasuredFreeRateMiB = float64(res.FreedBytes) / (1 << 20) / res.AppSeconds
		res.MeasuredFreesPerSec = float64(res.Frees) / res.AppSeconds
	}

	if reports := sys.Reports(); len(reports) > 0 {
		for _, rep := range reports {
			res.MeasuredPageDensity += rep.PageDensity
			res.MeasuredLineDensity += rep.LineDensity
		}
		res.MeasuredPageDensity /= float64(len(reports))
		res.MeasuredLineDensity /= float64(len(reports))
	} else {
		res.MeasuredPageDensity, res.MeasuredLineDensity = MeasureDensity(sys.Mem())
	}

	machine := sys.Machine()
	for _, rep := range sys.Reports() {
		res.CacheEffectSeconds += float64(rep.SharedLines) * p.CacheReuse * machine.LLCMissPenalty
	}
	res.Sys = sys
}

// MeasureDensity returns the heap's current page- and line-granularity
// capability densities (Table 2, Figure 8a). It is mem.Memory.Density,
// re-exported where workload consumers look for it.
func MeasureDensity(m *mem.Memory) (pageDensity, lineDensity float64) {
	return m.Density()
}

// liveSet tracks live allocations for the churn phase: FIFO order for
// grouped lifetimes, with tombstoned random removal for interleaved ones.
// Handles are numbered in the order added; those in [head, items.len())
// may be live, and the blocks the head has passed are reused at the tail.
type liveSet struct {
	items    blockTable[handle]
	head     int
	count    int
	ptrCount int // live pointer-bearing objects
}

type handle struct {
	addr uint64
	size uint64
	idx  int // birth-order allocation index (for trace recording)
	dead bool
	caps bool // object carries planted capabilities
}

func (l *liveSet) add(h handle) {
	l.items.push(h)
	l.count++
	if h.caps {
		l.ptrCount++
	}
}

// take removes either the oldest live handle (grouped lifetimes) or, with
// probability frag, a uniformly random one (temporal fragmentation).
func (l *liveSet) take(r *rng, frag float64) (handle, bool) {
	if l.count == 0 {
		return handle{}, false
	}
	if r.float() < frag {
		// Random pick: probe tombstoned slots.
		for tries := 0; tries < 32; tries++ {
			h := l.items.at(l.head + r.intn(l.items.len()-l.head))
			if !h.dead {
				h.dead = true
				l.count--
				if h.caps {
					l.ptrCount--
				}
				return *h, true
			}
		}
		// Dense tombstones: fall through to FIFO.
	}
	for l.head < l.items.len() {
		h := *l.items.at(l.head)
		l.head++
		if !h.dead {
			l.items.dropBelow(l.head)
			l.count--
			if h.caps {
				l.ptrCount--
			}
			return h, true
		}
	}
	l.items.dropBelow(l.head)
	return handle{}, false
}

// planter allocates objects and plants self-referential capabilities inside
// them to reach the profile's pointer densities. Planted capabilities point
// within their own allocation, so a freed object's internal pointers become
// exactly the dangling capabilities the sweep must revoke, and densities
// stay stationary across sweeps.
type planter struct {
	p        Profile
	r        *rng
	meanSize float64
	// pointerFrac is the probability an object carries pointers, solved
	// from the page-density target; granuleProb is the per-granule
	// capability probability within pointer objects, solved from the
	// line-density target; pagePlantProb is the per-page probability for
	// multi-page objects, discounted for pages straddled by two objects
	// (which receive two draws).
	pointerFrac   float64
	granuleProb   float64
	pagePlantProb float64
}

func newPlanter(p Profile, r *rng) *planter {
	mean := p.MeanAllocBytes()
	objsPerPage := float64(mem.PageSize) / mean
	// Table 2's "pages with pointers" was measured from core dumps that
	// include quarantined (freed but unswept) objects, whose pages stay
	// CapDirty until the next sweep. At low density the quarantine adds
	// ~25% extra pointer pages on top of live planting; at high density
	// the quarantined pages overlap pages that are pointer-bearing
	// anyway, so the correction fades out.
	target := p.PageDensity / (1 + 0.25*(1-p.PageDensity))
	var pf float64
	switch {
	case target <= 0:
		pf = 0
	case objsPerPage <= 1:
		// Large objects cover whole pages: the fraction of pointer
		// objects is the page density itself.
		pf = target
	default:
		// Small objects: a page is a pointer page if any of its
		// objects carries pointers.
		pf = 1 - math.Pow(1-target, 1/objsPerPage)
	}
	gp := 0.0
	if p.LineDensity > 0 && p.PageDensity > 0 {
		lineFill := p.LineDensity / p.PageDensity // line density within pointer pages
		if lineFill > 1 {
			lineFill = 1
		}
		gp = 1 - math.Pow(1-lineFill, 1.0/float64(mem.GranulesPerLine))
	}
	// A page straddled by an object boundary receives a planting draw
	// from both objects; discount the per-page probability accordingly.
	pp := 0.0
	if target > 0 {
		drawsPerPage := 1 + float64(mem.PageSize)/mean
		pp = 1 - math.Pow(1-target, 1/drawsPerPage)
	}
	return &planter{p: p, r: r, meanSize: mean, pointerFrac: pf, granuleProb: gp, pagePlantProb: pp}
}

// size draws an allocation size: the profile mean scaled by 2^U(-s, s),
// clamped to [16B, 4MiB] and rounded to the granule.
func (g *planter) size() uint64 {
	s := g.meanSize
	if g.p.SizeSpread > 0 {
		s *= math.Pow(2, (g.r.float()*2-1)*g.p.SizeSpread)
	}
	if s < 16 {
		s = 16
	}
	if s > 4<<20 {
		s = 4 << 20
	}
	return (uint64(s) + 15) &^ 15
}

func (g *planter) allocate(sys *core.System, live *liveSet, rec *recorder) error {
	size := g.size()
	idx := rec.malloc(size)
	c, err := sys.Malloc(size)
	if err != nil {
		return err
	}
	// Low-density profiles (milc's 3% of pages) can otherwise leave zero
	// pointer objects alive at simulation scale; keep at least one so
	// sweeps always have work proportional to the density target.
	force := g.pointerFrac > 0 && live.ptrCount == 0
	isPtr := false
	if c.Len() >= 2*mem.PageSize && g.p.PageDensity > 0 {
		// Multi-page objects (mcf, milc, soplex, ffmpeg buffers): draw
		// pointer-bearing status per PAGE, which both matches Table
		// 2's page-density semantics exactly and scatters the dirty
		// pages the way real heaps do — the fragmented CapDirty sets
		// that keep mcf and milc below full sweep bandwidth (§6.2).
		for off := uint64(0); off < c.Len(); off += mem.PageSize {
			pagePtr := g.r.float() < g.pagePlantProb
			if force && !isPtr && off+mem.PageSize >= c.Len() {
				pagePtr = true // last chance: force one page
			}
			if !pagePtr {
				continue
			}
			isPtr = true
			force = false
			end := off + mem.PageSize
			if end > c.Len() {
				end = c.Len()
			}
			if err := g.plantSpan(sys, c, off, end, rec, idx); err != nil {
				return err
			}
		}
	} else if force || (g.pointerFrac > 0 && g.r.float() < g.pointerFrac) {
		isPtr = true
		if err := g.plantSpan(sys, c, 0, c.Len(), rec, idx); err != nil {
			return err
		}
	}
	live.add(handle{addr: c.Base(), size: c.Len(), idx: idx, caps: isPtr})
	return nil
}

// plantSpan plants capabilities over [off, end) of the object on a
// per-granule Bernoulli draw, always planting at least one so the span
// really carries a pointer.
func (g *planter) plantSpan(sys *core.System, c cap.Capability, off, end uint64, rec *recorder, idx int) error {
	start := off
	planted := false
	for ; off+mem.GranuleSize <= end; off += mem.GranuleSize {
		if g.r.float() < g.granuleProb {
			if err := sys.Mem().StoreCap(c, c.Base()+off, c.SetAddr(c.Base()+off)); err != nil {
				return err
			}
			rec.plant(idx, off)
			planted = true
		}
	}
	if !planted {
		if err := sys.Mem().StoreCap(c, c.Base()+start, c.SetAddr(c.Base()+start)); err != nil {
			return err
		}
		rec.plant(idx, start)
	}
	return nil
}
