// Package core implements CHERIvoke itself (§3 of the paper): a temporal-
// safety runtime that couples the capability machine's tagged memory with a
// quarantining allocator, a revocation shadow map and a sweeping revoker.
//
// The lifecycle mirrors Figure 3:
//
//	Malloc  -> bounded capability over a fresh (never-dangling) chunk
//	Free    -> chunk detained in the quarantine buffer (no reuse)
//	        -> when quarantine reaches the configured fraction of the
//	           live heap: paint shadow map, sweep memory + roots,
//	           clear shadow map, recycle quarantined chunks
//
// After a sweep, no reachable capability — in simulated memory or in
// registered roots — can reference recycled address space; use of a stale
// capability faults with cap.ErrTagCleared.
//
// Every operation also feeds the timing model, so a run yields both a
// functional outcome (which accesses trapped) and the simulated-time
// decomposition of Figure 6 (quarantine / shadow / sweep overheads).
package core

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/cap"
	"repro/internal/mem"
	"repro/internal/quarantine"
	"repro/internal/revoke"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// Sentinel errors.
var (
	// ErrInvalidFree reports a free through a capability that is not the
	// exact, still-live allocation capability (wrong base, untagged, or
	// already freed).
	ErrInvalidFree = errors.New("core: invalid free")
)

// DefaultHeapBase is where the simulated heap begins.
const DefaultHeapBase = uint64(0x10000000)

// Config configures a CHERIvoke system.
type Config struct {
	// HeapBase is the simulated heap's base address (DefaultHeapBase if
	// zero; must be page-aligned).
	HeapBase uint64

	// Policy is the quarantine drain policy; quarantine.DefaultPolicy
	// (25% of the live heap, the paper's default) if zero.
	Policy quarantine.Policy

	// Revoke selects the sweep implementation (kernel, CapDirty,
	// CLoadTags, shards, laundering, optional cache hierarchy).
	Revoke revoke.Config

	// Machine is the timing model; sim.X86() if zero.
	Machine sim.Machine

	// Alloc selects allocator policy variations (e.g. Cling-style typed
	// reuse, usually combined with DirectFree to model Cling itself).
	Alloc alloc.Options

	// DirectFree disables CHERIvoke entirely: frees recycle immediately
	// with no quarantine, shadow or sweeping. This is the insecure
	// baseline configuration used for normalisation.
	DirectFree bool

	// NoAutoRevoke disables the automatic drain trigger; callers drive
	// Revoke manually (used by experiments that sweep at fixed points).
	NoAutoRevoke bool

	// ConcurrentSweep models §3.5: the sweep runs on spare cores
	// alongside the application instead of pausing it. The sweep itself
	// is still performed atomically at the drain point (the simulation
	// has no mutator to race with), but its cost accounting changes:
	// the main thread is charged only a short pause (register scan +
	// setup) plus a bandwidth-contention share of the background sweep,
	// per Machine.SweepContention.
	ConcurrentSweep bool

	// UnmapLarge enables §8's "reuse of physical addresses for
	// page-size deallocations": a freed chunk that covers whole pages
	// is unmapped immediately instead of quarantined. Dangling accesses
	// fault on the unmapped page with no sweep needed; the virtual
	// address range is retired (never reused), trading page-table/VA
	// growth for sweep work, as in Oscar [12].
	UnmapLarge bool

	// PreSweep, when set, is called at the start of every revocation,
	// while the quarantine buffer is still full — the paper's core-dump
	// point (§5.3: "we dump the core image periodically when the
	// quarantine buffer is full and a sweep would have been triggered").
	PreSweep func(*System)

	// OnRevoke, when set, is called with each completed sweep's report.
	OnRevoke func(Report)
}

// System is a running CHERIvoke instance.
type System struct {
	cfg     Config
	mem     *mem.Memory
	alloc   *alloc.Allocator
	quar    *quarantine.Buffer
	shadow  *shadow.Map
	sweeper *revoke.Sweeper
	root    cap.Capability    // whole-address-space capability (TCB only)
	heapCap cap.Capability    // whole-heap capability the allocator derives from
	roots   []*cap.Capability // registered register/stack roots

	stats   Stats
	reports []Report
}

// Stats aggregates a system's activity and its simulated-time decomposition.
type Stats struct {
	Mallocs uint64
	Frees   uint64
	Sweeps  uint64

	CapsRevoked  uint64 // memory capabilities revoked across all sweeps
	RootsRevoked uint64 // registered roots revoked

	// UnmapLarge accounting (§8 page-granularity reuse).
	UnmappedBytes  uint64 // address space retired by large-free unmapping
	UnmappedChunks uint64

	// BackgroundSweepSeconds is the total duration of concurrent sweeps
	// (§3.5); only their contention share appears in SweepSeconds.
	BackgroundSweepSeconds float64

	// Simulated-time decomposition (seconds), the bars of Figure 6.
	QuarantineSeconds float64 // detaining chunks + draining recycles
	BaselineFreeCost  float64 // what plain dlmalloc frees would have cost
	ShadowSeconds     float64 // painting + clearing the shadow map
	SweepSeconds      float64 // revocation sweeps

	// FragmentationShare samples, per sweep, the fraction of quarantined
	// cache lines shared with non-quarantined data — the temporal
	// fragmentation that degrades xalancbmk's cache behaviour (§6.1.1).
	FragmentationShare float64

	LastSweep revoke.Stats // stats of the most recent sweep
}

// New builds a CHERIvoke system from cfg.
func New(cfg Config) (*System, error) {
	if cfg.HeapBase == 0 {
		cfg.HeapBase = DefaultHeapBase
	}
	if cfg.Policy == (quarantine.Policy{}) {
		cfg.Policy = quarantine.DefaultPolicy
	}
	if cfg.Machine == (sim.Machine{}) {
		cfg.Machine = sim.X86()
	}
	m := mem.New()
	a, err := alloc.NewWithOptions(m, cfg.HeapBase, cfg.Alloc)
	if err != nil {
		return nil, err
	}
	sm, err := shadow.New(cfg.HeapBase, 0)
	if err != nil {
		return nil, err
	}
	q, err := quarantine.New(cfg.HeapBase, 0)
	if err != nil {
		return nil, err
	}
	root := cap.MustRoot(0, 1<<48)
	s := &System{
		cfg:    cfg,
		mem:    m,
		alloc:  a,
		quar:   q,
		shadow: sm,
		root:   root,
	}
	s.sweeper = revoke.New(m, sm, cfg.Revoke)
	return s, nil
}

// Mem exposes the simulated memory for program loads and stores.
func (s *System) Mem() *mem.Memory { return s.mem }

// Allocator exposes the underlying allocator (read-only use intended).
func (s *System) Allocator() *alloc.Allocator { return s.alloc }

// Shadow exposes the revocation shadow map.
func (s *System) Shadow() *shadow.Map { return s.shadow }

// Quarantine exposes the quarantine buffer.
func (s *System) Quarantine() *quarantine.Buffer { return s.quar }

// Machine returns the timing model in use.
func (s *System) Machine() sim.Machine { return s.cfg.Machine }

// Stats returns a snapshot of the aggregate statistics.
func (s *System) Stats() Stats { return s.stats }

// AddRoot registers a capability variable held outside simulated memory (a
// register or stack slot in the model) so sweeps can revoke it. Real CHERI
// sweeps the register file and stack directly (§3.3); in this simulation any
// capability the host program keeps in a Go variable must be registered, or
// it models a pointer hidden from the revoker — which CHERI makes
// impossible, so examples and tests always register.
func (s *System) AddRoot(c *cap.Capability) { s.roots = append(s.roots, c) }

// RemoveRoot unregisters a previously added root.
func (s *System) RemoveRoot(c *cap.Capability) {
	for i, r := range s.roots {
		if r == c {
			s.roots = append(s.roots[:i], s.roots[i+1:]...)
			return
		}
	}
}

// Malloc allocates size bytes and returns a tagged capability bounded
// exactly to the (granule- and representability-padded) allocation with
// load/store data+capability permissions — the bounds-setting allocator
// behaviour CHERIvoke requires so every heap capability is attributable to
// exactly one allocation (§4.1). A size above alloc.MaxHeapBytes fails
// with alloc.ErrOOM before it is padded, so it cannot wrap.
func (s *System) Malloc(size uint64) (cap.Capability, error) {
	if size > alloc.MaxHeapBytes {
		return cap.Null, fmt.Errorf("core: malloc(%d) exceeds the heap cap: %w", size, alloc.ErrOOM)
	}
	padded := size
	if padded == 0 {
		padded = 1
	}
	padded = (padded + alloc.Granule - 1) &^ (alloc.Granule - 1)
	padded = cap.RepresentableLength(padded)
	mask := cap.RepresentableAlignmentMask(padded)
	addr, got, err := s.alloc.MallocAligned(padded, mask)
	if err != nil {
		return cap.Null, err
	}
	if err := s.growHeapMaps(); err != nil {
		return cap.Null, err
	}
	c, err := s.heapCapability().SetBoundsExact(addr, got)
	if err != nil {
		return cap.Null, fmt.Errorf("core: bounding allocation at %#x+%#x: %w", addr, got, err)
	}
	s.stats.Mallocs++
	return c.ClearPerms(cap.PermExecute | cap.PermSeal | cap.PermUnseal | cap.PermSystemRegs), nil
}

// heapCapability returns the allocator's whole-heap capability, re-derived
// as the heap grows. The allocator's own references are whole-heap-spanning
// capabilities whose bases are never quarantined, so sweeps never revoke
// them (§3.6).
func (s *System) heapCapability() cap.Capability {
	heapLen := cap.RepresentableLength(s.alloc.MappedBytes())
	if s.heapCap.Tag() && s.heapCap.Len() >= heapLen {
		return s.heapCap
	}
	c, err := s.root.SetBounds(s.cfg.HeapBase, heapLen)
	if err != nil {
		// The heap base is page-aligned and lengths are padded, so
		// this cannot fail; growing past it is a programming error.
		panic(fmt.Sprintf("core: deriving heap capability: %v", err))
	}
	s.heapCap = c
	return c
}

// growHeapMaps extends the shadow map and the quarantine's planes, both at a
// fixed transform from the heap, over the allocator's mapped region.
func (s *System) growHeapMaps() error {
	want := s.alloc.MappedBytes()
	if s.shadow.Limit()-s.shadow.Base() < want {
		if err := s.quar.Grow(want); err != nil {
			return err
		}
		return s.shadow.Grow(want)
	}
	return nil
}

// Free releases the allocation addressed by c, which must be the (possibly
// address-moved) allocation capability: its base must equal the allocation
// start. In CHERIvoke mode the chunk is quarantined, the free is charged at
// quarantine cost, and a revocation is triggered once quarantine reaches the
// policy fraction. In DirectFree mode this is a classic insecure free.
func (s *System) Free(c cap.Capability) error {
	if !c.Tag() {
		return fmt.Errorf("core: free via untagged capability %v: %w", c, ErrInvalidFree)
	}
	return s.FreeAddr(c.Base())
}

// FreeAddr is Free for a raw allocation start address (trusted-caller form
// used by the workload replayer, which tracks allocations by address).
func (s *System) FreeAddr(addr uint64) error {
	if s.cfg.DirectFree {
		if err := s.alloc.Free(addr); err != nil {
			return fmt.Errorf("core: %w: %v", ErrInvalidFree, err)
		}
		s.stats.Frees++
		s.stats.BaselineFreeCost += s.cfg.Machine.FreeCost
		s.stats.QuarantineSeconds += s.cfg.Machine.FreeCost
		return nil
	}
	size, err := s.alloc.Release(addr)
	if err != nil {
		return fmt.Errorf("core: %w: %v", ErrInvalidFree, err)
	}
	s.stats.Frees++
	s.stats.QuarantineSeconds += s.cfg.Machine.QuarantineCost
	s.stats.BaselineFreeCost += s.cfg.Machine.FreeCost

	ranges := [][2]uint64{{addr, size}}
	if s.cfg.UnmapLarge {
		var err error
		ranges, err = s.unmapInterior(addr, size)
		if err != nil {
			return err
		}
	}
	for _, r := range ranges {
		if err := s.quar.Insert(r[0], r[1]); err != nil {
			return fmt.Errorf("core: quarantining [%#x,+%#x): %w", r[0], r[1], err)
		}
	}
	if !s.cfg.NoAutoRevoke && s.cfg.Policy.ShouldDrain(s.quar.Bytes(), s.alloc.LiveBytes()) {
		_, err := s.Revoke()
		return err
	}
	return nil
}

// unmapInterior implements §8's page-granularity deallocation: the whole
// pages inside a freed chunk are unmapped immediately — dangling accesses
// fault on the unmapped page with no sweeping required — and their virtual
// range is retired, never reused (as in Oscar [12], at page-table rather
// than sweep cost). The sub-page head and tail slack is returned for
// ordinary quarantining.
func (s *System) unmapInterior(addr, size uint64) ([][2]uint64, error) {
	inner := (addr + mem.PageSize - 1) &^ (mem.PageSize - 1)
	innerEnd := (addr + size) &^ (mem.PageSize - 1)
	if innerEnd <= inner {
		return [][2]uint64{{addr, size}}, nil // no whole page inside
	}
	if err := s.mem.Unmap(inner, innerEnd-inner); err != nil {
		return nil, fmt.Errorf("core: unmapping freed pages [%#x,%#x): %w", inner, innerEnd, err)
	}
	s.stats.UnmappedBytes += innerEnd - inner
	s.stats.UnmappedChunks++
	var out [][2]uint64
	if head := inner - addr; head > 0 {
		out = append(out, [2]uint64{addr, head})
	}
	if tail := addr + size - innerEnd; tail > 0 {
		out = append(out, [2]uint64{innerEnd, tail})
	}
	return out, nil
}

// Report describes one revocation sweep.
type Report struct {
	Sweep        revoke.Stats
	SweepSeconds float64 // full sweep duration (background time if concurrent)
	// MainThreadSeconds is what the application actually pays: equal to
	// SweepSeconds for stop-the-world sweeps, or the pause + contention
	// share for concurrent ones (§3.5).
	MainThreadSeconds float64
	PaintSeconds      float64
	ChunksRecycled    int
	BytesRecycled     uint64
	PaintedGranules   uint64

	// SharedLines counts quarantined cache lines shared with
	// non-quarantined data at this sweep — the temporal-fragmentation
	// measure behind the quarantine cache effect (§6.1.1).
	SharedLines uint64

	// Heap geometry at the sweep, for the analytic model's inputs.
	HeapBytes uint64
	LiveBytes uint64

	// PageDensity and LineDensity sample the heap's capability density
	// at the moment the sweep fires (quarantine full), matching the
	// paper's core-dump measurement methodology (§5.3).
	PageDensity float64
	LineDensity float64
}

// Revoke forces a full revocation cycle now: paint the shadow map from the
// quarantine buffer, sweep all capability-bearing memory and registered
// roots, clear the shadow map, and return the quarantined chunks to the free
// lists (Figure 3).
func (s *System) Revoke() (Report, error) {
	var rep Report
	if s.cfg.PreSweep != nil {
		s.cfg.PreSweep(s)
	}
	chunks := s.quar.Drain()
	if len(chunks) == 0 && s.shadow.PaintedGranules() == 0 {
		// Nothing quarantined: still a valid (empty) sweep.
		chunks = nil
	}

	// Phase 1: paint.
	shadowBefore := s.shadow.Stats()
	var bytesRecycled uint64
	for _, ch := range chunks {
		if err := s.shadow.Paint(ch.Addr, ch.Size); err != nil {
			return rep, fmt.Errorf("core: painting %#x+%#x: %w", ch.Addr, ch.Size, err)
		}
		bytesRecycled += ch.Size
	}
	rep.PaintedGranules = s.shadow.PaintedGranules()
	var sharedLines, totalLines uint64
	sharedLines, totalLines = s.fragmentationLines(chunks)
	rep.SharedLines = sharedLines
	if totalLines > 0 {
		s.stats.FragmentationShare = float64(sharedLines) / float64(totalLines)
	} else {
		s.stats.FragmentationShare = 0
	}
	rep.HeapBytes = s.alloc.HeapBytes()
	rep.LiveBytes = s.alloc.LiveBytes()
	rep.PageDensity, rep.LineDensity = s.mem.Density()

	// Phase 2: sweep memory and roots.
	regs := make([]cap.Capability, len(s.roots))
	for i, r := range s.roots {
		regs[i] = *r
	}
	sweepStats, err := s.sweeper.Sweep(regs)
	if err != nil {
		return rep, err
	}
	for i, r := range s.roots {
		if r.Tag() && !regs[i].Tag() {
			s.stats.RootsRevoked++
		}
		*r = regs[i]
	}

	// Phase 3: clear the shadow map and recycle.
	s.shadow.ClearAll()
	for _, ch := range chunks {
		s.alloc.FreeRange(ch.Addr, ch.Size)
	}

	// Pricing.
	shadowAfter := s.shadow.Stats()
	stores := (shadowAfter.BitStores - shadowBefore.BitStores) +
		(shadowAfter.WordStores - shadowBefore.WordStores)
	rep.PaintSeconds = float64(stores) * s.cfg.Machine.ShadowStoreCost
	rep.SweepSeconds = s.cfg.Machine.SweepTime(
		s.cfg.Revoke.Kernel.Costs(), sweepStats.Work(s.cfg.Revoke.Shards))
	if s.cfg.ConcurrentSweep && s.cfg.Machine.Cores > 1 {
		// §3.5: the sweep runs on spare cores; the main thread pays
		// only the setup pause plus a bandwidth-contention share.
		rep.MainThreadSeconds = s.cfg.Machine.SweepStartup +
			rep.SweepSeconds*s.cfg.Machine.SweepContention
		s.stats.BackgroundSweepSeconds += rep.SweepSeconds
	} else {
		rep.MainThreadSeconds = rep.SweepSeconds
	}
	rep.Sweep = sweepStats
	rep.ChunksRecycled = len(chunks)
	rep.BytesRecycled = bytesRecycled

	// The drain's internal frees are charged at real-free cost; thanks to
	// coalescing there are typically far fewer than the program's frees
	// (§6.1.1's batching benefit).
	s.stats.QuarantineSeconds += float64(len(chunks)) * s.cfg.Machine.FreeCost
	s.stats.ShadowSeconds += rep.PaintSeconds
	s.stats.SweepSeconds += rep.MainThreadSeconds
	s.stats.Sweeps++
	s.stats.CapsRevoked += sweepStats.CapsRevoked
	s.stats.LastSweep = sweepStats
	s.reports = append(s.reports, rep)
	if s.cfg.OnRevoke != nil {
		s.cfg.OnRevoke(rep)
	}
	return rep, nil
}

// Reports returns the per-sweep reports accumulated so far, including those
// from automatic (policy-triggered) revocations.
func (s *System) Reports() []Report { return s.reports }

// fragmentationLines estimates temporal fragmentation at this sweep: the
// number of quarantined cache lines that share their line with
// non-quarantined (potentially still hot) data — partial head/tail lines of
// each chunk — and the total quarantined lines. Small interleaved lifetimes
// produce many partial lines (xalancbmk); large or well-grouped frees
// produce almost none (§6.1.1).
func (s *System) fragmentationLines(chunks []quarantine.Chunk) (sharedOut, totalOut uint64) {
	if len(chunks) == 0 {
		return 0, 0
	}
	var shared, total uint64
	for _, ch := range chunks {
		end := ch.Addr + ch.Size
		first := ch.Addr / mem.LineSize
		last := (end - 1) / mem.LineSize
		total += last - first + 1
		headShared := ch.Addr%mem.LineSize != 0
		tailShared := end%mem.LineSize != 0
		switch {
		case first == last:
			if headShared || tailShared {
				shared++
			}
		default:
			if headShared {
				shared++
			}
			if tailShared {
				shared++
			}
		}
	}
	return shared, total
}

// HeapBytes returns the current heap extent.
func (s *System) HeapBytes() uint64 { return s.alloc.HeapBytes() }

// LiveBytes returns bytes in live allocations.
func (s *System) LiveBytes() uint64 { return s.alloc.LiveBytes() }

// QuarantineBytes returns bytes currently detained.
func (s *System) QuarantineBytes() uint64 { return s.quar.Bytes() }

// MemoryFootprint returns the total simulated footprint CHERIvoke charges
// against the program: mapped heap plus the shadow map (Figure 5b's
// numerator). Neither part ever shrinks, so the footprint is the run's
// high-water mark so far.
func (s *System) MemoryFootprint() uint64 {
	return s.alloc.MappedBytes() + s.shadow.SizeBytes()
}
