// Package revoke implements CHERIvoke's revocation sweep (§3.3–§3.5 of the
// paper): a walk over all capability-bearing memory and the register file
// that looks up the base of every tagged capability in the revocation shadow
// map and clears the tag of any capability pointing into quarantined space.
//
// The sweep is functional — tags really are cleared on the simulated memory
// — and simultaneously produces the event counts (words examined, lines
// fetched, probes issued, page runs entered) that internal/sim prices into
// simulated seconds, and from which the cache hierarchy model charges the
// DRAM traffic of Figure 10 in closed form (mem.Hierarchy.ChargeSweep).
//
// Work-elimination levels (§3.4):
//   - PTE CapDirty: only pages whose page-table entry records a capability
//     store are swept at all;
//   - CLoadTags: within a swept page, lines whose tag probe returns zero are
//     skipped without fetching data.
//
// The kernel never walks a page line by line. A page keeps its tagged
// granule and tagged line counts on every tag transition, and they fix the
// line counters in closed form: a full sweep reads every line, and a
// CLoadTags sweep probes every line and reads exactly the tagged ones. The
// tagged granules are found by bit-scanning the tag bitmap 64 granules at a
// time, so only they are read and decoded for the shadow-map lookup. All of
// a tag word's granules are loaded before any is decoded, so their cache
// misses overlap instead of each waiting out the decode and lookup before.
//
// Sweep walks the simulated memory's mapped (or CapDirty-filtered) page
// list, strictly ascending and duplicate-free, once on the calling
// goroutine. The same pass counts page runs and tag-line coverage windows
// (each probed window fills its tag line once) and collects revocations in
// address order. §3.5's parallel sweep ("pages to sweep can be distributed
// between independent threads; the shared shadow map is read-only during the
// sweep") changes no result, only wall-clock time, so Config.Shards is a
// width that sim.Machine.SweepTime prices and the sweep never executes, as
// core.Config.ConcurrentSweep is priced. Statistics, DRAM traffic included,
// are therefore byte-identical for any shard count and for streamed versus
// generated workload input alike.
package revoke
