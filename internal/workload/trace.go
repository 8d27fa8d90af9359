package workload

import (
	"fmt"

	"repro/internal/cap"
	"repro/internal/core"
)

// Trace is a recorded allocation trace: the exact sequence of mallocs,
// capability plants and frees a workload run performed, in executable form.
// Traces serve two purposes:
//
//   - artifacts: a run can be serialised (WriteTrace, in the binary or
//     NDJSON encoding) and replayed elsewhere, reproducing the workload
//     independent of the generator's code;
//   - controlled comparisons: the *same* trace can be replayed against
//     differently-configured systems (CHERIvoke vs direct-free vs typed
//     reuse), eliminating generator divergence from the comparison.
//
// Events reference allocations by birth order, so a trace is
// position-independent: replaying against any allocator layout works.
type Trace struct {
	Name   string
	Seed   uint64
	Events []TraceEvent
}

// Event opcodes.
const (
	// EvMalloc allocates Size bytes; the allocation's index is the count
	// of prior EvMalloc events.
	EvMalloc = byte('m')
	// EvPlant stores a self-referential capability at byte offset Size
	// within allocation Ref.
	EvPlant = byte('p')
	// EvFree frees allocation Ref.
	EvFree = byte('f')
)

// TraceEvent is one step of a trace.
type TraceEvent struct {
	Op   byte
	Size uint64 // malloc size, or plant offset
	Ref  int    // allocation index for plant/free
}

// Replay executes the trace against sys and returns the number of events
// applied. A free of, or a plant through, an already-freed allocation is
// trace corruption and errors out. For traces too large to materialise,
// use ReplayStream.
func Replay(sys *core.System, tr *Trace) (int, error) {
	var st replayState
	for i, ev := range tr.Events {
		if err := st.apply(sys, i, ev); err != nil {
			return i, err
		}
	}
	return len(tr.Events), nil
}

// replayState is the per-replay allocation table: events reference
// allocations by birth order, so the table maps that index to the
// capability the replay's own allocator returned, untagged once freed. It
// grows in blocks with the number of mallocs (allocation metadata), while
// the event stream itself needs no buffering beyond the caller's window.
type replayState struct {
	caps blockTable[cap.Capability]
}

// apply executes one trace event against sys; i is the event's position,
// used only for error messages.
func (st *replayState) apply(sys *core.System, i int, ev TraceEvent) error {
	switch ev.Op {
	case EvMalloc:
		c, err := sys.Malloc(ev.Size)
		if err != nil {
			return fmt.Errorf("workload: replay event %d: %w", i, err)
		}
		st.caps.push(c)
	case EvPlant:
		c, err := st.live(i, ev.Ref)
		if err != nil {
			return err
		}
		if err := sys.Mem().StoreCap(c, c.Base()+ev.Size, c.SetAddr(c.Base()+ev.Size)); err != nil {
			return fmt.Errorf("workload: replay event %d: %w", i, err)
		}
	case EvFree:
		c, err := st.live(i, ev.Ref)
		if err != nil {
			return err
		}
		if err := sys.FreeAddr(c.Base()); err != nil {
			return fmt.Errorf("workload: replay event %d: %w", i, err)
		}
		*st.caps.at(ev.Ref) = c.ClearTag()
	default:
		return fmt.Errorf("workload: replay event %d: unknown op %q", i, ev.Op)
	}
	return nil
}

// live returns allocation ref's capability, failing for a ref never
// allocated or already freed. Frees are tracked by ref, not by address:
// after a direct free, a later malloc may reuse the address.
func (st *replayState) live(i, ref int) (cap.Capability, error) {
	if ref < 0 || ref >= st.caps.len() {
		return cap.Null, fmt.Errorf("workload: replay event %d: bad ref %d", i, ref)
	}
	if c := *st.caps.at(ref); c.Tag() {
		return c, nil
	}
	return cap.Null, fmt.Errorf("workload: replay event %d: ref %d was already freed", i, ref)
}

// recorder is the generator-to-stream adapter: it forwards the run's exact
// event sequence to a materialised Trace (Options.Record), a streaming
// TraceWriter (Options.Stream), or both. Nil-safe; an inactive recorder
// hands out index -1 and drops everything.
type recorder struct {
	tr   *Trace
	w    TraceWriter
	next int   // next allocation index
	err  error // first stream-write failure, surfaced by Run
}

// active reports whether any sink is attached.
func (r *recorder) active() bool {
	return r != nil && (r.tr != nil || r.w != nil)
}

// emit forwards one event to the attached sinks. Stream-write errors are
// latched (the generator loop has no natural bail-out point per plant) and
// checked by Run after the run completes.
func (r *recorder) emit(ev TraceEvent) {
	if r.tr != nil {
		r.tr.Events = append(r.tr.Events, ev)
	}
	if r.w != nil && r.err == nil {
		r.err = r.w.WriteEvent(ev)
	}
}

func (r *recorder) malloc(size uint64) int {
	if !r.active() {
		return -1
	}
	idx := r.next
	r.next++
	r.emit(TraceEvent{Op: EvMalloc, Size: size})
	return idx
}

func (r *recorder) plant(ref int, off uint64) {
	if !r.active() {
		return
	}
	r.emit(TraceEvent{Op: EvPlant, Size: off, Ref: ref})
}

func (r *recorder) free(ref int) {
	if !r.active() || ref < 0 {
		return
	}
	r.emit(TraceEvent{Op: EvFree, Ref: ref})
}
