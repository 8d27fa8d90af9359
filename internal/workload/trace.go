package workload

import (
	"fmt"

	"repro/internal/cap"
	"repro/internal/core"
)

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

// TraceEvent is one step of a recorded allocation trace, the exact sequence
// of mallocs, capability plants and frees a workload run performed. Events
// reference allocations by birth order, so a trace is position-independent:
// it replays against any allocator layout.
type TraceEvent struct {
	Op   byte
	Size uint64 // malloc size, or plant offset
	Ref  int    // allocation index for plant/free
}

// replayState is the per-replay allocation table: events reference
// allocations by birth order, so the table maps that index to the
// capability the replay's own allocator returned, untagged once freed. It
// grows in blocks with the number of mallocs (allocation metadata), while
// the event stream itself needs no buffering beyond the caller's window.
// The twin, when it has a system, receives the mallocs and frees.
type replayState struct {
	caps blockTable[cap.Capability]
	twin twin
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
		if err := st.twin.malloc(ev.Size); err != nil {
			return fmt.Errorf("workload: replay event %d: %w", i, err)
		}
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
		if err := st.twin.free(ev.Ref, 0); err != nil {
			return fmt.Errorf("workload: replay event %d: %w", i, err)
		}
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
// event sequence to a streaming TraceWriter (Options.Stream). Nil-safe; an
// inactive recorder drops everything. Plants and frees name an allocation
// by its index, which the caller keeps (liveSet).
type recorder struct {
	w   TraceWriter
	err error // first stream-write failure, surfaced by Run
}

// active reports whether a sink is attached.
func (r *recorder) active() bool {
	return r != nil && r.w != nil
}

// emit forwards one event to the sink. Stream-write errors are latched (the
// generator loop has no natural bail-out point per plant) and checked by Run
// after the run completes.
func (r *recorder) emit(ev TraceEvent) {
	if r.err == nil {
		r.err = r.w.WriteEvent(ev)
	}
}

func (r *recorder) malloc(size uint64) {
	if !r.active() {
		return
	}
	r.emit(TraceEvent{Op: EvMalloc, Size: size})
}

func (r *recorder) plant(ref int, off uint64) {
	if !r.active() {
		return
	}
	r.emit(TraceEvent{Op: EvPlant, Size: off, Ref: ref})
}

func (r *recorder) free(ref int) {
	if !r.active() {
		return
	}
	r.emit(TraceEvent{Op: EvFree, Ref: ref})
}
