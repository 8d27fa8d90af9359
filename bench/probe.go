package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/revoke"
	"repro/internal/workload"
)

// probeResult is what the probe measured on a workload's representative
// trace.
type probeResult struct {
	mallocNs, freeNs, storeCapNs float64 // mean host time per call
	revokeMs                     float64 // mean host time per revocation
	sweepNsPerPage               float64 // final-image sweep, no cache model
	trafficSweepNsPerPage        float64 // the same with a cold CHERI hierarchy
	pagesSwept, capsRevoked      uint64  // over the replay's revocations
	pagesSkippedFrac             float64
	decodeMiBPerS                float64
}

// probeReps is how many times the probe repeats its decode pass and its
// final-image sweeps; it reports the median.
const probeReps = 3

// runProbe replays trace through core.System's public calls, timing each
// Malloc, Mem().StoreCap and FreeAddr (free time excludes any revocation it
// triggers, which Config.PreSweep/OnRevoke bracket), then times sweeps of
// the final heap image and a decode-only pass. The replay accumulates
// StreamStats exactly as workload.IncrementalReplay does, and they must equal
// workload.ReplayStreamStats on the same trace.
func runProbe(trace []byte, cfg core.Config, tr *tracer) (probeResult, error) {
	var pr probeResult
	root := tr.begin(0, "probe", "")
	defer tr.end(root)

	sp := tr.begin(root, "probe.decode", "")
	var rates []float64
	for range probeReps {
		t0 := time.Now()
		if _, err := decode(trace, nil); err != nil {
			return pr, err
		}
		rates = append(rates, float64(len(trace))/(1<<20)/time.Since(t0).Seconds())
	}
	pr.decodeMiBPerS = median(rates)
	tr.end(sp)

	events, err := decode(trace, []workload.TraceEvent{})
	if err != nil {
		return pr, err
	}
	want, err := replayStats(trace, cfg)
	if err != nil {
		return pr, err
	}

	sp = tr.begin(root, "probe.replay", "")
	var revokeStart time.Time
	var inRevoke time.Duration
	revokes := 0
	cfg.PreSweep = func(*core.System) { revokeStart = time.Now() }
	cfg.OnRevoke = func(core.Report) {
		inRevoke += time.Since(revokeStart)
		revokes++
	}
	sys, err := core.New(cfg)
	if err != nil {
		return pr, err
	}
	var mallocT, freeT, storeT time.Duration
	var st workload.StreamStats
	var caps []cap.Capability
	for i, ev := range events {
		if ev.Op != workload.EvMalloc && (ev.Ref < 0 || ev.Ref >= len(caps)) {
			return pr, fmt.Errorf("event %d: bad ref %d", i, ev.Ref)
		}
		switch ev.Op {
		case workload.EvMalloc:
			t0 := time.Now()
			c, err := sys.Malloc(ev.Size)
			mallocT += time.Since(t0)
			if err != nil {
				return pr, fmt.Errorf("event %d: %w", i, err)
			}
			caps = append(caps, c)
			st.Mallocs++
		case workload.EvPlant:
			c := caps[ev.Ref]
			t0 := time.Now()
			err := sys.Mem().StoreCap(c, c.Base()+ev.Size, c.SetAddr(c.Base()+ev.Size))
			storeT += time.Since(t0)
			if err != nil {
				return pr, fmt.Errorf("event %d: %w", i, err)
			}
			st.Plants++
		case workload.EvFree:
			before := inRevoke
			t0 := time.Now()
			err := sys.FreeAddr(caps[ev.Ref].Base())
			freeT += time.Since(t0) - (inRevoke - before)
			if err != nil {
				return pr, fmt.Errorf("event %d: %w", i, err)
			}
			st.Frees++
			st.FreedBytes += caps[ev.Ref].Len()
			st.PeakFootprint = max(st.PeakFootprint, sys.MemoryFootprint())
		default:
			return pr, fmt.Errorf("event %d: unknown op %q", i, ev.Op)
		}
		st.Events++
		if st.Events%workload.DefaultWindow == 0 || i == len(events)-1 {
			// IncrementalReplay samples the footprint at every window end.
			st.PeakFootprint = max(st.PeakFootprint, sys.MemoryFootprint())
		}
	}
	tr.end(sp)
	for _, rep := range sys.Reports() {
		st.Sweep.Add(rep.Sweep)
	}
	ss := sys.Stats()
	st.Sweeps, st.CapsRevoked = ss.Sweeps, ss.CapsRevoked
	st.QuarantineSeconds, st.ShadowSeconds, st.SweepSeconds = ss.QuarantineSeconds, ss.ShadowSeconds, ss.SweepSeconds
	st.HeapBytes, st.LiveBytes, st.QuarantineBytes = sys.HeapBytes(), sys.LiveBytes(), sys.QuarantineBytes()
	got, err := json.Marshal(st)
	if err != nil {
		return pr, err
	}
	if !bytes.Equal(got, want) {
		return pr, fmt.Errorf("probe stats %s differ from ReplayStreamStats %s", got, want)
	}

	pr.mallocNs = ratio(float64(mallocT.Nanoseconds()), float64(st.Mallocs))
	pr.freeNs = ratio(float64(freeT.Nanoseconds()), float64(st.Frees))
	pr.storeCapNs = ratio(float64(storeT.Nanoseconds()), float64(st.Plants))
	pr.revokeMs = ratio(float64(inRevoke.Nanoseconds())/1e6, float64(revokes))
	pr.pagesSwept, pr.capsRevoked = st.Sweep.PagesSwept, st.CapsRevoked
	pr.pagesSkippedFrac = ratio(float64(st.Sweep.PagesSkipped), float64(st.Sweep.PagesTotal))

	// The shadow map is clear after the last revocation, so re-sweeping
	// the final image revokes nothing and, without laundering, leaves it
	// as it was: every repetition sweeps the same pages.
	sp = tr.begin(root, "probe.sweep", "")
	img := cfg.Revoke
	img.Launder, img.Hierarchy = false, nil
	var plain, traffic []float64
	for range probeReps {
		ns, err := sweepNsPerPage(sys, img)
		if err != nil {
			return pr, err
		}
		plain = append(plain, ns)
		withH := img
		withH.Hierarchy = mem.NewCHERIHierarchy()
		if ns, err = sweepNsPerPage(sys, withH); err != nil {
			return pr, err
		}
		traffic = append(traffic, ns)
	}
	tr.end(sp)
	pr.sweepNsPerPage, pr.trafficSweepNsPerPage = median(plain), median(traffic)
	return pr, nil
}

// sweepNsPerPage sweeps sys's heap image once under cfg and returns the host
// time per page swept.
func sweepNsPerPage(sys *core.System, cfg revoke.Config) (float64, error) {
	sw := revoke.New(sys.Mem(), sys.Shadow(), cfg)
	t0 := time.Now()
	st, err := sw.Sweep(nil)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if st.CapsRevoked != 0 {
		return 0, fmt.Errorf("final-image sweep revoked %d capabilities; the shadow map should be clear", st.CapsRevoked)
	}
	return ratio(float64(d.Nanoseconds()), float64(st.PagesSwept)), nil
}

// decode reads every event of trace. With a nil dst it only counts them;
// otherwise it returns them appended to dst.
func decode(trace []byte, dst []workload.TraceEvent) ([]workload.TraceEvent, error) {
	r, err := workload.NewTraceReader(bytes.NewReader(trace))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	for {
		ev, err := r.Next()
		if errors.Is(err, io.EOF) {
			return dst, nil
		}
		if err != nil {
			return nil, err
		}
		if dst != nil {
			dst = append(dst, ev)
		}
	}
}

// replayStats replays a trace post hoc through workload.ReplayStreamStats
// under cfg and returns the stats' JSON, the form live sessions reconcile
// by.
func replayStats(trace []byte, cfg core.Config) ([]byte, error) {
	tr, err := workload.NewTraceReader(bytes.NewReader(trace))
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	st, err := workload.ReplayStreamStats(sys, workload.NewStreamingSource(tr, 0))
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}
