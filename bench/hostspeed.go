package main

import (
	"sync"
	"time"
)

// The benchmark's hosts are shared virtual machines whose speed drifts by up
// to 40% over minutes as other tenants load the physical cores (measured on
// a 2-vCPU Xeon VM, with CPU steal near zero: the host's cores slow down,
// they are not taken away). Wall times on such a host track the neighbours
// as much as the code, so an untraced run scales its times by the host's
// speed, measured just before set-up and just after the measured phase with
// a fixed integer loop that shares no code with the program.
const (
	// refIters is one repetition of the loop on each proc, about 45 ms.
	refIters = 20_000_000
	// refNominal is refIters' time on an idle 2-vCPU Xeon VM: the speed
	// the scaled times are stated at.
	refNominal = 45 * time.Millisecond
	refReps    = 11
)

// refSink keeps the loop's results so the compiler cannot drop it, one
// element per proc.
var refSink [poolWorkers]uint64

// hostSpeed returns the host's current speed relative to refNominal (above
// 1 when faster): the median of refReps repetitions of the reference loop
// run on every proc at once, as a workload runs.
func hostSpeed() float64 {
	times := make([]float64, 0, refReps)
	for range refReps {
		t0 := time.Now()
		var wg sync.WaitGroup
		for p := range poolWorkers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				refSink[p] = xorshiftLoop(uint64(p)+1, refIters)
			}()
		}
		wg.Wait()
		times = append(times, time.Since(t0).Seconds())
	}
	return refNominal.Seconds() / median(times)
}

// xorshiftLoop runs n steps of Marsaglia's xorshift64: serially dependent
// integer work that touches no memory.
func xorshiftLoop(x uint64, n int) uint64 {
	for range n {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}
