package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuShares is a CPU profile's samples grouped by the layer they are
// charged to.
type cpuShares struct {
	total float64            // CPU time in all samples, ns
	by    map[string]float64 // bucket → CPU time, ns
	gc    float64            // CPU time in samples with a garbage-collector frame
	n     int                // samples
}

func (s cpuShares) frac(bucket string) float64 { return ratio(s.by[bucket], s.total) }

// Buckets for samples without a repro/internal frame.
const (
	bucketBench   = "bench"   // the benchmark's driver and its HTTP clients
	bucketRuntime = "runtime" // Go runtime only: GC workers, scheduler
	bucketOther   = "other"   // unattributed
)

// attributeProfile reads the CPU profile at path with `go tool pprof
// -traces` and charges every sample to the innermost repro/internal/<pkg>
// frame on its stack, so runtime work such as map access, memmove or a GC
// assist is charged to the package that called it. Stacks without such a
// frame go to the HTTP server layer when they are a server connection's
// goroutine, to the benchmark for its own code and its HTTP client's
// goroutines, to the runtime when every frame is the runtime's, and to
// "other" otherwise.
func attributeProfile(path string) (cpuShares, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return cpuShares{}, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(string(out))
}

// traceSep separates the samples in `go tool pprof -traces` output.
const traceSep = "-----------+"

// parseTraces reads `go tool pprof -traces -unit=ns` output: after a
// header, each sample is a separator line, then "<value>ns <leaf frame>",
// then one caller frame per line, inlined frames marked " (inline)".
func parseTraces(text string) (cpuShares, error) {
	sh := cpuShares{by: map[string]float64{}}
	var frames []string // the current sample's stack, leaf first
	var v float64       // the current sample's CPU time
	flush := func() {
		if frames == nil {
			return
		}
		sh.total += v
		sh.by[bucketOf(frames)] += v
		if isGC(frames) {
			sh.gc += v
		}
		sh.n++
	}
	atValue := false // the line after a separator carries a sample's value
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, traceSep):
			flush()
			frames, atValue = nil, true
		case len(f) == 0:
		case atValue:
			x, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
			if err != nil || len(f) < 2 || !strings.HasSuffix(f[0], "ns") {
				return sh, fmt.Errorf("malformed sample line %q", line)
			}
			v, frames, atValue = x, []string{f[1]}, false
		case frames != nil:
			frames = append(frames, f[0])
		}
	}
	flush()
	if sh.n == 0 {
		return sh, errors.New("the profile holds no samples")
	}
	return sh, nil
}

// bucketOf classifies one stack, leaf first.
func bucketOf(frames []string) string {
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			return rest[:strings.IndexAny(rest+".", "./")]
		}
		// The benchmark's own package is "main" in its binary and
		// repro/bench in its test binary.
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/bench.") {
			return bucketBench
		}
	}
	allRuntime := true
	for _, fn := range frames {
		switch {
		case strings.HasPrefix(fn, "net/http.(*conn)."):
			return "server"
		case strings.HasPrefix(fn, "net/http.(*persistConn)."), strings.HasPrefix(fn, "runtime/pprof."):
			return bucketBench
		case !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "internal/runtime/") &&
			!isRaceRuntime(fn):
			allRuntime = false
		}
	}
	if allRuntime && len(frames) > 0 {
		return bucketRuntime
	}
	return bucketOther
}

// isRaceRuntime reports the race detector's own C and C++ frames (their
// names possibly mangled), which a -race build samples with no Go stack
// above them.
func isRaceRuntime(fn string) bool {
	return strings.Contains(fn, "__tsan") || strings.Contains(fn, "__sanitizer") || strings.HasPrefix(fn, "racecall")
}

var gcFrames = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"}

func isGC(frames []string) bool {
	for _, fn := range frames {
		for _, p := range gcFrames {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}
