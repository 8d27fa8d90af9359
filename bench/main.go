// Command bench is the repository's benchmark: four workloads that between
// them drive every layer of the simulator and its services, each checked for
// correct outputs, reported as end-to-end metrics, and — in a traced run —
// broken down layer by layer. See README.md in this directory.
//
// Usage, from the repository root (bench/run.sh builds the binary first):
//
//	bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//	bench compare PARENT.out... -- CHANGE.out...
//
// Without --workload every workload runs, each in its own child process.
// The last line a single-workload run prints is its JSON result.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"

	"repro/internal/obs"
)

// workloads are the benchmark's workloads. Each one's unit is the piece of
// work a run repeats until its time is up.
var workloads = []workloadDef{
	{
		name:     "figures",
		why:      "the paper evaluation a researcher runs, at quick scale; allocator-bound, so it shows alloc, core and generator gains",
		clients:  1,
		rssUnits: 4,
		setup:    setupFigures,
	},
	{
		name:     "sweep-traffic",
		why:      "a sweep-heavy campaign with the CHERI cache model on; the cache model and sweeps dominate, so it shows sweep and traffic-replay gains",
		clients:  1,
		rssUnits: 6,
		setup:    setupSweep,
	},
	{
		name:     "campaign-service",
		why:      "a coordinator and two workers over one sqlite store; cold campaigns execute and write, warm ones are all cache hits, so server, engine and store costs show",
		clients:  2,
		rssUnits: 600,
		setup:    setupService,
	},
	{
		name:     "live-ingest",
		why:      "CVTR traces streamed into POST /live and reconciled; trace decode and windowed incremental replay through core",
		clients:  2,
		rssUnits: 16,
		setup:    setupLive,
	},
}

const (
	defaultSeed    = 0xC0FFEE
	defaultSeconds = 20
	// buildDir is where run.sh builds and where runs keep scratch state,
	// relative to the repository root.
	buildDir = ".bench_build"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty: all, each in a child process)")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics, with CPU profiles, spans and layers.txt under "+buildDir+"/trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	cfg := config{
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		size:     sizeFull,
		dir:      filepath.Join(buildDir, "tmp"),
		traceDir: filepath.Join(buildDir, "trace"),
	}
	if *name == "" {
		return runAll(cfg, stdout, stderr)
	}
	def, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	runtime.GOMAXPROCS(poolWorkers)
	// Every HTTP request logs at Info; thousands a second would measure
	// the log writer.
	obs.SetLogger(slog.New(slog.DiscardHandler))
	if !runWorkload(stdout, def, cfg).Correct {
		return 1
	}
	return 0
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runAll runs every workload in a fresh child process of this binary,
// echoing each one's report, and fails if any run fails.
func runAll(cfg config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatUint(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(btoi(cfg.traced)))
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		if _, res, err := parseRun(out.Bytes()); runErr != nil || err != nil || !res.Correct {
			fmt.Fprintf(stderr, "bench: workload %s failed (%v)\n", w.name, errors.Join(runErr, err))
			status = 1
		}
	}
	return status
}

// parseRun reads one run's output: the workload named by its header line and
// the JSON result on its last line.
func parseRun(out []byte) (workload string, res result, err error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for _, l := range lines {
		if rest, ok := bytes.CutPrefix(l, []byte("bench: workload=")); ok {
			if f := bytes.Fields(rest); len(f) > 0 {
				workload = string(f[0])
			}
			break
		}
	}
	if workload == "" {
		return "", res, errors.New("no bench header line")
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return "", res, fmt.Errorf("last line is not a result: %w", err)
	}
	return workload, res, nil
}
