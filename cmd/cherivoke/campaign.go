package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/server"
)

// serveCmd runs the campaign HTTP service — single-node by default, a
// distributed worker with -worker, a coordinator with -worker-urls or
// -workers-from (see docs/DEPLOYMENT.md).
//
//	cherivoke serve [-addr :8080] [-workers N] [-tracedir dir] [-store mem:|sqlite:path]
//	                [-worker] [-worker-urls url,url] [-workers-from file]
//	                [-auth-token tok] [-worker-inflight N] [-pprof]
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "default campaign worker-pool width (0 = GOMAXPROCS, or the fleet capacity when coordinating)")
	traceDir := fs.String("tracedir", "", "trace-store directory (default: a temporary directory)")
	storeSpec := fs.String("store", "", "state store spec: mem: or sqlite:PATH (default: in-memory); campaigns, artifacts, and job results in a sqlite: file survive restarts, and multiple coordinators and workers may share one path")
	worker := fs.Bool("worker", false, "worker mode: expose the internal job-execution API (POST /internal/jobs)")
	workerURLs := fs.String("worker-urls", "", "coordinator mode: comma-separated worker base URLs to shard campaign jobs across")
	workersFrom := fs.String("workers-from", "", "coordinator mode: file of worker base URLs, one per line ('#' comments)")
	authToken := fs.String("auth-token", "", "bearer token for the internal job API (workers require it, coordinators send it; empty = unauthenticated)")
	workerInflight := fs.Int("worker-inflight", 0, "max jobs dispatched concurrently per worker (0 = 4)")
	pprofFlag := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof (profiling endpoints reveal heap contents; off by default)")
	liveIdle := fs.Duration("live-idle", 0, "idle timeout for live trace ingestion connections (0 = 60s, negative disables)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cherivoke serve [-addr :8080] [-workers N] [-tracedir dir] [-store spec]")
		fmt.Fprintln(os.Stderr, "                       [-worker] [-worker-urls url,url] [-workers-from file] [-auth-token tok] [-worker-inflight N] [-pprof]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	urls, err := workerList(*workerURLs, *workersFrom)
	if err != nil {
		return err
	}
	svc, err := server.New(server.Options{
		Workers:         *workers,
		TraceDir:        *traceDir,
		Store:           *storeSpec,
		Worker:          *worker,
		WorkerURLs:      urls,
		AuthToken:       *authToken,
		WorkerInFlight:  *workerInflight,
		Pprof:           *pprofFlag,
		LiveIdleTimeout: *liveIdle,
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("cherivoke campaign service listening on %s\n", *addr)
	fmt.Printf("  POST /campaigns, GET /campaigns/{id}, GET /campaigns/{id}/results, GET /figures/{name}, POST /traces, GET /healthz\n")
	fmt.Printf("  live ingestion: POST /live (streamed trace), GET /live/{id}/events (SSE)\n")
	fmt.Printf("  observability: GET /metrics (Prometheus text), GET /dashboard (live operations)\n")
	if *pprofFlag {
		fmt.Printf("  profiling: /debug/pprof enabled\n")
	}
	if *storeSpec != "" {
		fmt.Printf("  state store: %s\n", *storeSpec)
	}
	if *worker {
		fmt.Printf("  worker mode: POST /internal/jobs enabled (auth %s)\n", authMode(*authToken))
	}
	if len(urls) > 0 {
		fmt.Printf("  coordinating %d workers: %s\n", len(urls), strings.Join(urls, ", "))
	}
	// SIGINT and SIGTERM stop the listener and return, so the deferred
	// svc.Close runs: it closes the store and removes a temporary trace
	// directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func authMode(token string) string {
	if token == "" {
		return "disabled"
	}
	return "bearer token"
}

// workerList merges the -worker-urls flag and the -workers-from file into
// one worker roster, preserving order (flag entries first). The file format
// is one base URL per line; blank lines and '#' comments are skipped.
func workerList(flagList, fromFile string) ([]string, error) {
	var urls []string
	for _, u := range strings.Split(flagList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if fromFile != "" {
		data, err := os.ReadFile(fromFile)
		if err != nil {
			return nil, fmt.Errorf("reading worker list: %w", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line, _, _ = strings.Cut(line, "#")
			if line = strings.TrimSpace(line); line != "" {
				urls = append(urls, line)
			}
		}
	}
	return urls, nil
}

// campaignCmd runs one campaign locally on the worker pool and writes its
// artifacts.
//
//	cherivoke campaign [-workers N] [-store spec] [-trace file|-] [-o results.json] [-csv results.csv] [spec.json]
//
// Without a spec file it runs the default campaign: every profile under the
// paper-default CHERIvoke configuration. With -trace, every job replays the
// given trace stream ('-' spools stdin to disk first, so `trace record |
// campaign -trace -` never materialises the event sequence in memory).
// Jobs are resolved through an engine over an in-memory store; with
// -store sqlite:PATH, over the persistent job-result store PATH: results
// computed by any earlier run (or by a server sharing the file) are served
// from the store, and artifacts are byte-identical either way.
func campaignCmd(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	workers := fs.Int("workers", 0, "worker-pool width (0 = GOMAXPROCS); never changes results")
	jsonOut := fs.String("o", "", "write the JSON artifact to this file (default: summary only)")
	csvOut := fs.String("csv", "", "write the CSV artifact to this file")
	traceIn := fs.String("trace", "", "replay this trace file ('-' = stdin) instead of generating workloads")
	storeSpec := fs.String("store", "", "job-result store spec: mem: or sqlite:PATH (default: in-memory); a sqlite: file serves previously computed jobs and stores new ones")
	quiet := fs.Bool("q", false, "suppress per-job progress on stderr")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cherivoke campaign [-workers N] [-store spec] [-trace file|-] [-o out.json] [-csv out.csv] [spec.json]")
		fmt.Fprintln(os.Stderr, "runs the default all-profiles campaign when no spec file is given")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	var spec campaign.Spec
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		err = dec.Decode(&spec)
		f.Close()
		if err != nil {
			return fmt.Errorf("parsing spec %s: %w", fs.Arg(0), err)
		}
	}

	var traces campaign.TraceOpener
	if *traceIn != "" {
		opener, cleanup, err := spoolTrace(*traceIn)
		if err != nil {
			return err
		}
		defer cleanup()
		// The spec references the trace by content hash, exactly as a
		// server-side spec would; artifacts record the same hash.
		spec.TraceRef = opener.hash
		traces = opener
	}

	jobs, err := spec.Jobs()
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var onProgress func(campaign.Progress)
	if !*quiet {
		onProgress = func(p campaign.Progress) {
			status := fmt.Sprintf("runtime %.3f", p.Runtime)
			if p.Error != "" {
				status = "ERROR " + p.Error
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] job %d %s/%s: %s\n",
				p.Done, p.Total, p.JobID, p.Profile, p.Variant, status)
		}
	}
	fmt.Fprintf(os.Stderr, "campaign: %d jobs\n", len(jobs))
	start := time.Now()
	// A lone opener of a sqlite: file recovers the campaigns dead
	// processes left running; beside a serving process the open recovers
	// nothing, and the lease protocol lets a CLI run and a fleet resolve
	// the same spec concurrently without duplicating a single job.
	store, err := engine.OpenStore(*storeSpec, nil)
	if err != nil {
		return err
	}
	defer store.Close()
	eng, err := engine.New(store, engine.Options{Traces: traces})
	if err != nil {
		return err
	}
	res, stats, err := eng.Resolve(ctx, spec, engine.ResolveOptions{Workers: *workers, OnProgress: onProgress})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if *jsonOut != "" {
		if err := writeArtifact(*jsonOut, res.WriteJSON); err != nil {
			return err
		}
	}
	if *csvOut != "" {
		if err := writeArtifact(*csvOut, res.WriteCSV); err != nil {
			return err
		}
	}

	s := res.Summary
	fmt.Printf("campaign done: %d jobs (%d failed) in %s\n", s.Jobs, s.Failed, elapsed.Round(time.Millisecond))
	if *storeSpec != "" {
		fmt.Printf("  result store: %d of %d jobs served from cache\n", stats.CacheHits, stats.Jobs)
	}
	fmt.Printf("  geomean runtime %.3f, max %.3f\n", s.GeomeanRuntime, s.MaxRuntime)
	fmt.Printf("  %d sweeps, %d capabilities revoked, %d frees\n", s.TotalSweeps, s.TotalCapsRevoked, s.TotalFrees)
	return res.FirstError()
}

func writeArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
