package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/quarantine"
	"repro/internal/revoke"
	"repro/internal/sim"
	"repro/internal/workload"
)

// traceCmd dispatches the trace subcommand family.
//
//	cherivoke trace record [-quick] [-seed N] [-format binary|ndjson] [-o out] <benchmark>
//	cherivoke trace info <file|->
func traceCmd(args []string) error {
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr, "usage: cherivoke trace record|info ...")
		os.Exit(2)
	}
	switch args[0] {
	case "record":
		return traceRecordCmd(args[1:])
	case "info":
		return traceInfoCmd(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "unknown trace subcommand %q (want record or info)\n", args[0])
		os.Exit(2)
		return nil
	}
}

// traceRecordCmd records one benchmark's workload run as a trace stream.
// Both formats are streamed as the generator runs — nothing is
// materialised, so `trace record | campaign -trace -` pipes a
// run of any length through constant memory.
func traceRecordCmd(args []string) error {
	fs := flag.NewFlagSet("trace record", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced-scale run")
	seed := fs.Uint64("seed", 0, "workload generator seed (0 = default)")
	format := fs.String("format", workload.FormatBinary, "output encoding: binary or ndjson")
	out := fs.String("o", "-", "output file ('-' = stdout)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cherivoke trace record [-quick] [-seed N] [-format binary|ndjson] [-o out] <benchmark>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	if *format != workload.FormatBinary && *format != workload.FormatNDJSON {
		return fmt.Errorf("unknown trace format %q (want binary or ndjson)", *format)
	}
	benchmark := fs.Arg(0)
	p, ok := workload.ByName(benchmark)
	if !ok {
		return fmt.Errorf("unknown benchmark %q (see table2 for names)", benchmark)
	}

	opts := experiments.Default()
	if *quick {
		opts = experiments.Quick()
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	effSeed := opts.Seed
	if effSeed == 0 {
		effSeed = workload.DefaultSeed
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	sys, err := core.New(core.Config{
		Policy: quarantine.Policy{Fraction: opts.Fraction, MinBytes: 64 << 10},
		Revoke: revoke.Config{Kernel: sim.KernelVector, UseCapDirty: true, Launder: true},
	})
	if err != nil {
		return err
	}
	wopts := workload.Options{
		Seed:         opts.Seed,
		MaxLiveBytes: opts.MaxLiveBytes,
		MinSweeps:    opts.MinSweeps,
	}

	hdr := workload.TraceHeader{Name: benchmark, Seed: effSeed}
	var tw workload.TraceWriter
	if *format == workload.FormatBinary {
		tw, err = workload.NewBinaryTraceWriter(w, hdr)
	} else {
		tw, err = workload.NewNDJSONTraceWriter(w, hdr)
	}
	if err != nil {
		return err
	}
	counter := &countingWriter{w: tw}
	wopts.Stream = counter
	res, err := workload.Run(sys, p, wopts)
	if err != nil {
		return err
	}
	if err := tw.Close(); err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "recorded %s: %d events (%d mallocs, %d frees, %d sweeps) -> %s [%s]\n",
		benchmark, counter.n, res.Mallocs, res.Frees, res.Sys.Stats().Sweeps, *out, *format)
	return nil
}

// countingWriter wraps a TraceWriter, counting events for the summary line.
type countingWriter struct {
	w workload.TraceWriter
	n int
}

func (c *countingWriter) WriteEvent(ev workload.TraceEvent) error {
	c.n++
	return c.w.WriteEvent(ev)
}

func (c *countingWriter) Close() error { return c.w.Close() }

// traceInfoCmd streams through a trace file (any encoding), validating it
// and printing its header and event census without materialising it.
func traceInfoCmd(args []string) error {
	fs := flag.NewFlagSet("trace info", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cherivoke trace info <file|->")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	path := fs.Arg(0)

	var r io.Reader = os.Stdin
	var size int64 = -1
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if fi, err := f.Stat(); err == nil {
			size = fi.Size()
		}
		r = f
	}

	h := sha256.New()
	tee := io.TeeReader(r, h)
	tr, err := workload.NewTraceReader(tee)
	if err != nil {
		return err
	}
	hdr := tr.Header()
	var events, mallocs, plants, frees int64
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		events++
		switch ev.Op {
		case workload.EvMalloc:
			mallocs++
		case workload.EvPlant:
			plants++
		case workload.EvFree:
			frees++
		}
	}
	// Drain the rest of the tee'd stream (e.g. trailing whitespace after
	// an NDJSON trace) so the hash covers the whole file and matches the
	// store's content address. Draining r directly would bypass the hash.
	if _, err := io.Copy(io.Discard, tee); err != nil {
		return err
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "format\t%s (version %d)\n", tr.Format(), hdr.Version)
	fmt.Fprintf(w, "name\t%s\n", hdr.Name)
	fmt.Fprintf(w, "seed\t%#x\n", hdr.Seed)
	fmt.Fprintf(w, "events\t%d (%d mallocs, %d plants, %d frees)\n", events, mallocs, plants, frees)
	if size >= 0 {
		fmt.Fprintf(w, "size\t%d bytes\n", size)
	}
	fmt.Fprintf(w, "sha256\t%s\n", hex.EncodeToString(h.Sum(nil)))
	return w.Flush()
}

// fileTraceOpener is the CLI's single-trace campaign.TraceOpener: every
// ref resolves to one spooled file, identified by its content hash.
type fileTraceOpener struct {
	path string
	hash string
}

func (f fileTraceOpener) OpenTrace(string) (workload.TraceReader, string, error) {
	fh, err := os.Open(f.path)
	if err != nil {
		return nil, "", err
	}
	tr, err := workload.NewTraceReader(fh)
	if err != nil {
		fh.Close()
		return nil, "", err
	}
	return tr, f.hash, nil
}

// spoolTrace prepares a -trace argument for concurrent streamed replay:
// stdin is spooled to a temporary file (jobs each need their own pass over
// the stream), a named file is used in place, and either way the content
// hash is computed streaming. cleanup removes the spool file, if any.
func spoolTrace(arg string) (opener fileTraceOpener, cleanup func(), err error) {
	cleanup = func() {}
	h := sha256.New()
	path := arg
	if arg == "-" {
		tmp, err := os.CreateTemp("", "cherivoke-trace-*.spool")
		if err != nil {
			return fileTraceOpener{}, cleanup, err
		}
		path = tmp.Name()
		cleanup = func() { os.Remove(path) }
		_, err = io.Copy(io.MultiWriter(tmp, h), os.Stdin)
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			cleanup()
			return fileTraceOpener{}, func() {}, fmt.Errorf("spooling stdin trace: %w", err)
		}
	} else {
		f, err := os.Open(arg)
		if err != nil {
			return fileTraceOpener{}, cleanup, err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return fileTraceOpener{}, cleanup, err
		}
	}
	return fileTraceOpener{path: path, hash: hex.EncodeToString(h.Sum(nil))}, cleanup, nil
}
