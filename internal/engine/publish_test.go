package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// flakyRunner fails each job key's first execution with a job-level error —
// a transient fault, like a trace store that was briefly offline — and
// executes every later attempt in process.
type flakyRunner struct {
	mu    sync.Mutex
	seen  map[string]bool
	calls int
}

func (f *flakyRunner) RunJob(ctx context.Context, key string, spec campaign.Spec, job campaign.Job) (campaign.JobResult, error) {
	f.mu.Lock()
	f.calls++
	first := !f.seen[key]
	f.seen[key] = true
	f.mu.Unlock()
	if first {
		return campaign.JobResult{Job: job, Error: "transient: trace store offline"}, nil
	}
	return (&LocalRunner{}).RunJob(ctx, key, spec, job)
}

// TestFailedJobIsNeverPublished proves a job-level failure is not written
// to the store, on an exclusive and on a shared engine alike: the
// resubmission executes the job again and finishes done, with no cache hit.
func TestFailedJobIsNeverPublished(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func(t *testing.T) Store
	}{
		{"MemStore", func(*testing.T) Store { return NewMemStore() }},
		{"SharedSQLiteStore", func(t *testing.T) Store { return openTestSQLite(t) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runner := &flakyRunner{seen: map[string]bool{}}
			e, err := New(tc.store(t), Options{Runner: runner, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := e.Submit(context.Background(), testSpec(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if first := waitState(t, e, rec.ID); first.State != StateFailed {
				t.Fatalf("first run ended %q, want %q", first.State, StateFailed)
			}
			rec, err = e.Submit(context.Background(), testSpec(), 1)
			if err != nil {
				t.Fatal(err)
			}
			again := waitState(t, e, rec.ID)
			if again.State != StateDone || again.CacheHits != 0 {
				t.Errorf("resubmission ended %q with %d cache hits, want %q with 0 (error %q)", again.State, again.CacheHits, StateDone, again.Error)
			}
			if runner.calls != 2 {
				t.Errorf("runner called %d times, want 2 (the failure, then the re-execution)", runner.calls)
			}
		})
	}
}

// TestStoredFailureHeals seeds a job's key with a failed result, as a
// shared engine that published failures left its store, and proves a
// campaign executes the job instead of serving that failure: it ends done
// with no cache hit, and the store then holds the successful result.
func TestStoredFailureHeals(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func(t *testing.T) Store
	}{
		{"MemStore", func(*testing.T) Store { return NewMemStore() }},
		{"SharedSQLiteStore", func(t *testing.T) Store { return openTestSQLite(t) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := tc.store(t)
			spec := testSpec()
			jobs, err := spec.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			key := JobKey(spec, jobs[0], "")
			if err := store.PublishJob(key, "older-engine", campaign.JobResult{Job: jobs[0], Error: "x"}); err != nil {
				t.Fatal(err)
			}
			e, err := New(store, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := e.Submit(context.Background(), spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := waitState(t, e, rec.ID)
			if got.State != StateDone || got.CacheHits != 0 {
				t.Errorf("campaign ended %q with %d cache hits, want %q with 0 (error %q)", got.State, got.CacheHits, StateDone, got.Error)
			}
			if jr, err := store.Job(key); err != nil || jr.Error != "" {
				t.Errorf("stored result after the campaign: error field %q, read error %v; want a success", jr.Error, err)
			}
		})
	}
}

// scrapeSamples renders reg and parses it back, as a /metrics scrape would.
func scrapeSamples(t *testing.T, reg *obs.Registry) []obs.Sample {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(&b)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// perOp sums the samples named name per op label.
func perOp(samples []obs.Sample, name string) map[string]float64 {
	ops := map[string]float64{}
	for _, s := range samples {
		if s.Name == name {
			ops[s.Labels["op"]] += s.Value
		}
	}
	return ops
}

// TestColdJobStoreWork counts the store work of a 4-job cold campaign on
// one engine: two key hashes per job (the pool's lookup and the lease
// runner), two job reads (the lookup and the double-check under the lease),
// one lease acquire and one publish per job — the same in memory, on a
// shared store and on an owner-locked state directory — and, on the log,
// at most 8 fsyncs from open. An exclusive store takes the leases too, but
// lease records cost no fsync.
func TestColdJobStoreWork(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"MemStore", func(*testing.T) Store { return NewMemStore() }},
		{"SharedSQLite", func(t *testing.T) Store { return openTestSQLite(t) }},
		{"OwnedStateDir", func(t *testing.T) Store {
			s, err := OpenStateDir(t.TempDir(), true, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			reg := obs.NewRegistry()
			e, err := New(s, Options{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			spec := testSpec()
			spec.Seeds = []uint64{1, 2, 3, 4}
			rec, err := e.Submit(context.Background(), spec, 2)
			if err != nil {
				t.Fatal(err)
			}
			if final := waitState(t, e, rec.ID); final.State != StateDone || final.JobsTotal != 4 {
				t.Fatalf("campaign ended %q with %d jobs (error %q)", final.State, final.JobsTotal, final.Error)
			}
			samples := scrapeSamples(t, reg)
			if got := obs.Sum(samples, "cherivoke_engine_jobkeys_total"); got != 8 {
				t.Errorf("jobkeys = %v, want 8", got)
			}
			ops := perOp(samples, "cherivoke_engine_store_seconds_count")
			for op, want := range map[string]float64{"get_job": 8, "put_job": 0, "publish_job": 4, "acquire_lease": 4} {
				if ops[op] != want {
					t.Errorf("store op %s ran %v times, want %v", op, ops[op], want)
				}
			}
			if s, ok := s.(*SQLiteStore); ok && s.Fsyncs() > 8 {
				t.Errorf("%d fsyncs since open, want at most 8", s.Fsyncs())
			}
		})
	}
}

// TestStoreErrorCounterExclusions pins which store errors
// cherivoke_engine_store_errors_total counts, on both backends: a lost
// CreateCampaign race, a refused lease and a missed lookup are the
// protocols working and add nothing, while an invalid record name adds
// exactly one, under its op. Every operation is timed either way.
func TestStoreErrorCounterExclusions(t *testing.T) {
	key := testJobKey(900)
	for _, backend := range []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"MemStore", func(*testing.T) Store { return NewMemStore() }},
		{"SQLiteStore", func(t *testing.T) Store { return openTestSQLite(t) }},
	} {
		for _, tc := range []struct {
			name    string
			op      string
			do      func(s Store) error
			wantErr error // nil: any error
			errs    float64
		}{
			{"LostCAS", "create_campaign", func(s Store) error {
				if err := s.CreateCampaign(Campaign{ID: "c000001", Seq: 1}); err != nil {
					return err
				}
				return s.CreateCampaign(Campaign{ID: "c000001", Seq: 1})
			}, ErrConflict, 0},
			{"HeldLease", "acquire_lease", func(s Store) error {
				if err := s.AcquireJobLease(key, "holder", time.Minute); err != nil {
					return err
				}
				return s.AcquireJobLease(key, "thief", time.Minute)
			}, ErrLeaseHeld, 0},
			{"MissedLookup", "get_job", func(s Store) error { _, err := s.Job(key); return err }, ErrNotFound, 0},
			{"InvalidPutCampaign", "put_campaign", func(s Store) error { return s.PutCampaign(Campaign{ID: "../evil"}) }, nil, 1},
			{"InvalidCreateCampaign", "create_campaign", func(s Store) error { return s.CreateCampaign(Campaign{ID: "UPPER"}) }, nil, 1},
			{"InvalidPutResult", "put_result", func(s Store) error { return s.PutResult("a.b", &campaign.Result{}) }, nil, 1},
			{"InvalidPublishJob", "publish_job", func(s Store) error { return s.PublishJob("a/b", "owner", campaign.JobResult{}) }, nil, 1},
			{"InvalidAcquireLease", "acquire_lease", func(s Store) error { return s.AcquireJobLease("", "owner", time.Minute) }, nil, 1},
			{"InvalidReleaseLease", "release_lease", func(s Store) error { return s.ReleaseJobLease("white space", "owner") }, nil, 1},
			{"InvalidPeekLease", "peek_lease", func(s Store) error { _, _, err := s.PeekJobLease("../evil"); return err }, nil, 1},
		} {
			t.Run(backend.name+"/"+tc.name, func(t *testing.T) {
				s := backend.open(t)
				reg := obs.NewRegistry()
				if _, err := New(s, Options{Metrics: reg}); err != nil {
					t.Fatal(err)
				}
				err := tc.do(s)
				if err == nil || (tc.wantErr != nil && !errors.Is(err, tc.wantErr)) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				samples := scrapeSamples(t, reg)
				if got := obs.Sum(samples, "cherivoke_engine_store_errors_total"); got != tc.errs {
					t.Errorf("store errors = %v in all, want %v", got, tc.errs)
				}
				if got := perOp(samples, "cherivoke_engine_store_errors_total")[tc.op]; got != tc.errs {
					t.Errorf("store errors under op %s = %v, want %v", tc.op, got, tc.errs)
				}
				if got := perOp(samples, "cherivoke_engine_store_seconds_count")[tc.op]; got < 1 {
					t.Errorf("op %s was not timed", tc.op)
				}
			})
		}
	}
}

// recordTrace records a small povray trace into a fresh trace store.
func recordTrace(t *testing.T) (*workload.Store, string) {
	t.Helper()
	sys, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := workload.ByName("povray")
	var buf bytes.Buffer
	w, err := workload.NewBinaryTraceWriter(&buf, workload.TraceHeader{Name: p.Name, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(sys, p, workload.Options{Seed: 1, MaxLiveBytes: 1 << 20, MinSweeps: 1, MaxEvents: 5000, Stream: w}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	store, err := workload.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	info, err := store.Put(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return store, info.Hash
}

// TestResolveExecutesWithItsTraceOpener pins the `campaign -statedir DIR
// -trace FILE` shape: an engine built with a trace opener resolves a
// trace-driven spec against it, for execution as well as for the key.
func TestResolveExecutesWithItsTraceOpener(t *testing.T) {
	traces, hash := recordTrace(t)
	e, err := New(openTestSQLite(t), Options{Traces: traces})
	if err != nil {
		t.Fatal(err)
	}
	spec := campaign.Spec{TraceRef: hash, MaxLive: []uint64{1 << 20}}
	res, stats, err := e.Resolve(context.Background(), spec, ResolveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatalf("trace job failed: %v", err)
	}
	if stats.Jobs != 1 || stats.CacheHits != 0 {
		t.Fatalf("cold resolve: %+v", stats)
	}
}

// TestSQLiteRefusesOversizeRecord proves a write the log could not read
// back is refused before anything is appended: a value one byte over the
// reader's record bound returns an error, leaves the log as it was, and a
// fresh handle agrees with the writer.
func TestSQLiteRefusesOversizeRecord(t *testing.T) {
	defer func(bound uint64) { sqliteMaxRecord = bound }(sqliteMaxRecord)
	sqliteMaxRecord = 1 << 10

	path := filepath.Join(t.TempDir(), "store.db")
	w, err := OpenSQLiteStore(path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c := Campaign{ID: "c000001", Seq: 1, State: StateRunning, Name: "n"}
	overhead := len(mustMarshal(t, c)) - len(c.Name)
	c.Name = strings.Repeat("n", int(sqliteMaxRecord)+1-overhead)
	if n := len(mustMarshal(t, c)); n != int(sqliteMaxRecord)+1 {
		t.Fatalf("test record is %d bytes, want %d", n, sqliteMaxRecord+1)
	}
	size := func() int64 {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := size()
	if err := w.PutCampaign(c); err == nil {
		t.Fatal("a record past the bound was acknowledged")
	}
	if err := w.CreateCampaign(c); err == nil {
		t.Fatal("a created record past the bound was acknowledged")
	}
	if err := w.PublishJob(testJobKey(1), "owner", campaign.JobResult{Error: strings.Repeat("e", int(sqliteMaxRecord))}); err == nil {
		t.Fatal("a job record past the bound was acknowledged")
	}
	if got := size(); got != before {
		t.Errorf("refused writes grew the log from %d to %d bytes", before, got)
	}
	r, err := OpenSQLiteStore(path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for name, s := range map[string]*SQLiteStore{"writer": w, "fresh handle": r} {
		if _, err := s.Campaign(c.ID); err == nil {
			t.Errorf("%s serves the refused campaign", name)
		}
	}
	// A record at the bound still round-trips through both handles.
	c.Name = c.Name[1:]
	if err := w.PutCampaign(c); err != nil {
		t.Fatalf("a record at the bound: %v", err)
	}
	for name, s := range map[string]*SQLiteStore{"writer": w, "fresh handle": r} {
		if got, err := s.Campaign(c.ID); err != nil || got.Name != c.Name {
			t.Errorf("%s: record at the bound not served back (err %v)", name, err)
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
