package engine

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
)

// countingRunner counts the executions that actually happen beneath the
// lease protocol.
type countingRunner struct {
	inner Runner
	execs atomic.Int64
}

func (c *countingRunner) RunJob(ctx context.Context, key string, spec campaign.Spec, job campaign.Job) (campaign.JobResult, error) {
	c.execs.Add(1)
	return c.inner.RunJob(ctx, key, spec, job)
}

// TestSharedEnginesExecuteEachJobOnce is the lease protocol's concurrency proof:
// two engines — two in-process coordinators — share one SQLite store, race
// the same campaign, and between them execute every job exactly once, with
// byte-identical artifacts and distinct CAS-minted IDs.
func TestSharedEnginesExecuteEachJobOnce(t *testing.T) {
	// The subtest names the backend: a shared store is a SQLiteStore opened
	// without its state directory's owner lock, and a MemStore engine is
	// always exclusive.
	t.Run("SQLiteStore", func(t *testing.T) {
		store := openTestSQLite(t)
		counter := &countingRunner{inner: &LocalRunner{}}
		newEngine := func() *Engine {
			e, err := New(store, Options{Runner: counter, LeaseTTL: 5 * time.Second})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			return e
		}
		a, b := newEngine(), newEngine()

		spec := testSpec("povray", "xalancbmk")
		jobs, err := spec.Jobs()
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		recs := make([]Campaign, 2)
		for i, e := range []*Engine{a, b} {
			wg.Add(1)
			go func(i int, e *Engine) {
				defer wg.Done()
				rec, err := e.Submit(context.Background(), spec, 2)
				if err != nil {
					t.Errorf("Submit on engine %d: %v", i, err)
					return
				}
				recs[i] = waitState(t, e, rec.ID)
			}(i, e)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		// Distinct CAS-minted IDs.
		if recs[0].ID == recs[1].ID {
			t.Errorf("both engines minted campaign %s", recs[0].ID)
		}
		for i, rec := range recs {
			if rec.State != StateDone {
				t.Errorf("engine %d campaign state %q, want %q (error: %s)", i, rec.State, StateDone, rec.Error)
			}
		}

		// Zero duplicate executions fleet-wide.
		if got := counter.execs.Load(); got != int64(len(jobs)) {
			t.Errorf("%d executions across both engines, want exactly %d", got, len(jobs))
		}

		// Byte-identical artifacts: each coordinator serves the other's
		// campaign too (shared visibility), and all four reads agree.
		resA, err := a.Result(recs[0].ID)
		if err != nil {
			t.Fatalf("Result: %v", err)
		}
		wantJSON, wantCSV := artifacts(t, resA)
		for _, e := range []*Engine{a, b} {
			for _, rec := range recs {
				res, err := e.Result(rec.ID)
				if err != nil {
					t.Fatalf("Result(%s): %v", rec.ID, err)
				}
				gotJSON, gotCSV := artifacts(t, res)
				if !bytes.Equal(gotJSON, wantJSON) || !bytes.Equal(gotCSV, wantCSV) {
					t.Errorf("artifacts for %s diverge across coordinators", rec.ID)
				}
			}
		}

		// Shared visibility: each engine lists both campaigns.
		for i, e := range []*Engine{a, b} {
			if got := len(e.List()); got != 2 {
				t.Errorf("engine %d lists %d campaigns, want 2", i, got)
			}
			for _, rec := range recs {
				if _, ok := e.Get(rec.ID); !ok {
					t.Errorf("engine %d cannot Get %s", i, rec.ID)
				}
			}
		}
	})
}

// TestLeaseRunnersRaceOneExecution races N leaseRunners on one key and
// proves the protocol's core guarantee directly: one execution, everyone
// gets the result.
func TestLeaseRunnersRaceOneExecution(t *testing.T) {
	store := NewMemStore()
	counter := &countingRunner{inner: runnerFunc(func() time.Duration { return 20 * time.Millisecond })}
	m := engineMetrics{}
	const racers = 6
	var wg sync.WaitGroup
	results := make([]campaign.JobResult, racers)
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lr := &leaseRunner{inner: counter, store: store, owner: leaseOwnerID(), ttl: time.Second, m: &m}
			results[i], errs[i] = lr.RunJob(context.Background(), campaign.Spec{}, campaign.Job{})
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		if results[i].Mallocs != results[0].Mallocs {
			t.Errorf("racer %d got a different result", i)
		}
	}
	if got := counter.execs.Load(); got != 1 {
		t.Errorf("%d executions, want exactly 1", got)
	}
}

// TestLeaseRunnerStealsFromDeadOwner proves a crashed holder's lease blocks
// only until its TTL, after which a sibling steals it and the job runs.
func TestLeaseRunnerStealsFromDeadOwner(t *testing.T) {
	store := NewMemStore()
	spec := testSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// The dead engine: held the lease, never published, never renews.
	if err := store.AcquireJobLease(JobKey(spec, jobs[0], ""), "deceased", 80*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	counter := &countingRunner{inner: &LocalRunner{}}
	m := engineMetrics{}
	lr := &leaseRunner{inner: counter, store: store, owner: "survivor", ttl: time.Second, m: &m}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := lr.RunJob(ctx, spec, jobs[0]); err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Errorf("steal happened after %v, before the dead lease could expire", waited)
	}
	if got := counter.execs.Load(); got != 1 {
		t.Errorf("%d executions, want 1", got)
	}
}

// TestLeaseRunnerRespectsCancellation proves a runner blocked on a
// sibling's live lease honours context cancellation instead of spinning.
func TestLeaseRunnerRespectsCancellation(t *testing.T) {
	store := NewMemStore()
	if err := store.AcquireJobLease(emptyJobKey(), "holder", time.Hour); err != nil {
		t.Fatal(err)
	}
	m := engineMetrics{}
	lr := &leaseRunner{inner: &LocalRunner{}, store: store, owner: "blocked", ttl: time.Second, m: &m}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := lr.RunJob(ctx, campaign.Spec{}, campaign.Job{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunJob under a held lease: err = %v, want context.Canceled", err)
	}
}
