package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

// faultStore decorates a Store with injectable failures: every operation
// counts globally, and the ops whose 1-based index lands in fail return
// errBrokenDisk without reaching the inner store — the disk dying under the
// Nth write.
type faultStore struct {
	Store
	mu    sync.Mutex
	n     int
	fail  map[int]bool
	calls []string
}

var errBrokenDisk = errors.New("injected: broken disk")

func (f *faultStore) op(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	f.calls = append(f.calls, name)
	if f.fail[f.n] {
		return errBrokenDisk
	}
	return nil
}

func (f *faultStore) PutCampaign(c Campaign) error {
	if err := f.op("put_campaign"); err != nil {
		return err
	}
	return f.Store.PutCampaign(c)
}

func (f *faultStore) CreateCampaign(c Campaign) error {
	if err := f.op("create_campaign"); err != nil {
		return err
	}
	return f.Store.CreateCampaign(c)
}

func (f *faultStore) PutResult(id string, res *campaign.Result) error {
	if err := f.op("put_result"); err != nil {
		return err
	}
	return f.Store.PutResult(id, res)
}

func (f *faultStore) PublishJob(key, owner string, jr campaign.JobResult) error {
	if err := f.op("publish_job"); err != nil {
		return err
	}
	return f.Store.PublishJob(key, owner, jr)
}

func (f *faultStore) MaxSeq() (int, error) {
	if err := f.op("max_seq"); err != nil {
		return 0, err
	}
	return f.Store.MaxSeq()
}

// TestSubmitSurfacesStoreFailure proves a Submit whose record cannot be
// persisted reports ErrStore to the caller, registers nothing, and leaves
// the store able to accept the next submission.
func TestSubmitSurfacesStoreFailure(t *testing.T) {
	// Op 1 is New's MaxSeq scan; op 2 is Submit's CreateCampaign — the
	// write that dies.
	fs := &faultStore{Store: NewMemStore(), fail: map[int]bool{2: true}}
	e, err := New(fs, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Submit(testSpec(), 1); !errors.Is(err, ErrStore) {
		t.Fatalf("Submit over a broken store: err = %v, want ErrStore", err)
	}
	if got := e.List(); len(got) != 0 {
		t.Errorf("failed submission is listed: %v", got)
	}
	// The disk recovered; the engine must too, with a fresh ID.
	rec, err := e.Submit(testSpec(), 1)
	if err != nil {
		t.Fatalf("Submit after recovery: %v", err)
	}
	final := waitState(t, e, rec.ID)
	if final.State != StateDone {
		t.Errorf("campaign state %q, want %q", final.State, StateDone)
	}
}

// TestSubmitConflictIsNotAFailure proves a lost CreateCampaign race — the
// CAS working, another coordinator minted the ID first — resynchronises and
// retries rather than surfacing an error.
func TestSubmitConflictIsNotAFailure(t *testing.T) {
	store := NewMemStore()
	// Another coordinator's records: IDs this engine has never seen and
	// whose sequences are ahead of its own counter.
	for seq := 1; seq <= 3; seq++ {
		if err := store.PutCampaign(Campaign{ID: fmt.Sprintf("c%06d", seq), Seq: seq, State: StateDone}); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(store, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Sabotage: reset the sequence to collide with the existing records.
	e.mu.Lock()
	e.seq = 0
	e.mu.Unlock()
	rec, err := e.Submit(testSpec(), 1)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if rec.Seq <= 3 {
		t.Errorf("minted sequence %d collides with existing records", rec.Seq)
	}
	waitState(t, e, rec.ID)
}

// TestRecoverySurfacesStoreFailure proves New does not swallow a store that
// fails while recovering persisted state.
func TestRecoverySurfacesStoreFailure(t *testing.T) {
	seed := NewMemStore()
	if err := seed.PutCampaign(Campaign{ID: "c000001", Seq: 1, State: StateRunning}); err != nil {
		t.Fatal(err)
	}
	// Op 1 is New's MaxSeq scan (Campaigns is not routed through the
	// decorator); op 2 is the recovery PutCampaign finalising the
	// interrupted record.
	fs := &faultStore{Store: seed, fail: map[int]bool{2: true}}
	if _, err := New(fs, Options{}); !errors.Is(err, errBrokenDisk) {
		t.Fatalf("New over a store failing recovery writes: err = %v, want the store's failure", err)
	}
}

// TestFailedJobPutDoesNotFailTheJob proves a job whose result cannot be
// published still completes its campaign — a store outage costs future
// recomputation, never present results — and that the failed publish
// releases the lease instead of leaving it to its TTL.
func TestFailedJobPutDoesNotFailTheJob(t *testing.T) {
	store := NewMemStore()
	e, err := New(&failingJobStore{Store: store}, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec, err := e.Submit(testSpec(), 1)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitState(t, e, rec.ID)
	if final.State != StateDone {
		t.Errorf("campaign state %q, want %q (job-store outage must not fail jobs)", final.State, StateDone)
	}
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if _, held, _ := store.PeekJobLease(JobKey(testSpec(), jobs[0], "")); held {
		t.Error("a failed publish left the job's lease held")
	}
}

// failingJobStore fails every job write — PublishJob — while leaving the
// rest of the store healthy.
type failingJobStore struct {
	Store
}

func (f *failingJobStore) PublishJob(string, string, campaign.JobResult) error {
	return errBrokenDisk
}

// TestLeaseHeartbeatOutlivesTTL proves a leased execution longer than the
// TTL is not stolen mid-run: the heartbeat renews it.
func TestLeaseHeartbeatOutlivesTTL(t *testing.T) {
	store := NewMemStore()
	m := engineMetrics{}
	slow := runnerFunc(func() time.Duration { return 120 * time.Millisecond })
	lr := &leaseRunner{inner: slow, store: store, owner: "slowpoke", ttl: 40 * time.Millisecond, m: &m}
	done := make(chan error, 1)
	key := emptyJobKey()
	go func() {
		_, err := lr.RunJob(t.Context(), campaign.Spec{}, campaign.Job{})
		done <- err
	}()
	// Give the runner time to take the lease and outlive one TTL.
	time.Sleep(60 * time.Millisecond)
	if err := store.AcquireJobLease(key, "thief", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Errorf("mid-execution lease was stealable: err = %v, want ErrLeaseHeld", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	// After completion the lease is released and the result stored.
	if err := store.AcquireJobLease(key, "thief", time.Minute); err != nil {
		t.Errorf("lease not released after execution: %v", err)
	}
	if _, err := store.Job(key); err != nil {
		t.Errorf("result not published before release: %v", err)
	}
}

// runnerFunc executes nothing for a configurable duration and returns a
// fixed result.
type runnerFunc func() time.Duration

func (r runnerFunc) RunJob(ctx context.Context, key string, spec campaign.Spec, job campaign.Job) (campaign.JobResult, error) {
	time.Sleep(r())
	return campaign.JobResult{Job: job, Mallocs: 1}, nil
}

func testJobKey(n int) string {
	return fmt.Sprintf("%064x", 0xabc0000+n)
}

// emptyJobKey is the key a leaseRunner computes for the zero spec and job —
// the job the lease-protocol tests run.
func emptyJobKey() string { return JobKey(campaign.Spec{}, campaign.Job{}, "") }
