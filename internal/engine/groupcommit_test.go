package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// openTestSQLite opens a fresh SQLiteStore under t's temp dir.
func openTestSQLite(t *testing.T) *SQLiteStore {
	t.Helper()
	s, err := OpenSQLiteStore(filepath.Join(t.TempDir(), "store.db"), t.Logf)
	if err != nil {
		t.Fatalf("OpenSQLiteStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// queueState reads the group-commit queue under its lock.
func (s *SQLiteStore) queueState() (leading bool, queued int) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.leading, len(s.queue)
}

// waitQueue polls until cond holds over the queue state.
func waitQueue(t *testing.T, s *SQLiteStore, cond func(leading bool, queued int) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if leading, queued := s.queueState(); cond(leading, queued) {
			return
		}
		if time.Now().After(deadline) {
			leading, queued := s.queueState()
			t.Fatalf("queue never reached expected state (leading=%v queued=%d)", leading, queued)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitCoalesces proves the committer folds queued writers into
// shared fsyncs: with the commit path blocked, N-1 writers pile into the
// queue behind a blocked leader, and releasing the block commits all of
// them with two fsyncs total (the leader's first batch of one, then one
// batch of everything that queued meanwhile) — not one fsync per writer.
func TestGroupCommitCoalesces(t *testing.T) {
	s := openTestSQLite(t)
	base := s.Fsyncs()

	// Block the commit path: the leader parks at commitBatch's mutex.
	s.mu.Lock()
	var wg sync.WaitGroup
	errs := make([]error, 16)
	start := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.PublishJob(testJobKey(500+i), "writer", campaign.JobResult{Job: campaign.Job{ID: i}})
		}()
	}
	start(0)
	// The first writer elects itself leader, takes its batch of one, and
	// blocks; only then do the rest enqueue, so the batch split is exact.
	waitQueue(t, s, func(leading bool, queued int) bool { return leading && queued == 0 })
	for i := 1; i < len(errs); i++ {
		start(i)
	}
	waitQueue(t, s, func(leading bool, queued int) bool { return queued == len(errs)-1 })
	s.mu.Unlock()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if got := s.Fsyncs() - base; got != 2 {
		t.Errorf("%d writers committed with %d fsyncs, want exactly 2 (batch of 1 + batch of %d)",
			len(errs), got, len(errs)-1)
	}
	// Every acknowledged record survived the batching.
	for i := range errs {
		if _, err := s.Job(testJobKey(500 + i)); err != nil {
			t.Errorf("job %d lost after batched ack: %v", i, err)
		}
	}
}

// TestGroupCommitNoEarlyAckOnSyncFailure injects an fsync failure and
// proves no writer in the doomed batch is acknowledged: every caller gets
// the batch error, and the store keeps serving (and committing) once the
// disk "recovers". Error-then-visible is allowed; ack-before-durable never.
func TestGroupCommitNoEarlyAckOnSyncFailure(t *testing.T) {
	s := openTestSQLite(t)
	injected := errors.New("injected: device failure at fsync")
	s.mu.Lock()
	s.syncHook = func() error { return injected }
	s.mu.Unlock()

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.PublishJob(testJobKey(600+i), "writer", campaign.JobResult{Job: campaign.Job{ID: i}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("writer %d acknowledged although its batch never reached disk", i)
		}
		if !errors.Is(err, ErrStore) {
			t.Errorf("writer %d: err = %v, want ErrStore", i, err)
		}
	}

	// Disk recovers: the store must still accept and serve writes.
	s.mu.Lock()
	s.syncHook = nil
	s.mu.Unlock()
	if err := s.PublishJob(testJobKey(699), "writer", campaign.JobResult{Job: campaign.Job{ID: 699}}); err != nil {
		t.Fatalf("PublishJob after recovery: %v", err)
	}
	if _, err := s.Job(testJobKey(699)); err != nil {
		t.Fatalf("Job after recovery: %v", err)
	}
}

// TestFailedReadNeverTruncates proves only a torn tail is truncated: when
// a handle's reads fail, as an I/O error on a shared mount makes them, its
// reads and writes fail with ErrStore, the log keeps its length, and every
// record another handle acknowledged survives.
func TestFailedReadNeverTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	a, err := OpenSQLiteStore(path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenSQLiteStore(path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := range 3 {
		if err := a.PublishJob(testJobKey(900+i), "writer", campaign.JobResult{Job: campaign.Job{ID: 900 + i}}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// b's descriptor turns write-only: every ReadAt fails with EBADF, while
	// fstat, flock, WriteAt and Truncate still work.
	b.mu.Lock()
	b.f.Close()
	b.f, err = os.OpenFile(path, os.O_WRONLY, 0)
	b.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Job(testJobKey(900)); !errors.Is(err, ErrStore) {
		t.Errorf("Job through a handle whose reads fail: err = %v, want ErrStore", err)
	}
	if err := b.PutCampaign(Campaign{ID: "c000001", Seq: 1}); !errors.Is(err, ErrStore) {
		t.Errorf("PutCampaign through a handle whose reads fail: err = %v, want ErrStore", err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != before.Size() {
		t.Fatalf("log after the failed write: %v, %v; want its %d bytes untouched", st.Size(), err, before.Size())
	}
	fresh, err := OpenSQLiteStore(path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for i := range 3 {
		if jr, err := fresh.Job(testJobKey(900 + i)); err != nil || jr.Job.ID != 900+i {
			t.Errorf("acknowledged job %d after the failed write: ID %d, err %v", i, jr.Job.ID, err)
		}
	}
}

// TestGroupCommitPerTxnErrors proves a failing transaction inside a batch
// (a lost CAS, a held lease) fails only its own caller: the rest of the
// batch commits, durably.
func TestGroupCommitPerTxnErrors(t *testing.T) {
	s := openTestSQLite(t)
	if err := s.CreateCampaign(Campaign{ID: "c000001", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.AcquireJobLease(testJobKey(700), "holder", time.Minute); err != nil {
		t.Fatal(err)
	}

	// Pile a doomed create, a doomed acquire, and a healthy publish into the
	// same commit window.
	s.mu.Lock()
	var wg sync.WaitGroup
	var createErr, leaseErr, putErr error
	wg.Add(1)
	go func() { defer wg.Done(); createErr = s.CreateCampaign(Campaign{ID: "c000001", Seq: 1}) }()
	waitQueue(t, s, func(leading bool, queued int) bool { return leading })
	wg.Add(2)
	go func() { defer wg.Done(); leaseErr = s.AcquireJobLease(testJobKey(700), "thief", time.Minute) }()
	go func() { defer wg.Done(); putErr = s.PublishJob(testJobKey(701), "writer", campaign.JobResult{}) }()
	waitQueue(t, s, func(leading bool, queued int) bool { return queued >= 2 })
	s.mu.Unlock()
	wg.Wait()

	if !errors.Is(createErr, ErrConflict) {
		t.Errorf("batched CreateCampaign of existing ID: err = %v, want ErrConflict", createErr)
	}
	if !errors.Is(leaseErr, ErrLeaseHeld) {
		t.Errorf("batched acquire of held lease: err = %v, want ErrLeaseHeld", leaseErr)
	}
	if putErr != nil {
		t.Errorf("healthy publish failed alongside doomed batchmates: %v", putErr)
	}
	if _, err := s.Job(testJobKey(701)); err != nil {
		t.Errorf("healthy batchmate's record missing: %v", err)
	}
}

// TestReadCleanSkip proves the reader fast path: with nothing appended
// since the last scan, reads serve the in-memory tables on a bare fstat —
// no flock, no scan — and only a sibling handle's append forces one
// re-scan.
func TestReadCleanSkip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	a, err := OpenSQLiteStore(path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.instrument(obs.NewRegistry())
	if err := a.PublishJob(testJobKey(800), "writer", campaign.JobResult{Job: campaign.Job{ID: 800}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := a.Job(testJobKey(800)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.PeekJobLease(testJobKey(800)); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.rescans.Load(); got != 0 {
		t.Errorf("%d re-scans on an unmoved file, want 0 (clean reads must skip the flock)", got)
	}
	if got := a.cleanReads.Value(); got != 100 {
		t.Errorf("%d clean reads counted, want 100", got)
	}

	// A sibling handle appends: exactly one read pays the scan, the rest
	// ride the refreshed tables.
	b, err := OpenSQLiteStore(path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.PublishJob(testJobKey(801), "writer", campaign.JobResult{Job: campaign.Job{ID: 801}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := a.Job(testJobKey(801)); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.rescans.Load(); got != 1 {
		t.Errorf("%d re-scans after one sibling append, want exactly 1", got)
	}
}

// TestLeaseBackoffSchedule pins the backoff contract: draws stay inside
// [step/2, 3·step/2), the step doubles to a cap of ttl/4, and reset drops
// back to the floor.
func TestLeaseBackoffSchedule(t *testing.T) {
	ttl := time.Second
	b := newLeaseBackoff(ttl)
	step := leaseWaitFloor
	for i := 0; i < 20; i++ {
		w := b.wait()
		if w < step/2 || w >= step/2+step {
			t.Fatalf("draw %d: wait %v outside [%v, %v) for step %v", i, w, step/2, step/2+step, step)
		}
		step *= 2
		if step > ttl/4 {
			step = ttl / 4
		}
	}
	b.reset()
	if w := b.wait(); w >= leaseWaitFloor/2+leaseWaitFloor {
		t.Errorf("wait after reset = %v, want under %v", w, leaseWaitFloor/2+leaseWaitFloor)
	}
}

// TestLeaseBackoffNoLockStep proves two waiters that blocked at the same
// instant do not sleep in lock-step: their jittered schedules diverge, so
// a lease change does not wake a thundering herd onto one acquire.
func TestLeaseBackoffNoLockStep(t *testing.T) {
	a, b := newLeaseBackoff(30*time.Second), newLeaseBackoff(30*time.Second)
	const draws = 16
	same := 0
	for i := 0; i < draws; i++ {
		if a.wait() == b.wait() {
			same++
		}
	}
	// Each draw is uniform over at least a millisecond of nanoseconds;
	// two identical full schedules mean the jitter is broken.
	if same == draws {
		t.Fatalf("two backoff schedules were identical across %d draws — no jitter", draws)
	}
}

// TestLeaseWaiterWakesOnPublish proves the wait loop is event-driven: a
// waiter deep into its backoff (step grown to seconds) returns almost
// immediately when the holder publishes, because the armed LeaseChanged
// channel preempts the timer.
func TestLeaseWaiterWakesOnPublish(t *testing.T) {
	store := NewMemStore()
	key := emptyJobKey()
	if err := store.AcquireJobLease(key, "holder", time.Hour); err != nil {
		t.Fatal(err)
	}
	m := engineMetrics{}
	lr := &leaseRunner{inner: &LocalRunner{}, store: store, owner: "waiter", ttl: time.Hour, m: &m}

	type outcome struct {
		jr  campaign.JobResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		jr, err := lr.RunJob(context.Background(), campaign.Spec{}, campaign.Job{})
		done <- outcome{jr, err}
	}()

	// Let the backoff grow well past the assertion window below: after 2s
	// of doubling from 2ms the pending sleep is on the order of seconds.
	time.Sleep(2 * time.Second)
	want := campaign.JobResult{Job: campaign.Job{ID: 900}, Mallocs: 42}
	if err := store.PublishJob(key, "holder", want); err != nil {
		t.Fatal(err)
	}
	published := time.Now()
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("RunJob: %v", out.err)
		}
		if out.jr.Mallocs != want.Mallocs {
			t.Errorf("waiter got Mallocs %d, want %d (served result)", out.jr.Mallocs, want.Mallocs)
		}
		if since := time.Since(published); since > time.Second {
			t.Errorf("waiter took %v after the publish, want an event-driven wake well under 1s", since)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke after the holder's publish")
	}
}

// TestLeaseWaitRefusalsDoNotFsync proves a blocked waiter is read-only
// against the shared store: refused acquires peek instead of appending, so
// waiting burns zero fsyncs.
func TestLeaseWaitRefusalsDoNotFsync(t *testing.T) {
	s := openTestSQLite(t)
	key := emptyJobKey()
	if err := s.AcquireJobLease(key, "holder", time.Hour); err != nil {
		t.Fatal(err)
	}
	base := s.Fsyncs()
	m := engineMetrics{}
	lr := &leaseRunner{inner: &LocalRunner{}, store: s, owner: "waiter", ttl: time.Hour, m: &m}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := lr.RunJob(ctx, campaign.Spec{}, campaign.Job{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunJob under held lease: err = %v, want deadline", err)
	}
	if got := s.Fsyncs() - base; got != 0 {
		t.Errorf("a read-only wait issued %d fsyncs, want 0", got)
	}
}

// TestLeaseOnlyBatchesSkipFsync proves lease traffic is fsync-free: a
// lease's value is exclusion while processes live (page-cache visible) and
// TTL-steal recovery when they don't, so acquire/renew/release commit with
// the WriteAt alone. Data records in the same window still force the sync.
func TestLeaseOnlyBatchesSkipFsync(t *testing.T) {
	s := openTestSQLite(t)
	base := s.Fsyncs()
	key := testJobKey(950)
	for i := 0; i < 10; i++ {
		if err := s.AcquireJobLease(key, "owner", time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := s.ReleaseJobLease(key, "owner"); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Fsyncs() - base; got != 0 {
		t.Errorf("20 lease-only commits issued %d fsyncs, want 0", got)
	}
	// The records still landed: the lease protocol observed them.
	if err := s.AcquireJobLease(key, "owner2", time.Minute); err != nil {
		t.Fatalf("lease state lost without fsync: %v", err)
	}
	// A data record must still sync.
	if err := s.PublishJob(key, "writer", campaign.JobResult{}); err != nil {
		t.Fatal(err)
	}
	if got := s.Fsyncs() - base; got != 1 {
		t.Errorf("a job publish issued %d fsyncs, want 1", got)
	}
}

// TestEngineFsyncsPerJob is the acceptance measurement: an engine running a
// campaign against a shared SQLite store must spend well under the old
// protocol's ~5 fsyncs per executed job (acquire + put + release + a
// duplicate put + the campaign bookkeeping riding each one). The fsync-free
// lease path and the publish transaction bring it to ~1.25/job measured;
// 5/3 per job plus campaign-lifecycle slack is the ≥3x-reduction line this
// must stay under.
func TestEngineFsyncsPerJob(t *testing.T) {
	s := openTestSQLite(t)
	e, err := New(s, Options{Runner: &LocalRunner{}, LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := testSpec("povray", "xalancbmk")
	// A seeds axis widens the campaign so per-job cost dominates the
	// campaign-lifecycle constant in the measurement.
	spec.Seeds = []uint64{1, 2, 3, 4, 5, 6}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	base := s.Fsyncs()
	rec, err := e.Submit(context.Background(), spec, 2)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitState(t, e, rec.ID)
	if final.State != StateDone {
		t.Fatalf("campaign state %q (error %q), want done", final.State, final.Error)
	}
	got := s.Fsyncs() - base
	// 5/job was the old floor; 5/3 per job is the 3x line. The +6 covers
	// the campaign's own lifecycle records (create, state transitions,
	// result), which don't scale with jobs.
	limit := uint64(len(jobs))*5/3 + 6
	t.Logf("%d fsyncs for %d executed jobs (%.2f/job)", got, len(jobs), float64(got)/float64(len(jobs)))
	if got > limit {
		t.Errorf("%d fsyncs for %d jobs — exceeds the 3x-reduction budget of %d", got, len(jobs), limit)
	}
}

// TestSQLiteRepublishIsFree pins the store's duplicate-publish suppression
// on the worker→coordinator sequence over one store: a worker publishes the
// job it executed (holding no lease), then the coordinator publishes the
// same bytes under its lease. The second publish must append no job record
// and — once the lease is gone — nothing at all, with no fsync.
func TestSQLiteRepublishIsFree(t *testing.T) {
	s := openTestSQLite(t)
	key := testJobKey(903)
	jr := campaign.JobResult{Job: campaign.Job{ID: 903}, Mallocs: 11}
	if err := s.AcquireJobLease(key, "coordinator", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := s.PublishJob(key, "worker", jr); err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		t.Helper()
		fi, err := os.Stat(s.Path())
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	// What a bare lease release appends, measured on a sibling key.
	other := testJobKey(904)
	if err := s.AcquireJobLease(other, "coordinator", time.Minute); err != nil {
		t.Fatal(err)
	}
	size0 := size()
	if err := s.ReleaseJobLease(other, "coordinator"); err != nil {
		t.Fatal(err)
	}
	release := size() - size0

	size0 = size()
	if err := s.PublishJob(key, "coordinator", jr); err != nil {
		t.Fatal(err)
	}
	if _, held, err := s.PeekJobLease(key); err != nil || held {
		t.Fatalf("the holder's publish left its lease held (err %v)", err)
	}
	if grown := size() - size0; grown != release {
		t.Errorf("a duplicate publish grew the log by %d bytes, want only the %d-byte lease release", grown, release)
	}
	size1, fsyncs1 := size(), s.Fsyncs()
	if err := s.PublishJob(key, "worker", jr); err != nil {
		t.Fatal(err)
	}
	if got := size(); got != size1 {
		t.Errorf("a duplicate publish with no lease to release grew the log from %d to %d bytes", size1, got)
	}
	if got := s.Fsyncs(); got != fsyncs1 {
		t.Errorf("a duplicate publish issued %d fsyncs, want 0", got-fsyncs1)
	}
	// Different bytes under the same key still append.
	jr.Mallocs = 12
	if err := s.PublishJob(key, "worker", jr); err != nil {
		t.Fatal(err)
	}
	if got := size(); got <= size1 {
		t.Errorf("a changed publish left the log at %d bytes, want it to grow past %d", got, size1)
	}
}

// TestSQLiteLeaseChangedCrossTxn proves the committer broadcasts wakeups
// only for batches that actually moved lease-relevant state: a campaign
// put alone must not wake waiters, a release must.
func TestSQLiteLeaseChangedCrossTxn(t *testing.T) {
	s := openTestSQLite(t)
	key := testJobKey(902)
	if err := s.AcquireJobLease(key, "holder", time.Minute); err != nil {
		t.Fatal(err)
	}
	wake := s.LeaseChanged()
	if err := s.PutCampaign(Campaign{ID: "c000077", Seq: 77}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wake:
		t.Fatal("a campaign-only batch woke lease waiters")
	case <-time.After(50 * time.Millisecond):
	}
	if err := s.ReleaseJobLease(key, "holder"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wake:
	case <-time.After(5 * time.Second):
		t.Fatal("a release did not wake lease waiters")
	}
}
