// Package storetest is the executable conformance contract for
// engine.Store: Run exercises every method — record round-trips,
// canonical-JSON byte identity, MaxSeq orphan counting, conditional-create
// conflicts, and the full job-lease protocol including expiry stealing —
// against any backend. Every backend in the tree runs it, and every future
// backend must: a store that passes Run is safe to put behind an Engine,
// shared topologies included.
package storetest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
)

// Run exercises the full Store contract against the backend open builds.
// open is called once per subtest and must return a fresh, empty store
// (use t.TempDir for disk-backed backends).
func Run(t *testing.T, open func(t *testing.T) engine.Store) {
	t.Helper()
	t.Run("CampaignRoundTrip", func(t *testing.T) { testCampaignRoundTrip(t, open(t)) })
	t.Run("CampaignOverwrite", func(t *testing.T) { testCampaignOverwrite(t, open(t)) })
	t.Run("CreateConflict", func(t *testing.T) { testCreateConflict(t, open(t)) })
	t.Run("ResultRoundTrip", func(t *testing.T) { testResultRoundTrip(t, open(t)) })
	t.Run("JobRoundTrip", func(t *testing.T) { testJobRoundTrip(t, open(t)) })
	t.Run("InvalidNames", func(t *testing.T) { testInvalidNames(t, open(t)) })
	t.Run("MaxSeq", func(t *testing.T) { testMaxSeq(t, open(t)) })
	t.Run("LeaseExclusive", func(t *testing.T) { testLeaseExclusive(t, open(t)) })
	t.Run("LeaseExpirySteal", func(t *testing.T) { testLeaseExpirySteal(t, open(t)) })
	t.Run("LeaseArgs", func(t *testing.T) { testLeaseArgs(t, open(t)) })
	t.Run("LeaseOneWinner", func(t *testing.T) { testLeaseOneWinner(t, open(t)) })
	t.Run("ConcurrentWriters", func(t *testing.T) { testConcurrentWriters(t, open(t)) })
	t.Run("InterleavedLeasePuts", func(t *testing.T) { testInterleavedLeasePuts(t, open(t)) })
	t.Run("PublishJob", func(t *testing.T) { testPublishJob(t, open(t)) })
	t.Run("PeekJobLease", func(t *testing.T) { testPeekJobLease(t, open(t)) })
	t.Run("LeaseChanged", func(t *testing.T) { testLeaseChanged(t, open(t)) })
}

// RunShared exercises the cross-handle contract: open must return two
// independent handles onto the same underlying store (two opens of one
// file). Records acknowledged
// through either handle must be served — byte-identical — through the
// other, and the lease protocol must exclude across handles exactly as it
// does within one.
func RunShared(t *testing.T, open func(t *testing.T) (a, b engine.Store)) {
	t.Helper()
	t.Run("CrossHandleVisibility", func(t *testing.T) { a, b := open(t); testCrossHandleVisibility(t, a, b) })
	t.Run("CrossHandleLease", func(t *testing.T) { a, b := open(t); testCrossHandleLease(t, a, b) })
	t.Run("CrossHandleConcurrent", func(t *testing.T) { a, b := open(t); testCrossHandleConcurrent(t, a, b) })
	t.Run("CrossHandlePublish", func(t *testing.T) { a, b := open(t); testCrossHandlePublish(t, a, b) })
}

// testCampaign builds a distinctive campaign record for sequence seq.
func testCampaign(seq int) engine.Campaign {
	return engine.Campaign{
		ID:        fmt.Sprintf("c%06d", seq),
		Seq:       seq,
		Name:      fmt.Sprintf("conformance-%d", seq),
		Spec:      campaign.Spec{Profiles: []string{"povray"}, MinSweeps: 1, MaxEvents: 1000},
		Workers:   2,
		State:     engine.StateRunning,
		JobsTotal: 3,
		Created:   time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC),
	}
}

// jobKey returns a well-formed 64-hex job key that encodes n.
func jobKey(n int) string {
	return fmt.Sprintf("%064x", 0xfeed0000+n)
}

func testCampaignRoundTrip(t *testing.T, s engine.Store) {
	t.Helper()
	if _, err := s.Campaign("c000001"); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("Campaign on empty store: err = %v, want ErrNotFound", err)
	}
	if recs, err := s.Campaigns(); err != nil || len(recs) != 0 {
		t.Fatalf("Campaigns on empty store = %v, %v; want empty, nil", recs, err)
	}
	// Store out of order to prove listing sorts by sequence.
	for _, seq := range []int{3, 1, 2} {
		if err := s.PutCampaign(testCampaign(seq)); err != nil {
			t.Fatalf("PutCampaign(seq %d): %v", seq, err)
		}
	}
	got, err := s.Campaign("c000002")
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if want := testCampaign(2); !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Errorf("Campaign round-trip mismatch:\n got %s\nwant %s", mustJSON(t, got), mustJSON(t, want))
	}
	recs, err := s.Campaigns()
	if err != nil {
		t.Fatalf("Campaigns: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("Campaigns returned %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != i+1 {
			t.Errorf("Campaigns[%d].Seq = %d, want %d (sorted by sequence)", i, rec.Seq, i+1)
		}
	}
}

func testCampaignOverwrite(t *testing.T, s engine.Store) {
	t.Helper()
	rec := testCampaign(1)
	if err := s.PutCampaign(rec); err != nil {
		t.Fatalf("PutCampaign: %v", err)
	}
	rec.State = engine.StateDone
	rec.JobsDone = rec.JobsTotal
	if err := s.PutCampaign(rec); err != nil {
		t.Fatalf("PutCampaign (overwrite): %v", err)
	}
	got, err := s.Campaign(rec.ID)
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if got.State != engine.StateDone || got.JobsDone != rec.JobsTotal {
		t.Errorf("after overwrite got state %q jobs_done %d, want %q %d", got.State, got.JobsDone, engine.StateDone, rec.JobsTotal)
	}
}

func testCreateConflict(t *testing.T, s engine.Store) {
	t.Helper()
	first := testCampaign(7)
	if err := s.CreateCampaign(first); err != nil {
		t.Fatalf("CreateCampaign: %v", err)
	}
	clobber := testCampaign(7)
	clobber.Name = "usurper"
	if err := s.CreateCampaign(clobber); !errors.Is(err, engine.ErrConflict) {
		t.Fatalf("CreateCampaign of existing ID: err = %v, want ErrConflict", err)
	}
	got, err := s.Campaign(first.ID)
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if got.Name != first.Name {
		t.Errorf("lost create overwrote the record: name %q, want %q", got.Name, first.Name)
	}
	// A conflicting ID is not burned: after the existing record is
	// superseded by a plain put, it can still be overwritten.
	if err := s.PutCampaign(clobber); err != nil {
		t.Fatalf("PutCampaign over created record: %v", err)
	}
}

func testResultRoundTrip(t *testing.T, s engine.Store) {
	t.Helper()
	if _, err := s.Result("c000001"); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("Result on empty store: err = %v, want ErrNotFound", err)
	}
	res := &campaign.Result{
		Spec: campaign.Spec{Profiles: []string{"povray", "gcc"}},
		Jobs: []campaign.JobResult{
			{Job: campaign.Job{ID: 0, Profile: "povray", Seed: 42}, AppSeconds: 1.5, Mallocs: 100, Frees: 90},
			{Job: campaign.Job{ID: 1, Profile: "gcc", Seed: 43}, Error: "boom"},
		},
		Summary: campaign.Summary{Jobs: 2, Failed: 1, GeomeanRuntime: 1.07},
	}
	if err := s.PutResult("c000001", res); err != nil {
		t.Fatalf("PutResult: %v", err)
	}
	got, err := s.Result("c000001")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	// The byte-identity contract: a served artifact re-serialises to
	// exactly the bytes the original would.
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, res)) {
		t.Errorf("Result round-trip is not byte-identical:\n got %s\nwant %s", mustJSON(t, got), mustJSON(t, res))
	}
}

func testJobRoundTrip(t *testing.T, s engine.Store) {
	t.Helper()
	key := jobKey(1)
	if _, err := s.Job(key); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("Job on empty store: err = %v, want ErrNotFound", err)
	}
	jr := campaign.JobResult{
		Job:        campaign.Job{ID: 5, Profile: "povray", Fraction: 0.25, Seed: 0xC0FFEE},
		AppSeconds: 2.25,
		Mallocs:    12345,
		Frees:      12000,
		FreedBytes: 1 << 20,
		Scale:      0.5,
	}
	if err := s.PublishJob(key, "writer", jr); err != nil {
		t.Fatalf("PublishJob: %v", err)
	}
	got, err := s.Job(key)
	if err != nil {
		t.Fatalf("Job: %v", err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, jr)) {
		t.Errorf("Job round-trip is not byte-identical:\n got %s\nwant %s", mustJSON(t, got), mustJSON(t, jr))
	}
	if _, err := s.Job(jobKey(2)); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("Job of absent key: err = %v, want ErrNotFound", err)
	}
}

func testInvalidNames(t *testing.T, s engine.Store) {
	t.Helper()
	for _, bad := range []string{"", "../evil", "UPPER", "a.b", "a/b", "white space"} {
		if err := s.PutCampaign(engine.Campaign{ID: bad}); err == nil {
			t.Errorf("PutCampaign(%q) accepted an invalid name", bad)
		}
		if err := s.PublishJob(bad, "writer", campaign.JobResult{}); err == nil {
			t.Errorf("PublishJob(%q) accepted an invalid name", bad)
		}
		if err := s.AcquireJobLease(bad, "owner", time.Second); err == nil {
			t.Errorf("AcquireJobLease(%q) accepted an invalid key", bad)
		}
	}
}

func testMaxSeq(t *testing.T, s engine.Store) {
	t.Helper()
	if n, err := s.MaxSeq(); err != nil || n != 0 {
		t.Fatalf("MaxSeq on empty store = %d, %v; want 0, nil", n, err)
	}
	if err := s.PutCampaign(testCampaign(4)); err != nil {
		t.Fatalf("PutCampaign: %v", err)
	}
	if n, err := s.MaxSeq(); err != nil || n != 4 {
		t.Fatalf("MaxSeq = %d, %v; want 4", n, err)
	}
	// An orphaned result — no campaign record — must still fence its
	// sequence: its artifact exists, so its ID must never be re-minted.
	if err := s.PutResult("c000009", &campaign.Result{}); err != nil {
		t.Fatalf("PutResult: %v", err)
	}
	if n, err := s.MaxSeq(); err != nil || n != 9 {
		t.Fatalf("MaxSeq with orphan result = %d, %v; want 9", n, err)
	}
	// Job keys are content hashes, not sequences, and must not count.
	if err := s.PublishJob(jobKey(3), "writer", campaign.JobResult{}); err != nil {
		t.Fatalf("PublishJob: %v", err)
	}
	if n, err := s.MaxSeq(); err != nil || n != 9 {
		t.Fatalf("MaxSeq after job publish = %d, %v; want 9", n, err)
	}
}

func testLeaseExclusive(t *testing.T, s engine.Store) {
	t.Helper()
	key := jobKey(10)
	if err := s.AcquireJobLease(key, "alpha", time.Minute); err != nil {
		t.Fatalf("AcquireJobLease: %v", err)
	}
	if err := s.AcquireJobLease(key, "beta", time.Minute); !errors.Is(err, engine.ErrLeaseHeld) {
		t.Fatalf("AcquireJobLease by second owner: err = %v, want ErrLeaseHeld", err)
	}
	// The holder renews its own lease freely.
	if err := s.AcquireJobLease(key, "alpha", time.Minute); err != nil {
		t.Fatalf("AcquireJobLease (renew): %v", err)
	}
	// Releasing someone else's lease is a no-op, not a theft.
	if err := s.ReleaseJobLease(key, "beta"); err != nil {
		t.Fatalf("ReleaseJobLease by non-holder: %v", err)
	}
	if err := s.AcquireJobLease(key, "beta", time.Minute); !errors.Is(err, engine.ErrLeaseHeld) {
		t.Fatalf("lease survived a non-holder release: err = %v, want ErrLeaseHeld", err)
	}
	if err := s.ReleaseJobLease(key, "alpha"); err != nil {
		t.Fatalf("ReleaseJobLease: %v", err)
	}
	if err := s.AcquireJobLease(key, "beta", time.Minute); err != nil {
		t.Fatalf("AcquireJobLease after release: %v", err)
	}
	// Leases are per key: an unrelated key is immediately available.
	if err := s.AcquireJobLease(jobKey(11), "gamma", time.Minute); err != nil {
		t.Fatalf("AcquireJobLease of unrelated key: %v", err)
	}
}

func testLeaseExpirySteal(t *testing.T, s engine.Store) {
	t.Helper()
	key := jobKey(12)
	if err := s.AcquireJobLease(key, "alpha", 30*time.Millisecond); err != nil {
		t.Fatalf("AcquireJobLease: %v", err)
	}
	if err := s.AcquireJobLease(key, "beta", time.Minute); !errors.Is(err, engine.ErrLeaseHeld) {
		t.Fatalf("AcquireJobLease before expiry: err = %v, want ErrLeaseHeld", err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := s.AcquireJobLease(key, "beta", time.Minute); err != nil {
		t.Fatalf("AcquireJobLease after expiry (steal): %v", err)
	}
	// The expired former holder cannot release the stolen lease...
	if err := s.ReleaseJobLease(key, "alpha"); err != nil {
		t.Fatalf("ReleaseJobLease by expired owner: %v", err)
	}
	// ...so the thief still holds it.
	if err := s.AcquireJobLease(key, "gamma", time.Minute); !errors.Is(err, engine.ErrLeaseHeld) {
		t.Fatalf("stolen lease did not exclude a third owner: err = %v, want ErrLeaseHeld", err)
	}
}

func testLeaseArgs(t *testing.T, s engine.Store) {
	t.Helper()
	key := jobKey(13)
	if err := s.AcquireJobLease(key, "", time.Minute); err == nil || errors.Is(err, engine.ErrLeaseHeld) {
		t.Errorf("AcquireJobLease with empty owner: err = %v, want a validation error", err)
	}
	if err := s.AcquireJobLease(key, "alpha", 0); err == nil || errors.Is(err, engine.ErrLeaseHeld) {
		t.Errorf("AcquireJobLease with zero ttl: err = %v, want a validation error", err)
	}
	if err := s.AcquireJobLease(key, "alpha", -time.Second); err == nil || errors.Is(err, engine.ErrLeaseHeld) {
		t.Errorf("AcquireJobLease with negative ttl: err = %v, want a validation error", err)
	}
}

func testLeaseOneWinner(t *testing.T, s engine.Store) {
	t.Helper()
	key := jobKey(14)
	const racers = 8
	var wg sync.WaitGroup
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.AcquireJobLease(key, fmt.Sprintf("owner%d", i), time.Minute)
		}(i)
	}
	wg.Wait()
	winners := 0
	for i, err := range errs {
		switch {
		case err == nil:
			winners++
		case errors.Is(err, engine.ErrLeaseHeld):
		default:
			t.Errorf("racer %d: unexpected error %v", i, err)
		}
	}
	if winners != 1 {
		t.Errorf("%d racers won the lease, want exactly 1", winners)
	}
}

// testJR builds a distinctive job result for n — distinct inputs produce
// distinct canonical bytes, so visibility checks cannot pass by accident.
func testJR(n int) campaign.JobResult {
	return campaign.JobResult{
		Job:        campaign.Job{ID: n, Profile: "povray", Seed: uint64(1000 + n)},
		AppSeconds: float64(n) + 0.5,
		Mallocs:    uint64(n * 10),
	}
}

// testConcurrentWriters drives many concurrent mutations — job publishes, campaign
// records, lease traffic — through one handle and then audits that every
// acknowledged record is served back byte-identical. On a group-committing
// backend the writers coalesce into shared batches; the acknowledgement
// contract ("acked records survive") must be indistinguishable from the
// serial store's.
func testConcurrentWriters(t *testing.T, s engine.Store) {
	t.Helper()
	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers*2)
	for i := 0; i < writers; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			errs[2*i] = s.PublishJob(jobKey(100+i), "writer", testJR(i))
		}(i)
		go func(i int) {
			defer wg.Done()
			c := testCampaign(100 + i)
			if err := s.PutCampaign(c); err != nil {
				errs[2*i+1] = err
				return
			}
			// Lease traffic interleaves with the publishes in the same batches.
			if err := s.AcquireJobLease(jobKey(200+i), c.ID, time.Minute); err != nil {
				errs[2*i+1] = err
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	for i := 0; i < writers; i++ {
		jr, err := s.Job(jobKey(100 + i))
		if err != nil {
			t.Fatalf("Job(%d) after acked publish: %v", i, err)
		}
		if want := testJR(i); !bytes.Equal(mustJSON(t, jr), mustJSON(t, want)) {
			t.Errorf("job %d round-trip mismatch after concurrent commit", i)
		}
		if _, err := s.Campaign(testCampaign(100 + i).ID); err != nil {
			t.Errorf("Campaign(%d) after acked put: %v", i, err)
		}
		if err := s.AcquireJobLease(jobKey(200+i), "intruder", time.Minute); !errors.Is(err, engine.ErrLeaseHeld) {
			t.Errorf("lease %d acquired concurrently did not exclude: err = %v", i, err)
		}
	}
}

// testInterleavedLeasePuts interleaves lease hand-offs and job publishes on
// one key and checks the store folds them in operation order: the final
// read serves the last acknowledged publish, and the lease ends with the last
// acquirer. A batching store that reordered records within a batch would
// fail the final-state checks.
func testInterleavedLeasePuts(t *testing.T, s engine.Store) {
	t.Helper()
	key := jobKey(30)
	const rounds = 8
	for i := 0; i < rounds; i++ {
		owner := fmt.Sprintf("owner%d", i)
		if err := s.AcquireJobLease(key, owner, time.Minute); err != nil {
			t.Fatalf("round %d acquire: %v", i, err)
		}
		if err := s.PublishJob(key, "writer", testJR(i)); err != nil {
			t.Fatalf("round %d publish: %v", i, err)
		}
		if i < rounds-1 {
			if err := s.ReleaseJobLease(key, owner); err != nil {
				t.Fatalf("round %d release: %v", i, err)
			}
		}
	}
	got, err := s.Job(key)
	if err != nil {
		t.Fatalf("Job after interleaved rounds: %v", err)
	}
	if want := testJR(rounds - 1); !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Errorf("job did not fold in append order:\n got %s\nwant %s", mustJSON(t, got), mustJSON(t, want))
	}
	// The final round left its lease held; the holder must still be the
	// last acquirer, and no one else.
	if err := s.AcquireJobLease(key, "intruder", time.Minute); !errors.Is(err, engine.ErrLeaseHeld) {
		t.Fatalf("final lease did not survive the interleaving: err = %v", err)
	}
	if err := s.AcquireJobLease(key, fmt.Sprintf("owner%d", rounds-1), time.Minute); err != nil {
		t.Fatalf("final holder cannot renew: %v", err)
	}
}

// testPublishJob exercises the PublishJob contract: publish stores the
// record and releases the caller's lease as one observable step, a
// non-holder's publish still stores the record but leaves the lease alone,
// and an empty owner is rejected.
func testPublishJob(t *testing.T, s engine.Store) {
	t.Helper()
	key := jobKey(40)
	if err := s.AcquireJobLease(key, "alpha", time.Minute); err != nil {
		t.Fatalf("AcquireJobLease: %v", err)
	}
	if err := s.PublishJob(key, "alpha", testJR(1)); err != nil {
		t.Fatalf("PublishJob: %v", err)
	}
	got, err := s.Job(key)
	if err != nil {
		t.Fatalf("Job after publish: %v", err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, testJR(1))) {
		t.Errorf("published job is not byte-identical")
	}
	// The publish released alpha's lease: beta acquires immediately.
	if err := s.AcquireJobLease(key, "beta", time.Minute); err != nil {
		t.Fatalf("lease survived its holder's publish: %v", err)
	}
	// A non-holder's publish stores the record but must not break the
	// live holder's lease.
	key2 := jobKey(41)
	if err := s.AcquireJobLease(key2, "gamma", time.Minute); err != nil {
		t.Fatalf("AcquireJobLease: %v", err)
	}
	if err := s.PublishJob(key2, "stranger", testJR(2)); err != nil {
		t.Fatalf("PublishJob by non-holder: %v", err)
	}
	if _, err := s.Job(key2); err != nil {
		t.Errorf("non-holder publish lost the record: %v", err)
	}
	if err := s.AcquireJobLease(key2, "delta", time.Minute); !errors.Is(err, engine.ErrLeaseHeld) {
		t.Errorf("non-holder publish released gamma's lease: err = %v", err)
	}
	if err := s.PublishJob(jobKey(42), "", testJR(3)); err == nil {
		t.Errorf("PublishJob with empty owner: accepted, want a validation error")
	}
}

// testPeekJobLease exercises the PeekJobLease contract: peeks are
// read-only and report (owner, held) tracking acquire, release, and expiry.
func testPeekJobLease(t *testing.T, s engine.Store) {
	t.Helper()
	key := jobKey(50)
	if owner, held, err := s.PeekJobLease(key); err != nil || held {
		t.Fatalf("PeekJobLease of free key = (%q, %v, %v), want not held", owner, held, err)
	}
	if err := s.AcquireJobLease(key, "alpha", time.Minute); err != nil {
		t.Fatalf("AcquireJobLease: %v", err)
	}
	if owner, held, err := s.PeekJobLease(key); err != nil || !held || owner != "alpha" {
		t.Fatalf("PeekJobLease of held key = (%q, %v, %v), want (alpha, true)", owner, held, err)
	}
	// Peeking must not disturb the lease.
	if err := s.AcquireJobLease(key, "beta", time.Minute); !errors.Is(err, engine.ErrLeaseHeld) {
		t.Fatalf("peek disturbed the lease: err = %v", err)
	}
	if err := s.ReleaseJobLease(key, "alpha"); err != nil {
		t.Fatalf("ReleaseJobLease: %v", err)
	}
	if owner, held, err := s.PeekJobLease(key); err != nil || held {
		t.Fatalf("PeekJobLease after release = (%q, %v, %v), want not held", owner, held, err)
	}
	// An expired lease peeks as free.
	if err := s.AcquireJobLease(key, "gamma", 30*time.Millisecond); err != nil {
		t.Fatalf("AcquireJobLease: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if owner, held, err := s.PeekJobLease(key); err != nil || held {
		t.Fatalf("PeekJobLease after expiry = (%q, %v, %v), want not held", owner, held, err)
	}
	if _, _, err := s.PeekJobLease("../evil"); err == nil {
		t.Errorf("PeekJobLease accepted an invalid key")
	}
}

// testLeaseChanged exercises the LeaseChanged contract: an armed channel
// fires on a release and on a job publish — the two events a blocked
// waiter cares about.
func testLeaseChanged(t *testing.T, s engine.Store) {
	t.Helper()
	key := jobKey(60)
	if err := s.AcquireJobLease(key, "alpha", time.Minute); err != nil {
		t.Fatalf("AcquireJobLease: %v", err)
	}
	wake := s.LeaseChanged()
	if err := s.ReleaseJobLease(key, "alpha"); err != nil {
		t.Fatalf("ReleaseJobLease: %v", err)
	}
	select {
	case <-wake:
	case <-time.After(5 * time.Second):
		t.Fatalf("LeaseChanged channel did not fire on release")
	}
	// Re-arm: a job publish (what a waiter is really waiting for) also
	// fires the channel, even from a publisher not holding the lease.
	wake = s.LeaseChanged()
	if err := s.PublishJob(key, "writer", testJR(9)); err != nil {
		t.Fatalf("PublishJob: %v", err)
	}
	select {
	case <-wake:
	case <-time.After(5 * time.Second):
		t.Fatalf("LeaseChanged channel did not fire on job publish")
	}
}

func testCrossHandleVisibility(t *testing.T, a, b engine.Store) {
	t.Helper()
	// a → b: campaign, job, result.
	if err := a.PutCampaign(testCampaign(1)); err != nil {
		t.Fatalf("a.PutCampaign: %v", err)
	}
	got, err := b.Campaign(testCampaign(1).ID)
	if err != nil {
		t.Fatalf("b.Campaign after a's put: %v", err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, testCampaign(1))) {
		t.Errorf("campaign not byte-identical across handles")
	}
	if err := a.PublishJob(jobKey(1), "writer", testJR(1)); err != nil {
		t.Fatalf("a.PublishJob: %v", err)
	}
	jr, err := b.Job(jobKey(1))
	if err != nil {
		t.Fatalf("b.Job after a's put: %v", err)
	}
	if !bytes.Equal(mustJSON(t, jr), mustJSON(t, testJR(1))) {
		t.Errorf("job not byte-identical across handles")
	}
	// b → a: an update through the second handle must supersede the first
	// handle's view (no stale read from a's in-memory state).
	c := testCampaign(1)
	c.State = engine.StateDone
	if err := b.PutCampaign(c); err != nil {
		t.Fatalf("b.PutCampaign: %v", err)
	}
	got, err = a.Campaign(c.ID)
	if err != nil {
		t.Fatalf("a.Campaign after b's update: %v", err)
	}
	if got.State != engine.StateDone {
		t.Errorf("a served a stale campaign after b's update: state %q", got.State)
	}
	res := &campaign.Result{Summary: campaign.Summary{Jobs: 3}}
	if err := b.PutResult("c000002", res); err != nil {
		t.Fatalf("b.PutResult: %v", err)
	}
	rgot, err := a.Result("c000002")
	if err != nil {
		t.Fatalf("a.Result after b's put: %v", err)
	}
	if !bytes.Equal(mustJSON(t, rgot), mustJSON(t, res)) {
		t.Errorf("result not byte-identical across handles")
	}
	// MaxSeq folds both handles' writes.
	if n, err := a.MaxSeq(); err != nil || n != 2 {
		t.Errorf("a.MaxSeq = %d, %v; want 2", n, err)
	}
}

func testCrossHandleLease(t *testing.T, a, b engine.Store) {
	t.Helper()
	key := jobKey(5)
	if err := a.AcquireJobLease(key, "alpha", time.Minute); err != nil {
		t.Fatalf("a.AcquireJobLease: %v", err)
	}
	if err := b.AcquireJobLease(key, "beta", time.Minute); !errors.Is(err, engine.ErrLeaseHeld) {
		t.Fatalf("b acquired a lease a holds: err = %v, want ErrLeaseHeld", err)
	}
	if owner, held, err := b.PeekJobLease(key); err != nil || !held || owner != "alpha" {
		t.Errorf("b.PeekJobLease = (%q, %v, %v), want (alpha, true)", owner, held, err)
	}
	if err := a.ReleaseJobLease(key, "alpha"); err != nil {
		t.Fatalf("a.ReleaseJobLease: %v", err)
	}
	if err := b.AcquireJobLease(key, "beta", time.Minute); err != nil {
		t.Fatalf("b.AcquireJobLease after a's release: %v", err)
	}
	if err := a.AcquireJobLease(key, "alpha", time.Minute); !errors.Is(err, engine.ErrLeaseHeld) {
		t.Fatalf("a re-acquired b's lease: err = %v, want ErrLeaseHeld", err)
	}
}

func testCrossHandleConcurrent(t *testing.T, a, b engine.Store) {
	t.Helper()
	const each = 12
	var wg sync.WaitGroup
	errs := make([]error, each*2)
	for i := 0; i < each; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			errs[2*i] = a.PublishJob(jobKey(300+i), "writer", testJR(i))
		}(i)
		go func(i int) {
			defer wg.Done()
			errs[2*i+1] = b.PublishJob(jobKey(400+i), "writer", testJR(100+i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	// Every record is visible through BOTH handles — including the one
	// that did not write it.
	for i := 0; i < each; i++ {
		for _, h := range []engine.Store{a, b} {
			if _, err := h.Job(jobKey(300 + i)); err != nil {
				t.Fatalf("job 300+%d invisible through a handle: %v", i, err)
			}
			if _, err := h.Job(jobKey(400 + i)); err != nil {
				t.Fatalf("job 400+%d invisible through a handle: %v", i, err)
			}
		}
	}
}

func testCrossHandlePublish(t *testing.T, a, b engine.Store) {
	t.Helper()
	key := jobKey(7)
	if err := a.AcquireJobLease(key, "alpha", time.Minute); err != nil {
		t.Fatalf("a.AcquireJobLease: %v", err)
	}
	if err := a.PublishJob(key, "alpha", testJR(7)); err != nil {
		t.Fatalf("a.PublishJob: %v", err)
	}
	// The waiter's view through the other handle: result present AND lease
	// free — never one without the other.
	jr, err := b.Job(key)
	if err != nil {
		t.Fatalf("b.Job after a's publish: %v", err)
	}
	if !bytes.Equal(mustJSON(t, jr), mustJSON(t, testJR(7))) {
		t.Errorf("published job not byte-identical across handles")
	}
	if err := b.AcquireJobLease(key, "beta", time.Minute); err != nil {
		t.Fatalf("b could not acquire after a's publish: %v", err)
	}
}

// mustJSON marshals v, failing the test on error.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}
