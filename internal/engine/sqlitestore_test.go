package engine_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
)

func openSQLite(t *testing.T, path string) *engine.SQLiteStore {
	t.Helper()
	s, err := engine.OpenSQLiteStore(path, t.Logf)
	if err != nil {
		t.Fatalf("OpenSQLiteStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// recordImage returns the bytes write appends to the log of a fresh store.
func recordImage(tb testing.TB, write func(s *engine.SQLiteStore) error) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "image.db")
	s, err := engine.OpenSQLiteStore(path, tb.Logf)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	before, err := os.Stat(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := write(s); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b[before.Size():]
}

// appendBytes appends b to the file at path, as a crash mid-append leaves it.
func appendBytes(tb testing.TB, path string, b []byte) {
	tb.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		tb.Fatal(err)
	}
}

// TestSQLiteStoreCrossHandleVisibility proves two handles on one file — the
// stand-in for two coordinator processes on a shared mount — observe each
// other's writes and exclude each other's leases.
func TestSQLiteStoreCrossHandleVisibility(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	a := openSQLite(t, path)
	b := openSQLite(t, path)

	if err := a.PutCampaign(engine.Campaign{ID: "c000001", Seq: 1, State: engine.StateRunning}); err != nil {
		t.Fatalf("PutCampaign via a: %v", err)
	}
	got, err := b.Campaign("c000001")
	if err != nil {
		t.Fatalf("Campaign via b: %v", err)
	}
	if got.Seq != 1 || got.State != engine.StateRunning {
		t.Errorf("b read %+v, want the record a wrote", got)
	}

	// CAS conflicts cross handles.
	if err := b.CreateCampaign(engine.Campaign{ID: "c000001", Seq: 1}); !errors.Is(err, engine.ErrConflict) {
		t.Errorf("CreateCampaign via b of a's ID: err = %v, want ErrConflict", err)
	}

	// Leases cross handles.
	key := strings.Repeat("ab", 32)
	if err := a.AcquireJobLease(key, "coordA", time.Minute); err != nil {
		t.Fatalf("AcquireJobLease via a: %v", err)
	}
	if err := b.AcquireJobLease(key, "coordB", time.Minute); !errors.Is(err, engine.ErrLeaseHeld) {
		t.Errorf("AcquireJobLease via b: err = %v, want ErrLeaseHeld", err)
	}
	if err := a.ReleaseJobLease(key, "coordA"); err != nil {
		t.Fatalf("ReleaseJobLease via a: %v", err)
	}
	if err := b.AcquireJobLease(key, "coordB", time.Minute); err != nil {
		t.Errorf("AcquireJobLease via b after a's release: %v", err)
	}

	// Sequence evidence crosses handles too — the recovering-coordinator
	// path.
	if n, err := b.MaxSeq(); err != nil || n != 1 {
		t.Errorf("MaxSeq via b = %d, %v; want 1", n, err)
	}
}

// TestSQLiteStoreTornTailRecovery kills a write mid-record — by appending a
// truncated record image by hand, exactly what a crash mid-append leaves —
// and proves the next open serves every acknowledged record, drops the torn
// tail, and accepts new writes: the WAL-replay contract.
func TestSQLiteStoreTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	s := openSQLite(t, path)
	if err := s.PutCampaign(engine.Campaign{ID: "c000001", Seq: 1, State: engine.StateDone}); err != nil {
		t.Fatalf("PutCampaign: %v", err)
	}
	if err := s.PublishJob(strings.Repeat("cd", 32), "writer", campaign.JobResult{Mallocs: 7}); err != nil {
		t.Fatalf("PublishJob: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The crash: half a record lands after the good tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open for corruption: %v", err)
	}
	if _, err := f.Write([]byte{1, 7, 'c', '0'}); err != nil {
		t.Fatalf("append torn record: %v", err)
	}
	f.Close()

	re := openSQLite(t, path)
	got, err := re.Campaign("c000001")
	if err != nil {
		t.Fatalf("Campaign after torn tail: %v", err)
	}
	if got.State != engine.StateDone {
		t.Errorf("recovered campaign state %q, want %q", got.State, engine.StateDone)
	}
	if jr, err := re.Job(strings.Repeat("cd", 32)); err != nil || jr.Mallocs != 7 {
		t.Errorf("recovered job = %+v, %v; want the acknowledged write", jr, err)
	}
	// The next write truncates the torn tail and the log keeps going.
	if err := re.PutCampaign(engine.Campaign{ID: "c000002", Seq: 2}); err != nil {
		t.Fatalf("PutCampaign after recovery: %v", err)
	}
	recs, err := re.Campaigns()
	if err != nil {
		t.Fatalf("Campaigns: %v", err)
	}
	if len(recs) != 2 {
		t.Errorf("Campaigns after recovery returned %d records, want 2", len(recs))
	}
}

// TestSQLiteStoreReadAfterTornTailRescans proves a handle that read past a
// torn tail does not treat the torn bytes as part of the immutable log: when
// another handle truncates the tail and appends a record of exactly the torn
// length, the file's size is unchanged, and the reader must still rescan and
// serve the new record.
func TestSQLiteStoreReadAfterTornTailRescans(t *testing.T) {
	k1, k2 := strings.Repeat("a1", 32), strings.Repeat("b2", 32)
	jr2 := campaign.JobResult{Mallocs: 2}

	torn := recordImage(t, func(s *engine.SQLiteStore) error { return s.PublishJob(k2, "writer", jr2) })
	torn[len(torn)-1] ^= 0xFF // a crash left the record with a bad checksum

	path := filepath.Join(t.TempDir(), "store.db")
	w := openSQLite(t, path)
	r := openSQLite(t, path)
	if err := w.PublishJob(k1, "writer", campaign.JobResult{Mallocs: 1}); err != nil {
		t.Fatalf("PublishJob: %v", err)
	}
	if _, err := r.Job(k1); err != nil {
		t.Fatalf("Job(k1) via r: %v", err)
	}
	appendBytes(t, path, torn)
	if _, err := r.Job(k2); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("Job(k2) via r over the torn tail: err = %v, want ErrNotFound", err)
	}
	tornSize, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// w truncates the torn tail and appends k2's record in its place.
	if err := w.PublishJob(k2, "writer", jr2); err != nil {
		t.Fatalf("PublishJob(k2) via w: %v", err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != tornSize.Size() {
		t.Fatalf("stat after the rewrite: %v, %v; want the torn size %d", st, err, tornSize.Size())
	}
	for name, s := range map[string]*engine.SQLiteStore{"r": r, "w": w, "fresh": openSQLite(t, path)} {
		if got, err := s.Job(k2); err != nil || got.Mallocs != jr2.Mallocs {
			t.Errorf("Job(k2) via %s: Mallocs %d, err %v; want the record w wrote", name, got.Mallocs, err)
		}
	}
}

// TestSQLiteStoreCorruptChecksumDropped flips a byte inside an acknowledged
// record's value: the checksum catches it and the record — and everything
// after the corruption point — is rolled back rather than served corrupt.
func TestSQLiteStoreCorruptChecksumDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	s := openSQLite(t, path)
	if err := s.PutCampaign(engine.Campaign{ID: "c000001", Seq: 1}); err != nil {
		t.Fatalf("PutCampaign: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := s.PutCampaign(engine.Campaign{ID: "c000002", Seq: 2}); err != nil {
		t.Fatalf("PutCampaign: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Flip one byte inside the second record.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	b[st.Size()+10] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	re := openSQLite(t, path)
	if _, err := re.Campaign("c000001"); err != nil {
		t.Errorf("record before the corruption point lost: %v", err)
	}
	if _, err := re.Campaign("c000002"); !errors.Is(err, engine.ErrNotFound) {
		t.Errorf("corrupted record served: err = %v, want ErrNotFound", err)
	}
}

// TestSQLiteStoreRejectsForeignFiles proves the schema-version header is
// enforced: a file that is not a store, or speaks a different schema, is
// refused at open rather than misread.
func TestSQLiteStoreRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()

	foreign := filepath.Join(dir, "foreign.db")
	if err := os.WriteFile(foreign, []byte("this is not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.OpenSQLiteStore(foreign, t.Logf); err == nil {
		t.Error("OpenSQLiteStore accepted a non-store file")
	}

	future := filepath.Join(dir, "future.db")
	if err := os.WriteFile(future, []byte{'C', 'V', 'K', '1', 99, 0, 0, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.OpenSQLiteStore(future, t.Logf); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("OpenSQLiteStore of a future schema: err = %v, want a schema mismatch", err)
	}
}
