package engine_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/engine/storetest"
)

// The two built-in backends against the one conformance contract. A new
// backend earns its place by adding a subtest here.

func TestMemStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) engine.Store {
		return engine.NewMemStore()
	})
}

func TestSQLiteStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) engine.Store {
		s, err := engine.OpenSQLiteStore(filepath.Join(t.TempDir(), "store.db"), t.Logf)
		if err != nil {
			t.Fatalf("OpenSQLiteStore: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	})
}

// openSQLitePair opens two independent handles onto one store file — the
// two-coordinator topology in miniature.
func openSQLitePair(t *testing.T) (a, b engine.Store) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.db")
	sa, err := engine.OpenSQLiteStore(path, t.Logf)
	if err != nil {
		t.Fatalf("OpenSQLiteStore (a): %v", err)
	}
	t.Cleanup(func() { sa.Close() })
	sb, err := engine.OpenSQLiteStore(path, t.Logf)
	if err != nil {
		t.Fatalf("OpenSQLiteStore (b): %v", err)
	}
	t.Cleanup(func() { sb.Close() })
	return sa, sb
}

func TestSQLiteStoreShared(t *testing.T) {
	storetest.RunShared(t, openSQLitePair)
}

// TestOpenStoreSpecs pins the -store parser: the two backends open — sqlite:
// as the SQLiteStore an engine treats as shared — and every spelling of a
// retired backend — dir:, blob:, a bare path — fails with an error naming
// its replacement.
func TestOpenStoreSpecs(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		spec     string
		sqlite   bool
		wantErrs []string // substrings the error must contain; nil = success
	}{
		{spec: "mem:"},
		{spec: "sqlite:" + filepath.Join(dir, "s.cvk"), sqlite: true},
		{spec: "dir:" + dir, wantErrs: []string{"-statedir " + dir, "sqlite:PATH"}},
		{spec: "blob:" + dir, wantErrs: []string{"-statedir " + dir, "sqlite:PATH"}},
		{spec: dir, wantErrs: []string{"bare path", "-statedir " + dir, "sqlite:PATH"}},
		{spec: "state", wantErrs: []string{"bare path", "-statedir state"}},
		{spec: "./st:ate", wantErrs: []string{"bare path", "-statedir ./st:ate"}},
		{spec: "mem:x", wantErrs: []string{"takes no path"}},
		{spec: "sqlite:", wantErrs: []string{"empty path"}},
		{spec: "nfs:x", wantErrs: []string{"unknown store scheme"}},
	} {
		s, err := engine.OpenStore(tc.spec, t.Logf)
		if tc.wantErrs == nil {
			if err != nil {
				t.Errorf("OpenStore(%q): %v", tc.spec, err)
				continue
			}
			if _, sqlite := s.(*engine.SQLiteStore); sqlite != tc.sqlite {
				t.Errorf("OpenStore(%q) is a SQLiteStore: %v, want %v", tc.spec, sqlite, tc.sqlite)
			}
			s.Close()
			continue
		}
		if err == nil {
			s.Close()
			t.Errorf("OpenStore(%q) succeeded, want an error", tc.spec)
			continue
		}
		for _, want := range tc.wantErrs {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("OpenStore(%q) error %q does not mention %q", tc.spec, err, want)
			}
		}
	}
}

// TestOpenStateDir pins -statedir: it creates the directory, keeps its
// state in the one store file a sqlite: spec would name, and refuses a
// directory still holding the retired per-record layout instead of serving
// it as empty.
func TestOpenStateDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh", "state")
	s, err := engine.OpenStateDir(dir, false, t.Logf)
	if err != nil {
		t.Fatalf("OpenStateDir on a missing directory: %v", err)
	}
	if err := s.PublishJob(fmt.Sprintf("%064x", 1), "writer", campaign.JobResult{Mallocs: 7}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// The same state through the sqlite: spelling.
	viaSpec, err := engine.OpenStore("sqlite:"+filepath.Join(dir, engine.StateFile), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer viaSpec.Close()
	if jr, err := viaSpec.Job(fmt.Sprintf("%064x", 1)); err != nil || jr.Mallocs != 7 {
		t.Fatalf("state written through -statedir not served through sqlite: (%+v, %v)", jr, err)
	}

	for _, sub := range []string{"campaigns", "results", "jobs"} {
		old := t.TempDir()
		if err := os.Mkdir(filepath.Join(old, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if s, err := engine.OpenStateDir(old, false, t.Logf); err == nil {
			s.Close()
			t.Errorf("OpenStateDir accepted a directory holding the old %s/ layout", sub)
		} else if !strings.Contains(err.Error(), "retired") {
			t.Errorf("OpenStateDir on the old %s/ layout: error %q does not say why", sub, err)
		}
	}
}
