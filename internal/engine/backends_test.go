package engine_test

import (
	"path/filepath"
	"strings"
	"testing"

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

// TestOpenStoreSpecs pins the -store parser: the two backends open — an
// empty spec as mem: — and every spelling of a retired backend — dir:,
// blob:, a bare path — fails with an error naming its replacement,
// sqlite:PATH, and no retired flag.
func TestOpenStoreSpecs(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		spec     string
		sqlite   bool
		wantErrs []string // substrings the error must contain; nil = success
	}{
		{spec: ""},
		{spec: "mem:"},
		{spec: "sqlite:" + filepath.Join(dir, "s.cvk"), sqlite: true},
		{spec: "dir:" + dir, wantErrs: []string{"removed", "sqlite:PATH"}},
		{spec: "blob:" + dir, wantErrs: []string{"removed", "sqlite:PATH"}},
		{spec: dir, wantErrs: []string{"bare path", "sqlite:PATH"}},
		{spec: "state", wantErrs: []string{"bare path", "sqlite:PATH"}},
		{spec: "./st:ate", wantErrs: []string{"bare path", "sqlite:PATH"}},
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
		if strings.Contains(err.Error(), "-statedir") {
			t.Errorf("OpenStore(%q) error %q names the retired -statedir", tc.spec, err)
		}
	}
}
