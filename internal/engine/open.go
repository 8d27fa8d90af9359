package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// StateFile is the store file a state directory holds: OpenStateDir(dir)
// opens dir/StateFile, exactly the store the spec "sqlite:dir/state.cvk"
// names.
const StateFile = "state.cvk"

// OpenStore opens the Store a -store spec names:
//
//	mem:           in-memory, nothing survives the process
//	sqlite:PATH    shared single-file store (SQLiteStore)
//
// An engine over a sqlite: store treats it as shared (see New). Specs of
// the retired backends — dir:PATH, blob:PATH, or a bare path — are refused
// with an error naming the replacement. logf receives corruption warnings;
// nil means the standard logger.
func OpenStore(spec string, logf func(format string, args ...any)) (Store, error) {
	scheme, path, ok := strings.Cut(spec, ":")
	if !ok || strings.ContainsAny(scheme, `/.\`) {
		// "state" or "./st:ate": a path, not a scheme.
		return nil, fmt.Errorf("engine: store spec %q is a bare path; use -statedir %s for a state directory, or sqlite:PATH for a store file", spec, spec)
	}
	switch scheme {
	case "mem":
		if path != "" {
			return nil, fmt.Errorf("engine: mem: store takes no path (got %q)", path)
		}
		return NewMemStore(), nil
	case "sqlite":
		if path == "" {
			return nil, fmt.Errorf("engine: store spec %q has an empty path", spec)
		}
		s, err := OpenSQLiteStore(path, logf)
		if err != nil {
			return nil, err
		}
		return s, nil
	case "dir", "blob":
		return nil, fmt.Errorf("engine: the %s: store was removed; use -statedir %s for a single-owner state directory, or sqlite:PATH for a shared store", scheme, path)
	default:
		return nil, fmt.Errorf("engine: unknown store scheme %q (want mem: or sqlite:PATH)", scheme)
	}
}

// OpenStateDir opens the state directory dir — the store file
// dir/StateFile, creating dir if it is missing. A directory that still
// holds the retired one-file-per-record layout is refused: its state would
// otherwise silently appear empty. With owner set the caller becomes the
// directory's single owner: the store takes the exclusive advisory lock
// dir/.lock, failing at once if another process holds it, and releases it
// on Close. logf receives corruption warnings; nil means the standard
// logger.
func OpenStateDir(dir string, owner bool, logf func(format string, args ...any)) (*SQLiteStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: creating state directory: %w", err)
	}
	for _, sub := range []string{"campaigns", "results", "jobs"} {
		if _, err := os.Stat(filepath.Join(dir, sub)); err == nil {
			return nil, fmt.Errorf("engine: state directory %s holds the retired per-record layout (%s/); this version keeps its state in %s — start from an empty directory", dir, sub, StateFile)
		}
	}
	var lock *os.File
	if owner {
		var err error
		if lock, err = takeDirLock(dir); err != nil {
			return nil, err
		}
	}
	s, err := OpenSQLiteStore(filepath.Join(dir, StateFile), logf)
	if err != nil {
		if lock != nil {
			lock.Close()
		}
		return nil, err
	}
	s.ownerLock = lock
	return s, nil
}

// takeDirLock takes dir/.lock exclusively without blocking: two unaware
// owners of one state directory would race each other's recovery, so the
// serving process locks and a second one refuses to start. The lock dies
// with the process or the returned file.
func takeDirLock(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, ".lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("engine: opening state-directory lock: %w", err)
	}
	ok, err := flockTryExclusive(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("engine: locking state directory %s: %w", dir, err)
	}
	if !ok {
		f.Close()
		return nil, fmt.Errorf("engine: state directory %s is locked by another process (use -store sqlite:%s for concurrent writers)", dir, filepath.Join(dir, StateFile))
	}
	return f, nil
}
