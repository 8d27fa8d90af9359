package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
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
// Opening a sqlite: store recovers nothing: its running records may be live
// peers' campaigns (see OpenStateDir). Specs of the retired backends —
// dir:PATH, blob:PATH, or a bare path — are refused with an error naming
// the replacement. logf receives corruption warnings; nil means the
// standard logger.
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
// on Close; holding it, the owner recovers the campaigns a dead process
// left running (recoverInterrupted). Without owner nothing is recovered.
// logf receives corruption warnings; nil means the standard logger.
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
	if lock == nil {
		return s, nil
	}
	s.ownerLock = lock
	if err := recoverInterrupted(s); err != nil {
		s.Close() // drops the lock too
		return nil, err
	}
	return s, nil
}

// recoverInterrupted finalises every campaign still marked running, which
// only the store's single owner may do: on a store others write, a running
// record may be a live peer's campaign. A campaign whose Result reached the
// store is finished from it; any other is marked failed. Its cache-hit count
// is lost either way; its jobs' results are not — they were published as
// each job finished and will serve a resubmission without a single
// re-execution.
func recoverInterrupted(store Store) error {
	recs, err := store.Campaigns()
	if err != nil {
		return fmt.Errorf("engine: listing campaigns to recover: %w", err)
	}
	for _, rec := range recs {
		if rec.State != StateRunning {
			continue
		}
		if res, err := store.Result(rec.ID); err == nil {
			rec.finishFrom(res)
		} else {
			rec.State = StateFailed
			rec.Error = "interrupted by restart before completion"
		}
		// The true finish time died with the process; recovery time keeps
		// the "finished is set once terminal" contract.
		rec.Finished = time.Now().UTC()
		if err := store.PutCampaign(rec); err != nil {
			return fmt.Errorf("engine: recovering campaign %s: %w", rec.ID, err)
		}
	}
	return nil
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
