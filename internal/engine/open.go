package engine

import (
	"fmt"
	"strings"
	"time"
)

// OpenStore opens the Store a -store spec names:
//
//	"" or mem:     in-memory, nothing survives the process
//	sqlite:PATH    the single-file store (OpenSQLiteStore), which survives
//	               restarts and may be shared by any number of processes
//
// Specs of the retired backends — dir:PATH, blob:PATH, or a bare path —
// are refused with an error naming sqlite:PATH. logf receives corruption
// warnings; nil means the standard logger.
func OpenStore(spec string, logf func(format string, args ...any)) (Store, error) {
	if spec == "" {
		return NewMemStore(), nil
	}
	scheme, path, ok := strings.Cut(spec, ":")
	if !ok || strings.ContainsAny(scheme, `/.\`) {
		// "state" or "./st:ate": a path, not a scheme.
		return nil, fmt.Errorf("engine: store spec %q is a bare path; name a store file as sqlite:PATH", spec)
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
		return nil, fmt.Errorf("engine: the %s: store was removed; name a store file as sqlite:PATH", scheme)
	default:
		return nil, fmt.Errorf("engine: unknown store scheme %q (want mem: or sqlite:PATH)", scheme)
	}
}

// recoverInterrupted finalises every campaign still marked running, which
// only a store's lone opener may do: while other handles hold the store, a
// running record may be a live peer's campaign. A campaign whose Result
// reached the store is finished from it; any other is marked failed. Its
// cache-hit count is lost either way; its jobs' results are not — they were
// published as each job finished and will serve a resubmission without a
// single re-execution.
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
