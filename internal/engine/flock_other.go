//go:build !unix

package engine

import "os"

// On platforms without flock(2) the helpers degrade to no-ops: a single
// process stays correct (the stores' own mutexes serialise it), but
// cross-process exclusion is not enforced, and every sqlite: open counts
// as the file's lone opener and recovers it.

// flockExclusive is a no-op on platforms without flock(2).
func flockExclusive(*os.File) error { return nil }

// flockShared is a no-op on platforms without flock(2).
func flockShared(*os.File) error { return nil }

// flockTryExclusive always reports success on platforms without flock(2).
func flockTryExclusive(*os.File) (bool, error) { return true, nil }

// funlock is a no-op on platforms without flock(2).
func funlock(*os.File) error { return nil }
