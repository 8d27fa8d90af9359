//go:build unix

package engine

import (
	"os"
	"syscall"
)

// flockExclusive blocks until an exclusive advisory lock on f is held.
func flockExclusive(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
}

// flockShared blocks until a shared advisory lock on f is held.
func flockShared(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_SH)
}

// flockTryExclusive attempts an exclusive advisory lock on f without
// blocking; it reports whether the lock was acquired.
func flockTryExclusive(f *os.File) (bool, error) {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if err == syscall.EWOULDBLOCK {
		return false, nil
	}
	return err == nil, err
}

// funlock releases any advisory lock held on f.
func funlock(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
}
