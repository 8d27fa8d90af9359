package cap

import (
	"errors"
	"fmt"
)

// Sentinel errors for capability derivation and use. Callers match them with
// errors.Is; the concrete errors carry contextual detail.
var (
	// ErrTagCleared reports an operation through an untagged capability.
	// A cleared tag is the architectural effect of revocation: the word
	// can never again be used to reference memory.
	ErrTagCleared = errors.New("cap: capability tag is cleared")

	// ErrBounds reports an access outside the capability's [base, top).
	ErrBounds = errors.New("cap: access outside capability bounds")

	// ErrPermission reports an access lacking a required permission bit.
	ErrPermission = errors.New("cap: permission denied")

	// ErrMonotonicity reports an attempted derivation that would widen
	// bounds or add permissions.
	ErrMonotonicity = errors.New("cap: derivation would increase rights")

	// ErrNotRepresentable reports bounds that cannot be encoded exactly
	// and whose rounding would exceed the authorising capability.
	ErrNotRepresentable = errors.New("cap: bounds not representable")
)

// AccessError describes a rejected memory access through a capability. It
// wraps one of the sentinel errors above.
type AccessError struct {
	Op   string // "load", "store", "loadcap", "storecap", ...
	Addr uint64 // the faulting address
	Size uint64 // the access size in bytes
	Cap  Capability
	Err  error // the sentinel cause
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("cap: %s of %d bytes at %#x via %v: %v", e.Op, e.Size, e.Addr, e.Cap, e.Err)
}

// Unwrap returns the sentinel cause, enabling errors.Is matching.
func (e *AccessError) Unwrap() error { return e.Err }
