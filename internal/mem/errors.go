package mem

import (
	"errors"
	"fmt"
)

// Sentinel errors for memory operations.
var (
	// ErrUnmapped reports an access to an address with no mapped page.
	ErrUnmapped = errors.New("mem: address not mapped")

	// ErrAlign reports a misaligned access (words must be 8-byte aligned,
	// capabilities 16-byte, CLoadTags line-aligned, mappings page-aligned).
	ErrAlign = errors.New("mem: misaligned access")

	// ErrOverlap reports a mapping that overlaps an existing one.
	ErrOverlap = errors.New("mem: mapping overlaps existing pages")

	// ErrRange reports a mapping range that wraps around or reaches past
	// the 48-bit virtual address space.
	ErrRange = errors.New("mem: range outside the 48-bit address space")
)

func faultf(err error, format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), err)
}
