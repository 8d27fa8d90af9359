package cap

import "strings"

// Perm is a set of capability permission bits. The set occupies the 15-bit
// permissions field of the metadata word (Figure 2 of the paper). Permissions
// are monotonic: derivations may clear bits but never set them.
type Perm uint16

// Permission bits, following the CHERI ISA's architectural permissions.
const (
	// PermGlobal marks a capability that may be stored anywhere;
	// non-global ("local") capabilities may only be stored through
	// capabilities bearing PermStoreLocalCap.
	PermGlobal Perm = 1 << iota

	// PermExecute allows the capability to be used as a jump target.
	PermExecute

	// PermLoad allows data loads through the capability.
	PermLoad

	// PermStore allows data stores through the capability.
	PermStore

	// PermLoadCap allows loading valid (tagged) capabilities.
	PermLoadCap

	// PermStoreCap allows storing valid (tagged) capabilities.
	PermStoreCap

	// PermStoreLocalCap allows storing non-global capabilities.
	PermStoreLocalCap

	// PermSeal and PermUnseal authorise sealing and unsealing in the
	// CHERI ISA. This model does not seal capabilities; the bits keep
	// their architectural positions, and allocators clear them.
	PermSeal
	PermUnseal

	// PermSystemRegs allows access to privileged system registers.
	PermSystemRegs

	// permCount is the number of defined permission bits.
	permCount = 10
)

// PermAll is every defined permission bit; the omnipotent root capabilities
// created at machine reset carry it.
const PermAll Perm = 1<<permCount - 1

// PermData is the permission set a bounds-setting allocator grants on
// returned heap capabilities: load and store of both data and capabilities.
const PermData = PermGlobal | PermLoad | PermStore | PermLoadCap | PermStoreCap | PermStoreLocalCap

// Has reports whether every bit in want is present in p.
func (p Perm) Has(want Perm) bool { return p&want == want }

var permNames = []struct {
	bit  Perm
	name string
}{
	{PermGlobal, "G"},
	{PermExecute, "X"},
	{PermLoad, "R"},
	{PermStore, "W"},
	{PermLoadCap, "r"},
	{PermStoreCap, "w"},
	{PermStoreLocalCap, "l"},
	{PermSeal, "S"},
	{PermUnseal, "U"},
	{PermSystemRegs, "$"},
}

// String renders the permission set in a compact fixed-order form, one
// letter per granted bit (e.g. "GRWrw" for PermData without StoreLocal).
func (p Perm) String() string {
	var b strings.Builder
	for _, pn := range permNames {
		if p.Has(pn.bit) {
			b.WriteString(pn.name)
		}
	}
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}
