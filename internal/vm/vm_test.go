package vm

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/quarantine"
)

// neverDrain never triggers a sweep, for tests that call Revoke at fixed
// points.
var neverDrain = quarantine.Policy{MinBytes: math.MaxUint64}

func newVM(t *testing.T, cfg core.Config) (*Machine, *core.System) {
	t.Helper()
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(sys), sys
}

func TestBasicAllocStoreLoad(t *testing.T) {
	m, _ := newVM(t, core.Config{})
	prog := []Instr{
		{Op: OpMalloc, Cd: 1, Imm: 64},
		{Op: OpMovXI, Xd: 1, Imm: 0xCAFE},
		{Op: OpStoreW, Ca: 1, Xa: 1, Imm: 8},
		{Op: OpLoadW, Xd: 2, Ca: 1, Imm: 8},
		{Op: OpHalt},
	}
	if err := m.Run(prog, 100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.X(2) != 0xCAFE {
		t.Errorf("x2 = %#x", m.X(2))
	}
	if !m.C(1).Tag() || m.C(1).Len() != 64 {
		t.Errorf("c1 = %v", m.C(1))
	}
}

func TestSpatialFaultTrapsProgram(t *testing.T) {
	m, _ := newVM(t, core.Config{})
	prog := []Instr{
		{Op: OpMalloc, Cd: 1, Imm: 32},
		{Op: OpLoadW, Xd: 1, Ca: 1, Imm: 32}, // one past the end
		{Op: OpHalt},
	}
	err := m.Run(prog, 100)
	var trap *Trap
	if !errors.As(err, &trap) {
		t.Fatalf("want *Trap, got %v", err)
	}
	if trap.PC != 1 || !errors.Is(err, cap.ErrBounds) {
		t.Errorf("trap = %v", trap)
	}
}

// uafProgram allocates, stashes a second pointer in c2, frees through c1,
// then dereferences the stale c2 after Imm-many spray allocations.
func uafProgram() []Instr {
	return []Instr{
		{Op: OpMalloc, Cd: 1, Imm: 64},    // 0: p = malloc
		{Op: OpMovC, Cd: 2, Ca: 1},        // 1: q = p (the bug: alias kept)
		{Op: OpFree, Ca: 1},               // 2: free(p)
		{Op: OpRevoke},                    // 3: (runtime's quarantine-full point)
		{Op: OpMalloc, Cd: 3, Imm: 64},    // 4: attacker reallocation
		{Op: OpMovXI, Xd: 1, Imm: 0xEE71}, // 5: attacker-controlled data
		{Op: OpStoreW, Ca: 3, Xa: 1},      // 6: fill reallocated object
		{Op: OpLoadW, Xd: 2, Ca: 2},       // 7: use-after-free read through q
		{Op: OpHalt},                      // 8
	}
}

func TestUseAfterFreeTrapsUnderCheriVoke(t *testing.T) {
	m, _ := newVM(t, core.Config{
		Policy: quarantine.Policy{Fraction: 0.25, MinBytes: 1},
	})
	err := m.Run(uafProgram(), 100)
	var trap *Trap
	if !errors.As(err, &trap) {
		t.Fatalf("want trap, got %v", err)
	}
	if trap.PC != 7 || !errors.Is(err, cap.ErrTagCleared) {
		t.Errorf("trap = %v; want revoked dereference at pc 7", trap)
	}
}

func TestUseAfterFreeSucceedsInsecurely(t *testing.T) {
	// The same program under the classic allocator silently reads the
	// attacker's reallocated data — the vulnerability CHERIvoke closes.
	m, _ := newVM(t, core.Config{DirectFree: true})
	if err := m.Run(uafProgram(), 100); err != nil {
		t.Fatalf("insecure run should complete: %v", err)
	}
	if m.X(2) != m.X(1) {
		t.Errorf("x2 = %#x, want attacker value %#x (the exploit)", m.X(2), m.X(1))
	}
}

func TestRegisterFileIsSwept(t *testing.T) {
	// A stale capability sitting in ANY register is revoked: the
	// machine's register file is part of the sweep roots.
	m, _ := newVM(t, core.Config{Policy: neverDrain})
	prog := []Instr{
		{Op: OpMalloc, Cd: 5, Imm: 64},
		{Op: OpMovC, Cd: 6, Ca: 5},
		{Op: OpMovC, Cd: 7, Ca: 5},
		{Op: OpFree, Ca: 5},
		{Op: OpRevoke},
		{Op: OpTagX, Xd: 1, Ca: 5},
		{Op: OpTagX, Xd: 2, Ca: 6},
		{Op: OpTagX, Xd: 3, Ca: 7},
		{Op: OpHalt},
	}
	if err := m.Run(prog, 100); err != nil {
		t.Fatal(err)
	}
	if m.X(1) != 0 || m.X(2) != 0 || m.X(3) != 0 {
		t.Errorf("register tags after revoke: %d %d %d, want all 0", m.X(1), m.X(2), m.X(3))
	}
}

func TestHeapPointerChaseIsSwept(t *testing.T) {
	// A linked structure: node A holds a capability to node B; freeing B
	// and revoking must untag the pointer INSIDE A, so the chase traps.
	m, _ := newVM(t, core.Config{Policy: neverDrain})
	prog := []Instr{
		{Op: OpMalloc, Cd: 1, Imm: 64}, // A
		{Op: OpMalloc, Cd: 2, Imm: 64}, // B
		{Op: OpStoreC, Ca: 1, Cb: 2},   // A->next = B
		{Op: OpFree, Ca: 2},            // free(B)
		{Op: OpRevoke},                 //
		{Op: OpLoadC, Cd: 3, Ca: 1},    // q = A->next (untagged now)
		{Op: OpLoadW, Xd: 1, Ca: 3},    // *q: must trap
		{Op: OpHalt},
	}
	err := m.Run(prog, 100)
	var trap *Trap
	if !errors.As(err, &trap) || trap.PC != 6 || !errors.Is(err, cap.ErrTagCleared) {
		t.Fatalf("want ErrTagCleared trap at pc 6, got %v", err)
	}
}

func TestForgeryIsImpossible(t *testing.T) {
	// Overwriting a stored capability with data and loading it back
	// yields an untagged word; dereferencing traps.
	m, _ := newVM(t, core.Config{})
	prog := []Instr{
		{Op: OpMalloc, Cd: 1, Imm: 64},
		{Op: OpMalloc, Cd: 2, Imm: 64},
		{Op: OpStoreC, Ca: 1, Cb: 2}, // store a valid capability
		{Op: OpMovXI, Xd: 1, Imm: 0x41414141},
		{Op: OpStoreW, Ca: 1, Xa: 1}, // smash it with data
		{Op: OpLoadC, Cd: 3, Ca: 1},  // reload: tag must be gone
		{Op: OpLoadW, Xd: 2, Ca: 3},  // deref the forgery: trap
		{Op: OpHalt},
	}
	err := m.Run(prog, 100)
	if !errors.Is(err, cap.ErrTagCleared) {
		t.Fatalf("forged dereference: got %v, want ErrTagCleared", err)
	}
}

func TestDoubleFreeTraps(t *testing.T) {
	m, _ := newVM(t, core.Config{Policy: neverDrain})
	prog := []Instr{
		{Op: OpMalloc, Cd: 1, Imm: 64},
		{Op: OpFree, Ca: 1},
		{Op: OpFree, Ca: 1},
		{Op: OpHalt},
	}
	err := m.Run(prog, 100)
	if !errors.Is(err, core.ErrInvalidFree) {
		t.Fatalf("double free: got %v", err)
	}
}

func TestControlFlowLoop(t *testing.T) {
	// Allocate and free in a loop until the runtime's policy triggers an
	// automatic sweep, then verify the loop count.
	m, sys := newVM(t, core.Config{
		Policy: quarantine.Policy{Fraction: 0.25, MinBytes: 4096},
	})
	prog := []Instr{
		{Op: OpMovXI, Xd: 1, Imm: 0},       // 0: i = 0
		{Op: OpMovXI, Xd: 2, Imm: 32},      // 1: limit
		{Op: OpMalloc, Cd: 1, Imm: 4096},   // 2: p = malloc(4096)
		{Op: OpFree, Ca: 1},                // 3: free(p)
		{Op: OpAddX, Xd: 1, Xa: 1, Imm: 1}, // 4: i++
		{Op: OpBeqX, Xa: 1, Xb: 2, Imm: 7}, // 5: if i == limit goto halt
		{Op: OpJmp, Imm: 2},                // 6: else loop
		{Op: OpHalt},                       // 7
	}
	if err := m.Run(prog, 10000); err != nil {
		t.Fatal(err)
	}
	if m.X(1) != 32 {
		t.Errorf("loop count = %d", m.X(1))
	}
	if sys.Stats().Sweeps == 0 {
		t.Error("policy never triggered during the loop")
	}
}

func TestOutOfBoundsProgramRejected(t *testing.T) {
	m, _ := newVM(t, core.Config{})
	if err := m.Run([]Instr{{Op: OpJmp, Imm: 99}}, 10); !errors.Is(err, ErrBadProgram) {
		t.Errorf("wild jump: got %v", err)
	}
	if err := m.Run([]Instr{{Op: OpMovC, Cd: 99}}, 10); !errors.Is(err, ErrBadProgram) {
		t.Errorf("bad register: got %v", err)
	}
	if err := m.Run([]Instr{{Op: OpJmp, Imm: 0}}, 10); !errors.Is(err, ErrStepLimit) {
		t.Errorf("infinite loop: got %v", err)
	}
}

func TestPermissionDerivationInProgram(t *testing.T) {
	m, _ := newVM(t, core.Config{})
	prog := []Instr{
		{Op: OpMalloc, Cd: 1, Imm: 64},
		{Op: OpClearPerm, Cd: 2, Ca: 1, Imm: uint64(cap.PermStore | cap.PermStoreCap)},
		{Op: OpMovXI, Xd: 1, Imm: 7},
		{Op: OpStoreW, Ca: 2, Xa: 1}, // store via read-only view: trap
		{Op: OpHalt},
	}
	err := m.Run(prog, 100)
	if !errors.Is(err, cap.ErrPermission) {
		t.Fatalf("read-only store: got %v", err)
	}
}

func TestSetBoundsInProgram(t *testing.T) {
	m, _ := newVM(t, core.Config{})
	prog := []Instr{
		{Op: OpMalloc, Cd: 1, Imm: 128},
		{Op: OpMovXI, Xd: 1, Imm: 64},
		{Op: OpIncC, Cd: 2, Ca: 1, Xa: 1},        // c2 = c1 + 64
		{Op: OpSetBounds, Cd: 2, Ca: 2, Imm: 32}, // narrow to [64, 96)
		{Op: OpLoadW, Xd: 2, Ca: 2, Imm: 32},     // out of the narrow bounds
		{Op: OpHalt},
	}
	err := m.Run(prog, 100)
	if !errors.Is(err, cap.ErrBounds) {
		t.Fatalf("narrowed out-of-bounds load: got %v", err)
	}
	if m.C(2).Len() != 32 {
		t.Errorf("narrowed cap: %v", m.C(2))
	}
}

func TestUnmapLargeFaultsInProgram(t *testing.T) {
	// With page-granularity unmapping, a dangling access to a large
	// freed object faults immediately — no sweep needed.
	m, _ := newVM(t, core.Config{Policy: neverDrain, UnmapLarge: true})
	prog := []Instr{
		{Op: OpMalloc, Cd: 1, Imm: 4 * mem.PageSize},
		{Op: OpMovC, Cd: 2, Ca: 1},
		{Op: OpFree, Ca: 1},
		{Op: OpLoadW, Xd: 1, Ca: 2, Imm: mem.PageSize}, // interior page: unmapped
		{Op: OpHalt},
	}
	err := m.Run(prog, 100)
	if !errors.Is(err, mem.ErrUnmapped) {
		t.Fatalf("dangling access to unmapped page: got %v", err)
	}
}
