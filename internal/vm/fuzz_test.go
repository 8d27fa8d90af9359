package vm

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/quarantine"
)

// TestQuickRandomProgramsNeverPanic runs random instruction streams and
// requires that the machine always terminates with a classified outcome —
// clean halt, architectural trap, or VM-usage error — and that the runtime
// underneath stays consistent. This is the "adversarial program" half of
// the paper's threat model: nothing a program does may corrupt the
// temporal-safety machinery.
func TestQuickRandomProgramsNeverPanic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sys, err := core.New(core.Config{
			Policy: quarantine.Policy{Fraction: 0.25, MinBytes: 4096},
		})
		if err != nil {
			return false
		}
		m := New(sys)
		prog := make([]Instr, 1+r.Intn(40))
		for i := range prog {
			prog[i] = Instr{
				Op: Op(r.Intn(int(OpBeqX) + 1)),
				Cd: r.Intn(NumRegs), Ca: r.Intn(NumRegs), Cb: r.Intn(NumRegs),
				Xd: r.Intn(NumRegs), Xa: r.Intn(NumRegs), Xb: r.Intn(NumRegs),
				Imm: uint64(r.Intn(4096)),
			}
		}
		err = m.Run(prog, 2000)
		var trap *Trap
		switch {
		case err == nil:
		case errors.As(err, &trap):
		case errors.Is(err, ErrStepLimit), errors.Is(err, ErrBadProgram):
		default:
			t.Logf("seed %d: unclassified error %v", seed, err)
			return false
		}
		// The runtime's invariants survive whatever the program did.
		return sys.Mem().CheckTagInvariant() && sys.Allocator().CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickRandomProgramsNoUseAfterReallocation extends the fuzz to the
// security property: after any random program runs, force a revocation and
// verify no reachable capability addresses recycled memory.
func TestQuickRandomProgramsSweepClean(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sys, err := core.New(core.Config{Policy: neverDrain})
		if err != nil {
			return false
		}
		m := New(sys)
		prog := make([]Instr, 1+r.Intn(60))
		for i := range prog {
			// Bias towards memory traffic.
			ops := []Op{OpMalloc, OpMalloc, OpFree, OpMovC, OpStoreC, OpLoadC, OpStoreW, OpLoadW, OpIncC}
			prog[i] = Instr{
				Op: ops[r.Intn(len(ops))],
				Cd: r.Intn(NumRegs), Ca: r.Intn(NumRegs), Cb: r.Intn(NumRegs),
				Xd: r.Intn(NumRegs), Xa: r.Intn(NumRegs),
				Imm: uint64(r.Intn(256)) &^ 15,
			}
		}
		_ = m.Run(prog, 2000) // traps are fine
		if _, err := sys.Revoke(); err != nil {
			return false
		}
		// Every tagged register must point at live (non-free)
		// memory: its base must be a live allocation or within one.
		for i := 0; i < NumRegs; i++ {
			c := m.C(i)
			if !c.Tag() || c.Len() == 0 {
				continue
			}
			if !liveCovers(sys, c.Base()) {
				t.Logf("seed %d: c%d = %v dangles after sweep", seed, i, c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func liveCovers(sys *core.System, addr uint64) bool {
	found := false
	sys.Allocator().ForEachLive(func(a, size uint64) {
		if addr >= a && addr < a+size {
			found = true
		}
	})
	return found
}

// TestFuzzDataCannotBecomeCapability stores random data words and verifies
// capability-width loads of them never carry a tag.
func TestFuzzDataCannotBecomeCapability(t *testing.T) {
	sys, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := sys.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		off := uint64(r.Intn(4096/16)) * 16
		if err := sys.Mem().StoreWord(buf, buf.Base()+off, r.Uint64()); err != nil {
			t.Fatal(err)
		}
		if err := sys.Mem().StoreWord(buf, buf.Base()+off+8, r.Uint64()); err != nil {
			t.Fatal(err)
		}
		c, err := sys.Mem().LoadCap(buf, buf.Base()+off)
		if err != nil {
			t.Fatal(err)
		}
		if c.Tag() {
			t.Fatalf("random data at +%#x loaded as tagged capability %v", off, c)
		}
		if err := c.CheckAccess("load", c.Addr(), 8, cap.PermLoad); err == nil {
			t.Fatal("forged capability authorised an access")
		}
	}
}
