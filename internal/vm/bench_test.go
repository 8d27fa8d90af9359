package vm

import (
	"testing"

	"repro/internal/core"
	"repro/internal/quarantine"
)

// BenchmarkVMPrograms measures the capability virtual machine executing a
// malloc/free loop that triggers automatic revocations.
func BenchmarkVMPrograms(b *testing.B) {
	prog := []Instr{
		{Op: OpMovXI, Xd: 1, Imm: 0},
		{Op: OpMovXI, Xd: 2, Imm: 256},
		{Op: OpMalloc, Cd: 1, Imm: 2048},
		{Op: OpMovXI, Xd: 3, Imm: 42},
		{Op: OpStoreW, Ca: 1, Xa: 3},
		{Op: OpFree, Ca: 1},
		{Op: OpAddX, Xd: 1, Xa: 1, Imm: 1},
		{Op: OpBeqX, Xa: 1, Xb: 2, Imm: 9},
		{Op: OpJmp, Imm: 2},
		{Op: OpHalt},
	}
	for i := 0; i < b.N; i++ {
		sys, err := core.New(core.Config{
			Policy: quarantine.Policy{Fraction: 0.25, MinBytes: 64 << 10},
		})
		if err != nil {
			b.Fatal(err)
		}
		m := New(sys)
		if err := m.Run(prog, 1<<20); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.Steps()), "instrs/op")
	}
}
