package cpu

import (
	"testing"

	"deflection/internal/enclave"
	"deflection/internal/isa"
)

// stepLoop returns a loop running body unroll times and then jumping back,
// so that nearly every retired instruction is of body's class.
func stepLoop(unroll int, body ...isa.Inst) []isa.Inst {
	var prog []isa.Inst
	for i := 0; i < unroll; i++ {
		prog = append(prog, body...)
	}
	jmp := isa.Inst{Op: isa.OpJmp}
	n := isa.EncodedLen(&jmp)
	for i := range prog {
		n += isa.EncodedLen(&prog[i])
	}
	jmp.Imm = -int64(n)
	return append(prog, jmp)
}

// BenchmarkStep times Step per instruction class on hand-assembled loops
// that never end: each b.N step retires one instruction, so ns/op is
// ns/inst. RBX points at the heap, RSI holds the address of the loop's
// first instruction, and the flags hold "equal".
func BenchmarkStep(b *testing.B) {
	heap := isa.Mem(isa.RBX, 64)
	// L: call f; jmp L; f: ret
	call, jmp := isa.Inst{Op: isa.OpCall}, isa.Inst{Op: isa.OpJmp}
	call.Imm = int64(isa.EncodedLen(&jmp))
	jmp.Imm = -int64(isa.EncodedLen(&call) + isa.EncodedLen(&jmp))
	cases := []struct {
		name string
		prog []isa.Inst
	}{
		{"alu", stepLoop(16, isa.Inst{Op: isa.OpAddRR, Dst: isa.RAX, Src: isa.RCX})},
		{"load", stepLoop(16, isa.Inst{Op: isa.OpMovRM, Dst: isa.RAX, Mem: heap})},
		{"store", stepLoop(16, isa.Inst{Op: isa.OpMovMR, Src: isa.RAX, Mem: heap})},
		{"push-pop", stepLoop(8, isa.Inst{Op: isa.OpPush, Dst: isa.RAX}, isa.Inst{Op: isa.OpPop, Dst: isa.RCX})},
		{"jcc-taken", stepLoop(16, isa.Inst{Op: isa.OpJcc, Cond: isa.CondE})},
		{"jcc-not-taken", stepLoop(16, isa.Inst{Op: isa.OpJcc, Cond: isa.CondNE})},
		{"call-ret", []isa.Inst{call, jmp, {Op: isa.OpRet}}},
		{"indirect-jmp", []isa.Inst{{Op: isa.OpJmpR, Dst: isa.RSI}}}, // L: jmp rsi
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			e, err := enclave.New(enclave.DefaultConfig(), []byte("cpu-bench"))
			if err != nil {
				b.Fatal(err)
			}
			var text []byte
			for i := range tc.prog {
				text = isa.AppendEncode(text, &tc.prog[i])
			}
			if f := e.Mem.Write(e.Layout.CodeBase, text); f != nil {
				b.Fatal(f)
			}
			c := New(e, Config{Gas: ^uint64(0)})
			c.RIP = e.Layout.CodeBase
			c.Regs[isa.RSP] = e.Layout.StackHi
			c.Regs[isa.RBX] = e.Layout.HeapBase
			c.Regs[isa.RSI] = e.Layout.CodeBase
			c.Regs[isa.RCX] = 3
			c.setCmpFlags(1, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Step()
			}
			b.StopTimer()
			if r, done := c.Result(); done {
				b.Fatalf("loop ended: %v", r)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/inst")
		})
	}
}
