package cpu

import (
	"testing"

	"deflection/internal/asm"
	"deflection/internal/enclave"
	"deflection/internal/isa"
	"deflection/internal/policy"
)

// stepLoop returns a loop running body unroll times and then jumping back,
// so that nearly every retired instruction is of body's class.
func stepLoop(unroll int, body ...isa.Inst) []isa.Inst {
	var prog []isa.Inst
	for i := 0; i < unroll; i++ {
		prog = append(prog, body...)
	}
	jmp := isa.Inst{Op: isa.OpJmp}
	n := asm.EncodedLen(&jmp)
	for i := range prog {
		n += asm.EncodedLen(&prog[i])
	}
	jmp.Imm = -int64(n)
	return append(prog, jmp)
}

// BenchmarkStep times Run per instruction class on hand-assembled loops
// that never end: each case runs Run once with b.N instructions of gas, so
// that ns/op, like the ns/inst it reports, is the time per retired
// instruction, linked stretches, fused handlers and the out-of-gas stop
// included. The annotation-template classes lay their templates out as a
// loaded P1-P6 binary holds them. RBX points at the heap, RSI holds the
// address of the loop's first instruction, the flags hold "equal", and the
// SSA marker is armed.
func BenchmarkStep(b *testing.B) {
	heap := isa.Mem(isa.RBX, 64)
	// L: call f; jmp L; f: ret
	call, jmp := isa.Inst{Op: isa.OpCall}, isa.Inst{Op: isa.OpJmp}
	call.Imm = int64(asm.EncodedLen(&jmp))
	jmp.Imm = -int64(asm.EncodedLen(&call) + asm.EncodedLen(&jmp))
	store := isa.Inst{Op: isa.OpMovMR, Src: isa.RAX, Mem: heap}
	layout := benchEnclave(b).Layout
	cases := []struct {
		name string
		prog []isa.Inst
	}{
		{"alu", stepLoop(16, isa.Inst{Op: isa.OpAddRR, Dst: isa.RAX, Src: isa.RCX})},
		{"load", stepLoop(16, isa.Inst{Op: isa.OpMovRM, Dst: isa.RAX, Mem: heap})},
		{"store", stepLoop(16, store)},
		{"push-pop", stepLoop(8, isa.Inst{Op: isa.OpPush, Dst: isa.RAX}, isa.Inst{Op: isa.OpPop, Dst: isa.RCX})},
		{"jcc-taken", stepLoop(16, isa.Inst{Op: isa.OpJcc, Cond: isa.CondE})},
		{"jcc-not-taken", stepLoop(16, isa.Inst{Op: isa.OpJcc, Cond: isa.CondNE})},
		{"call-ret", []isa.Inst{call, jmp, {Op: isa.OpRet}}},
		{"indirect-jmp", []isa.Inst{{Op: isa.OpJmpR, Dst: isa.RSI}}}, // L: jmp rsi
		{"aex-check", stepLoop(4, instance(policy.AEXCheck, isa.Inst{Imm: 8}, layout)...)},
		{"store-guard", stepLoop(4, append(instance(policy.StoreGuard, store, layout), store)...)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			e := benchEnclave(b)
			var text []byte
			for i := range tc.prog {
				text = asm.AppendEncode(text, &tc.prog[i])
			}
			if f := e.Mem.Write(e.Layout.CodeBase, text); f != nil {
				b.Fatal(f)
			}
			if f := e.Mem.Write64(e.Layout.SSAMarkerAddr(), policy.SSAMarkerMagic); f != nil {
				b.Fatal(f)
			}
			c := New(e, Config{Gas: uint64(b.N)})
			c.RIP = e.Layout.CodeBase
			c.Regs[isa.RSP] = e.Layout.StackHi
			c.Regs[isa.RBX] = e.Layout.HeapBase
			c.Regs[isa.RSI] = e.Layout.CodeBase
			c.Regs[isa.RCX] = 3
			c.setCmpFlags(1, 1)
			b.ResetTimer()
			r := c.Run()
			b.StopTimer()
			if r.Status != StatusTrap || r.Trap != isa.TrapOutOfGas || r.Insts != uint64(b.N) {
				b.Fatalf("loop ended before its gas: %v", r)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(r.Insts), "ns/inst")
		})
	}
}

func benchEnclave(b *testing.B) *enclave.Enclave {
	e, err := enclave.New(enclave.DefaultConfig(), []byte("cpu-bench"))
	if err != nil {
		b.Fatal(err)
	}
	return e
}
