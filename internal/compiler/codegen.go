// Package compiler is the untrusted code generator of the DEFLECTION model:
// it compiles the DC language to the virtual ISA and instruments the result
// with security annotations for the selected policies, producing the
// relocatable target binary plus its proof (the indirect-branch target
// list). It corresponds to the paper's customised LLVM toolchain (Fig. 4):
// codegen here plays the backend, and passes.go the assembly-level
// instrumentation passes with their per-policy switches.
package compiler

import (
	"encoding/binary"
	"fmt"
	"math"

	"deflection/internal/asm"
	"deflection/internal/isa"
	"deflection/internal/lang"
	"deflection/internal/obj"
	"deflection/internal/policy"
)

// Options selects which policies to instrument and their parameters.
type Options struct {
	// Policies is the set of policies to enforce via instrumentation
	// (P1..P6; P0 is enclave configuration and has no code footprint).
	Policies policy.Set
	// AEXThreshold is the P6 abort threshold (0 selects the default).
	AEXThreshold int64
	// AEXCheckInterval is q, the max user instructions between SSA marker
	// checks inside a basic block (0 selects the default).
	AEXCheckInterval int
}

func (o *Options) fillDefaults() {
	if o.AEXThreshold == 0 {
		o.AEXThreshold = policy.DefaultAEXThreshold
	}
	if o.AEXCheckInterval == 0 {
		o.AEXCheckInterval = policy.DefaultAEXCheckInterval
	}
}

// Compile builds and instruments the program.
func Compile(src string, opts Options) (*obj.Object, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := lang.Check(prog); err != nil {
		return nil, err
	}
	return Generate(prog, opts)
}

// Generate lowers a checked program to an instrumented object.
func Generate(prog *lang.Program, opts Options) (*obj.Object, error) {
	opts.fillDefaults()
	lang.Fold(prog)
	g := &progGen{
		asm:  asm.NewAssembler(),
		opts: opts,
	}
	if err := g.run(prog); err != nil {
		return nil, err
	}
	g.asm.RewriteFuncs(func(_ string, body []asm.Item) []asm.Item {
		return pruneDeadTail(peephole(body))
	})
	// Drop dclib functions the program never reaches: the verifier's
	// dead-byte pass treats uncovered text bytes as side-loaded code, so the
	// generator must not emit any. Runs before instrument so dead functions
	// are not annotated either.
	g.asm.PruneUnreachable()
	instrument(g.asm, opts)
	// Instrumentation inserts annotations by linear position and may plant
	// one behind an unreferenced label (e.g. a P6 check after the end label
	// of a switch whose arms all return), where it is unreachable.
	g.asm.PruneDeadCode()
	if p := protocolTable(prog.Protocol); p != nil {
		g.asm.SetProtocol(p)
	}
	return g.asm.Assemble(uint16(opts.Policies))
}

// protocolTable lowers a checked protocol declaration to the object-file
// table the verifier's order pass consumes. Indices were resolved by
// lang.Check.
func protocolTable(d *lang.ProtocolDecl) *policy.Protocol {
	if d == nil {
		return nil
	}
	p := &policy.Protocol{Start: 0}
	for _, st := range d.States {
		p.States = append(p.States, policy.State{Name: st.Name, Attested: st.Attested})
	}
	for _, e := range d.Edges {
		p.Edges = append(p.Edges, policy.Edge{
			From:  int64(e.FromIdx),
			Event: e.EventIndex,
			To:    int64(e.ToIdx),
		})
	}
	return p
}

type progGen struct {
	asm  *asm.Assembler
	opts Options
	strN int
}

func (g *progGen) run(prog *lang.Program) error {
	for _, gv := range prog.Globals {
		if err := g.emitGlobal(gv); err != nil {
			return err
		}
	}
	for _, fn := range prog.Funcs {
		fg := &funcGen{pg: g, fn: fn}
		body, err := fg.generate()
		if err != nil {
			return err
		}
		if err := g.asm.AddFunc(fn.Name, body); err != nil {
			return err
		}
		if fn.AddrTaken {
			g.asm.AddBranchTarget(fn.Name)
		}
	}
	// _start: arm the P6 marker and AEX counter, call main, halt with
	// main's return value.
	var start []asm.Item
	if g.opts.Policies.Has(policy.P6) {
		start = annotation(policy.Arming, "_start", isa.Inst{}, "")
	}
	start = append(start,
		asm.BranchItem(isa.Inst{Op: isa.OpCall}, "main"),
		asm.InstItem(isa.Inst{Op: isa.OpHlt}),
	)
	if err := g.asm.AddFunc("_start", start); err != nil {
		return err
	}
	g.asm.SetEntry("_start")
	return nil
}

func (g *progGen) emitGlobal(gv *lang.GlobalVar) error {
	size := gv.Ty.Size()
	if gv.Secret {
		g.asm.AddSecret(gv.Name)
	}
	if !gv.HasInit {
		return g.asm.AddBSS(gv.Name, size)
	}
	buf := make([]byte, size)
	switch {
	case gv.InitStr != "" || (gv.Ty.Kind == lang.KindArray && gv.Ty.Elem.Kind == lang.KindChar && len(gv.InitInts) == 0):
		copy(buf, gv.InitStr)
	case gv.Ty.Kind == lang.KindArray:
		switch gv.Ty.Elem.Kind {
		case lang.KindChar:
			for i, v := range gv.InitInts {
				buf[i] = byte(v)
			}
		case lang.KindFloat:
			for i, v := range gv.InitFlts {
				binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
			}
		default:
			for i, v := range gv.InitInts {
				binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
			}
		}
	case gv.Ty.Kind == lang.KindFloat:
		binary.LittleEndian.PutUint64(buf, math.Float64bits(gv.InitFlts[0]))
	case gv.Ty.Kind == lang.KindChar:
		buf[0] = byte(gv.InitInts[0])
	default:
		binary.LittleEndian.PutUint64(buf, uint64(gv.InitInts[0]))
	}
	return g.asm.AddData(gv.Name, buf)
}

func (g *progGen) internString(s string) (string, error) {
	name := fmt.Sprintf("..str%d", g.strN)
	g.strN++
	return name, g.asm.AddData(name, append([]byte(s), 0))
}

// funcGen generates one function.
type funcGen struct {
	pg *progGen
	fn *lang.FuncDecl

	items     []asm.Item
	labelN    int
	frameSize int64

	breakLbls []string
	contLbls  []string
}

func (f *funcGen) errf(format string, args ...any) error {
	return fmt.Errorf("compiler: %s: %s", f.fn.Name, fmt.Sprintf(format, args...))
}

func (f *funcGen) label() string {
	f.labelN++
	return fmt.Sprintf("%s.L%d", f.fn.Name, f.labelN)
}

func (f *funcGen) emit(in isa.Inst)   { f.items = append(f.items, asm.InstItem(in)) }
func (f *funcGen) emitLabel(l string) { f.items = append(f.items, asm.LabelItem(l)) }
func (f *funcGen) emitBranch(in isa.Inst, to string) {
	f.items = append(f.items, asm.BranchItem(in, to))
}

func (f *funcGen) emitJmp(to string) { f.emitBranch(isa.Inst{Op: isa.OpJmp}, to) }

func (f *funcGen) emitJcc(c isa.Cond, to string) {
	f.emitBranch(isa.Inst{Op: isa.OpJcc, Cond: c}, to)
}

func (f *funcGen) emitSymRef(dst isa.Reg, sym string) {
	f.items = append(f.items, asm.Item{Inst: isa.Inst{Op: isa.OpMovRI, Dst: dst}, SymRef: sym})
}

func (f *funcGen) retLabel() string { return f.fn.Name + ".ret" }

// allocRegs are the callee-saved registers available to scalar locals and
// parameters whose address is never taken. Keeping hot scalars out of the
// frame mirrors how an optimising x86 compiler behaves, which is what makes
// per-kernel store densities (and hence P1 overheads) meaningful.
var allocRegs = []isa.Reg{isa.R8, isa.R9, isa.R10, isa.R11, isa.R12, isa.R13}

func (f *funcGen) generate() ([]asm.Item, error) {
	// Address-taken functions carry the BRMARK CFI beacon as their very
	// first instruction so the P5 runtime check accepts them as targets.
	if f.fn.AddrTaken {
		f.emit(isa.Inst{Op: isa.OpBrMark, Imm: isa.BrMarkMagic56})
	}

	// Register allocation: hand R8-R13 to the first eligible scalars
	// (params first, then locals in declaration order).
	taken := addrTakenSyms(f.fn.Body)
	var saved []isa.Reg
	assign := func(sym *lang.SymbolInfo) {
		if len(saved) == len(allocRegs) || taken[sym] {
			return
		}
		if sym.Ty.Kind == lang.KindArray || sym.Ty.Kind == lang.KindVoid {
			return
		}
		r := allocRegs[len(saved)]
		saved = append(saved, r)
		sym.RegHome = uint8(r) + 1
	}
	for _, p := range f.fn.Params {
		assign(p)
	}
	for _, d := range declsInOrder(f.fn.Body) {
		assign(d.Sym)
	}

	// Callee-saved pushes precede the frame setup so the epilogue can
	// restore them after tearing the frame down.
	for _, r := range saved {
		f.emit(isa.Inst{Op: isa.OpPush, Dst: r})
	}
	// Parameters sit above the saved registers, the return address and the
	// saved RBP: caller pushed right-to-left.
	for i, p := range f.fn.Params {
		p.FrameOff = 16 + int64(len(saved))*8 + int64(i)*8
	}
	// Prologue. Frame size is patched after body generation (locals are
	// discovered while walking declarations), so reserve the item index.
	f.emit(isa.Inst{Op: isa.OpPush, Dst: isa.RBP})
	f.emit(isa.Inst{Op: isa.OpMovRR, Dst: isa.RBP, Src: isa.RSP})
	subIdx := len(f.items)
	f.emit(isa.Inst{Op: isa.OpSubRI, Dst: isa.RSP, Imm: 0})
	// Copy register-resident parameters into their homes.
	for _, p := range f.fn.Params {
		if p.RegHome != 0 {
			f.emit(isa.Inst{Op: isa.OpMovRM, Dst: isa.Reg(p.RegHome - 1), Mem: isa.Mem(isa.RBP, int32(p.FrameOff))})
		}
	}

	if err := f.genBlock(f.fn.Body); err != nil {
		return nil, err
	}

	f.items[subIdx].Inst.Imm = f.frameSize

	f.emitLabel(f.retLabel())
	f.emit(isa.Inst{Op: isa.OpMovRR, Dst: isa.RSP, Src: isa.RBP})
	f.emit(isa.Inst{Op: isa.OpPop, Dst: isa.RBP})
	for i := len(saved) - 1; i >= 0; i-- {
		f.emit(isa.Inst{Op: isa.OpPop, Dst: saved[i]})
	}
	f.emit(isa.Inst{Op: isa.OpRet})
	return f.items, nil
}

// addrTakenSyms collects symbols whose address escapes via &.
func addrTakenSyms(body *lang.Block) map[*lang.SymbolInfo]bool {
	out := make(map[*lang.SymbolInfo]bool)
	var walkExpr func(e lang.Expr)
	walkExpr = func(e lang.Expr) {
		switch x := e.(type) {
		case *lang.Unary:
			if x.Op == "&" {
				if id, ok := x.X.(*lang.Ident); ok && id.Sym != nil {
					out[id.Sym] = true
				}
			}
			walkExpr(x.X)
		case *lang.Binary:
			walkExpr(x.X)
			walkExpr(x.Y)
		case *lang.Cond:
			walkExpr(x.C)
			walkExpr(x.A)
			walkExpr(x.B)
		case *lang.Index:
			walkExpr(x.X)
			walkExpr(x.I)
		case *lang.Call:
			walkExpr(x.Fn)
			for _, a := range x.Args {
				walkExpr(a)
			}
		case *lang.Cast:
			walkExpr(x.X)
		case *lang.Assign:
			walkExpr(x.LHS)
			walkExpr(x.RHS)
		}
	}
	var walkStmt func(s lang.Stmt)
	walkStmt = func(s lang.Stmt) {
		switch st := s.(type) {
		case *lang.Block:
			for _, b := range st.Stmts {
				walkStmt(b)
			}
		case *lang.ExprStmt:
			walkExpr(st.X)
		case *lang.DeclStmt:
			if st.Init != nil {
				walkExpr(st.Init)
			}
		case *lang.If:
			walkExpr(st.Cond)
			walkStmt(st.Then)
			if st.Else != nil {
				walkStmt(st.Else)
			}
		case *lang.While:
			walkExpr(st.Cond)
			walkStmt(st.Body)
		case *lang.DoWhile:
			walkExpr(st.Cond)
			walkStmt(st.Body)
		case *lang.For:
			if st.Init != nil {
				walkStmt(st.Init)
			}
			if st.Cond != nil {
				walkExpr(st.Cond)
			}
			if st.Post != nil {
				walkExpr(st.Post)
			}
			walkStmt(st.Body)
		case *lang.Return:
			if st.X != nil {
				walkExpr(st.X)
			}
		case *lang.Switch:
			walkExpr(st.X)
			for _, c := range st.Cases {
				for _, b := range c.Body {
					walkStmt(b)
				}
			}
		}
	}
	walkStmt(body)
	return out
}

// declsInOrder lists all local declarations in source order.
func declsInOrder(body *lang.Block) []*lang.DeclStmt {
	var out []*lang.DeclStmt
	var walkStmt func(s lang.Stmt)
	walkStmt = func(s lang.Stmt) {
		switch st := s.(type) {
		case *lang.Block:
			for _, b := range st.Stmts {
				walkStmt(b)
			}
		case *lang.DeclStmt:
			out = append(out, st)
		case *lang.If:
			walkStmt(st.Then)
			if st.Else != nil {
				walkStmt(st.Else)
			}
		case *lang.While:
			walkStmt(st.Body)
		case *lang.DoWhile:
			walkStmt(st.Body)
		case *lang.For:
			if st.Init != nil {
				walkStmt(st.Init)
			}
			walkStmt(st.Body)
		case *lang.Switch:
			for _, c := range st.Cases {
				for _, b := range c.Body {
					walkStmt(b)
				}
			}
		}
	}
	walkStmt(body)
	return out
}

func (f *funcGen) allocLocal(sym *lang.SymbolInfo) {
	size := sym.Ty.Size()
	size = (size + 7) &^ 7
	f.frameSize += size
	sym.FrameOff = -f.frameSize
}

// ---- statements ----

func (f *funcGen) genBlock(b *lang.Block) error {
	for _, s := range b.Stmts {
		if err := f.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (f *funcGen) genStmt(s lang.Stmt) error {
	switch st := s.(type) {
	case *lang.Block:
		return f.genBlock(st)
	case *lang.ExprStmt:
		return f.genExpr(st.X)
	case *lang.DeclStmt:
		if st.Sym.RegHome != 0 {
			if st.Init == nil {
				f.emit(isa.Inst{Op: isa.OpMovRI, Dst: isa.Reg(st.Sym.RegHome - 1), Imm: 0})
				return nil
			}
			if err := f.genExprConv(st.Init, st.Ty); err != nil {
				return err
			}
			f.emit(isa.Inst{Op: isa.OpMovRR, Dst: isa.Reg(st.Sym.RegHome - 1), Src: isa.RAX})
			return nil
		}
		f.allocLocal(st.Sym)
		if st.Init == nil {
			return nil
		}
		if err := f.genExprConv(st.Init, st.Ty); err != nil {
			return err
		}
		return f.storeTo(isa.Mem(isa.RBP, int32(st.Sym.FrameOff)), st.Ty)
	case *lang.If:
		elseL, endL := f.label(), f.label()
		if err := f.genCondJump(st.Cond, elseL, false); err != nil {
			return err
		}
		if err := f.genStmt(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			f.emitJmp(endL)
			f.emitLabel(elseL)
			if err := f.genStmt(st.Else); err != nil {
				return err
			}
			f.emitLabel(endL)
		} else {
			f.emitLabel(elseL)
		}
		return nil
	case *lang.While:
		headL, endL := f.label(), f.label()
		f.emitLabel(headL)
		if err := f.genCondJump(st.Cond, endL, false); err != nil {
			return err
		}
		f.breakLbls = append(f.breakLbls, endL)
		f.contLbls = append(f.contLbls, headL)
		err := f.genStmt(st.Body)
		f.breakLbls = f.breakLbls[:len(f.breakLbls)-1]
		f.contLbls = f.contLbls[:len(f.contLbls)-1]
		if err != nil {
			return err
		}
		f.emitJmp(headL)
		f.emitLabel(endL)
		return nil
	case *lang.DoWhile:
		headL, condL, endL := f.label(), f.label(), f.label()
		f.emitLabel(headL)
		f.breakLbls = append(f.breakLbls, endL)
		f.contLbls = append(f.contLbls, condL)
		err := f.genStmt(st.Body)
		f.breakLbls = f.breakLbls[:len(f.breakLbls)-1]
		f.contLbls = f.contLbls[:len(f.contLbls)-1]
		if err != nil {
			return err
		}
		f.emitLabel(condL)
		if err := f.genCondJump(st.Cond, headL, true); err != nil {
			return err
		}
		f.emitLabel(endL)
		return nil
	case *lang.For:
		headL, postL, endL := f.label(), f.label(), f.label()
		if st.Init != nil {
			if err := f.genStmt(st.Init); err != nil {
				return err
			}
		}
		f.emitLabel(headL)
		if st.Cond != nil {
			if err := f.genCondJump(st.Cond, endL, false); err != nil {
				return err
			}
		}
		f.breakLbls = append(f.breakLbls, endL)
		f.contLbls = append(f.contLbls, postL)
		err := f.genStmt(st.Body)
		f.breakLbls = f.breakLbls[:len(f.breakLbls)-1]
		f.contLbls = f.contLbls[:len(f.contLbls)-1]
		if err != nil {
			return err
		}
		f.emitLabel(postL)
		if st.Post != nil {
			if err := f.genExpr(st.Post); err != nil {
				return err
			}
		}
		f.emitJmp(headL)
		f.emitLabel(endL)
		return nil
	case *lang.Return:
		if st.X != nil {
			if err := f.genExprConv(st.X, f.fn.Ret); err != nil {
				return err
			}
		}
		f.emitJmp(f.retLabel())
		return nil
	case *lang.Break:
		if len(f.breakLbls) == 0 {
			return f.errf("break outside loop")
		}
		f.emitJmp(f.breakLbls[len(f.breakLbls)-1])
		return nil
	case *lang.Continue:
		if len(f.contLbls) == 0 {
			return f.errf("continue outside loop")
		}
		f.emitJmp(f.contLbls[len(f.contLbls)-1])
		return nil
	case *lang.Switch:
		return f.genSwitch(st)
	default:
		return f.errf("unknown statement %T", s)
	}
}

// genCondJump evaluates cond and jumps to target when its truth value
// equals jumpIfTrue.
func (f *funcGen) genCondJump(cond lang.Expr, target string, jumpIfTrue bool) error {
	if err := f.genExpr(cond); err != nil {
		return err
	}
	f.emit(isa.Inst{Op: isa.OpTestRR, Dst: isa.RAX, Src: isa.RAX})
	if jumpIfTrue {
		f.emitJcc(isa.CondNE, target)
	} else {
		f.emitJcc(isa.CondE, target)
	}
	return nil
}

func (f *funcGen) genSwitch(st *lang.Switch) error {
	if err := f.genExprConv(st.X, lang.TypeInt); err != nil {
		return err
	}
	endL := f.label()
	defaultL := endL
	caseLabels := make([]string, len(st.Cases))
	var vals []int64
	minV, maxV := int64(math.MaxInt64), int64(math.MinInt64)
	for i, cs := range st.Cases {
		caseLabels[i] = f.label()
		if cs.IsDefault {
			defaultL = caseLabels[i]
			continue
		}
		vals = append(vals, cs.Val)
		if cs.Val < minV {
			minV = cs.Val
		}
		if cs.Val > maxV {
			maxV = cs.Val
		}
	}

	span := maxV - minV + 1
	dense := len(vals) >= 4 && span > 0 && span <= int64(len(vals))*3 && span <= 512
	if dense {
		// Jump-table dispatch through an indirect jump — the control
		// transfer P5 exists to police.
		jtName := fmt.Sprintf("%s.jt%d", f.fn.Name, f.labelN)
		entries := make([]string, span)
		for i := range entries {
			entries[i] = defaultL
		}
		for i, cs := range st.Cases {
			if !cs.IsDefault {
				entries[cs.Val-minV] = caseLabels[i]
			}
		}
		// Jump-table entry labels need BRMARK beacons; emitted below at
		// label definition time via markLabels.
		if minV != 0 {
			f.emit(isa.Inst{Op: isa.OpSubRI, Dst: isa.RAX, Imm: minV})
		}
		f.emit(isa.Inst{Op: isa.OpCmpRI, Dst: isa.RAX, Imm: span})
		f.emitJcc(isa.CondAE, defaultL)
		f.emitSymRef(isa.RBX, jtName)
		f.emit(isa.Inst{Op: isa.OpMovRM, Dst: isa.RBX, Mem: isa.MemSIB(isa.RBX, isa.RAX, 8, 0)})
		f.emit(isa.Inst{Op: isa.OpJmpR, Dst: isa.RBX})
		if err := f.pg.asm.AddPtrTable(jtName, entries); err != nil {
			return err
		}
		for i, cs := range st.Cases {
			f.emitLabel(caseLabels[i])
			// Beacons may appear only at listed indirect targets; a default
			// case reached solely through the bounds check carries none.
			if f.pg.asm.BranchTargetSet(caseLabels[i]) {
				f.emit(isa.Inst{Op: isa.OpBrMark, Imm: isa.BrMarkMagic56})
			}
			if err := f.genCaseBody(cs.Body, endL); err != nil {
				return err
			}
		}
		f.emitLabel(endL)
		if f.pg.asm.BranchTargetSet(endL) {
			// endL fills the table's gap slots when there is no default.
			f.emit(isa.Inst{Op: isa.OpBrMark, Imm: isa.BrMarkMagic56})
		}
		return nil
	}

	// Sparse: compare chain.
	for i, cs := range st.Cases {
		if cs.IsDefault {
			continue
		}
		f.emit(isa.Inst{Op: isa.OpCmpRI, Dst: isa.RAX, Imm: cs.Val})
		f.emitJcc(isa.CondE, caseLabels[i])
	}
	f.emitJmp(defaultL)
	for i, cs := range st.Cases {
		f.emitLabel(caseLabels[i])
		if err := f.genCaseBody(cs.Body, endL); err != nil {
			return err
		}
	}
	f.emitLabel(endL)
	return nil
}

func (f *funcGen) genCaseBody(body []lang.Stmt, endL string) error {
	f.breakLbls = append(f.breakLbls, endL)
	defer func() { f.breakLbls = f.breakLbls[:len(f.breakLbls)-1] }()
	for _, s := range body {
		if err := f.genStmt(s); err != nil {
			return err
		}
	}
	f.emitJmp(endL)
	return nil
}

// ---- expressions ----

// genExpr evaluates e into RAX (floats as IEEE bits).
func (f *funcGen) genExpr(e lang.Expr) error {
	switch x := e.(type) {
	case *lang.IntLit:
		f.emit(isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: x.Val})
		return nil
	case *lang.FloatLit:
		f.emit(isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: int64(math.Float64bits(x.Val))})
		return nil
	case *lang.StrLit:
		sym, err := f.pg.internString(x.Val)
		if err != nil {
			return err
		}
		f.emitSymRef(isa.RAX, sym)
		return nil
	case *lang.Ident:
		if x.Sym.IsFunc {
			f.emitSymRef(isa.RAX, x.Name)
			return nil
		}
		if x.Sym.RegHome != 0 {
			f.emit(isa.Inst{Op: isa.OpMovRR, Dst: isa.RAX, Src: isa.Reg(x.Sym.RegHome - 1)})
			return nil
		}
		if x.Sym.Ty.Kind == lang.KindArray {
			// Array decays to its address.
			return f.genAddr(x)
		}
		if err := f.genAddr(x); err != nil {
			return err
		}
		return f.loadFrom(x.Sym.Ty)
	case *lang.Unary:
		return f.genUnary(x)
	case *lang.Binary:
		return f.genBinary(x)
	case *lang.Cond:
		elseL, endL := f.label(), f.label()
		if err := f.genCondJump(x.C, elseL, false); err != nil {
			return err
		}
		if err := f.genExprConv(x.A, x.Type()); err != nil {
			return err
		}
		f.emitJmp(endL)
		f.emitLabel(elseL)
		if err := f.genExprConv(x.B, x.Type()); err != nil {
			return err
		}
		f.emitLabel(endL)
		return nil
	case *lang.Index:
		if err := f.genAddr(x); err != nil {
			return err
		}
		return f.loadFrom(x.Type())
	case *lang.Call:
		return f.genCall(x)
	case *lang.Cast:
		if err := f.genExpr(x.X); err != nil {
			return err
		}
		return f.convert(x.X.Type().Decay(), x.To)
	case *lang.Assign:
		if id, ok := x.LHS.(*lang.Ident); ok && id.Sym != nil && id.Sym.RegHome != 0 {
			if err := f.genExprConv(x.RHS, x.LHS.Type()); err != nil {
				return err
			}
			f.emit(isa.Inst{Op: isa.OpMovRR, Dst: isa.Reg(id.Sym.RegHome - 1), Src: isa.RAX})
			return nil
		}
		if err := f.genAddr(x.LHS); err != nil {
			return err
		}
		f.emit(isa.Inst{Op: isa.OpPush, Dst: isa.RAX})
		if err := f.genExprConv(x.RHS, x.LHS.Type()); err != nil {
			return err
		}
		f.emit(isa.Inst{Op: isa.OpPop, Dst: isa.RBX})
		return f.storeTo(isa.Mem(isa.RBX, 0), x.LHS.Type())
	default:
		return f.errf("unknown expression %T", e)
	}
}

// genExprConv evaluates e and converts the result to type to.
func (f *funcGen) genExprConv(e lang.Expr, to *lang.Type) error {
	if err := f.genExpr(e); err != nil {
		return err
	}
	return f.convert(e.Type().Decay(), to)
}

// convert adjusts the value in RAX from type 'from' to type 'to'.
func (f *funcGen) convert(from, to *lang.Type) error {
	if from.Kind == to.Kind {
		return nil
	}
	switch {
	case to.Kind == lang.KindFloat && from.IsIntegral():
		f.emit(isa.Inst{Op: isa.OpCvtIF, Dst: isa.RAX})
	case to.IsIntegral() && from.Kind == lang.KindFloat:
		f.emit(isa.Inst{Op: isa.OpCvtFI, Dst: isa.RAX})
		if to.Kind == lang.KindChar {
			f.emit(isa.Inst{Op: isa.OpAndRI, Dst: isa.RAX, Imm: 0xFF})
		}
	case to.Kind == lang.KindChar && from.Kind == lang.KindInt:
		f.emit(isa.Inst{Op: isa.OpAndRI, Dst: isa.RAX, Imm: 0xFF})
	case to.Kind == lang.KindInt && from.Kind == lang.KindChar:
		// Already zero-extended.
	default:
		// Pointer-ish conversions are representation no-ops.
	}
	return nil
}

// loadFrom dereferences the address in RAX as type t, leaving the value in
// RAX.
func (f *funcGen) loadFrom(t *lang.Type) error {
	if t.Kind == lang.KindArray {
		return nil // address already is the value
	}
	op := isa.OpMovRM
	if t.Kind == lang.KindChar {
		op = isa.OpMovBRM
	}
	f.emit(isa.Inst{Op: op, Dst: isa.RAX, Mem: isa.Mem(isa.RAX, 0)})
	return nil
}

// storeTo stores RAX through the given memory operand as type t.
func (f *funcGen) storeTo(mem isa.MemRef, t *lang.Type) error {
	op := isa.OpMovMR
	if t.Kind == lang.KindChar {
		op = isa.OpMovBMR
	}
	f.emit(isa.Inst{Op: op, Src: isa.RAX, Mem: mem})
	return nil
}

// genAddr evaluates the address of an lvalue into RAX.
func (f *funcGen) genAddr(e lang.Expr) error {
	switch x := e.(type) {
	case *lang.Ident:
		sym := x.Sym
		switch {
		case sym.RegHome != 0:
			return f.errf("cannot take the address of register-resident %q", sym.Name)
		case sym.Global:
			f.emitSymRef(isa.RAX, sym.DataSym)
		default:
			f.emit(isa.Inst{Op: isa.OpLea, Dst: isa.RAX, Mem: isa.Mem(isa.RBP, int32(sym.FrameOff))})
		}
		return nil
	case *lang.Index:
		// Base address/pointer value.
		if err := f.genExpr(x.X); err != nil {
			return err
		}
		// Constant index folds into a single displacement add.
		if lit, isLit := x.I.(*lang.IntLit); isLit {
			if off := lit.Val * x.Type().Size(); off != 0 {
				f.emit(isa.Inst{Op: isa.OpAddRI, Dst: isa.RAX, Imm: off})
			}
			return nil
		}
		f.emit(isa.Inst{Op: isa.OpPush, Dst: isa.RAX})
		if err := f.genExprConv(x.I, lang.TypeInt); err != nil {
			return err
		}
		elemSize := x.Type().Size()
		f.emit(isa.Inst{Op: isa.OpPop, Dst: isa.RBX})
		switch elemSize {
		case 1:
			f.emit(isa.Inst{Op: isa.OpAddRR, Dst: isa.RAX, Src: isa.RBX})
		case 8:
			f.emit(isa.Inst{Op: isa.OpLea, Dst: isa.RAX, Mem: isa.MemSIB(isa.RBX, isa.RAX, 8, 0)})
		default:
			f.emit(isa.Inst{Op: isa.OpImulRI, Dst: isa.RAX, Imm: elemSize})
			f.emit(isa.Inst{Op: isa.OpAddRR, Dst: isa.RAX, Src: isa.RBX})
		}
		return nil
	case *lang.Unary:
		if x.Op != "*" {
			return f.errf("cannot take address of unary %q", x.Op)
		}
		return f.genExpr(x.X)
	default:
		return f.errf("not an addressable expression: %T", e)
	}
}

func (f *funcGen) genUnary(x *lang.Unary) error {
	switch x.Op {
	case "&":
		if id, ok := x.X.(*lang.Ident); ok && id.Sym != nil && id.Sym.IsFunc {
			f.emitSymRef(isa.RAX, id.Name)
			return nil
		}
		return f.genAddr(x.X)
	case "*":
		if err := f.genExpr(x.X); err != nil {
			return err
		}
		return f.loadFrom(x.Type())
	case "-":
		if err := f.genExpr(x.X); err != nil {
			return err
		}
		if x.Type().Kind == lang.KindFloat {
			if x.X.Type().Decay().IsIntegral() {
				f.emit(isa.Inst{Op: isa.OpCvtIF, Dst: isa.RAX})
			}
			f.emit(isa.Inst{Op: isa.OpFNeg, Dst: isa.RAX})
		} else {
			f.emit(isa.Inst{Op: isa.OpNeg, Dst: isa.RAX})
		}
		return nil
	case "~":
		if err := f.genExpr(x.X); err != nil {
			return err
		}
		f.emit(isa.Inst{Op: isa.OpNot, Dst: isa.RAX})
		return nil
	case "!":
		if err := f.genExpr(x.X); err != nil {
			return err
		}
		trueL, endL := f.label(), f.label()
		f.emit(isa.Inst{Op: isa.OpTestRR, Dst: isa.RAX, Src: isa.RAX})
		f.emitJcc(isa.CondE, trueL)
		f.emit(isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 0})
		f.emitJmp(endL)
		f.emitLabel(trueL)
		f.emit(isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 1})
		f.emitLabel(endL)
		return nil
	default:
		return f.errf("unknown unary %q", x.Op)
	}
}

var intBinOps = map[string]isa.Op{
	"+": isa.OpAddRR, "-": isa.OpSubRR, "*": isa.OpImulRR,
	"/": isa.OpIdivRR, "%": isa.OpIremRR,
	"&": isa.OpAndRR, "|": isa.OpOrRR, "^": isa.OpXorRR,
	"<<": isa.OpShlRR, ">>": isa.OpSarRR,
}

var floatBinOps = map[string]isa.Op{
	"+": isa.OpFAdd, "-": isa.OpFSub, "*": isa.OpFMul, "/": isa.OpFDiv,
}

var cmpConds = map[string]struct{ signed, unsigned isa.Cond }{
	"==": {isa.CondE, isa.CondE},
	"!=": {isa.CondNE, isa.CondNE},
	"<":  {isa.CondL, isa.CondB},
	"<=": {isa.CondLE, isa.CondBE},
	">":  {isa.CondG, isa.CondA},
	">=": {isa.CondGE, isa.CondAE},
}

func (f *funcGen) genBinary(x *lang.Binary) error {
	tx, ty := x.X.Type().Decay(), x.Y.Type().Decay()

	switch x.Op {
	case "&&", "||":
		falseL, endL := f.label(), f.label()
		shortcut := isa.CondE // && bails out on false
		if x.Op == "||" {
			shortcut = isa.CondNE
		}
		if err := f.genExpr(x.X); err != nil {
			return err
		}
		f.emit(isa.Inst{Op: isa.OpTestRR, Dst: isa.RAX, Src: isa.RAX})
		f.emitJcc(shortcut, falseL)
		if err := f.genExpr(x.Y); err != nil {
			return err
		}
		f.emit(isa.Inst{Op: isa.OpTestRR, Dst: isa.RAX, Src: isa.RAX})
		f.emitJcc(shortcut, falseL)
		if x.Op == "&&" {
			f.emit(isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 1})
		} else {
			f.emit(isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 0})
		}
		f.emitJmp(endL)
		f.emitLabel(falseL)
		if x.Op == "&&" {
			f.emit(isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 0})
		} else {
			f.emit(isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 1})
		}
		f.emitLabel(endL)
		return nil
	}

	if cc, isCmp := cmpConds[x.Op]; isCmp {
		floaty := tx.Kind == lang.KindFloat || ty.Kind == lang.KindFloat
		cond := cc.signed
		if tx.Kind == lang.KindPtr || ty.Kind == lang.KindPtr {
			cond = cc.unsigned
		}
		// Immediate-operand comparison when the right side is a literal.
		if lit, isLit := x.Y.(*lang.IntLit); isLit && !floaty {
			if err := f.genExprConv(x.X, lang.TypeInt); err != nil {
				return err
			}
			f.emit(isa.Inst{Op: isa.OpCmpRI, Dst: isa.RAX, Imm: lit.Val})
			f.materializeBool(cond)
			return nil
		}
		var operandTy *lang.Type
		switch {
		case floaty:
			operandTy = lang.TypeFloat
		default:
			operandTy = lang.TypeInt
		}
		if err := f.genOperands(x, operandTy); err != nil {
			return err
		}
		cmpOp := isa.OpCmpRR
		if floaty {
			cmpOp = isa.OpFCmp
		}
		f.emit(isa.Inst{Op: cmpOp, Dst: isa.RAX, Src: isa.RCX})
		f.materializeBool(cond)
		return nil
	}

	// Pointer arithmetic.
	if tx.Kind == lang.KindPtr || ty.Kind == lang.KindPtr {
		return f.genPtrArith(x, tx, ty)
	}

	if x.Type().Kind == lang.KindFloat {
		if err := f.genOperands(x, lang.TypeFloat); err != nil {
			return err
		}
		op, ok := floatBinOps[x.Op]
		if !ok {
			return f.errf("operator %q not defined on floats", x.Op)
		}
		f.emit(isa.Inst{Op: op, Dst: isa.RAX, Src: isa.RCX})
		return nil
	}

	// Immediate-operand forms when one side is a literal (right side for
	// any RI op; left side only for commutative ops).
	if lit, isLit := x.Y.(*lang.IntLit); isLit {
		if op, has := intBinOpsRI[x.Op]; has {
			if err := f.genExprConv(x.X, lang.TypeInt); err != nil {
				return err
			}
			f.emit(isa.Inst{Op: op, Dst: isa.RAX, Imm: lit.Val})
			return nil
		}
	}
	if lit, isLit := x.X.(*lang.IntLit); isLit && commutativeOps[x.Op] {
		if op, has := intBinOpsRI[x.Op]; has {
			if err := f.genExprConv(x.Y, lang.TypeInt); err != nil {
				return err
			}
			f.emit(isa.Inst{Op: op, Dst: isa.RAX, Imm: lit.Val})
			return nil
		}
	}

	if err := f.genOperands(x, lang.TypeInt); err != nil {
		return err
	}
	op, ok := intBinOps[x.Op]
	if !ok {
		return f.errf("unknown binary operator %q", x.Op)
	}
	f.emit(isa.Inst{Op: op, Dst: isa.RAX, Src: isa.RCX})
	return nil
}

// materializeBool turns the current flags into 0/1 in RAX.
func (f *funcGen) materializeBool(cond isa.Cond) {
	trueL, endL := f.label(), f.label()
	f.emitJcc(cond, trueL)
	f.emit(isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 0})
	f.emitJmp(endL)
	f.emitLabel(trueL)
	f.emit(isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 1})
	f.emitLabel(endL)
}

var intBinOpsRI = map[string]isa.Op{
	"+": isa.OpAddRI, "-": isa.OpSubRI, "*": isa.OpImulRI,
	"&": isa.OpAndRI, "|": isa.OpOrRI, "^": isa.OpXorRI,
	"<<": isa.OpShlRI, ">>": isa.OpSarRI,
}

var commutativeOps = map[string]bool{"+": true, "*": true, "&": true, "|": true, "^": true}

// genOperands evaluates x.X into RAX and x.Y into RCX, both converted to
// operandTy (nil keeps each operand's own representation, as pointer
// arithmetic needs).
func (f *funcGen) genOperands(x *lang.Binary, operandTy *lang.Type) error {
	gen := func(e lang.Expr) error {
		if operandTy == nil {
			return f.genExpr(e)
		}
		return f.genExprConv(e, operandTy)
	}
	if err := gen(x.X); err != nil {
		return err
	}
	f.emit(isa.Inst{Op: isa.OpPush, Dst: isa.RAX})
	if err := gen(x.Y); err != nil {
		return err
	}
	f.emit(isa.Inst{Op: isa.OpMovRR, Dst: isa.RCX, Src: isa.RAX})
	f.emit(isa.Inst{Op: isa.OpPop, Dst: isa.RAX})
	return nil
}

func (f *funcGen) genPtrArith(x *lang.Binary, tx, ty *lang.Type) error {
	switch {
	case x.Op == "-" && tx.Kind == lang.KindPtr && ty.Kind == lang.KindPtr:
		if err := f.genOperands(x, nil); err != nil {
			return err
		}
		f.emit(isa.Inst{Op: isa.OpSubRR, Dst: isa.RAX, Src: isa.RCX})
		if sz := tx.Elem.Size(); sz == 8 {
			f.emit(isa.Inst{Op: isa.OpSarRI, Dst: isa.RAX, Imm: 3})
		} else if sz != 1 {
			f.emit(isa.Inst{Op: isa.OpMovRI, Dst: isa.RCX, Imm: sz})
			f.emit(isa.Inst{Op: isa.OpIdivRR, Dst: isa.RAX, Src: isa.RCX})
		}
		return nil
	case tx.Kind == lang.KindPtr:
		// ptr +- int
		if err := f.genOperands(x, nil); err != nil {
			return err
		}
		if sz := tx.Elem.Size(); sz != 1 {
			f.emit(isa.Inst{Op: isa.OpImulRI, Dst: isa.RCX, Imm: sz})
		}
		op := isa.OpAddRR
		if x.Op == "-" {
			op = isa.OpSubRR
		}
		f.emit(isa.Inst{Op: op, Dst: isa.RAX, Src: isa.RCX})
		return nil
	default:
		// int + ptr
		if err := f.genOperands(x, nil); err != nil {
			return err
		}
		if sz := ty.Elem.Size(); sz != 1 {
			f.emit(isa.Inst{Op: isa.OpImulRI, Dst: isa.RAX, Imm: sz})
		}
		f.emit(isa.Inst{Op: isa.OpAddRR, Dst: isa.RAX, Src: isa.RCX})
		return nil
	}
}

func (f *funcGen) genCall(x *lang.Call) error {
	switch x.Builtin {
	case "__sqrt":
		if err := f.genExprConv(x.Args[0], lang.TypeFloat); err != nil {
			return err
		}
		f.emit(isa.Inst{Op: isa.OpFSqrt, Dst: isa.RAX})
		return nil
	case "__trap":
		f.emit(isa.Inst{Op: isa.OpTrap, Imm: int64(isa.TrapExplicit)})
		return nil
	case "__ocall_send", "__ocall_recv":
		if err := f.genExpr(x.Args[0]); err != nil {
			return err
		}
		f.emit(isa.Inst{Op: isa.OpPush, Dst: isa.RAX})
		if err := f.genExprConv(x.Args[1], lang.TypeInt); err != nil {
			return err
		}
		f.emit(isa.Inst{Op: isa.OpMovRR, Dst: isa.RSI, Src: isa.RAX})
		f.emit(isa.Inst{Op: isa.OpPop, Dst: isa.RDI})
		idx := policy.OcallSend
		if x.Builtin == "__ocall_recv" {
			idx = policy.OcallRecv
		}
		f.emit(isa.Inst{Op: isa.OpOcall, Imm: idx})
		return nil
	case "__ocall_print":
		if err := f.genExprConv(x.Args[0], lang.TypeInt); err != nil {
			return err
		}
		f.emit(isa.Inst{Op: isa.OpMovRR, Dst: isa.RDI, Src: isa.RAX})
		f.emit(isa.Inst{Op: isa.OpOcall, Imm: policy.OcallPrint})
		return nil
	case "__tid":
		f.emit(isa.Inst{Op: isa.OpOcall, Imm: policy.OcallThreadID})
		return nil
	}

	// Push arguments right-to-left.
	pushArgs := func(paramTy func(i int) *lang.Type) error {
		for i := len(x.Args) - 1; i >= 0; i-- {
			var want *lang.Type
			if paramTy != nil {
				want = paramTy(i)
			}
			if want != nil {
				if err := f.genExprConv(x.Args[i], want); err != nil {
					return err
				}
			} else if err := f.genExpr(x.Args[i]); err != nil {
				return err
			}
			f.emit(isa.Inst{Op: isa.OpPush, Dst: isa.RAX})
		}
		return nil
	}

	if id, ok := x.Fn.(*lang.Ident); ok && id.Sym != nil && id.Sym.IsFunc {
		sig := id.Sym.FuncSig
		if err := pushArgs(func(i int) *lang.Type { return sig.Params[i].Ty }); err != nil {
			return err
		}
		f.emitBranch(isa.Inst{Op: isa.OpCall}, id.Name)
		if n := len(x.Args); n > 0 {
			f.emit(isa.Inst{Op: isa.OpAddRI, Dst: isa.RSP, Imm: int64(n) * 8})
		}
		return nil
	}

	// Indirect call through fnptr.
	if err := pushArgs(nil); err != nil {
		return err
	}
	if err := f.genExpr(x.Fn); err != nil {
		return err
	}
	f.emit(isa.Inst{Op: isa.OpCallR, Dst: isa.RAX})
	if n := len(x.Args); n > 0 {
		f.emit(isa.Inst{Op: isa.OpAddRI, Dst: isa.RSP, Imm: int64(n) * 8})
	}
	return nil
}
