// Package asmtext implements a textual assembler for the virtual ISA, in
// Intel-ish syntax. It exists for the same reason the paper's authors wrote
// raw x86: crafting binaries the compiler would never emit — hand-built
// attack cases for the verifier, annotation templates, micro-benchmarks.
//
// Syntax overview (one statement per line, ';' or '#' start comments):
//
//	.entry _start            ; entry symbol
//	.func  _start            ; begin a function (ends at the next .func)
//	.target helper           ; add a label to the branch-target list
//	.data  msg "hi there"    ; initialised data (string, NUL-terminated)
//	.words tbl 1, 2, -3      ; initialised data (8-byte little-endian ints)
//	.bss   buf 128           ; zero-initialised data
//	.ptrtable jt lbl1, lbl2  ; table of code addresses (registers targets)
//	.secret buf              ; tag a data/bss object as a P7 taint source
//	.pstate init             ; declare a protocol state (first = start)
//	.pstate done attested    ; attestation-complete state
//	.pedge init 2 done       ; edge: in init, event 2 (ocall index) -> done
//	.pedge done -1 end       ; -1 is the hlt event
//
//	loop:                    ; label (local to the object, must be unique)
//	  mov  rax, 42           ; register <- immediate
//	  mov  rax, rbx          ; register <- register
//	  mov  rax, [rbp-8]      ; 64-bit load
//	  mov  [rax+rcx*8+16], rbx ; 64-bit store
//	  movb rax, [rsi]        ; byte load / movb [rdi], rax stores
//	  mov  rax, =msg         ; absolute address of a symbol (relocated)
//	  lea  rax, [rbp-16]
//	  add  rax, 5            ; likewise sub/imul/and/or/xor/shl/shr/sar
//	  idiv rax, rbx          ; irem too (register forms only)
//	  cmp  rax, 0
//	  je   loop              ; jne/jl/jle/jg/jge/jb/jbe/ja/jae
//	  jmp  rax               ; indirect jump; call rax for indirect call
//	  push rax
//	  pop  rbx
//	  fadd rax, rbx          ; fsub/fmul/fdiv; fsqrt/fneg/cvtif/cvtfi rax
//	  ocall 1
//	  brmark
//	  trap 2
//	  ret / hlt / nop
package asmtext

import (
	"fmt"
	"strconv"
	"strings"

	"deflection/internal/asm"
	"deflection/internal/isa"
	"deflection/internal/obj"
	"deflection/internal/policy"
)

// Error reports an assembly failure with its line number.
type Error struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("asmtext: line %d: %s", e.Line, e.Msg) }

type assembler struct {
	out     *asm.Assembler
	curName string
	curBody []asm.Item
	mask    uint16

	proto  *policy.Protocol
	states map[string]int64
}

// Assemble parses source and produces an object. policyMask is the policy
// set the object claims (hand-written binaries usually claim what they
// carry).
func Assemble(source string, policyMask uint16) (*obj.Object, error) {
	a := &assembler{out: asm.NewAssembler(), mask: policyMask}
	for i, raw := range strings.Split(source, "\n") {
		line := raw
		if idx := strings.IndexAny(line, ";#"); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := a.statement(line); err != nil {
			return nil, &Error{Line: i + 1, Msg: err.Error()}
		}
	}
	if err := a.flushFunc(); err != nil {
		return nil, &Error{Line: 0, Msg: err.Error()}
	}
	if a.proto != nil {
		a.out.SetProtocol(a.proto)
	}
	return a.out.Assemble(a.mask)
}

func (a *assembler) flushFunc() error {
	if a.curName == "" {
		if len(a.curBody) > 0 {
			return fmt.Errorf("instructions before any .func")
		}
		return nil
	}
	if err := a.out.AddFunc(a.curName, a.curBody); err != nil {
		return err
	}
	a.curName = ""
	a.curBody = nil
	return nil
}

func (a *assembler) statement(line string) error {
	if strings.HasPrefix(line, ".") {
		return a.directive(line)
	}
	if name, ok := strings.CutSuffix(line, ":"); ok {
		if a.curName == "" {
			return fmt.Errorf("label %q outside a function", name)
		}
		a.curBody = append(a.curBody, asm.LabelItem(strings.TrimSpace(name)))
		return nil
	}
	if a.curName == "" {
		return fmt.Errorf("instruction outside a function")
	}
	item, err := parseInst(line)
	if err != nil {
		return err
	}
	a.curBody = append(a.curBody, item)
	return nil
}

func (a *assembler) directive(line string) error {
	fields := strings.Fields(line)
	rest := strings.TrimSpace(strings.TrimPrefix(line, fields[0]))
	switch fields[0] {
	case ".entry":
		if len(fields) != 2 {
			return fmt.Errorf(".entry needs a symbol")
		}
		a.out.SetEntry(fields[1])
		return nil
	case ".func":
		if len(fields) != 2 {
			return fmt.Errorf(".func needs a name")
		}
		if err := a.flushFunc(); err != nil {
			return err
		}
		a.curName = fields[1]
		return nil
	case ".target":
		if len(fields) != 2 {
			return fmt.Errorf(".target needs a label")
		}
		a.out.AddBranchTarget(fields[1])
		return nil
	case ".secret":
		if len(fields) != 2 {
			return fmt.Errorf(".secret needs a data symbol")
		}
		a.out.AddSecret(fields[1])
		return nil
	case ".data":
		if len(fields) < 3 {
			return fmt.Errorf(".data needs a name and a string")
		}
		name := fields[1]
		str := strings.TrimSpace(strings.TrimPrefix(rest, name))
		val, err := strconv.Unquote(str)
		if err != nil {
			return fmt.Errorf(".data %s: %v", name, err)
		}
		return a.out.AddData(name, append([]byte(val), 0))
	case ".words":
		if len(fields) < 3 {
			return fmt.Errorf(".words needs a name and values")
		}
		name := fields[1]
		var buf []byte
		for _, tok := range strings.Split(strings.TrimSpace(strings.TrimPrefix(rest, name)), ",") {
			v, err := parseImm(strings.TrimSpace(tok))
			if err != nil {
				return err
			}
			var w [8]byte
			for i := 0; i < 8; i++ {
				w[i] = byte(v >> (8 * i))
			}
			buf = append(buf, w[:]...)
		}
		return a.out.AddData(name, buf)
	case ".bss":
		if len(fields) != 3 {
			return fmt.Errorf(".bss needs a name and a size")
		}
		size, err := parseImm(fields[2])
		if err != nil || size <= 0 {
			return fmt.Errorf("bad .bss size %q", fields[2])
		}
		return a.out.AddBSS(fields[1], size)
	case ".pstate":
		if len(fields) != 2 && !(len(fields) == 3 && fields[2] == "attested") {
			return fmt.Errorf(".pstate needs a name and optionally 'attested'")
		}
		if a.proto == nil {
			a.proto = &policy.Protocol{}
			a.states = make(map[string]int64)
		}
		name := fields[1]
		if _, dup := a.states[name]; dup {
			return fmt.Errorf("duplicate protocol state %q", name)
		}
		a.states[name] = int64(len(a.proto.States))
		a.proto.States = append(a.proto.States, policy.State{
			Name:     name,
			Attested: len(fields) == 3,
		})
		return nil
	case ".pedge":
		if len(fields) != 4 {
			return fmt.Errorf(".pedge needs <from> <event> <to>")
		}
		if a.proto == nil {
			return fmt.Errorf(".pedge before any .pstate")
		}
		from, ok := a.states[fields[1]]
		if !ok {
			return fmt.Errorf(".pedge references unknown state %q", fields[1])
		}
		to, ok := a.states[fields[3]]
		if !ok {
			return fmt.Errorf(".pedge references unknown state %q", fields[3])
		}
		ev, err := parseImm(fields[2])
		if err != nil {
			return fmt.Errorf("bad .pedge event %q", fields[2])
		}
		a.proto.Edges = append(a.proto.Edges, policy.Edge{From: from, Event: ev, To: to})
		return nil
	case ".ptrtable":
		if len(fields) < 3 {
			return fmt.Errorf(".ptrtable needs a name and labels")
		}
		name := fields[1]
		var labels []string
		for _, tok := range strings.Split(strings.TrimSpace(strings.TrimPrefix(rest, name)), ",") {
			labels = append(labels, strings.TrimSpace(tok))
		}
		return a.out.AddPtrTable(name, labels)
	default:
		return fmt.Errorf("unknown directive %s", fields[0])
	}
}

var regNames = map[string]isa.Reg{
	"rax": isa.RAX, "rbx": isa.RBX, "rcx": isa.RCX, "rdx": isa.RDX,
	"rsi": isa.RSI, "rdi": isa.RDI, "rbp": isa.RBP, "rsp": isa.RSP,
	"r8": isa.R8, "r9": isa.R9, "r10": isa.R10, "r11": isa.R11,
	"r12": isa.R12, "r13": isa.R13, "r14": isa.R14, "r15": isa.R15,
}

var jccConds = map[string]isa.Cond{
	"je": isa.CondE, "jne": isa.CondNE, "jl": isa.CondL, "jle": isa.CondLE,
	"jg": isa.CondG, "jge": isa.CondGE, "jb": isa.CondB, "jbe": isa.CondBE,
	"ja": isa.CondA, "jae": isa.CondAE,
}

var aluRR = map[string]isa.Op{
	"add": isa.OpAddRR, "sub": isa.OpSubRR, "imul": isa.OpImulRR,
	"idiv": isa.OpIdivRR, "irem": isa.OpIremRR, "and": isa.OpAndRR,
	"or": isa.OpOrRR, "xor": isa.OpXorRR, "shl": isa.OpShlRR,
	"shr": isa.OpShrRR, "sar": isa.OpSarRR, "cmp": isa.OpCmpRR,
	"test": isa.OpTestRR, "fadd": isa.OpFAdd, "fsub": isa.OpFSub,
	"fmul": isa.OpFMul, "fdiv": isa.OpFDiv, "fcmp": isa.OpFCmp,
}

var aluRI = map[string]isa.Op{
	"add": isa.OpAddRI, "sub": isa.OpSubRI, "imul": isa.OpImulRI,
	"and": isa.OpAndRI, "or": isa.OpOrRI, "xor": isa.OpXorRI,
	"shl": isa.OpShlRI, "shr": isa.OpShrRI, "sar": isa.OpSarRI,
	"cmp": isa.OpCmpRI,
}

var unary = map[string]isa.Op{
	"neg": isa.OpNeg, "not": isa.OpNot, "fsqrt": isa.OpFSqrt,
	"fneg": isa.OpFNeg, "cvtif": isa.OpCvtIF, "cvtfi": isa.OpCvtFI,
	"push": isa.OpPush, "pop": isa.OpPop,
}

var noOperand = map[string]isa.Op{
	"ret": isa.OpRet, "hlt": isa.OpHlt, "nop": isa.OpNop,
}

func parseInst(line string) (asm.Item, error) {
	mnemonic, rest, _ := strings.Cut(line, " ")
	mnemonic = strings.ToLower(strings.TrimSpace(mnemonic))
	rest = strings.TrimSpace(rest)
	operands := splitOperands(rest)

	switch {
	case noOperand[mnemonic] != 0:
		if rest != "" {
			return asm.Item{}, fmt.Errorf("%s takes no operands", mnemonic)
		}
		return asm.InstItem(isa.Inst{Op: noOperand[mnemonic]}), nil

	case mnemonic == "brmark":
		return asm.InstItem(isa.Inst{Op: isa.OpBrMark, Imm: isa.BrMarkMagic56}), nil

	case mnemonic == "trap" || mnemonic == "ocall":
		v, err := parseImm(rest)
		if err != nil {
			return asm.Item{}, err
		}
		op := isa.OpTrap
		if mnemonic == "ocall" {
			op = isa.OpOcall
		}
		return asm.InstItem(isa.Inst{Op: op, Imm: v}), nil

	case mnemonic == "jmp" || mnemonic == "call":
		if rest == "" {
			return asm.Item{}, fmt.Errorf("%s needs a target", mnemonic)
		}
		op := isa.OpJmp
		indirect := isa.OpJmpR
		if mnemonic == "call" {
			op = isa.OpCall
			indirect = isa.OpCallR
		}
		if r, ok := regNames[rest]; ok {
			return asm.InstItem(isa.Inst{Op: indirect, Dst: r}), nil
		}
		return asm.BranchItem(isa.Inst{Op: op}, rest), nil

	case jccConds[mnemonic] != 0:
		if rest == "" {
			return asm.Item{}, fmt.Errorf("%s needs a target", mnemonic)
		}
		return asm.BranchItem(isa.Inst{Op: isa.OpJcc, Cond: jccConds[mnemonic]}, rest), nil

	case unary[mnemonic] != 0:
		r, ok := regNames[rest]
		if !ok {
			return asm.Item{}, fmt.Errorf("%s needs a register, got %q", mnemonic, rest)
		}
		return asm.InstItem(isa.Inst{Op: unary[mnemonic], Dst: r}), nil

	case mnemonic == "mov" || mnemonic == "movb":
		return parseMov(mnemonic, operands)

	case mnemonic == "lea":
		if len(operands) != 2 {
			return asm.Item{}, fmt.Errorf("lea needs two operands")
		}
		r, ok := regNames[operands[0]]
		if !ok {
			return asm.Item{}, fmt.Errorf("lea destination must be a register")
		}
		mem, err := parseMem(operands[1])
		if err != nil {
			return asm.Item{}, err
		}
		return asm.InstItem(isa.Inst{Op: isa.OpLea, Dst: r, Mem: mem}), nil

	default:
		if _, isALU := aluRR[mnemonic]; isALU {
			return parseALU(mnemonic, operands)
		}
		return asm.Item{}, fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
}

func parseALU(mn string, ops []string) (asm.Item, error) {
	if len(ops) != 2 {
		return asm.Item{}, fmt.Errorf("%s needs two operands", mn)
	}
	dst, ok := regNames[ops[0]]
	if !ok {
		return asm.Item{}, fmt.Errorf("%s destination must be a register", mn)
	}
	if src, isReg := regNames[ops[1]]; isReg {
		return asm.InstItem(isa.Inst{Op: aluRR[mn], Dst: dst, Src: src}), nil
	}
	op, hasRI := aluRI[mn]
	if !hasRI {
		return asm.Item{}, fmt.Errorf("%s has no immediate form", mn)
	}
	v, err := parseImm(ops[1])
	if err != nil {
		return asm.Item{}, err
	}
	return asm.InstItem(isa.Inst{Op: op, Dst: dst, Imm: v}), nil
}

func parseMov(mn string, ops []string) (asm.Item, error) {
	if len(ops) != 2 {
		return asm.Item{}, fmt.Errorf("%s needs two operands", mn)
	}
	byteOp := mn == "movb"
	dstReg, dstIsReg := regNames[ops[0]]
	srcReg, srcIsReg := regNames[ops[1]]
	switch {
	case dstIsReg && srcIsReg:
		return asm.InstItem(isa.Inst{Op: isa.OpMovRR, Dst: dstReg, Src: srcReg}), nil
	case dstIsReg && strings.HasPrefix(ops[1], "["):
		mem, err := parseMem(ops[1])
		if err != nil {
			return asm.Item{}, err
		}
		op := isa.OpMovRM
		if byteOp {
			op = isa.OpMovBRM
		}
		return asm.InstItem(isa.Inst{Op: op, Dst: dstReg, Mem: mem}), nil
	case dstIsReg && strings.HasPrefix(ops[1], "="):
		return asm.Item{
			Inst:   isa.Inst{Op: isa.OpMovRI, Dst: dstReg},
			SymRef: strings.TrimPrefix(ops[1], "="),
		}, nil
	case dstIsReg:
		v, err := parseImm(ops[1])
		if err != nil {
			return asm.Item{}, err
		}
		return asm.InstItem(isa.Inst{Op: isa.OpMovRI, Dst: dstReg, Imm: v}), nil
	case strings.HasPrefix(ops[0], "[") && srcIsReg:
		mem, err := parseMem(ops[0])
		if err != nil {
			return asm.Item{}, err
		}
		op := isa.OpMovMR
		if byteOp {
			op = isa.OpMovBMR
		}
		return asm.InstItem(isa.Inst{Op: op, Src: srcReg, Mem: mem}), nil
	case strings.HasPrefix(ops[0], "["):
		mem, err := parseMem(ops[0])
		if err != nil {
			return asm.Item{}, err
		}
		v, err := parseImm(ops[1])
		if err != nil {
			return asm.Item{}, err
		}
		return asm.InstItem(isa.Inst{Op: isa.OpMovMI, Mem: mem, Imm: v}), nil
	default:
		return asm.Item{}, fmt.Errorf("unsupported mov operands %q, %q", ops[0], ops[1])
	}
}

// parseMem parses "[base + index*scale + disp]" with any subset of terms.
func parseMem(s string) (isa.MemRef, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return isa.MemRef{}, fmt.Errorf("bad memory operand %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	// Normalise "a - b" to "a + -b" so we can split on '+'.
	inner = strings.ReplaceAll(inner, "-", "+-")
	var m isa.MemRef
	m.Scale = 1
	for _, term := range strings.Split(inner, "+") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		if base, scale, hasStar := strings.Cut(term, "*"); hasStar {
			idx, ok := regNames[strings.TrimSpace(base)]
			if !ok {
				return isa.MemRef{}, fmt.Errorf("bad index register in %q", s)
			}
			sc, err := strconv.Atoi(strings.TrimSpace(scale))
			if err != nil || (sc != 1 && sc != 2 && sc != 4 && sc != 8) {
				return isa.MemRef{}, fmt.Errorf("bad scale in %q", s)
			}
			if m.HasIndex {
				return isa.MemRef{}, fmt.Errorf("two index terms in %q", s)
			}
			m.Index, m.Scale, m.HasIndex = idx, uint8(sc), true
			continue
		}
		if r, ok := regNames[term]; ok {
			if !m.HasBase {
				m.Base, m.HasBase = r, true
			} else if !m.HasIndex {
				m.Index, m.HasIndex = r, true
			} else {
				return isa.MemRef{}, fmt.Errorf("too many registers in %q", s)
			}
			continue
		}
		v, err := parseImm(term)
		if err != nil {
			return isa.MemRef{}, fmt.Errorf("bad term %q in %q", term, s)
		}
		m.Disp += int32(v)
	}
	return m, nil
}

func parseImm(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	out := int64(v)
	if neg {
		out = -out
	}
	return out, nil
}

// splitOperands splits on commas that are not inside brackets.
func splitOperands(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	for i, c := range s {
		switch c {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}
