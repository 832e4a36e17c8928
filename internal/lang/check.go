package lang

import (
	"fmt"

	"deflection/internal/policy"
)

// CheckError reports a semantic error.
type CheckError struct {
	Line, Col int
	Msg       string
}

// Error implements error.
func (e *CheckError) Error() string {
	if e.Line == 0 {
		return "lang: " + e.Msg
	}
	return fmt.Sprintf("lang: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Builtin signatures recognised by the checker. OCall builtins compile to
// OCALL instructions with a fixed argument-register convention; __sqrt maps
// to the FSQRT instruction; __trap to an explicit abort.
type builtinSig struct {
	params []*Type
	ret    *Type
}

var builtins = map[string]builtinSig{
	"__sqrt":        {params: []*Type{TypeFloat}, ret: TypeFloat},
	"__trap":        {params: nil, ret: TypeVoid},
	"__ocall_send":  {params: []*Type{PtrTo(TypeChar), TypeInt}, ret: TypeInt},
	"__ocall_recv":  {params: []*Type{PtrTo(TypeChar), TypeInt}, ret: TypeInt},
	"__ocall_print": {params: []*Type{TypeInt}, ret: TypeVoid},
	"__tid":         {params: nil, ret: TypeInt},
}

type checker struct {
	prog    *Program
	globals map[string]*SymbolInfo
	funcs   map[string]*FuncDecl

	// current function state
	fn        *FuncDecl
	scopes    []map[string]*SymbolInfo
	loopDepth int
	swDepth   int
}

// Check resolves names and types across the program, mutating the AST in
// place (Expr types, SymbolInfo links, FuncDecl.AddrTaken).
func Check(prog *Program) error {
	c := &checker{
		prog:    prog,
		globals: make(map[string]*SymbolInfo),
		funcs:   make(map[string]*FuncDecl),
	}
	for _, f := range prog.Funcs {
		if _, dup := c.funcs[f.Name]; dup {
			return &CheckError{Msg: fmt.Sprintf("duplicate function %q", f.Name)}
		}
		if _, isBuiltin := builtins[f.Name]; isBuiltin {
			return &CheckError{Msg: fmt.Sprintf("function %q shadows a builtin", f.Name)}
		}
		c.funcs[f.Name] = f
	}
	for _, g := range prog.Globals {
		if _, dup := c.globals[g.Name]; dup {
			return &CheckError{Msg: fmt.Sprintf("duplicate global %q", g.Name)}
		}
		if _, clash := c.funcs[g.Name]; clash {
			return &CheckError{Msg: fmt.Sprintf("global %q collides with a function", g.Name)}
		}
		if err := checkGlobalInit(g); err != nil {
			return err
		}
		g.Sym = &SymbolInfo{Name: g.Name, Ty: g.Ty, Global: true, DataSym: g.Name}
		c.globals[g.Name] = g.Sym
	}
	if _, ok := c.funcs["main"]; !ok {
		return &CheckError{Msg: "program has no main function"}
	}
	if err := checkProtocol(prog.Protocol); err != nil {
		return err
	}
	for _, f := range prog.Funcs {
		if err := c.checkFunc(f); err != nil {
			return err
		}
	}
	return nil
}

// protocolEvents maps event keywords to OCall indices (the generic "ocall"
// form carries its own index).
var protocolEvents = map[string]int64{
	"send":  policy.OcallSend,
	"recv":  policy.OcallRecv,
	"print": policy.OcallPrint,
	"tid":   policy.OcallThreadID,
	"hlt":   policy.EventHlt,
}

// checkProtocol resolves state and event names in a protocol declaration,
// filling FromIdx/ToIdx/EventIndex on every edge. Structural automaton
// properties (determinism, output gating, terminal closure) are enforced
// later by the verifier's order pass; here we only reject what can never
// assemble into a table.
func checkProtocol(d *ProtocolDecl) error {
	if d == nil {
		return nil
	}
	if len(d.States) == 0 {
		return &CheckError{Msg: "protocol declares no states"}
	}
	if len(d.States) > policy.MaxStates {
		return &CheckError{Msg: fmt.Sprintf("protocol declares %d states; at most %d supported", len(d.States), policy.MaxStates)}
	}
	idx := make(map[string]int, len(d.States))
	for i, st := range d.States {
		if _, dup := idx[st.Name]; dup {
			return &CheckError{Msg: fmt.Sprintf("duplicate protocol state %q", st.Name)}
		}
		idx[st.Name] = i
	}
	type key struct {
		from int
		ev   int64
	}
	seen := make(map[key]bool)
	for _, e := range d.Edges {
		from, ok := idx[e.From]
		if !ok {
			return &CheckError{Line: e.Line, Col: e.Col, Msg: fmt.Sprintf("protocol edge references unknown state %q", e.From)}
		}
		to, ok := idx[e.To]
		if !ok {
			return &CheckError{Line: e.Line, Col: e.Col, Msg: fmt.Sprintf("protocol edge references unknown state %q", e.To)}
		}
		var ev int64
		if e.Event == "ocall" {
			if e.Index <= 0 {
				return &CheckError{Line: e.Line, Col: e.Col, Msg: fmt.Sprintf("ocall event index must be positive, have %d", e.Index)}
			}
			ev = e.Index
		} else {
			ev, ok = protocolEvents[e.Event]
			if !ok {
				return &CheckError{Line: e.Line, Col: e.Col, Msg: fmt.Sprintf("unknown protocol event %q (want send, recv, print, tid, hlt or ocall <n>)", e.Event)}
			}
		}
		k := key{from, ev}
		if seen[k] {
			return &CheckError{Line: e.Line, Col: e.Col, Msg: fmt.Sprintf("duplicate protocol edge from %q on event %q", e.From, e.Event)}
		}
		seen[k] = true
		e.FromIdx, e.ToIdx, e.EventIndex = from, to, ev
	}
	return nil
}

func checkGlobalInit(g *GlobalVar) error {
	if !g.HasInit {
		return nil
	}
	switch g.Ty.Kind {
	case KindArray:
		if g.InitStr != "" {
			if g.Ty.Elem.Kind != KindChar {
				return &CheckError{Msg: fmt.Sprintf("global %q: string initialiser on non-char array", g.Name)}
			}
			if int64(len(g.InitStr))+1 > g.Ty.Size() {
				return &CheckError{Msg: fmt.Sprintf("global %q: string longer than array", g.Name)}
			}
			return nil
		}
		if int64(len(g.InitInts)) > g.Ty.Len {
			return &CheckError{Msg: fmt.Sprintf("global %q: too many initialisers", g.Name)}
		}
	case KindInt, KindFloat, KindChar:
		if len(g.InitInts) != 1 && len(g.InitFlts) != 1 {
			return &CheckError{Msg: fmt.Sprintf("global %q: scalar needs exactly one initialiser", g.Name)}
		}
	default:
		return &CheckError{Msg: fmt.Sprintf("global %q: cannot initialise type %s", g.Name, g.Ty)}
	}
	return nil
}

func (c *checker) errAt(e Expr, format string, args ...any) error {
	l, col := e.Pos()
	return &CheckError{Line: l, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (c *checker) push() { c.scopes = append(c.scopes, make(map[string]*SymbolInfo)) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(s *SymbolInfo) error {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[s.Name]; dup {
		return &CheckError{Msg: fmt.Sprintf("redeclaration of %q in %s", s.Name, c.fn.Name)}
	}
	top[s.Name] = s
	return nil
}

func (c *checker) lookup(name string) *SymbolInfo {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	if s, ok := c.globals[name]; ok {
		return s
	}
	if f, ok := c.funcs[name]; ok {
		return &SymbolInfo{Name: name, IsFunc: true, FuncSig: f}
	}
	return nil
}

func (c *checker) checkFunc(f *FuncDecl) error {
	c.fn = f
	c.scopes = nil
	c.loopDepth, c.swDepth = 0, 0
	c.push()
	defer c.pop()
	for _, p := range f.Params {
		if p.Ty.Kind == KindVoid || p.Ty.Kind == KindArray {
			return &CheckError{Msg: fmt.Sprintf("%s: parameter %q has invalid type %s", f.Name, p.Name, p.Ty)}
		}
		if err := c.declare(p); err != nil {
			return err
		}
	}
	return c.checkBlock(f.Body)
}

func (c *checker) checkBlock(b *Block) error {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch st := s.(type) {
	case *Block:
		return c.checkBlock(st)
	case *ExprStmt:
		return c.checkExpr(st.X)
	case *DeclStmt:
		if st.Ty.Kind == KindVoid {
			return &CheckError{Msg: fmt.Sprintf("%s: variable %q has void type", c.fn.Name, st.Name)}
		}
		if st.Init != nil {
			if st.Ty.Kind == KindArray {
				return &CheckError{Msg: fmt.Sprintf("%s: local array %q cannot have an initialiser", c.fn.Name, st.Name)}
			}
			if err := c.checkExpr(st.Init); err != nil {
				return err
			}
			if err := c.checkAssignable(st.Init, st.Ty, st.Init.Type()); err != nil {
				return err
			}
		}
		st.Sym = &SymbolInfo{Name: st.Name, Ty: st.Ty}
		return c.declare(st.Sym)
	case *If:
		if err := c.checkExpr(st.Cond); err != nil {
			return err
		}
		if err := c.checkStmt(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			return c.checkStmt(st.Else)
		}
		return nil
	case *While:
		if err := c.checkExpr(st.Cond); err != nil {
			return err
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkStmt(st.Body)
	case *DoWhile:
		if err := c.checkExpr(st.Cond); err != nil {
			return err
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkStmt(st.Body)
	case *For:
		c.push()
		defer c.pop()
		if st.Init != nil {
			if err := c.checkStmt(st.Init); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			if err := c.checkExpr(st.Cond); err != nil {
				return err
			}
		}
		if st.Post != nil {
			if err := c.checkExpr(st.Post); err != nil {
				return err
			}
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkStmt(st.Body)
	case *Return:
		if st.X == nil {
			if c.fn.Ret.Kind != KindVoid {
				return &CheckError{Msg: fmt.Sprintf("%s: missing return value", c.fn.Name)}
			}
			return nil
		}
		if c.fn.Ret.Kind == KindVoid {
			return &CheckError{Msg: fmt.Sprintf("%s: return with value in void function", c.fn.Name)}
		}
		if err := c.checkExpr(st.X); err != nil {
			return err
		}
		return c.checkAssignable(st.X, c.fn.Ret, st.X.Type())
	case *Break:
		if c.loopDepth == 0 && c.swDepth == 0 {
			return &CheckError{Msg: fmt.Sprintf("%s: break outside loop or switch", c.fn.Name)}
		}
		return nil
	case *Continue:
		if c.loopDepth == 0 {
			return &CheckError{Msg: fmt.Sprintf("%s: continue outside loop", c.fn.Name)}
		}
		return nil
	case *Switch:
		if err := c.checkExpr(st.X); err != nil {
			return err
		}
		if !st.X.Type().Decay().IsIntegral() {
			return &CheckError{Msg: fmt.Sprintf("%s: switch expression must be integral", c.fn.Name)}
		}
		seen := make(map[int64]bool)
		defaults := 0
		c.swDepth++
		defer func() { c.swDepth-- }()
		for _, cs := range st.Cases {
			if cs.IsDefault {
				defaults++
				if defaults > 1 {
					return &CheckError{Msg: fmt.Sprintf("%s: multiple default cases", c.fn.Name)}
				}
			} else {
				if seen[cs.Val] {
					return &CheckError{Msg: fmt.Sprintf("%s: duplicate case %d", c.fn.Name, cs.Val)}
				}
				seen[cs.Val] = true
			}
			for _, bs := range cs.Body {
				if err := c.checkStmt(bs); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		return &CheckError{Msg: fmt.Sprintf("unknown statement %T", s)}
	}
}

// checkAssignable validates storing a value of type from into a slot of
// type to. Numeric types convert implicitly (with truncation where needed);
// pointers are weakly typed as in pre-ANSI C.
func (c *checker) checkAssignable(at Expr, to, from *Type) error {
	from = from.Decay()
	switch {
	case to.IsNumeric() && from.IsNumeric():
		return nil
	case to.Kind == KindPtr && from.Kind == KindPtr:
		return nil
	case to.Kind == KindFnPtr && from.Kind == KindFnPtr:
		return nil
	default:
		return c.errAt(at, "cannot assign %s to %s", from, to)
	}
}

func (c *checker) checkExpr(e Expr) error {
	switch x := e.(type) {
	case *IntLit:
		if x.T == nil {
			x.T = TypeInt
		}
		return nil
	case *FloatLit:
		x.T = TypeFloat
		return nil
	case *StrLit:
		x.T = PtrTo(TypeChar)
		return nil
	case *Ident:
		sym := c.lookup(x.Name)
		if sym == nil {
			return c.errAt(x, "undefined: %s", x.Name)
		}
		x.Sym = sym
		if sym.IsFunc {
			// A bare function name is an fnptr value; taking it marks the
			// function address-taken so the generator plants a BRMARK and
			// lists it as a legitimate indirect-branch target.
			x.T = TypeFnPtr
			sym.FuncSig.AddrTaken = true
		} else {
			x.T = sym.Ty
		}
		return nil
	case *Unary:
		return c.checkUnary(x)
	case *Binary:
		return c.checkBinary(x)
	case *Cond:
		for _, sub := range []Expr{x.C, x.A, x.B} {
			if err := c.checkExpr(sub); err != nil {
				return err
			}
		}
		ta, tb := x.A.Type().Decay(), x.B.Type().Decay()
		switch {
		case ta.Equal(tb):
			x.T = ta
		case ta.IsNumeric() && tb.IsNumeric():
			if ta.Kind == KindFloat || tb.Kind == KindFloat {
				x.T = TypeFloat
			} else {
				x.T = TypeInt
			}
		default:
			return c.errAt(x, "mismatched ternary arms: %s vs %s", ta, tb)
		}
		return nil
	case *Index:
		if err := c.checkExpr(x.X); err != nil {
			return err
		}
		if err := c.checkExpr(x.I); err != nil {
			return err
		}
		base := x.X.Type().Decay()
		if base.Kind != KindPtr {
			return c.errAt(x, "cannot index %s", x.X.Type())
		}
		if !x.I.Type().Decay().IsIntegral() {
			return c.errAt(x, "array index must be integral, have %s", x.I.Type())
		}
		x.T = base.Elem
		return nil
	case *Call:
		return c.checkCall(x)
	case *Cast:
		if err := c.checkExpr(x.X); err != nil {
			return err
		}
		from := x.X.Type().Decay()
		to := x.To
		ok := false
		switch {
		case to.IsNumeric() && from.IsNumeric():
			ok = true
		case to.Kind == KindPtr && (from.Kind == KindPtr || from.Kind == KindInt):
			ok = true
		case to.Kind == KindInt && (from.Kind == KindPtr || from.Kind == KindFnPtr):
			ok = true
		case to.Kind == KindFnPtr && from.Kind == KindFnPtr:
			ok = true
		}
		if !ok {
			return c.errAt(x, "invalid cast from %s to %s", from, to)
		}
		x.T = to
		return nil
	case *Assign:
		if err := c.checkExpr(x.LHS); err != nil {
			return err
		}
		if !isLvalue(x.LHS) {
			return c.errAt(x, "left side of assignment is not assignable")
		}
		if err := c.checkExpr(x.RHS); err != nil {
			return err
		}
		if err := c.checkAssignable(x, x.LHS.Type(), x.RHS.Type()); err != nil {
			return err
		}
		x.T = x.LHS.Type()
		return nil
	default:
		return c.errAt(e, "unknown expression %T", e)
	}
}

func isLvalue(e Expr) bool {
	switch x := e.(type) {
	case *Ident:
		return x.Sym != nil && !x.Sym.IsFunc && x.Sym.Ty.Kind != KindArray
	case *Index:
		return true
	case *Unary:
		return x.Op == "*"
	default:
		return false
	}
}

func (c *checker) checkUnary(x *Unary) error {
	if err := c.checkExpr(x.X); err != nil {
		return err
	}
	t := x.X.Type().Decay()
	switch x.Op {
	case "-":
		if !t.IsNumeric() {
			return c.errAt(x, "operator - needs a numeric operand, have %s", t)
		}
		if t.Kind == KindFloat {
			x.T = TypeFloat
		} else {
			x.T = TypeInt
		}
	case "!":
		if !t.IsNumeric() && t.Kind != KindPtr && t.Kind != KindFnPtr {
			return c.errAt(x, "operator ! needs a scalar operand, have %s", t)
		}
		x.T = TypeInt
	case "~":
		if !t.IsIntegral() {
			return c.errAt(x, "operator ~ needs an integral operand, have %s", t)
		}
		x.T = TypeInt
	case "*":
		if t.Kind != KindPtr {
			return c.errAt(x, "cannot dereference %s", t)
		}
		x.T = t.Elem
	case "&":
		if id, ok := x.X.(*Ident); ok && id.Sym != nil && id.Sym.IsFunc {
			x.T = TypeFnPtr
			return nil
		}
		if !isLvalue(x.X) {
			// &array is allowed and yields a pointer to the element type.
			if id, ok := x.X.(*Ident); ok && id.Sym != nil && id.Sym.Ty.Kind == KindArray {
				x.T = PtrTo(id.Sym.Ty.Elem)
				return nil
			}
			return c.errAt(x, "cannot take the address of this expression")
		}
		x.T = PtrTo(x.X.Type())
	default:
		return c.errAt(x, "unknown unary operator %q", x.Op)
	}
	return nil
}

func (c *checker) checkBinary(x *Binary) error {
	if err := c.checkExpr(x.X); err != nil {
		return err
	}
	if err := c.checkExpr(x.Y); err != nil {
		return err
	}
	tx, ty := x.X.Type().Decay(), x.Y.Type().Decay()
	switch x.Op {
	case "&&", "||":
		x.T = TypeInt
		return nil
	case "==", "!=", "<", "<=", ">", ">=":
		if tx.IsNumeric() && ty.IsNumeric() || tx.Kind == KindPtr && ty.Kind == KindPtr ||
			tx.Kind == KindFnPtr && ty.Kind == KindFnPtr {
			x.T = TypeInt
			return nil
		}
		// Pointer vs integer-literal zero (NULL idiom).
		if tx.Kind == KindPtr && ty.IsIntegral() || ty.Kind == KindPtr && tx.IsIntegral() {
			x.T = TypeInt
			return nil
		}
		return c.errAt(x, "cannot compare %s and %s", tx, ty)
	case "%", "<<", ">>", "&", "|", "^":
		if !tx.IsIntegral() || !ty.IsIntegral() {
			return c.errAt(x, "operator %s needs integral operands, have %s and %s", x.Op, tx, ty)
		}
		x.T = TypeInt
		return nil
	case "+", "-":
		if tx.Kind == KindPtr && ty.IsIntegral() {
			x.T = tx
			return nil
		}
		if x.Op == "+" && tx.IsIntegral() && ty.Kind == KindPtr {
			x.T = ty
			return nil
		}
		if x.Op == "-" && tx.Kind == KindPtr && ty.Kind == KindPtr {
			x.T = TypeInt
			return nil
		}
		fallthrough
	case "*", "/":
		if !tx.IsNumeric() || !ty.IsNumeric() {
			return c.errAt(x, "operator %s needs numeric operands, have %s and %s", x.Op, tx, ty)
		}
		if tx.Kind == KindFloat || ty.Kind == KindFloat {
			x.T = TypeFloat
		} else {
			x.T = TypeInt
		}
		return nil
	default:
		return c.errAt(x, "unknown binary operator %q", x.Op)
	}
}

func (c *checker) checkCall(x *Call) error {
	// Builtin?
	if id, ok := x.Fn.(*Ident); ok {
		if sig, isB := builtins[id.Name]; isB {
			x.Builtin = id.Name
			if len(x.Args) != len(sig.params) {
				return c.errAt(x, "%s expects %d arguments, got %d", id.Name, len(sig.params), len(x.Args))
			}
			for i, a := range x.Args {
				if err := c.checkExpr(a); err != nil {
					return err
				}
				if err := c.checkAssignable(a, sig.params[i], a.Type()); err != nil {
					return err
				}
			}
			x.T = sig.ret
			return nil
		}
		if f, isFn := c.funcs[id.Name]; isFn {
			// Direct call. Resolve the ident as a function without marking
			// it address-taken.
			id.Sym = &SymbolInfo{Name: id.Name, IsFunc: true, FuncSig: f}
			id.T = TypeFnPtr
			if len(x.Args) != len(f.Params) {
				return c.errAt(x, "%s expects %d arguments, got %d", id.Name, len(f.Params), len(x.Args))
			}
			for i, a := range x.Args {
				if err := c.checkExpr(a); err != nil {
					return err
				}
				if err := c.checkAssignable(a, f.Params[i].Ty, a.Type()); err != nil {
					return err
				}
			}
			x.T = f.Ret
			return nil
		}
	}
	// Indirect call through an fnptr expression.
	if err := c.checkExpr(x.Fn); err != nil {
		return err
	}
	if x.Fn.Type().Decay().Kind != KindFnPtr {
		return c.errAt(x, "called value is not a function (type %s)", x.Fn.Type())
	}
	for _, a := range x.Args {
		if err := c.checkExpr(a); err != nil {
			return err
		}
	}
	// Indirect calls return int by convention.
	x.T = TypeInt
	return nil
}
