package lang

import (
	"strings"
	"testing"

	"deflection/internal/policy"
)

const protoMain = "int main() { return 0; }\n"

// parseAndCheck runs the full frontend on src.
func parseAndCheck(t *testing.T, src string) (*Program, error) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return prog, Check(prog)
}

func TestProtocolParsedAndResolved(t *testing.T) {
	src := `
protocol {
    state init;
    state ready attested;
    state end attested;
    init:  recv -> ready;
    ready: send -> ready;
    ready: ocall 9 -> ready;
    ready: hlt -> end;
}
` + protoMain
	prog, err := parseAndCheck(t, src)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Protocol
	if p == nil {
		t.Fatal("protocol not attached to the program")
	}
	if len(p.States) != 3 || len(p.Edges) != 4 {
		t.Fatalf("protocol has %d states, %d edges; want 3, 4", len(p.States), len(p.Edges))
	}
	if p.States[0].Name != "init" || p.States[0].Attested {
		t.Errorf("state 0 = %+v, want unattested init", p.States[0])
	}
	if !p.States[1].Attested || !p.States[2].Attested {
		t.Error("attested flags lost")
	}
	wantEvents := []int64{2, 1, 9, -1}
	for i, e := range p.Edges {
		if e.EventIndex != wantEvents[i] {
			t.Errorf("edge %d resolved event = %d, want %d", i, e.EventIndex, wantEvents[i])
		}
	}
	if e := p.Edges[0]; e.FromIdx != 0 || e.ToIdx != 1 {
		t.Errorf("edge 0 resolved to %d->%d, want 0->1", e.FromIdx, e.ToIdx)
	}
	if e := p.Edges[3]; e.FromIdx != 1 || e.ToIdx != 2 {
		t.Errorf("hlt edge resolved to %d->%d, want 1->2", e.FromIdx, e.ToIdx)
	}
}

func TestProtocolWithoutDeclaration(t *testing.T) {
	prog, err := parseAndCheck(t, protoMain)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Protocol != nil {
		t.Fatal("program without a protocol block grew one")
	}
}

func TestProtocolParseErrors(t *testing.T) {
	cases := map[string]string{
		"duplicate block": `
protocol { state a; }
protocol { state b; }
` + protoMain,
		"unterminated block": `protocol { state a; ` + protoMain,
		"missing arrow":      `protocol { state a; a: recv a; }` + protoMain,
		"missing semicolon":  `protocol { state a a: recv -> a; }` + protoMain,
		"ocall without index": `
protocol { state a; a: ocall -> a; }` + protoMain,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(src); err == nil {
				t.Fatalf("parse accepted %s", name)
			}
		})
	}
}

func TestProtocolCheckErrors(t *testing.T) {
	cases := map[string]struct {
		src  string
		want string
	}{
		"no states": {want: "no states", src: `
protocol { }` + protoMain},
		"duplicate state": {want: "duplicate protocol state", src: `
protocol { state a; state a; }` + protoMain},
		"unknown from": {want: "unknown state", src: `
protocol { state a; b: recv -> a; }` + protoMain},
		"unknown to": {want: "unknown state", src: `
protocol { state a; a: recv -> b; }` + protoMain},
		"unknown event": {want: "unknown protocol event", src: `
protocol { state a; a: sendx -> a; }` + protoMain},
		"nonpositive ocall": {want: "must be positive", src: `
protocol { state a; a: ocall 0 -> a; }` + protoMain},
		"duplicate edge": {want: "duplicate protocol edge", src: `
protocol { state a; state b; a: recv -> a; a: recv -> b; }` + protoMain},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := parseAndCheck(t, tc.src)
			if err == nil {
				t.Fatalf("check accepted %s", name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestProtocolTooManyStates(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("protocol {\n")
	for i := 0; i <= policy.MaxStates; i++ {
		sb.WriteString("state s")
		sb.WriteString(strings.Repeat("x", i+1))
		sb.WriteString(";\n")
	}
	sb.WriteString("}\n")
	sb.WriteString(protoMain)
	_, err := parseAndCheck(t, sb.String())
	if err == nil || !strings.Contains(err.Error(), "at most") {
		t.Fatalf("err = %v, want state-count rejection", err)
	}
}

// TestProtocolStateIsContextual: "state" and "attested" are not reserved
// words — ordinary code can still use them as identifiers.
func TestProtocolStateIsContextual(t *testing.T) {
	src := `
protocol { state attested attested; }
int main() { int state = 1; int attested = 2; return state + attested; }
`
	prog, err := parseAndCheck(t, src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Protocol.States[0].Name != "attested" || !prog.Protocol.States[0].Attested {
		t.Fatalf("state decl parsed as %+v", prog.Protocol.States[0])
	}
}
