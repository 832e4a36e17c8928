package compiler_test

import (
	"testing"

	"deflection/internal/compiler"
	"deflection/internal/obj"
	"deflection/internal/policy"
)

// TestProtocolEmitted: a declared interface protocol must survive
// compilation into the object's protocol table with resolved state indices
// and event numbers, so the in-enclave verifier sees exactly what the
// source declared.
func TestProtocolEmitted(t *testing.T) {
	src := `
protocol {
    state init;
    state ready attested;
    state end attested;
    init:  recv -> ready;
    ready: send -> ready;
    ready: hlt -> end;
}
int main() { return 0; }
`
	o, err := compiler.Compile(src, compiler.Options{Policies: policy.SetP1P8})
	if err != nil {
		t.Fatal(err)
	}
	p := o.Protocol
	if p == nil {
		t.Fatal("compiled object carries no protocol table")
	}
	if p.Start != 0 || len(p.States) != 3 || len(p.Edges) != 3 {
		t.Fatalf("protocol = %+v", p)
	}
	if p.States[0].Name != "init" || p.States[0].Attested || !p.States[1].Attested {
		t.Errorf("states = %+v", p.States)
	}
	want := []policy.Edge{
		{From: 0, Event: policy.OcallRecv, To: 1},
		{From: 1, Event: policy.OcallSend, To: 1},
		{From: 1, Event: policy.EventHlt, To: 2},
	}
	for i, e := range p.Edges {
		if e != want[i] {
			t.Errorf("edge %d = %+v, want %+v", i, e, want[i])
		}
	}

	// The table must also survive the wire format the enclave receives.
	got, err := obj.Unmarshal(o.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Protocol == nil || len(got.Protocol.Edges) != 3 {
		t.Fatalf("protocol lost on the wire: %+v", got.Protocol)
	}
}

// TestNoProtocolByDefault: programs without a protocol block compile to
// objects without a table — P8 then holds trivially downstream.
func TestNoProtocolByDefault(t *testing.T) {
	o, err := compiler.Compile(`int main() { return 0; }`, compiler.Options{Policies: policy.SetP1P8})
	if err != nil {
		t.Fatal(err)
	}
	if o.Protocol != nil {
		t.Fatalf("protocol table appeared from nowhere: %+v", o.Protocol)
	}
}
