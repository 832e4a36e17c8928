package obj_test

import (
	"bytes"
	"errors"
	"testing"

	"deflection/internal/asm"
	"deflection/internal/isa"
	"deflection/internal/obj"
	"deflection/internal/policy"
)

func sampleProtocol() *policy.Protocol {
	return &policy.Protocol{
		Start: 0,
		States: []policy.State{
			{Name: "init"},
			{Name: "ready", Attested: true},
			{Name: "end", Attested: true},
		},
		Edges: []policy.Edge{
			{From: 0, Event: 2, To: 1},
			{From: 1, Event: 1, To: 1},
			{From: 1, Event: policy.EventHlt, To: 2},
		},
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	base := sampleObject(t)
	b0 := base.Marshal()

	o, err := obj.Unmarshal(b0)
	if err != nil {
		t.Fatal(err)
	}
	o.Protocol = sampleProtocol()
	got, err := obj.Unmarshal(o.Marshal())
	if err != nil {
		t.Fatalf("object with protocol table rejected: %v", err)
	}
	p := got.Protocol
	if p == nil {
		t.Fatal("protocol table did not survive the round trip")
	}
	if p.Start != 0 || len(p.States) != 3 || len(p.Edges) != 3 {
		t.Fatalf("round-tripped protocol = %+v", p)
	}
	if p.States[1].Name != "ready" || !p.States[1].Attested || p.States[0].Attested {
		t.Errorf("states did not round trip: %+v", p.States)
	}
	if p.Edges[2] != (policy.Edge{From: 1, Event: policy.EventHlt, To: 2}) {
		t.Errorf("edges did not round trip: %+v", p.Edges)
	}

	// Byte-stability: dropping the protocol again must reproduce the exact
	// pre-P8 encoding, so existing binary hashes, verdict-cache keys and
	// certificate digests are unaffected by this TCB revision.
	got.Protocol = nil
	if !bytes.Equal(got.Marshal(), b0) {
		t.Error("object without a protocol must marshal byte-identically to the legacy layout")
	}
}

func TestProtocolWithSecretsRoundTrip(t *testing.T) {
	o, err := obj.Unmarshal(sampleObject(t).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	o.Secrets = []string{"greeting"}
	o.Protocol = sampleProtocol()
	got, err := obj.Unmarshal(o.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Secrets) != 1 || got.Secrets[0] != "greeting" {
		t.Errorf("secrets lost next to a protocol: %v", got.Secrets)
	}
	if got.Protocol == nil || len(got.Protocol.Edges) != 3 {
		t.Errorf("protocol lost next to secrets: %+v", got.Protocol)
	}
}

func TestHighPolicyMaskRoundTrip(t *testing.T) {
	o, err := obj.Unmarshal(sampleObject(t).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	// P8 claims force the extension tail even without secrets or protocol.
	o.PolicyMask = 0x1ff
	got, err := obj.Unmarshal(o.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.PolicyMask != 0x1ff {
		t.Fatalf("policy mask = %#x, want 0x1ff", got.PolicyMask)
	}
	if got.Protocol != nil || got.Secrets != nil {
		t.Errorf("phantom tails appeared: secrets=%v protocol=%+v", got.Secrets, got.Protocol)
	}
}

// TestProtocolValidation: Unmarshal rejects every protocol table that
// breaks a structural rule of policy.Protocol.Validate.
func TestProtocolValidation(t *testing.T) {
	base, err := obj.Unmarshal(sampleObject(t).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*policy.Protocol{
		"no states":       {},
		"start range":     {Start: 5, States: []policy.State{{Name: "a"}}},
		"negative start":  {Start: -1, States: []policy.State{{Name: "a"}}},
		"empty name":      {States: []policy.State{{Name: ""}}},
		"duplicate name":  {States: []policy.State{{Name: "a"}, {Name: "a"}}},
		"edge from":       {States: []policy.State{{Name: "a"}}, Edges: []policy.Edge{{From: -1, Event: 2, To: 0}}},
		"edge to":         {States: []policy.State{{Name: "a"}}, Edges: []policy.Edge{{From: 0, Event: 2, To: 7}}},
		"event zero":      {States: []policy.State{{Name: "a"}}, Edges: []policy.Edge{{From: 0, Event: 0, To: 0}}},
		"event below hlt": {States: []policy.State{{Name: "a"}}, Edges: []policy.Edge{{From: 0, Event: -2, To: 0}}},
	}
	tooMany := &policy.Protocol{}
	for i := 0; i <= policy.MaxStates; i++ {
		tooMany.States = append(tooMany.States, policy.State{Name: string(rune('a'+i%26)) + string(rune('0'+i/26))})
	}
	cases["too many states"] = tooMany
	for name, p := range cases {
		base.Protocol = p
		if _, err := obj.Unmarshal(base.Marshal()); !errors.Is(err, obj.ErrBadObject) {
			t.Errorf("%s in protocol table: Unmarshal = %v, want ErrBadObject", name, err)
		}
	}
}

func TestAssemblerSetProtocol(t *testing.T) {
	a := asm.NewAssembler()
	if err := a.AddFunc("main", []asm.Item{asm.InstItem(isa.Inst{Op: isa.OpHlt})}); err != nil {
		t.Fatal(err)
	}
	a.SetEntry("main")
	a.SetProtocol(sampleProtocol())
	o, err := a.Assemble(uint16(0x100))
	if err != nil {
		t.Fatal(err)
	}
	if o.Protocol == nil || len(o.Protocol.States) != 3 {
		t.Fatalf("assembled protocol = %+v", o.Protocol)
	}
	got, err := obj.Unmarshal(o.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.PolicyMask != 0x100 || got.Protocol == nil {
		t.Fatalf("mask=%#x protocol=%+v after round trip", got.PolicyMask, got.Protocol)
	}

	// An invalid protocol is caught at Assemble time.
	a2 := asm.NewAssembler()
	if err := a2.AddFunc("main", []asm.Item{asm.InstItem(isa.Inst{Op: isa.OpHlt})}); err != nil {
		t.Fatal(err)
	}
	a2.SetEntry("main")
	a2.SetProtocol(&policy.Protocol{States: []policy.State{{Name: ""}}})
	if _, err := a2.Assemble(0); err == nil {
		t.Fatal("invalid protocol accepted at Assemble time")
	}
}
