package policy

import (
	"errors"
	"fmt"
)

// EventHlt is the pseudo-event of the program's terminating hlt in a
// protocol edge; every real interface event is a positive OCall index.
const EventHlt int64 = -1

// MaxStates bounds the protocol size so a reachable-state set fits one
// 64-bit word in the verifier's order pass.
const MaxStates = 64

// State is one protocol state. Attested marks states in which the
// attestation/provisioning exchange has completed and sealed output is
// admissible.
type State struct {
	Name     string
	Attested bool
}

// Edge admits interface event Event (an OCall index, or EventHlt) in state
// From and moves the automaton to state To.
type Edge struct {
	From  int64
	Event int64
	To    int64
}

// Protocol is the declared interface protocol carried by the object proof:
// a small DFA over interface events that policy P8's order pass checks the
// recovered CFG against. State identity is the index into States; Start is
// the state at program entry. Like the secret table it is part of the
// proof: the order pass's meta-rules reject protocols that would weaken
// P8, such as one admitting output from an unattested state.
type Protocol struct {
	Start  int64
	States []State
	Edges  []Edge
}

// Validate checks the protocol's structure: 1..MaxStates uniquely and
// non-emptily named states, a start state and edge states in range, and
// every edge event an OCall index or EventHlt. The object parser and the
// order pass both run it; each wraps the error in its own sentinel.
func (p *Protocol) Validate() error {
	n := int64(len(p.States))
	if n == 0 || n > MaxStates {
		return fmt.Errorf("protocol has %d states (want 1..%d)", n, MaxStates)
	}
	names := make(map[string]bool, n)
	for _, st := range p.States {
		if st.Name == "" {
			return errors.New("protocol state with empty name")
		}
		if names[st.Name] {
			return fmt.Errorf("protocol state %q declared twice", st.Name)
		}
		names[st.Name] = true
	}
	if p.Start < 0 || p.Start >= n {
		return fmt.Errorf("protocol start state %d out of range", p.Start)
	}
	for _, e := range p.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("protocol edge %d-[%d]->%d references an undefined state", e.From, e.Event, e.To)
		}
		if e.Event < EventHlt || e.Event == 0 {
			return fmt.Errorf("protocol edge event %d is neither an OCall index nor %d for hlt", e.Event, EventHlt)
		}
	}
	return nil
}
