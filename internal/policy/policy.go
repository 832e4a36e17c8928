// Package policy defines the security policies of the DEFLECTION model
// (paper Section IV-B) and the annotation ABI shared between the untrusted
// code generator and the trusted verifier/loader: the annotation templates
// the generator plants and the verifier matches, and the placeholder
// immediates inside them that the loader's rewriter patches. It also
// defines the interface-event alphabet (the OCall indices) and the P8
// protocol over it that the object proof carries.
package policy

import (
	"fmt"
	"strings"
)

// ID names one security policy.
type ID uint8

// The policies of Section IV-B.
const (
	// P0: ECall/OCall interface constraint, output encryption and entropy
	// control. Enforced by enclave configuration (the manifest), not by
	// code instrumentation.
	P0 ID = iota
	// P1: no explicit out-of-enclave memory stores.
	P1
	// P2: no implicit out-of-enclave stores through RSP manipulation.
	P2
	// P3: no writes to security-critical in-enclave data (SSA, shadow
	// stack, branch-target table).
	P3
	// P4: no runtime code modification (software DEP).
	P4
	// P5: control-flow integrity for indirect branches and returns.
	P5
	// P6: AEX-frequency monitoring (side/covert channel mitigation).
	P6
	// P7: secret-taint confinement. Buffers tagged `secret` in the source
	// may flow to the outside world only through the sealed-output routine
	// (OcallSend); the verifier's static taint pass rejects binaries where
	// tainted bytes can reach an unsealed output, an untracked store, or an
	// indirect-branch target. Extends the paper's P0-P6 along the
	// STELLA/Guardian direction (see ROADMAP).
	P7
	// P8: interface orderliness. The object proof declares a protocol — a
	// small DFA over interface events (OCall indices and hlt) with an
	// attestation-complete state set — and the verifier's order pass proves
	// every event on every CFG path fires in a protocol state that admits
	// it: no output before attestation completes, no event after the
	// terminal state, no repeat of a single-shot exchange. Completes the
	// P-family along the Guardian interface-orderliness direction the same
	// way P7 completed data-flow compliance.
	P8

	numIDs
)

// String names the policy.
func (id ID) String() string {
	if id < numIDs {
		return fmt.Sprintf("P%d", uint8(id))
	}
	return fmt.Sprintf("P?(%d)", uint8(id))
}

// Set is a bitmask of policies. It widened from uint8 when P8 arrived; the
// object wire format still stores the low byte in its fixed header and
// carries the high byte in an optional extension tail so pre-P8 encodings
// stay byte-identical.
type Set uint16

// Bit returns the set containing only id.
func Bit(id ID) Set { return Set(1) << id }

// Predefined policy sets matching the columns of the paper's evaluation
// (Table II): P1 alone, P1+P2, P1-P5, and P1-P6. SetP1P7 adds the
// secret-taint policy on top of P1-P6, SetP1P8 the interface-orderliness
// policy on top of that; SetAll is everything including the interface
// policy P0.
const (
	SetNone Set = 0
	SetP1   Set = 1 << P1
	SetP1P2 Set = SetP1 | 1<<P2
	SetP1P5 Set = SetP1P2 | 1<<P3 | 1<<P4 | 1<<P5
	SetP1P6 Set = SetP1P5 | 1<<P6
	SetP1P7 Set = SetP1P6 | 1<<P7
	SetP1P8 Set = SetP1P7 | 1<<P8
	SetAll  Set = SetP1P8 | 1<<P0
)

// ParseSet parses the policy-set spellings shared by every CLI ("-policies"
// flags) and config surface. Accepted forms: "none", "p1", "p1+p2" (alias
// "p1-p2"), "p1-p5", "p1-p6", "p1-p7", "p1-p8", and "full" (alias "all").
// Matching is case-insensitive.
func ParseSet(s string) (Set, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none":
		return SetNone, nil
	case "p1":
		return SetP1, nil
	case "p1+p2", "p1-p2":
		return SetP1P2, nil
	case "p1-p5":
		return SetP1P5, nil
	case "p1-p6":
		return SetP1P6, nil
	case "p1-p7":
		return SetP1P7, nil
	case "p1-p8":
		return SetP1P8, nil
	case "full", "all":
		return SetAll, nil
	}
	return 0, fmt.Errorf("policy: unknown policy set %q (want none, p1, p1+p2, p1-p5, p1-p6, p1-p7, p1-p8 or full)", s)
}

// All lists every policy ID in ascending order (P0 through P7), for code
// that iterates the policy space (audit trails, trace rendering).
func All() []ID {
	out := make([]ID, 0, numIDs)
	for id := P0; id < numIDs; id++ {
		out = append(out, id)
	}
	return out
}

// Has reports whether the set contains id.
func (s Set) Has(id ID) bool { return s&Bit(id) != 0 }

// With returns the set extended with id.
func (s Set) With(id ID) Set { return s | Bit(id) }

// String renders the set like "P1+P2+P5".
func (s Set) String() string {
	if s == 0 {
		return "none"
	}
	var parts []string
	for id := P0; id < numIDs; id++ {
		if s.Has(id) {
			parts = append(parts, id.String())
		}
	}
	return strings.Join(parts, "+")
}

// Placeholder immediates planted by the code generator inside security
// annotations. The loader's immediate rewriter replaces them with the real
// enclave addresses after verification (paper Section V-B, "Imm rewriter";
// the store-bound values are the ones shown in the paper's Fig. 5).
const (
	// MagicStoreLo/Hi bound the destination of every guarded store
	// (policies P1, P3, P4 with a single contiguous range; see
	// enclave.Layout).
	MagicStoreLo = 0x3FFFFFFFFFFFFFFF
	MagicStoreHi = 0x4FFFFFFFFFFFFFFF
	// MagicStackLo/Hi bound RSP after explicit stack-pointer writes (P2).
	MagicStackLo = 0x5FFFFFFFFFFFFFFF
	MagicStackHi = 0x6FFFFFFFFFFFFFFF
)

// Placeholder disp32 values for the absolute memory operands of P6
// annotations. The rewriter patches them to the enclave's SSA marker and
// AEX counter slots.
const (
	MagicSSAMarkerDisp int32 = 0x7EE00010
	MagicAEXCountDisp  int32 = 0x7EE00018
)

// SSAMarkerMagic is the value the P6 annotation plants in the SSA's RAX
// save slot. A hardware AEX overwrites the slot with the live RAX, so
// finding any other value at check time means an AEX occurred.
const SSAMarkerMagic = 0x5AD00DFEEDFACE5A

// DefaultAEXThreshold is the default P6 abort threshold: the paper sets it
// by profiling the program in a benign environment; this default tolerates
// normal timer-interrupt rates but aborts under page-fault or cache-probing
// attack frequencies.
const DefaultAEXThreshold = 256

// DefaultAEXCheckInterval is q, the maximum number of user instructions
// between consecutive SSA marker inspections within one basic block.
const DefaultAEXCheckInterval = 20

// OCall indices of the bootstrap enclave's stub table (the only interfaces
// policy P0 exposes to target binaries). The register convention is
// RDI = pointer argument, RSI = length; the result arrives in RAX.
const (
	// OcallSend encrypts, pads and transmits a buffer to the data owner.
	OcallSend int64 = 1
	// OcallRecv receives and decrypts a buffer from the data owner.
	OcallRecv int64 = 2
	// OcallPrint emits one integer on the host's debug channel.
	OcallPrint int64 = 3
	// OcallThreadID returns the calling enclave thread's index in RAX
	// (multi-threading support, paper Section VII).
	OcallThreadID int64 = 4
)
