// Genome analysis with full attestation: the paper's flagship scenario,
// driven end-to-end over the Section III-A wire protocol.
//
// A hospital (data owner) holds two genomic sequences. A pharma company
// (code provider) owns a proprietary Needleman-Wunsch implementation it
// refuses to disclose. The hospital attests the PUBLIC bootstrap enclave —
// not the private algorithm — over a real connection (quote, IAS
// verification, role-separated key agreement with key confirmation), and
// only then uploads sequences; results come back sealed under the session
// key, padded to fixed-size blocks (policy P0).
//
// Run with: go run ./examples/genome
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"net"

	"deflection"
	"deflection/attest"
	"deflection/internal/apps"
	"deflection/internal/ra"
)

func main() {
	// ---- Platform provisioning (hardware vendor + attestation service).
	platform, err := attest.NewPlatform("sgx-cpu-0042")
	if err != nil {
		log.Fatal(err)
	}
	ias := attest.NewService()
	ias.Register(platform)

	// ---- Host side: launch the bootstrap enclave.
	encl, err := deflection.NewEnclave(deflection.EnclaveOptions{Policies: deflection.PolicyP1P6})
	if err != nil {
		log.Fatal(err)
	}

	// ---- Key agreement over a real connection (paper Section III-A). The
	// enclave generates its key; the host gets the platform's quote over it.
	sess := ra.NewEnclaveSession()
	quote, err := platform.Quote(encl.Measurement(), sess.ReportData())
	if err != nil {
		log.Fatal(err)
	}
	hostConn, ownerConn := net.Pipe()
	defer hostConn.Close()
	defer ownerConn.Close()

	type ownerSide struct {
		key []byte
		err error
	}
	ownerDone := make(chan ownerSide, 1)
	go func() {
		// The data owner verifies the quote against the published
		// bootstrap-enclave build and derives the session key.
		expected := encl.Measurement()
		key, _, err := attest.PartyHandshake(ownerConn, ias, expected, ra.RoleDataOwner)
		ownerDone <- ownerSide{key: key, err: err}
	}()
	if err := sess.SendHello(hostConn, quote); err != nil {
		log.Fatal(err)
	}
	role, _, err := sess.Accept(hostConn)
	if err != nil {
		log.Fatalf("enclave-side handshake: %v", err)
	}
	owner := <-ownerDone
	if owner.err != nil {
		log.Fatalf("owner-side handshake: %v", owner.err)
	}
	fmt.Printf("attested key agreement complete (role %s, key confirmation verified)\n", role)

	// The enclave installs the negotiated key; outputs are sealed from
	// here on.
	enclKey, err := sess.Key(ra.RoleDataOwner)
	if err != nil {
		log.Fatal(err)
	}
	if err := encl.Bootstrap().SetSessionKey(enclKey); err != nil {
		log.Fatal(err)
	}

	// ---- Code provider: deliver the private binary (the hospital never
	// sees this source).
	bin, err := deflection.Generate(apps.NWSource, deflection.GeneratorOptions{
		Policies: deflection.PolicyP1P6,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := encl.Load(bin)
	if err != nil {
		log.Fatalf("compliance verification failed: %v", err)
	}
	fmt.Printf("private binary verified (hash %x..., %d annotations checked)\n",
		rep.BinaryHash[:6], rep.Stats.StoreGuards+rep.Stats.CFIGuards+rep.Stats.AEXChecks)

	// ---- Data owner uploads sequences (synthetic stand-ins for 1000
	// Genomes FASTA data) and the verified service aligns them.
	seqA := apps.RandomSequence(300, 1)
	seqB := apps.RandomSequence(300, 2)
	encl.Send(seqA)
	encl.Send(seqB)
	res, err := encl.Run(deflection.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if res.Trapped {
		log.Fatalf("aborted: %s", res.TrapReason)
	}

	// The only thing that left the enclave: one sealed, padded message.
	fmt.Printf("outputs: %d sealed message(s), %d bytes each (padded)\n",
		len(res.Outputs), len(res.Outputs[0]))
	plain, err := deflection.OpenOutput(owner.key, res.Outputs[0])
	if err != nil {
		log.Fatalf("owner could not open result: %v", err)
	}
	score := int64(binary.LittleEndian.Uint64(plain))
	fmt.Printf("alignment score (decrypted by the data owner): %d\n", score)

	// A third party without the session key learns nothing.
	if _, err := deflection.OpenOutput(make([]byte, 32), res.Outputs[0]); err == nil {
		log.Fatal("output opened without the session key!")
	}
	fmt.Println("third party without the key: decryption fails, as it must")
}
