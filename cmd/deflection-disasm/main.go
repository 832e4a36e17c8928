// Command deflection-disasm inspects a target binary: its header, symbol
// table, relocation entries, branch-target list ("the proof"), a full
// disassembly optionally annotated with the verifier's findings, and the
// recovered control-flow graph.
//
// Usage:
//
//	deflection-disasm -verify p1-p6 service.dfo
//	deflection-disasm -cfg dot service.dfo | dot -Tsvg > cfg.svg
//
// Exit status: 0 clean, 1 on decode errors or a verifier rejection, 2 on
// usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"deflection/internal/apps"
	"deflection/internal/cfa"
	"deflection/internal/disasm"
	"deflection/internal/isa"
	"deflection/internal/obj"
	"deflection/internal/order"
	"deflection/internal/policy"
	"deflection/internal/verifier"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		verify = flag.String("verify", "", "also run the verifier with this policy set (p1|p1+p2|p1-p5|p1-p6|p1-p7|p1-p8|full)")
		cfg    = flag.String("cfg", "", "print the recovered control-flow graph instead of a listing (dot|text)")
		taintF = flag.Bool("taint", false, "annotate the -cfg output with the P7 pass: per-block register taint-in/out masks and findings (loads and verifies the object under p1-p7)")
		orderF = flag.Bool("order", false, "annotate the -cfg output with the P8 pass: per-block reachable protocol-state sets and findings (loads and verifies the object under p1-p8)")
		dump   = flag.Bool("d", true, "print disassembly")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: deflection-disasm [flags] service.dfo")
		flag.PrintDefaults()
		return 2
	}
	if *cfg != "" && *cfg != "dot" && *cfg != "text" {
		fmt.Fprintf(os.Stderr, "deflection-disasm: -cfg must be dot or text, got %q\n", *cfg)
		return 2
	}
	if (*taintF || *orderF) && *cfg == "" {
		fmt.Fprintln(os.Stderr, "deflection-disasm: -taint and -order require -cfg dot or -cfg text")
		return 2
	}
	if *taintF && *orderF {
		fmt.Fprintln(os.Stderr, "deflection-disasm: -taint and -order are mutually exclusive")
		return 2
	}
	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	o, err := obj.Unmarshal(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deflection-disasm: %v\n", err)
		return 1
	}

	if *taintF {
		return dumpAnnotatedCFG(o, *cfg, "taint")
	}
	if *orderF {
		return dumpAnnotatedCFG(o, *cfg, "order")
	}
	if *cfg != "" {
		return dumpCFG(o, *cfg)
	}

	fmt.Printf("entry: %s   claimed policies: %s\n", o.Entry, policy.Set(o.PolicyMask))
	fmt.Printf("text: %d bytes   data: %d bytes   bss: %d bytes\n", len(o.Text), len(o.Data), o.BSSSize)
	fmt.Printf("symbols: %d   relocs: %d   branch targets: %d\n\n", len(o.Symbols), len(o.Relocs), len(o.BranchTargets))

	fmt.Println("branch-target list (the proof):")
	for _, bt := range o.BranchTargets {
		s, _ := o.Symbol(bt.Symbol)
		fmt.Printf("  %#06x  %s\n", s.Offset, bt.Symbol)
	}
	fmt.Println()

	rejected := false
	var annot map[int64]bool
	if *verify != "" {
		pols, perr := policy.ParseSet(*verify)
		if perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			return 2
		}
		text, opts, lerr := apps.VerifyObject(o, pols)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, lerr)
			return 1
		}
		res, verr := verifier.Verify(text, opts)
		if verr != nil {
			fmt.Printf("verifier: REJECTED: %v\n\n", verr)
			rejected = true
		} else {
			fmt.Printf("verifier: ACCEPTED (%d instructions, %d store guards, %d cfi guards, %d AEX checks; cfg %d blocks/%d edges, %d anchors re-proved)\n\n",
				res.Stats.Instructions, res.Stats.StoreGuards, res.Stats.CFIGuards, res.Stats.AEXChecks,
				res.CFA.Blocks, res.CFA.Edges, res.CFA.Anchors)
			annot = make(map[int64]bool)
			for _, r := range res.AnnotRanges {
				for off := r.Lo; off < r.Hi; off++ {
					annot[off] = true
				}
			}
		}
	}

	badBytes := 0
	if *dump {
		badBytes = dumpListing(o, annot)
	}
	if rejected || badBytes > 0 {
		return 1
	}
	return 0
}

// dumpListing prints a structured (offset, mnemonic) listing of the whole
// text section. Undecodable bytes do not abort the listing: each is
// printed as a .byte line and decoding resynchronises at the next offset.
// Returns the number of undecodable bytes.
func dumpListing(o *obj.Object, annot map[int64]bool) int {
	labels := make(map[int64]string)
	for _, s := range o.Symbols {
		if s.Section == obj.SecText {
			labels[s.Offset] = s.Name
		}
	}
	bad := 0
	for off := int64(0); off < int64(len(o.Text)); {
		if name, ok := labels[off]; ok {
			fmt.Printf("\n%s:\n", name)
		}
		mark := "  "
		if annot[off] {
			mark = "@ " // annotation code
		}
		in, n, err := isa.Decode(o.Text[off:])
		if err != nil {
			fmt.Printf("%s%#06x  .byte %#02x ; undecodable: %v\n", mark, off, o.Text[off], err)
			bad++
			off++
			continue
		}
		fmt.Printf("%s%#06x  %s\n", mark, off, in.String())
		off += int64(n)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "deflection-disasm: %d undecodable byte(s) in text\n", bad)
	}
	return bad
}

// dumpCFG recovers the control-flow graph the verifier would reason over
// and renders it as graphviz dot or a plain-text block listing.
func dumpCFG(o *obj.Object, format string) int {
	entry, ok := o.Symbol(o.Entry)
	if !ok {
		fmt.Fprintf(os.Stderr, "deflection-disasm: entry symbol %q not found\n", o.Entry)
		return 1
	}
	entries := []int64{entry.Offset}
	var targets []int64
	for _, bt := range o.BranchTargets {
		s, _ := o.Symbol(bt.Symbol) // Unmarshal validated every target
		targets = append(targets, s.Offset)
		entries = append(entries, s.Offset)
	}
	dis, err := disasm.Disassemble(o.Text, entries)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deflection-disasm: %v\n", err)
		return 1
	}
	g := cfa.Build(dis, entry.Offset, targets)
	printCFG(g, format, nil)
	if format == "text" {
		for _, r := range g.DeadRanges(len(o.Text)) {
			fmt.Printf("dead [%#06x, %#06x): %d bytes unreachable\n", r.Lo, r.Hi, r.Hi-r.Lo)
		}
	}
	return 0
}

// dumpAnnotatedCFG loads and relocates the object exactly as the runtime
// would, runs a full verification up to the requested dataflow pass (p1-p7
// for taint, p1-p8 for order), and renders the CFG over the relocated text
// annotated with the per-block masks and inline findings of the pass's
// report in the Result, whether the binary is accepted or rejected. The
// verdict goes to stderr so dot output on stdout stays valid graphviz.
func dumpAnnotatedCFG(o *obj.Object, format, pass string) int {
	pols, policyID, holds := policy.SetP1P7, "P7", "no secret buffers tagged; P7 holds trivially"
	if pass == "order" {
		pols, policyID, holds = policy.SetP1P8, "P8", "no interface protocol declared; P8 holds trivially"
	}
	text, opts, err := apps.VerifyObject(o, pols)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res, verr := verifier.Verify(text, opts)
	ann := &annotation{tag: "TAINT", label: "taint", names: regMask,
		red: func(m cfa.Masks, _ bool) bool { return m.In|m.Out != 0 }}
	if pass == "order" {
		p := opts.Order
		ann = &annotation{tag: "ORDER", label: "states",
			names: func(m uint64) string { return "{" + order.StateNames(p, m) + "}" },
			red:   func(_ cfa.Masks, finding bool) bool { return finding }}
		if p != nil {
			ann.header = fmt.Sprintf("protocol: %d states, start %q\n", len(p.States), p.States[p.Start].Name)
		}
	}
	switch {
	case res == nil:
	case pass == "order":
		ann.rep = res.Order
	case res.Taint != nil:
		ann.rep = &res.Taint.Report
	}
	switch {
	case verr != nil:
		fmt.Fprintf(os.Stderr, "verifier: REJECTED: %v\n", verr)
	case ann.rep != nil && ann.rep.Trivial:
		fmt.Fprintf(os.Stderr, "verifier: ACCEPTED (%s)\n", holds)
	default:
		fmt.Fprintln(os.Stderr, "verifier: ACCEPTED")
	}
	if ann.rep == nil {
		fmt.Fprintf(os.Stderr, "deflection-disasm: %s annotations unavailable (an earlier pass rejected the binary before %s ran)\n", pass, policyID)
	}

	offs := opts.BranchTargetOffsets
	dis, err := disasm.Disassemble(text, append([]int64{opts.EntryOffset}, offs...))
	if err != nil {
		fmt.Fprintf(os.Stderr, "deflection-disasm: %v\n", err)
		return 1
	}
	printCFG(cfa.Build(dis, opts.EntryOffset, offs), format, ann)
	if verr != nil {
		return 1
	}
	return 0
}

// annotation decorates a CFG rendering with one dataflow pass's report. A
// nil annotation renders the bare graph with each block's predecessors and
// immediate dominator.
type annotation struct {
	rep    *cfa.Report // nil: the pass did not run
	tag    string      // marks findings: TAINT or ORDER
	label  string      // names the block masks: taint or states
	header string      // extra text header lines
	// names renders a block mask; red reports whether dot draws a block
	// red, given its masks and whether it holds a finding.
	names func(mask uint64) string
	red   func(m cfa.Masks, finding bool) bool
}

// block renders b's masks as a text header suffix and a dot label line;
// both are empty when the pass did not run or held without analysis.
func (a *annotation) block(b *cfa.Block) (text, dot string) {
	if a.rep == nil || a.rep.Trivial {
		return "", ""
	}
	m, ok := a.rep.Blocks[b.ID]
	if !ok {
		return fmt.Sprintf(" %s: unreached", a.label), ""
	}
	in, out := a.names(m.In), a.names(m.Out)
	return fmt.Sprintf(" %s-in=%s %s-out=%s", a.label, in, a.label, out), fmt.Sprintf("%s in=%s out=%s\\l", a.label, in, out)
}

// printCFG renders g as a plain-text block listing or in Graphviz dot
// syntax, decorated by ann.
func printCFG(g *cfa.Graph, format string, ann *annotation) {
	var findings map[int64]cfa.Finding
	header := ""
	if ann != nil {
		header = ann.header
		if ann.rep != nil {
			findings = byOffset(ann.rep.Findings)
		}
	}
	if format == "text" {
		fmt.Printf("cfg: %d blocks, %d edges, entry %#x, %d listed targets\n%s",
			len(g.Blocks)-1, g.Edges, g.Entry, len(g.Targets), header)
		for _, b := range g.Blocks[1:] {
			fmt.Printf("block %d [%#06x, %#06x) succs=%v", b.ID, b.Start, b.End, b.Succs)
			if ann == nil {
				fmt.Printf(" preds=%v idom=%d", b.Preds, g.Idom(b.ID))
			} else {
				text, _ := ann.block(b)
				fmt.Print(text)
			}
			fmt.Println()
			for _, in := range b.Insts {
				fmt.Printf("  %#06x  %s", in.Off, in.Inst.String())
				if f, ok := findings[in.Off]; ok {
					fmt.Printf("   ; %s %s: %s", ann.tag, f.Kind, f.Msg)
				}
				fmt.Println()
			}
		}
		return
	}
	fmt.Println("digraph cfg {\n  node [shape=box fontname=\"monospace\"];")
	fmt.Println("  root [label=\"root\" shape=ellipse];")
	for _, b := range g.Blocks[1:] {
		var lbl strings.Builder
		fmt.Fprintf(&lbl, "[%#06x, %#06x)\\l", b.Start, b.End)
		if ann != nil {
			_, dot := ann.block(b)
			lbl.WriteString(dot)
		}
		finding := false
		for _, in := range b.Insts {
			fmt.Fprintf(&lbl, "%#06x  %s\\l", in.Off, in.Inst.String())
			if f, ok := findings[in.Off]; ok {
				fmt.Fprintf(&lbl, "  !! %s %s\\l", ann.tag, f.Kind)
				finding = true
			}
		}
		attr := ""
		if ann != nil && ann.rep != nil && ann.red(ann.rep.Blocks[b.ID], finding) {
			attr = " color=red"
		}
		fmt.Printf("  b%d [label=\"%s\"%s];\n", b.ID, lbl.String(), attr)
	}
	name := func(id int) string {
		if id == cfa.Root {
			return "root"
		}
		return fmt.Sprintf("b%d", id)
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			fmt.Printf("  %s -> %s;\n", name(b.ID), name(s))
		}
	}
	fmt.Println("}")
}

func byOffset(fs []cfa.Finding) map[int64]cfa.Finding {
	m := make(map[int64]cfa.Finding, len(fs))
	for _, f := range fs {
		m[f.Off] = f
	}
	return m
}

// regMask renders a register-taint bitmask as a comma list ("-" = clean).
func regMask(m uint64) string {
	if m == 0 {
		return "-"
	}
	var parts []string
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if m&(1<<r) != 0 {
			parts = append(parts, r.String())
		}
	}
	return strings.Join(parts, ",")
}
