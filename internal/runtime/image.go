package runtime

import (
	"errors"
	"fmt"

	"deflection/internal/enclave"
	"deflection/internal/loader"
	"deflection/internal/stage"
	"deflection/internal/verifier"
)

// Image is the portable product of a successful load+verify+rewrite cycle:
// the relocated, annotation-rewritten text, the initialised data segment,
// the translated branch-target table, and the metadata Run needs. An Image
// is bound to one enclave Layout (every address baked into the text is
// absolute), and once built it is immutable — the verification plane shares
// one Image across many sessions, and InstallImage copies it into each
// session's private enclave memory, so no writable state is ever aliased
// between tenants.
type Image struct {
	// BinaryHash is the SHA-256 of the serialised object the image was
	// verified from (what the data owner recognises).
	BinaryHash [32]byte

	// Entry is the absolute address of the entry symbol.
	Entry uint64
	// TextBase/TextEnd delimit the relocated code.
	TextBase, TextEnd uint64
	// DataBase is where .data begins; HeapFree is the first free heap
	// address after .bss.
	DataBase, HeapFree uint64

	// Text is the verified, rewritten code — placeholder immediates already
	// resolved to the layout's enclave addresses.
	Text []byte
	// Data is the initialised segment from DataBase: relocated .data, then
	// the zeroed .bss up to HeapFree. An Image from SnapshotImage or
	// BuildImage always runs to HeapFree; the bootstrap's own record of a
	// ReceiveBinary load stops at the end of .data (the rest of a fresh
	// enclave's heap is already zero), so a cold load never allocates the
	// .bss. InstallImage accepts either form.
	Data []byte
	// BranchTable is the raw read-only branch-table region content.
	BranchTable []byte
	// BranchTargets are the translated indirect-branch targets, in proof
	// order.
	BranchTargets []uint64

	// AnnotRanges are the verifier's annotation spans (text offsets), used
	// by the CPU timing model.
	AnnotRanges []verifier.Range
	// Stats, Rewrites and Audit are the original verification's verdict
	// evidence, replayed into every cache-hit LoadReport.
	Stats    verifier.Stats
	Rewrites loader.RewriteStats
	Audit    []verifier.PolicyAudit

	// Layout is the enclave address map the image was built for; install
	// targets must match it exactly.
	Layout enclave.Layout
}

// SizeBytes estimates the image's retained memory, for cache accounting.
func (img *Image) SizeBytes() int64 {
	const structOverhead = 512
	return structOverhead +
		int64(len(img.Text)) +
		int64(len(img.Data)) +
		int64(len(img.BranchTable)) +
		int64(len(img.BranchTargets))*8 +
		int64(len(img.AnnotRanges))*16 +
		int64(len(img.Audit))*96
}

// ErrNoLoadedImage is returned by SnapshotImage before a successful load.
var ErrNoLoadedImage = errors.New("runtime: no verified binary to snapshot")

// ErrLayoutMismatch is returned by InstallImage when the image was built
// for a different enclave layout.
var ErrLayoutMismatch = errors.New("runtime: image layout does not match enclave")

// withBSS returns a copy of img whose Data runs to HeapFree: the .data it
// holds followed by the zeroed .bss.
func (img *Image) withBSS() *Image {
	out := *img
	if n := img.HeapFree - img.DataBase; n > 0 {
		out.Data = make([]byte, n)
		copy(out.Data, img.Data)
	}
	return &out
}

// SnapshotImage returns the loaded, verified, rewritten binary as an
// immutable Image whose Data runs to HeapFree, built from the bootstrap's
// record of the load rather than read back from enclave memory, so it is
// the same whether or not the service has run since. rep is ignored: the
// record already holds the load's verdict evidence, and the parameter is
// kept only so existing callers compile.
func (b *Bootstrap) SnapshotImage(rep *LoadReport) (*Image, error) {
	if b.loaded == nil {
		return nil, ErrNoLoadedImage
	}
	return b.loaded.withBSS(), nil
}

// InstallImage loads a previously verified Image into this bootstrap's
// enclave, skipping parse, disassembly, verification and rewriting entirely
// — the cache-hit fast path of the verification plane. The image bytes are
// copied into the enclave's private memory (never aliased), so concurrent
// sessions installed from the same Image cannot observe each other's
// writable state. The enclave's layout must match the one the image was
// built for.
func (b *Bootstrap) InstallImage(img *Image) (*LoadReport, error) {
	if img == nil {
		return nil, ErrNoLoadedImage
	}
	tr := stage.NewTraceWithClock("install_image", b.traceClock)
	b.setLastTrace(tr)

	if b.encl.Layout != img.Layout {
		tr.Add("install_text", 0, "error", ErrLayoutMismatch.Error())
		return nil, fmt.Errorf("%w: image built for a different address map", ErrLayoutMismatch)
	}
	return b.install(img, tr)
}

// install is the one writer of a binary into enclave memory, and runs only
// on a verified image: it copies the text and data, publishes the branch
// table through a temporary RW window on its read-only region, seals the
// code pages RX under SGXv2 (hardware DEP instead of relying on P4's
// software check alone), records img as the loaded binary and returns the
// load's report. ReceiveBinary and InstallImage both end here.
func (b *Bootstrap) install(img *Image, tr *stage.Trace) (*LoadReport, error) {
	b.loaded = nil // a half-written install is not runnable
	mem, l := b.encl.Mem, b.encl.Layout
	fail := func(tm *stage.Timer, what string, err error) (*LoadReport, error) {
		tm.End("error", err.Error())
		return nil, fmt.Errorf("runtime: installing %s: %w", what, err)
	}

	tm := tr.Start("install_text")
	if f := mem.Write(img.TextBase, img.Text); f != nil {
		return fail(tm, "text", f)
	}
	tm.End("text_bytes", len(img.Text))

	tm = tr.Start("install_data")
	if len(img.Data) > 0 {
		if f := mem.Write(img.DataBase, img.Data); f != nil {
			return fail(tm, "data", f)
		}
	}
	tm.End("data_bytes", len(img.Data))

	tm = tr.Start("install_table")
	if len(img.BranchTable) > 0 {
		// SetPerm fails only for a range outside memory; the enclave's own
		// branch-table region is inside it.
		_ = mem.SetPerm(l.BrTableBase, l.BrTableEnd, enclave.PermRW)
		f := mem.Write(l.BrTableBase, img.BranchTable)
		_ = mem.SetPerm(l.BrTableBase, l.BrTableEnd, enclave.PermR)
		if f != nil {
			return fail(tm, "branch table", f)
		}
	}
	tm.End("branch_targets", len(img.BranchTargets))

	if l.SGXv2 {
		tm = tr.Start("edmm_seal")
		_ = mem.SetPerm(l.CodeBase, l.CodeEnd, enclave.PermRX) // the enclave's own code region: cannot fail
		tm.End()
	}

	b.loaded = img
	return &LoadReport{
		BinaryHash: img.BinaryHash,
		Stats:      img.Stats,
		Rewrites:   img.Rewrites,
		TextSize:   len(img.Text),
		Trace:      tr,
		Audit:      append([]verifier.PolicyAudit(nil), img.Audit...),
	}, nil
}
