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
	// Data is the initialised [DataBase, HeapFree) segment: relocated .data
	// followed by zeroed .bss.
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

// SnapshotImage captures the loaded, verified, rewritten binary as an
// immutable Image. rep must be the LoadReport of this Bootstrap's most
// recent successful ReceiveBinary; the snapshot must be taken before the
// service runs (so .bss and the heap are still in their initial state).
func (b *Bootstrap) SnapshotImage(rep *LoadReport) (*Image, error) {
	if b.loaded == nil || b.verify == nil || rep == nil {
		return nil, ErrNoLoadedImage
	}
	ld := b.loaded
	text, f := b.encl.Mem.Read(ld.TextBase, int(ld.TextEnd-ld.TextBase))
	if f != nil {
		return nil, fmt.Errorf("runtime: snapshot text: %w", f)
	}
	var data []byte
	if ld.HeapFree > ld.DataBase {
		data, f = b.encl.Mem.Read(ld.DataBase, int(ld.HeapFree-ld.DataBase))
		if f != nil {
			return nil, fmt.Errorf("runtime: snapshot data: %w", f)
		}
	}
	var table []byte
	if n := len(ld.BranchTargets); n > 0 {
		table, f = b.encl.Mem.Read(b.encl.Layout.BrTableBase, n*8)
		if f != nil {
			return nil, fmt.Errorf("runtime: snapshot branch table: %w", f)
		}
	}
	return &Image{
		BinaryHash:    rep.BinaryHash,
		Entry:         ld.Entry,
		TextBase:      ld.TextBase,
		TextEnd:       ld.TextEnd,
		DataBase:      ld.DataBase,
		HeapFree:      ld.HeapFree,
		Text:          text,
		Data:          data,
		BranchTable:   table,
		BranchTargets: append([]uint64(nil), ld.BranchTargets...),
		AnnotRanges:   append([]verifier.Range(nil), b.verify.AnnotRanges...),
		Stats:         rep.Stats,
		Rewrites:      rep.Rewrites,
		Audit:         append([]verifier.PolicyAudit(nil), rep.Audit...),
		Layout:        b.encl.Layout,
	}, nil
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

	tm := tr.Start("install_text")
	if f := b.encl.Mem.Write(img.TextBase, img.Text); f != nil {
		tm.End("error", f.Error())
		return nil, fmt.Errorf("runtime: installing text: %w", f)
	}
	tm.End("text_bytes", len(img.Text))

	tm = tr.Start("install_data")
	if len(img.Data) > 0 {
		if f := b.encl.Mem.Write(img.DataBase, img.Data); f != nil {
			tm.End("error", f.Error())
			return nil, fmt.Errorf("runtime: installing data: %w", f)
		}
	}
	tm.End("data_bytes", len(img.Data))

	tm = tr.Start("install_table")
	if len(img.BranchTable) > 0 {
		l := b.encl.Layout
		if err := b.encl.Mem.SetPerm(l.BrTableBase, l.BrTableEnd, enclave.PermRW); err != nil {
			tm.End("error", err.Error())
			return nil, err
		}
		if f := b.encl.Mem.Write(l.BrTableBase, img.BranchTable); f != nil {
			tm.End("error", f.Error())
			return nil, fmt.Errorf("runtime: installing branch table: %w", f)
		}
		if err := b.encl.Mem.SetPerm(l.BrTableBase, l.BrTableEnd, enclave.PermR); err != nil {
			tm.End("error", err.Error())
			return nil, err
		}
	}
	tm.End("branch_targets", len(img.BranchTargets))

	if b.encl.Layout.SGXv2 {
		// The image was verified before it was snapshotted; seal the code
		// pages RX exactly as the cold path does after rewriting.
		tm = tr.Start("edmm_seal")
		if err := b.encl.Mem.SetPerm(b.encl.Layout.CodeBase, b.encl.Layout.CodeEnd, enclave.PermRX); err != nil {
			tm.End("error", err.Error())
			return nil, err
		}
		tm.End()
	}

	b.loaded = &loader.Loaded{
		Enclave:       b.encl,
		Entry:         img.Entry,
		TextBase:      img.TextBase,
		TextEnd:       img.TextEnd,
		DataBase:      img.DataBase,
		HeapFree:      img.HeapFree,
		BranchTargets: append([]uint64(nil), img.BranchTargets...),
	}
	b.verify = &verifier.Result{
		Stats:       img.Stats,
		AnnotRanges: append([]verifier.Range(nil), img.AnnotRanges...),
	}
	return &LoadReport{
		BinaryHash: img.BinaryHash,
		Stats:      img.Stats,
		Rewrites:   img.Rewrites,
		TextSize:   len(img.Text),
		Trace:      tr,
		Audit:      append([]verifier.PolicyAudit(nil), img.Audit...),
	}, nil
}
