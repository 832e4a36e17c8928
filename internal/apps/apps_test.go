package apps

import (
	"bytes"
	"testing"

	"deflection/internal/policy"
	"deflection/internal/runtime"
)

func TestAlignGenomesScores(t *testing.T) {
	rc := RunConfig{Policies: policy.SetP1}
	// Identical sequences: score = 2 * len.
	a := RandomSequence(80, 1)
	res, err := AlignGenomes(rc, a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("result = %+v", res)
	}
	if res.Exit != int64(2*len(a)) {
		t.Errorf("self-alignment score = %d, want %d", res.Exit, 2*len(a))
	}
	// Different sequences score strictly less.
	b := RandomSequence(80, 2)
	res2, err := AlignGenomes(rc, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Exit >= res.Exit {
		t.Errorf("random-pair score %d >= self score %d", res2.Exit, res.Exit)
	}
}

func TestAlignGenomesKnownCase(t *testing.T) {
	// NW with match+2, mismatch-1, gap-2:
	// GATTACA vs GCATGCU — classic example; verify against a Go
	// implementation of the same scoring.
	a, b := []byte("GATTACA"), []byte("GCATGCT")
	want := nwScore(a, b)
	res, err := AlignGenomes(RunConfig{Policies: policy.SetP1P6}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != want&0x3FFFFFFF {
		t.Errorf("score = %d, want %d", res.Exit, want)
	}
}

// nwScore is an independent Go oracle for the DC implementation.
func nwScore(a, b []byte) int64 {
	n, m := len(a), len(b)
	dp := make([]int64, (n+1)*(m+1))
	w := m + 1
	for j := 0; j <= m; j++ {
		dp[j] = int64(-2 * j)
	}
	for i := 1; i <= n; i++ {
		dp[i*w] = int64(-2 * i)
		for j := 1; j <= m; j++ {
			s := int64(-1)
			if a[i-1] == b[j-1] {
				s = 2
			}
			best := dp[(i-1)*w+j-1] + s
			if v := dp[(i-1)*w+j] - 2; v > best {
				best = v
			}
			if v := dp[i*w+j-1] - 2; v > best {
				best = v
			}
			dp[i*w+j] = best
		}
	}
	return dp[n*w+m]
}

func TestAlignGenomesMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		a := RandomSequence(60, seed)
		b := RandomSequence(75, seed+100)
		res, err := AlignGenomes(RunConfig{Policies: policy.SetP1}, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if want := nwScore(a, b) & 0x3FFFFFFF; res.Exit != want {
			t.Errorf("seed %d: score %d, want %d", seed, res.Exit, want)
		}
	}
}

func TestAlignGenomesRejectsOversized(t *testing.T) {
	long := RandomSequence(701, 1)
	if _, err := AlignGenomes(RunConfig{}, long, long); err == nil {
		t.Fatal("oversized sequence accepted")
	}
}

func TestGenerateSequenceStreams(t *testing.T) {
	const n = 5000
	res, err := GenerateSequence(RunConfig{Policies: policy.SetP1P5}, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("result = %+v", res)
	}
	var total int
	var gc int64
	for i, out := range res.Outputs {
		msg, err := runtime.Unpad(out)
		if err != nil {
			t.Fatal(err)
		}
		if i == len(res.Outputs)-1 {
			break // final message is the GC-count integer
		}
		for _, c := range msg {
			switch c {
			case 'A', 'T':
			case 'C', 'G':
				gc++
			default:
				t.Fatalf("invalid nucleotide %q", c)
			}
		}
		total += len(msg)
	}
	if total != n {
		t.Errorf("streamed %d bases, want %d", total, n)
	}
	if res.Exit != gc {
		t.Errorf("GC count %d != reported %d", gc, res.Exit)
	}
}

func TestGenerateSequenceDeterministicPerSeed(t *testing.T) {
	r1, err := GenerateSequence(RunConfig{Policies: policy.SetP1}, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := GenerateSequence(RunConfig{Policies: policy.SetP1P6}, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Outputs) != len(r2.Outputs) {
		t.Fatal("output counts differ")
	}
	for i := range r1.Outputs {
		m1, _ := runtime.Unpad(r1.Outputs[i])
		m2, _ := runtime.Unpad(r2.Outputs[i])
		if !bytes.Equal(m1, m2) {
			t.Fatalf("chunk %d differs across policy levels", i)
		}
	}
}

func TestCreditScoreRuns(t *testing.T) {
	res, err := CreditScore(RunConfig{Policies: policy.SetP1P6}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("result = %+v", res)
	}
	if res.Exit <= 0 || res.Exit >= 2000 {
		t.Errorf("accepted = %d of 2000, degenerate classifier", res.Exit)
	}
}

func TestCreditScoreScalesWithRecords(t *testing.T) {
	small, err := CreditScore(RunConfig{Policies: policy.SetP1}, 500)
	if err != nil {
		t.Fatal(err)
	}
	large, err := CreditScore(RunConfig{Policies: policy.SetP1}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	// 10x the records gives ~10x the scoring work on top of the fixed
	// training cost; require clear scaling without being brittle.
	if large.Insts < small.Insts*4 {
		t.Errorf("instructions did not scale: %d vs %d", small.Insts, large.Insts)
	}
}

func TestHTTPSHandlerServesRequests(t *testing.T) {
	rc := RunConfig{Policies: policy.SetP1P6}
	reqs := [][]byte{Param(2048), Param(512), Param(0)}
	res, err := Run("https", HTTPSHandlerSource, rc, reqs...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() || res.Exit != 2 {
		t.Fatalf("served = %d, result %+v", res.Exit, res)
	}
	var body int
	for i, out := range res.Outputs {
		if i == len(res.Outputs)-1 {
			break // trailing served-count message
		}
		msg, err := runtime.Unpad(out)
		if err != nil {
			t.Fatal(err)
		}
		body += len(msg)
	}
	if body != 2048+512 {
		t.Errorf("served %d body bytes, want %d", body, 2048+512)
	}
}

func TestRandomSequenceProperties(t *testing.T) {
	s := RandomSequence(4000, 9)
	counts := map[byte]int{}
	for _, c := range s {
		counts[c]++
	}
	for _, c := range []byte("ACGT") {
		if counts[c] < 700 {
			t.Errorf("nucleotide %c underrepresented: %d", c, counts[c])
		}
	}
	if !bytes.Equal(RandomSequence(100, 3), RandomSequence(100, 3)) {
		t.Error("not deterministic")
	}
}

func TestFASTARoundTrip(t *testing.T) {
	recs := []FASTARecord{
		{Description: "chr1 synthetic", Sequence: RandomSequence(130, 4)},
		{Description: "chr2 synthetic", Sequence: RandomSequence(59, 5)},
	}
	text := FormatFASTA(recs)
	got, err := ParseFASTA(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d", len(got))
	}
	for i := range recs {
		if got[i].Description != recs[i].Description || !bytes.Equal(got[i].Sequence, recs[i].Sequence) {
			t.Errorf("record %d did not round trip", i)
		}
	}
}

func TestFASTAErrors(t *testing.T) {
	cases := []string{
		"",
		"ACGT\n", // sequence before header
		">ok\nACGX\n",
	}
	for _, src := range cases {
		if _, err := ParseFASTA(src); err == nil {
			t.Errorf("ParseFASTA(%q) should fail", src)
		}
	}
	// Lower-case and N are normalised/accepted.
	recs, err := ParseFASTA(">r\nacgtn\n")
	if err != nil || string(recs[0].Sequence) != "ACGTN" {
		t.Errorf("recs=%v err=%v", recs, err)
	}
}

func TestFASTAFedToAlignment(t *testing.T) {
	text := FormatFASTA([]FASTARecord{
		{Description: "a", Sequence: RandomSequence(90, 6)},
		{Description: "b", Sequence: RandomSequence(90, 7)},
	})
	recs, err := ParseFASTA(text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AlignGenomes(RunConfig{Policies: policy.SetP1}, recs[0].Sequence, recs[1].Sequence)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("alignment failed: %+v", res)
	}
}

// TestObjectCache pins the harness's compile cache: a repeated (source,
// options) pair compiles once, and every compiler option the harness sets —
// the policy set and the generator's q — selects its own entry.
func TestObjectCache(t *testing.T) {
	c := &objCache{objs: make(map[objKey][]byte)}
	compile := func(rc RunConfig) []byte {
		t.Helper()
		b, err := c.compile("credit", CreditSource, rc)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	entries := func(want int) {
		t.Helper()
		if n := len(c.objs); n != want {
			t.Fatalf("cache holds %d objects, want %d", n, want)
		}
	}

	p1 := compile(RunConfig{Policies: policy.SetP1})
	if again := compile(RunConfig{Policies: policy.SetP1}); &again[0] != &p1[0] {
		t.Error("the same source and options compiled twice")
	}
	entries(1)

	p1p6 := compile(RunConfig{Policies: policy.SetP1P6})
	entries(2)
	if bytes.Equal(p1, p1p6) {
		t.Error("P1 and P1-P6 objects are identical")
	}

	q5 := compile(RunConfig{Policies: policy.SetP1P6, AEXCheckInterval: 5})
	q50 := compile(RunConfig{Policies: policy.SetP1P6, AEXCheckInterval: 50})
	entries(4)
	if bytes.Equal(q5, q50) {
		t.Error("q=5 and q=50 objects are identical")
	}
}
