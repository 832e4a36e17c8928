// Package apps contains the paper's macro-benchmark applications (Section
// VI-B), written in DC and executed as verified target binaries inside the
// bootstrap enclave: Needleman–Wunsch sequence alignment and sequence
// generation (Figs. 7-8), BP-neural-network credit scoring (Fig. 9) and the
// HTTPS service handler used by the web-server experiments (Figs. 10-11).
// It also holds the evaluation tooling's one harness: Run (and Load) compile
// a DC program once per source and compiler options, verify it into a fresh
// bootstrap enclave and run it; VerifyInput prepares the inputs of a direct
// verifier.Verify call.
package apps

// NWSource aligns two sequences received from the data owner with the
// Needleman–Wunsch algorithm (match +2, mismatch -1, gap -2) using the full
// O(N^2) dynamic-programming matrix, as the paper notes ("it takes N^2
// memory space").
const NWSource = `
secret char seqa[1024];
secret char seqb[1024];
int dp[491401]; // (700+1)^2

int main() {
	int n = __ocall_recv(seqa, 1024);
	int m = __ocall_recv(seqb, 1024);
	if (n < 1 || m < 1 || n > 700 || m > 700) return -1;
	int W = m + 1;
	for (int j = 0; j <= m; j++) dp[j] = -2 * j;
	for (int i = 1; i <= n; i++) {
		dp[i*W] = -2 * i;
		for (int j = 1; j <= m; j++) {
			int s = -1;
			if (seqa[i-1] == seqb[j-1]) s = 2;
			int best = dp[(i-1)*W + (j-1)] + s;
			int up = dp[(i-1)*W + j] - 2;
			if (up > best) best = up;
			int left = dp[i*W + (j-1)] - 2;
			if (left > best) best = left;
			dp[i*W + j] = best;
		}
	}
	int score = dp[n*W + m];
	send_int(score);
	return score & 0x3FFFFFFF;
}
`

// SeqGenSource generates a pseudo-random nucleotide sequence of the
// requested length and streams it to the data owner in chunks; the
// generation experiment of Fig. 8.
const SeqGenSource = `
char chunk[1024];
char alphabet[8] = "ACGT";

int main() {
	int length = read_param();
	int seed = read_param();
	if (length < 1 || length > 1000000) return -1;
	srand(seed);
	int gc = 0;
	int produced = 0;
	while (produced < length) {
		int n = length - produced;
		if (n > 1024) n = 1024;
		for (int i = 0; i < n; i++) {
			int b = rand31() & 3;
			chunk[i] = alphabet[b];
			if (b == 1 || b == 2) gc++; // C or G
		}
		__ocall_send(chunk, n);
		produced += n;
	}
	send_int(gc);
	return gc;
}
`

// CreditSource trains a small back-propagation credit-scoring network on
// synthetic records and then scores the requested number of applicants,
// sending back the acceptance count (Fig. 9). The scoring pass uses the
// fast rational sigmoid so throughput is dominated by array/float traffic,
// matching the original workload's profile.
const CreditSource = `
secret float w1[24];
secret float w2[6];
float feat[4];
float hidden[6];

float fast_sig(float x) {
	float a = x;
	if (a < 0.0) a = -a;
	return 0.5 * (x / (1.0 + a)) + 0.5;
}

float forward() {
	for (int j = 0; j < 6; j++) {
		float s = 0.0;
		for (int i = 0; i < 4; i++) s = s + w1[j*4 + i] * feat[i];
		hidden[j] = fast_sig(s);
	}
	float o = 0.0;
	for (int j = 0; j < 6; j++) o = o + w2[j] * hidden[j];
	return fast_sig(o);
}

void gen_record(int which) {
	for (int i = 0; i < 4; i++)
		feat[i] = (float)(rand31() % 1000) / 1000.0;
	// Encode a weak ground-truth signal in feature 0.
	if (which & 1) feat[0] = feat[0] / 2.0 + 0.5;
}

int main() {
	int records = read_param();
	if (records < 1 || records > 2000000) return -1;
	srand(17);
	for (int i = 0; i < 24; i++) w1[i] = ((float)(rand31() % 2000) - 1000.0) / 2000.0;
	for (int i = 0; i < 6; i++) w2[i] = ((float)(rand31() % 2000) - 1000.0) / 2000.0;
	// Brief training phase on 64 labelled records (10 epochs, perceptron-
	// style output update).
	for (int e = 0; e < 10; e++) {
		for (int r = 0; r < 64; r++) {
			gen_record(r);
			float want = (float)(r & 1);
			float got = forward();
			float err = want - got;
			for (int j = 0; j < 6; j++) w2[j] = w2[j] + 0.1 * err * hidden[j];
		}
	}
	// Scoring phase: the workload the x-axis of Fig. 9 scales.
	int accepted = 0;
	for (int r = 0; r < records; r++) {
		gen_record(r);
		if (forward() > 0.5) accepted++;
	}
	send_int(accepted);
	return accepted;
}
`

// HTTPSHandlerSource is the in-enclave web service: it loops receiving
// framed requests (8-byte requested-size), streams back a generated
// response body of that size in chunks, and exits on a zero-size request.
// The Go-side HTTPS substrate wraps it with the attested session channel
// (the mbedTLS analogue) and the Siege-like load generator.
const HTTPSHandlerSource = `
char req[16];
char page[8192];
char chunk[8192];

int main() {
	int served = 0;
	// The "document root": static content resident in enclave memory.
	for (int i = 0; i < 8192; i++) page[i] = (char)(32 + (i & 63));
	while (1) {
		int n = __ocall_recv(req, 16);
		if (n < 8) break;
		int size = 0;
		for (int i = 7; i >= 0; i--) size = (size << 8) | req[i];
		if (size == 0) break;
		if (size < 0 || size > 16777216) return -1;
		int sent = 0;
		while (sent < size) {
			int m = size - sent;
			if (m > 8192) m = 8192;
			// Copy file content into the transmit buffer, as a real server
			// copies from its cache into the TLS record.
			memcpy8(chunk, page, m);
			__ocall_send(chunk, m);
			sent += m;
		}
		served++;
	}
	send_int(served);
	return served;
}
`
