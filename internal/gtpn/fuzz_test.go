package gtpn

import (
	"math"
	"testing"
)

// FuzzParseNet drives the textual net parser with arbitrary input. The
// parser must never panic; when it does accept an input, parsing is
// re-run to check the accepted net is deterministic — the same source
// yields the same shape signature and dimensions, the property the
// sweep solver's graph reuse keys on — and both signatures must equal
// the fmt reference formatter's, names that need quoting included.
func FuzzParseNet(f *testing.F) {
	f.Add(fig66Net)
	f.Add(`
place P1 = 1
place P2

trans T0 : P1 -> P2 delay 1 freq 1/5 resource lambda
trans T1 : P1 -> P1 delay 1 freq 1-1/5
trans T2 : P2 -> P1 delay 1
`)
	f.Add(`
place Clients = 1
place Host = 1
place SentC
trans TSendEnd  : Clients Host -> SentC Host   delay 1 freq 1/1390
trans TSendLoop : Clients Host -> Clients Host delay 1 freq 1-1/1390
trans TBack     : SentC Host -> Clients Host   delay 3
`)
	// Gates, multiplicity, fraction and decimal frequencies, errors.
	f.Add(`
place P = 2
place Q
trans TPair : P P -> Q delay 2 freq 0.25
trans TGate : Q -> P P delay 1 freq 3/4 when P = 0
trans TFlow : Q -> P P delay 1 freq 3/4 when Q > 0
`)
	f.Add("place P = 1\ntrans T : P -> P delay 0 freq 1.0\n")
	f.Add("# just a comment\n")
	f.Add("place P = -1\ntrans T : P ->\n")
	f.Add("trans T : A -> B\n")
	// Names that need quoting: quotes, backslashes, non-ASCII, invalid
	// UTF-8 and control bytes.
	f.Add("place P\"q\\é = 1\nplace Q\x01\xff\ntrans T\xe2\x80 : P\"q\\é -> Q\x01\xff delay 2 freq 1/3 resource r\"\n")
	f.Fuzz(func(t *testing.T, src string) {
		// Scanner inputs beyond bufio's line limit just error; huge inputs
		// only slow the fuzzer down.
		if len(src) > 1<<16 {
			t.Skip()
		}
		n, err := ParseNetString(src)
		if err != nil {
			if n != nil {
				t.Fatalf("ParseNetString returned a net AND an error: %v", err)
			}
			return
		}
		if n == nil {
			t.Fatal("ParseNetString returned nil net and nil error")
		}
		sig, ok := n.ShapeSignature()
		n2, err := ParseNetString(src)
		if err != nil {
			t.Fatalf("accepted input failed to re-parse: %v", err)
		}
		sig2, ok2 := n2.ShapeSignature()
		if ok != ok2 || (ok && sig != sig2) {
			t.Fatalf("shape signature not deterministic: (%q,%v) vs (%q,%v)", sig, ok, sig2, ok2)
		}
		if err := checkSignature(n); err != nil {
			t.Fatal(err)
		}
		if len(n.places) != len(n2.places) || len(n.trans) != len(n2.trans) {
			t.Fatalf("re-parse dimensions differ: %d/%d places, %d/%d transitions",
				len(n.places), len(n2.places), len(n.trans), len(n2.trans))
		}
	})
}

// fuzzClassMatrix builds a column-stochastic class restriction P^T from
// fuzz bytes: data[0] picks m in [2, 24], then each following byte is
// one entry, column by column (the out-distribution of state k is
// column k). An even byte is an exact zero, an odd byte b the weight
// b>>1 + 1; each column is normalized by its sum, and a column with no
// weight becomes a self-loop. Missing bytes are zeros. The matrix comes
// back twice: as the reference's rows of width m+1 and as the flat
// row-major copy the production kernel takes.
func fuzzClassMatrix(data []byte) (rows [][]float64, flat []float64, m int) {
	if len(data) == 0 {
		return nil, nil, 0
	}
	m = 2 + int(data[0])%23
	data = data[1:]
	w := m + 1
	rows = make([][]float64, m)
	for r := range rows {
		rows[r] = make([]float64, w)
	}
	for k := 0; k < m; k++ {
		var sum float64
		for r := 0; r < m; r++ {
			var v float64
			if i := k*m + r; i < len(data) && data[i]&1 == 1 {
				v = float64(data[i]>>1) + 1
			}
			rows[r][k] = v
			sum += v
		}
		if sum == 0 {
			rows[k][k] = 1
			continue
		}
		for r := 0; r < m; r++ {
			rows[r][k] /= sum
		}
	}
	flat = make([]float64, m*w)
	for r, row := range rows {
		copy(flat[r*w:], row)
	}
	return rows, flat, m
}

// FuzzDenseClassSolve holds the production dense kernel
// (gaussJordanStationary) against the reference's row-slice loop
// (gaussianStationary) on arbitrary column-stochastic classes: both
// must give up together, or agree on every bit of every entry. The
// seeds take each way out of the kernel: a singular class (every state
// a self-loop: nil at the pivot test), a dense positive class, and a
// sparse class (a cycle with a few chords).
func FuzzDenseClassSolve(f *testing.F) {
	f.Add([]byte{3})
	dense := []byte{9}
	for i := 0; i < 121; i++ {
		dense = append(dense, byte(2*i+1))
	}
	f.Add(dense)
	const sm = 17
	sparse := make([]byte, 1+sm*sm)
	sparse[0] = sm - 2
	for k := 0; k < sm; k++ {
		sparse[1+k*sm+(k+1)%sm] = 7
		if k%4 == 0 {
			sparse[1+k*sm+(k+5)%sm] = 3
		}
	}
	f.Add(sparse)
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, flat, m := fuzzClassMatrix(data)
		if m == 0 {
			return
		}
		want := gaussianStationary(rows, m)
		got := gaussJordanStationary(flat, m)
		if (want == nil) != (got == nil) {
			t.Fatalf("m=%d: reference nil=%v, kernel nil=%v", m, want == nil, got == nil)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("m=%d: pi[%d] = %v (%#x), reference %v (%#x)",
					m, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
			}
		}
	})
}
