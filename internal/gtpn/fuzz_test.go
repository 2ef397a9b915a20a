package gtpn

import (
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
