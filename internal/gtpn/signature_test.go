package gtpn

import (
	"fmt"
	"strings"
	"testing"
)

// referenceSignature builds both signatures the way computeSignature
// built them with fmt before it switched to strconv appends. The solve
// cache keys on these bytes (and the experiment and observability
// goldens count its hits), so the production form is pinned to this
// one byte for byte: TestSignatureMatchesReference over the model nets,
// FuzzParseNet over arbitrary parsed nets.
func referenceSignature(n *Net) (sig string, sigOK bool, shape string, shapeOK bool) {
	var sb, shb strings.Builder
	for _, p := range n.places {
		fmt.Fprintf(&sb, "p%q=%d;", p.Name, p.Initial)
	}
	shb.WriteString(sb.String())
	sigOK, shapeOK = true, true
	for _, t := range n.trans {
		if t.FreqKey == "" {
			sigOK = false
		} else if sigOK {
			fmt.Fprintf(&sb, "t%q:i%v:o%v:d%d:r%q:f%q;", t.Name, t.In, t.Out, t.Delay, t.Resource, t.FreqKey)
		}
		if t.ShapeKey == "" {
			shapeOK = false
		} else if shapeOK {
			fmt.Fprintf(&shb, "t%q:i%v:o%v:d%d:r%q:f%q;", t.Name, t.In, t.Out, t.Delay, t.Resource, t.ShapeKey)
		}
	}
	if sigOK {
		sig = sb.String()
	}
	if shapeOK {
		shape = shb.String()
	}
	return sig, sigOK, shape, shapeOK
}

// checkSignature reports how n's signatures differ from the reference
// formatter's, or nil when both match.
func checkSignature(n *Net) error {
	sig, sigOK, shape, shapeOK := referenceSignature(n)
	if got, ok := n.Signature(); got != sig || ok != sigOK {
		return fmt.Errorf("signature (%q, %v), reference (%q, %v)", got, ok, sig, sigOK)
	}
	if got, ok := n.ShapeSignature(); got != shape || ok != shapeOK {
		return fmt.Errorf("shape signature (%q, %v), reference (%q, %v)", got, ok, shape, shapeOK)
	}
	return nil
}

// TestSolveKeyMatchesReference pins the solve-cache key to the format
// string it was built with: the signature, then the normalized options.
func TestSolveKeyMatchesReference(t *testing.T) {
	n, err := ParseNetString(fig66Net)
	if err != nil {
		t.Fatal(err)
	}
	sig, _ := n.Signature()
	for _, opts := range []SolveOptions{{}, {Tolerance: 1e-9}, {Tolerance: 123.456, MaxStates: 7, MaxSweeps: 9}} {
		o := opts.normalize()
		key, ok := n.solveKey(o)
		want := fmt.Sprintf("%s|ms=%d|tol=%x|sw=%d", sig, o.MaxStates, o.Tolerance, o.MaxSweeps)
		if !ok || key != want {
			t.Fatalf("options %+v: key (%q, %v), want %q", opts, key, ok, want)
		}
	}
}
