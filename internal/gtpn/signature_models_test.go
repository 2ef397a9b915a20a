package gtpn_test

import (
	"testing"

	"repro/internal/gtpn"
	"repro/internal/models"
	"repro/internal/timing"
)

// TestSignatureMatchesReference pins both signatures to the fmt
// reference formatter, byte for byte: on hand-built nets with what the
// models never build (names that need quoting, an output-less
// transition, an opaque frequency that leaves the net unsigned), on
// every local net over the serving grid (arch 1–4, n 1–8, hosts 1–4)
// at X values from 0 to the 1e7 cap, on the client and server nets of
// every §6.6.3 iterate of a few non-local solves, and on the
// contention net.
func TestSignatureMatchesReference(t *testing.T) {
	for _, opaque := range []bool{false, true} {
		b := gtpn.NewBuilder()
		p := b.Place("P \"quoted\"\\é\x01", 3)
		q := b.Place("Q", 0)
		b.Transition("T\tab").From(p, p).To(q).Delay(12).FreqConst(0.25).Resource("r\"")
		b.Transition("TSink").From(q).FreqKeyedShape("k\n", "s\xff", gtpn.Const(1))
		if opaque {
			b.Transition("TOpaque").From(q).To(p).Freq(gtpn.Const(1))
		}
		n := b.MustBuild()
		if _, signed := n.Signature(); signed == opaque {
			t.Fatalf("opaque %v: signed %v", opaque, signed)
		}
		if err := gtpn.CheckSignature(n); err != nil {
			t.Fatal(err)
		}
	}

	xs := []float64{0, 0.5, 570, 1140.25, 2850, 1e7}
	local := 0
	for arch := timing.ArchI; arch <= timing.ArchIV; arch++ {
		for n := 1; n <= 8; n++ {
			for hosts := 1; hosts <= 4; hosts++ {
				for _, x := range xs {
					if err := gtpn.CheckSignature(models.BuildLocal(arch, n, hosts, x).Net); err != nil {
						t.Fatalf("arch %v n=%d hosts=%d x=%g: %v", arch, n, hosts, x, err)
					}
					local++
				}
			}
		}
	}
	if local != 768 {
		t.Fatalf("checked %d local nets, want 768", local)
	}

	// The iterates' nets are built inside the models; each solve stores
	// its solution in the solve cache, which is where the check finds
	// the nets.
	gtpn.ResetSolveCache()
	defer gtpn.ResetSolveCache()
	stop := gtpn.RecordCachedNets()
	for _, p := range []struct {
		arch     timing.Arch
		n, hosts int
		x        float64
	}{
		{timing.ArchI, 1, 1, 0},
		{timing.ArchII, 2, 1, 1140},
		{timing.ArchIII, 1, 2, 2850},
		{timing.ArchIV, 1, 1, 570.5},
	} {
		res, err := models.SolveNonLocal(p.arch, p.n, p.hosts, p.x, models.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations < 2 {
			t.Fatalf("%+v: %d iterate(s), want several", p, res.Iterations)
		}
	}
	if _, err := models.SolveContention(timing.Table62(), models.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	nets := stop()
	if len(nets) < 10 {
		t.Fatalf("only %d nets reached the solve cache", len(nets))
	}
	for _, n := range nets {
		if err := gtpn.CheckSignature(n); err != nil {
			t.Fatal(err)
		}
	}
}
