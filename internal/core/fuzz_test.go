package core

import (
	"math"
	"testing"
)

// fuzzX maps a fuzzed float into the X range a fuzzed point may take,
// [0, 1e7].
func fuzzX(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	x = math.Abs(x)
	if x > 1e7 {
		x = math.Mod(x, 1e7)
	}
	return x
}

// FuzzLocalPointReuse solves three local points of one shape, in order,
// on one System, whose pooled solver derives each point's net from the
// last and reweights its graph, and holds every prediction to a fresh
// System's bits. The shape is any a Server accepts at one or two
// conversations: arch 1–4, hosts 1–4.
func FuzzLocalPointReuse(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(0), 0.0, 1140.0, 1e7)
	f.Add(uint8(2), uint8(1), uint8(1), 37.5, 37.5, 2850.25)
	f.Add(uint8(3), uint8(3), uint8(0), 1e7, 0.0, 123456.75)
	f.Fuzz(func(t *testing.T, arch, hosts, conv uint8, x0, x1, x2 float64) {
		a := Arch(1 + int(arch)%4)
		h := 1 + int(hosts)%4
		n := 1 + int(conv)%2
		shared := New(a, WithHosts(h))
		for _, x := range []float64{fuzzX(x0), fuzzX(x1), fuzzX(x2)} {
			w := Workload{Conversations: n, ServerComputeUS: x}
			got, err := shared.Analyze(w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(a, WithHosts(h)).Analyze(w)
			if err != nil {
				t.Fatal(err)
			}
			if !samePrediction(got, want) {
				t.Fatalf("arch %v hosts %d %+v: shared System %+v, fresh System %+v", a, h, w, got, want)
			}
		}
	})
}
