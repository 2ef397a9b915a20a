package models

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gtpn"
	"repro/internal/timing"
)

// TestRegistryNetsMatchReferenceSolver sweeps the nets behind the
// experiment registry — local-conversation nets plus the non-local
// client/server nets at their first fixed-point iterate, across all
// four architectures — and requires the flat-layout solver to return
// the same Solution the reference solver does. This is the end-to-end
// differential guarantee that the perf rewrite changed no published
// number.
func TestRegistryNetsMatchReferenceSolver(t *testing.T) {
	archs := []timing.Arch{timing.ArchI, timing.ArchII, timing.ArchIII, timing.ArchIV}
	ns := []int{1, 2}
	if testing.Short() {
		ns = []int{1}
	}
	check := func(name string, net *gtpn.Net) {
		t.Helper()
		got, err := net.Solve(gtpn.SolveOptions{Uncached: true})
		if err != nil {
			t.Fatalf("%s: Solve: %v", name, err)
		}
		want, err := net.SolveReference(gtpn.SolveOptions{})
		if err != nil {
			t.Fatalf("%s: SolveReference: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: solver mismatch\n flat: %v\n  ref: %v", name, got, want)
		}
	}
	for _, arch := range archs {
		xs := []float64{1140}
		if arch == timing.ArchII {
			xs = append(xs, 2850)
		}
		for _, n := range ns {
			for _, x := range xs {
				tag := fmt.Sprintf("arch%d-n%d-x%g", arch, n, x)
				check("local-"+tag, BuildLocal(arch, n, 1, x).Net)

				sd := initialSd(timing.ServerParamsFor(arch), x)
				cnet, _ := buildClient(arch, n, 1, sd)
				check("client-"+tag, cnet)

				snet, _, _, _ := buildServer(arch, n, 1, sd/2, x)
				check("server-"+tag, snet)
			}
		}
	}
}
