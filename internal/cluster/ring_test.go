package cluster

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/service"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("solve|a=%d|n=%d|key-%d", i%4+1, i%2+1, i)
	}
	return keys
}

func TestRingDeterministic(t *testing.T) {
	members := []string{"http://c:1", "http://a:1", "http://b:1"}
	r1 := BuildRing(members)
	r2 := BuildRing([]string{"http://b:1", "http://a:1", "http://c:1", "http://a:1"})
	if !reflect.DeepEqual(r1.Members(), r2.Members()) {
		t.Fatalf("member order not canonical: %v vs %v", r1.Members(), r2.Members())
	}
	if want := []string{"http://a:1", "http://b:1", "http://c:1"}; !reflect.DeepEqual(r1.Members(), want) {
		t.Fatalf("members = %v, want %v", r1.Members(), want)
	}
	for _, k := range testKeys(500) {
		if o1, o2 := r1.Owner(k), r2.Owner(k); o1 != o2 {
			t.Fatalf("owner of %q differs across identical rings: %q vs %q", k, o1, o2)
		}
	}
}

// flightKeys draws n solve keys shaped like the cluster workload's
// fresh points: arch 1-4, one conversation, a continuous server time.
func flightKeys(t *testing.T, src *rng.Source, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		k, err := service.SolveKey(1+src.Intn(4), 1, 1, 3000*src.Float64(), false)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	return keys
}

// Every member owns an even share of the keyspace: over random loopback
// member sets each share is within 15% of 1/n, and each fixed ring the
// repository runs — ipcdbench's, the cluster golden test's and the
// check.sh cluster smoke's — splits the keys about evenly.
func TestRingSpread(t *testing.T) {
	src := rng.New(21)
	keys := flightKeys(t, src, 20000)
	shares := func(members []string) map[string]float64 {
		r := BuildRing(members)
		owned := map[string]int{}
		for _, k := range keys {
			owned[r.Owner(k)]++
		}
		out := map[string]float64{}
		for m, c := range owned {
			out[m] = float64(c) / float64(len(keys))
		}
		return out
	}
	for trial := 0; trial < 100; trial++ {
		var members []string
		for n := 2 + src.Intn(7); len(members) < n; {
			if m := fmt.Sprintf("http://127.0.0.1:%d", 1024+src.Intn(64512)); !slices.Contains(members, m) {
				members = append(members, m)
			}
		}
		got := shares(members)
		for _, m := range members {
			if dev := got[m]*float64(len(members)) - 1; math.Abs(dev) > 0.15 {
				t.Errorf("members %v: %s owns %.3f, more than 15%% from 1/%d", members, m, got[m], len(members))
			}
		}
	}
	for _, members := range [][]string{
		{"http://n1.bench", "http://n2.bench", "http://n3.bench"},
		{"http://g0", "http://g1", "http://g2"},
		{"http://127.0.0.1:18081", "http://127.0.0.1:18082", "http://127.0.0.1:18083"},
	} {
		got := shares(members)
		for _, m := range members {
			if got[m] < 0.30 || got[m] > 0.37 {
				t.Errorf("fixed ring %v: %s owns %.3f, outside [0.30, 0.37]", members, m, got[m])
			}
		}
	}
}

// Adding a member must only move keys TO the new member: every key's
// owner either stays put or becomes the joiner. This is the consistent
// hashing property the cluster's rebalancing correctness rests on.
func TestRingAddMovesKeysOnlyToNewMember(t *testing.T) {
	before := BuildRing([]string{"http://a:1", "http://b:1", "http://c:1"})
	after := BuildRing([]string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"})
	moved := 0
	keys := testKeys(2000)
	for _, k := range keys {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob != oa {
			moved++
			if oa != "http://d:1" {
				t.Fatalf("key %q moved %q -> %q, not to the new member", k, ob, oa)
			}
		}
	}
	if moved == 0 {
		t.Fatal("new member took over no keys")
	}
	if moved > len(keys)/2 {
		t.Fatalf("new member took %d/%d keys — far more than its fair share", moved, len(keys))
	}
}

// Removing a member must only move that member's keys: everything it
// did not own keeps its owner.
func TestRingRemoveMovesOnlyDepartedKeys(t *testing.T) {
	before := BuildRing([]string{"http://a:1", "http://b:1", "http://c:1"})
	after := BuildRing([]string{"http://a:1", "http://c:1"})
	for _, k := range testKeys(2000) {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob != "http://b:1" && ob != oa {
			t.Fatalf("key %q owned by %q moved to %q though its owner never left", k, ob, oa)
		}
		if oa == "http://b:1" {
			t.Fatalf("key %q still owned by the departed member", k)
		}
	}
}

func TestRingReplicasDistinctOwnerFirst(t *testing.T) {
	r := BuildRing([]string{"http://a:1", "http://b:1", "http://c:1"})
	for _, k := range testKeys(200) {
		reps := r.Replicas(k, 2)
		if len(reps) != 2 {
			t.Fatalf("Replicas(%q, 2) = %v, want 2 distinct members", k, reps)
		}
		if reps[0] != r.Owner(k) {
			t.Fatalf("Replicas(%q)[0] = %q, want the owner %q", k, reps[0], r.Owner(k))
		}
		if reps[0] == reps[1] {
			t.Fatalf("Replicas(%q) = %v, members not distinct", k, reps)
		}
	}
	// Asking for more replicas than members shortens the slice.
	if reps := r.Replicas("k", 10); len(reps) != 3 {
		t.Fatalf("Replicas(k, 10) = %v, want all 3 members", reps)
	}
}

func TestRingEmpty(t *testing.T) {
	r := BuildRing(nil)
	if o := r.Owner("anything"); o != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", o)
	}
	if reps := r.Replicas("anything", 2); reps != nil {
		t.Fatalf("empty ring replicas = %v, want nil", reps)
	}
	if m := r.Members(); len(m) != 0 {
		t.Fatalf("empty ring members = %v", m)
	}
}
