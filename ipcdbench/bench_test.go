package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"testing"
	"time"
)

// tracedRun drives w for a fixed count of requests per worker, one
// unloaded worker then two saturated ones, and joins the client spans
// with the nodes' access records.
func tracedRun(t *testing.T, w *workload, seed uint64, count int) []breakdown {
	t.Helper()
	st, err := setUp(w, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	gens := newGens(st, w, 2)
	defer closeGens(gens)
	phases := []phase{
		{name: "unloaded", workers: 1, count: count, traced: true},
		{name: "saturated", workers: 2, count: count, traced: true},
	}
	rs, err := runPhases(st, gens, w, seed, time.Now(), phases)
	if err != nil {
		t.Fatal(err)
	}
	var samples []sample
	for i, r := range rs {
		if r.ok != int64(len(r.samples)) || len(r.samples) != phases[i].workers*count {
			t.Fatalf("%s phase: %d of %d requests OK, want %d", r.name, r.ok, len(r.samples), phases[i].workers*count)
		}
		samples = append(samples, r.samples...)
	}
	bs, err := join(samples, st.records())
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != len(samples) {
		t.Fatalf("joined %d of %d requests", len(bs), len(samples))
	}
	return bs
}

// TestBreakdownIdentity checks that every request's client round trip
// is exactly the sum of its parts, that no part is negative beyond the
// records' µs truncation, and that a forwarded request's route time is
// the peer network time plus the owner's total.
func TestBreakdownIdentity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		count int
	}{{"hot", 200}, {"cold", 20}, {"cluster", 200}, {"sweep", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			w, _ := workloadByName(tc.name)
			bs := tracedRun(t, w, 7, tc.count)
			forwarded := 0
			for _, b := range bs {
				in := b.in
				parts := []float64{b.loopback, float64(in.decode), float64(in.wait),
					float64(in.route_), float64(in.compute), b.self}
				sum := 0.0
				for _, p := range parts {
					sum += p
				}
				if math.Abs(sum-b.rtt) > 1e-6 {
					t.Fatalf("request %s: parts sum to %g µs, round trip is %g µs", b.s.id, sum, b.rtt)
				}
				// The client's interval contains the server's, and the
				// server's phases lie inside its total; truncating each
				// to whole µs can only shrink the parts.
				for i, p := range parts {
					if p < 0 {
						t.Fatalf("request %s: part %d is %g µs (record %+v)", b.s.id, i, p, *in)
					}
				}
				if b.owner != nil {
					forwarded++
					if b.peerNet < 0 || float64(in.route_) != b.peerNet+float64(b.owner.total) {
						t.Fatalf("request %s: route %d µs, peer net %g µs, owner total %d µs",
							b.s.id, in.route_, b.peerNet, b.owner.total)
					}
				}
			}
			if w.cluster && forwarded == 0 {
				t.Fatal("no forwarded requests in the cluster workload")
			}
		})
	}
}

// TestClusterDecisionsRepeat checks that with the fixed member names a
// fixed-count cluster run repeats its routing decisions exactly.
func TestClusterDecisionsRepeat(t *testing.T) {
	w, _ := workloadByName("cluster")
	count := func() map[string]int {
		m := map[string]int{}
		for _, b := range tracedRun(t, w, 11, 300) {
			m[b.in.decision]++
		}
		return m
	}
	a, b := count(), count()
	if len(a) < 3 {
		t.Fatalf("decisions %v: want resp-cache hits, replica hits and forwards", a)
	}
	for k := range b {
		if a[k] != b[k] {
			t.Fatalf("decision counts differ between runs: %v vs %v", a, b)
		}
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("decision counts differ between runs: %v vs %v", a, b)
		}
	}
}

// stream draws n requests per worker of a phase.
func stream(w *workload, seed uint64, phase string, workers, n int) []request {
	var out []request
	for _, src := range phaseSources(seed, phase, workers) {
		for k := 0; k < n; k++ {
			out = append(out, w.draw(src, k))
		}
	}
	return out
}

func streamDigest(rs []request) uint64 {
	h := fnv.New64a()
	for _, r := range rs {
		h.Write(r.body)
		if r.verify {
			h.Write([]byte{1})
		}
	}
	return h.Sum64()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		for _, ph := range []string{"unloaded", "saturated"} {
			a := streamDigest(stream(w, 3, ph, 2, 500))
			b := streamDigest(stream(w, 3, ph, 2, 500))
			c := streamDigest(stream(w, 4, ph, 2, 500))
			if a != b {
				t.Errorf("%s %s: the same seed gave two streams", w.name, ph)
			}
			if a == c {
				t.Errorf("%s %s: seeds 3 and 4 gave the same stream", w.name, ph)
			}
		}
	}
}

func freshPoints(w *workload, seed uint64) map[point]bool {
	m := map[point]bool{}
	for _, ph := range []string{"memory", "unloaded", "saturated", "calls"} {
		for _, r := range stream(w, seed, ph, 2, 2000) {
			if r.hot < 0 {
				for _, p := range r.pts {
					m[p] = true
				}
			}
		}
	}
	return m
}

func TestFreshPoints(t *testing.T) {
	hot := map[point]bool{}
	for _, p := range hotPoints {
		hot[p] = true
	}
	for _, name := range []string{"cold", "sweep", "cluster"} {
		w, _ := workloadByName(name)
		a, b := freshPoints(w, 1), freshPoints(w, 2)
		if len(a) == 0 {
			t.Fatalf("%s: no fresh points", name)
		}
		for p := range a {
			if b[p] {
				t.Errorf("%s: seeds 1 and 2 share the fresh point %+v", name, p)
			}
			if hot[p] {
				t.Errorf("%s: fresh point %+v is in the hot set", name, p)
			}
		}
	}
}

// TestRunReportsEveryMetric runs the benchmark briefly and checks the
// metric sets against the declarations.
func TestRunReportsEveryMetric(t *testing.T) {
	w, _ := workloadByName("hot")
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		res, err := run(w, 5, 1, traced, t.TempDir(), &out)
		if err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
			t.Fatalf("traced=%t: result %+v\n%s", traced, res, out.String())
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit || !traced && !(m.Value > 0) {
				t.Errorf("traced=%t: metric %s = %+v", traced, d.name, m)
			}
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the declarations.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) < 2 {
		t.Fatalf("%d workloads, want at least 2", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %s is not one of the benchmark's", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, d)
		}
	}
}
