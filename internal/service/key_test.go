package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// The flight key is a request's coalescing, response-cache and ring
// identity; the canonical body is what a forward replays and what the
// response echoes. Two validated requests must share a key exactly when
// they share a canonical body — a coarser key would serve one point's
// bytes for another, a finer one would split a flight.

// keyedRequest is a validated compute request's two identities.
type keyedRequest struct {
	src       string
	key       string
	canonical string
}

// decodeKeyed decodes body the way the routes do (unknown fields
// rejected), validates it, and derives both identities.
func decodeKeyed(t *testing.T, body string, simulate bool) keyedRequest {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader([]byte(body)))
	dec.DisallowUnknownFields()
	var key, canonical []byte
	if simulate {
		var q simulateRequest
		if err := dec.Decode(&q); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		if err := q.validate(); err != nil {
			t.Fatalf("validate %s: %v", body, err)
		}
		key, canonical = q.appendKey(nil), q.canonicalBody()
	} else {
		var q solveRequest
		if err := dec.Decode(&q); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		if err := q.validate(); err != nil {
			t.Fatalf("validate %s: %v", body, err)
		}
		key, canonical = q.appendKey(nil), q.canonicalBody()
	}
	return keyedRequest{src: body, key: string(key), canonical: string(canonical)}
}

// checkKeyIdentity asserts key equality ⇔ canonical-body equality over
// every pair in reqs, via the two partitions they induce.
func checkKeyIdentity(t *testing.T, reqs []keyedRequest) {
	t.Helper()
	byKey := map[string]keyedRequest{}
	byBody := map[string]keyedRequest{}
	for _, r := range reqs {
		if o, ok := byKey[r.key]; ok && o.canonical != r.canonical {
			t.Errorf("key collision: %s and %s both key %q, canonical bodies differ:\n  %s  %s",
				o.src, r.src, r.key, o.canonical, r.canonical)
		}
		if o, ok := byBody[r.canonical]; ok && o.key != r.key {
			t.Errorf("split flight: %s and %s share canonical body %s but key %q vs %q",
				o.src, r.src, r.canonical, o.key, r.key)
		}
		byKey[r.key], byBody[r.canonical] = r, r
	}
}

func TestFlightKeyIdentityNearCollisions(t *testing.T) {
	solve := []string{
		`{"arch":2,"conversations":1,"server_compute_us":1140}`,
		`{"arch":2,"conversations":1,"server_compute_us":1140.0000000000002}`,
		`{"arch":2,"conversations":1,"server_compute_us":1140.0}`,
		`{"arch":2,"conversations":1,"server_compute_us":1.14e3}`,
		`{"arch":2,"conversations":1,"server_compute_us":0}`,
		`{"arch":2,"conversations":1,"server_compute_us":-0}`,
		`{"arch":2,"conversations":1,"server_compute_us":0.0}`,
		`{"arch":2,"conversations":1,"server_compute_us":1e7}`,
		`{"arch":2,"conversations":1,"server_compute_us":10000000}`,
		`{"arch":2,"conversations":1,"server_compute_us":1140,"hosts":1}`,
		`{"arch":2,"conversations":1,"server_compute_us":1140,"hosts":2}`,
		`{"arch":3,"conversations":1,"server_compute_us":1140}`,
		`{"arch":2,"conversations":2,"server_compute_us":1140}`,
		`{"arch":2,"conversations":1,"server_compute_us":1140,"non_local":true}`,
		`{"arch":2,"conversations":1,"server_compute_us":1140,"non_local":false}`,
		`{"non_local":false,"server_compute_us":1140,"hosts":1,"conversations":1,"arch":2}`,
	}
	sim := []string{
		`{"arch":2,"conversations":1,"server_compute_us":1140}`,
		`{"arch":2,"conversations":1,"server_compute_us":1140,"seconds":10,"seed":1,"replications":1}`,
		`{"arch":2,"conversations":1,"server_compute_us":1140,"seconds":11}`,
		`{"arch":2,"conversations":1,"server_compute_us":1140,"seed":2}`,
		`{"arch":2,"conversations":1,"server_compute_us":1140,"replications":2}`,
		`{"arch":2,"conversations":1,"server_compute_us":1140.0000000000002}`,
		`{"arch":2,"conversations":1,"server_compute_us":-0}`,
		`{"arch":2,"conversations":1,"server_compute_us":0}`,
		`{"arch":2,"conversations":1,"server_compute_us":1e7,"hosts":1}`,
		`{"arch":2,"conversations":1,"server_compute_us":10000000}`,
		`{"arch":2,"conversations":1,"server_compute_us":1140,"hosts":3}`,
		`{"arch":4,"conversations":1,"server_compute_us":1140}`,
		`{"arch":2,"conversations":8,"server_compute_us":1140}`,
		`{"arch":2,"conversations":1,"server_compute_us":1140,"non_local":true}`,
		`{"arch":2,"conversations":1,"server_compute_us":1140,"seed":18446744073709551615}`,
	}
	for _, tc := range []struct {
		name     string
		bodies   []string
		simulate bool
	}{{"solve", solve, false}, {"simulate", sim, true}} {
		t.Run(tc.name, func(t *testing.T) {
			var reqs []keyedRequest
			for _, b := range tc.bodies {
				reqs = append(reqs, decodeKeyed(t, b, tc.simulate))
			}
			checkKeyIdentity(t, reqs)
			// The table holds both kinds of pair: spellings of one point
			// (1e7 and 10000000; hosts omitted and 1) and distinct points.
			keys := map[string]bool{}
			for _, r := range reqs {
				keys[r.key] = true
			}
			if len(keys) == len(reqs) || len(keys) < len(reqs)/2 {
				t.Fatalf("%d distinct keys over %d requests: the table lost its near-collisions", len(keys), len(reqs))
			}
		})
	}
}

// randomPoint is one draw over the validated ranges; x comes from a
// pool of near neighbours plus a uniform draw.
type randomPoint struct {
	arch, conv, hosts           int
	x                           float64
	nonLocal                    bool
	seconds, seed, replications uint64
}

func drawPoint(rng *rand.Rand) randomPoint {
	xs := []float64{0, math.Copysign(0, -1), 1140, math.Nextafter(1140, 2000),
		math.Nextafter(1140, 0), 1e7, math.Nextafter(1e7, 0),
		float64(rng.IntN(1e7 + 1)), rng.Float64() * 1e7}
	return randomPoint{
		arch: 1 + rng.IntN(4), conv: 1 + rng.IntN(8), hosts: 1 + rng.IntN(4),
		x: xs[rng.IntN(len(xs))], nonLocal: rng.IntN(2) == 0,
		seconds: 1 + rng.Uint64N(600), seed: 1 + rng.Uint64N(3) + rng.Uint64N(2)*(math.MaxUint64-3),
		replications: 1 + rng.Uint64N(64),
	}
}

// neighbour is p with one field moved to another valid value, the
// near collision a key that dropped or blurred that field would merge.
func (p randomPoint) neighbour(rng *rand.Rand, simulate bool) randomPoint {
	fields := 5
	if simulate {
		fields = 8
	}
	switch rng.IntN(fields) {
	case 0:
		p.arch = 1 + p.arch%4
	case 1:
		p.conv = 1 + p.conv%8
	case 2:
		p.hosts = 1 + p.hosts%4
	case 3:
		if p.x > 0 {
			p.x = math.Nextafter(p.x, 0)
		} else {
			p.x = math.Nextafter(p.x, 1)
		}
	case 4:
		p.nonLocal = !p.nonLocal
	case 5:
		p.seconds = 1 + p.seconds%600
	case 6:
		p.seed++
		if p.seed == 0 {
			p.seed = 1
		}
	case 7:
		p.replications = 1 + p.replications%64
	}
	return p
}

// spell renders p as a request body, choosing at random how to write
// the float and whether to omit fields at their defaults.
func (p randomPoint) spell(rng *rand.Rand, simulate bool) string {
	format := []byte{'g', 'e', 'f'}[rng.IntN(3)]
	body := fmt.Sprintf(`{"arch":%d,"conversations":%d,"server_compute_us":%s`,
		p.arch, p.conv, strconv.FormatFloat(p.x, format, -1, 64))
	type field struct {
		name     string
		v, deflt uint64
	}
	fields := []field{{"hosts", uint64(p.hosts), 1}}
	if simulate {
		fields = append(fields, field{"seconds", p.seconds, 10}, field{"seed", p.seed, 1},
			field{"replications", p.replications, 1})
	}
	for _, f := range fields {
		if f.v != f.deflt || rng.IntN(2) == 0 {
			body += fmt.Sprintf(`,%q:%d`, f.name, f.v)
		}
	}
	if p.nonLocal || rng.IntN(2) == 0 {
		body += fmt.Sprintf(`,"non_local":%t`, p.nonLocal)
	}
	return body + "}"
}

// A seeded sample over the validated ranges: each drawn point is
// spelled twice, so equal points recur under different spellings, and
// joined by a neighbour that differs in one field.
func TestFlightKeyIdentityRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 1987))
	for _, simulate := range []bool{false, true} {
		var reqs []keyedRequest
		for i := 0; i < 1000; i++ {
			p := drawPoint(rng)
			for _, q := range []randomPoint{p, p, p.neighbour(rng, simulate)} {
				reqs = append(reqs, decodeKeyed(t, q.spell(rng, simulate), simulate))
			}
		}
		checkKeyIdentity(t, reqs)
	}
}

// SolveKey is the key the route derives, defaults applied, and fails
// exactly where the route answers 400.
func TestSolveKeyMatchesRoute(t *testing.T) {
	got, err := SolveKey(2, 1, 0, 1140, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := decodeKeyed(t, solveBody, false).key; got != want || got != "solve|a=2|n=1|h=1|x=1140|nl=false" {
		t.Fatalf("SolveKey = %q, route key %q", got, want)
	}
	for _, bad := range [][5]float64{{0, 1, 1, 1140}, {2, 9, 1, 1140}, {2, 1, 5, 1140}, {2, 1, 1, -1}, {2, 1, 1, 1e7 + 1}} {
		if k, err := SolveKey(int(bad[0]), int(bad[1]), int(bad[2]), bad[3], false); err == nil {
			t.Fatalf("SolveKey(%v) = %q, want the validation error", bad, k)
		}
	}
}
