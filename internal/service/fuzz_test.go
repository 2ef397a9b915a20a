package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSolveRequest drives the /v1/solve and /v1/sweep request decoders
// with arbitrary bodies: decoding and validation must never panic, and
// whatever validate accepts must satisfy the bounds the solver layers
// rely on (they are what keeps a single request from detonating the
// state space).
func FuzzSolveRequest(f *testing.F) {
	f.Add([]byte(solveBody))
	f.Add([]byte(sweepBody))
	f.Add([]byte(`{"arch":4,"conversations":8,"server_compute_us":1e7,"hosts":4,"non_local":true}`))
	f.Add([]byte(`{"arch":0}`))
	f.Add([]byte(`{"arch":2,"points":[],"parallelism":9}`))
	f.Add([]byte(`{"arch":2,"points":[{"conversations":1,"server_compute_us":-1}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sq solveRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sq); err == nil {
			if err := sq.validate(); err == nil {
				if sq.Arch < 1 || sq.Arch > 4 || sq.Conversations < 1 || sq.Conversations > 8 ||
					sq.Hosts < 1 || sq.Hosts > 4 || sq.ServerComputeUS < 0 || sq.ServerComputeUS > 1e7 {
					t.Fatalf("validate accepted out-of-bounds solve request: %+v", sq)
				}
				if k := sq.appendKey(nil); len(k) > keyBufLen {
					t.Fatalf("flight key %q outgrows the %d-byte stack buffer", k, keyBufLen)
				}
			}
		}

		var wq sweepRequest
		dec = json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wq); err != nil {
			return
		}
		if err := wq.validate(); err != nil {
			return
		}
		if len(wq.Points) == 0 || len(wq.Points) > maxSweepPoints {
			t.Fatalf("validate accepted a sweep with %d points", len(wq.Points))
		}
		if wq.Parallelism < 1 || wq.Parallelism > 4 || wq.Hosts < 1 || wq.Hosts > 4 {
			t.Fatalf("validate accepted out-of-bounds sweep request: %+v", wq)
		}
		for i, pt := range wq.Points {
			if pt.Conversations < 1 || pt.Conversations > 8 || pt.ServerComputeUS < 0 || pt.ServerComputeUS > 1e7 {
				t.Fatalf("validate accepted out-of-bounds point %d: %+v", i, pt)
			}
		}
		// Row partitioning must cover every point exactly once, in order —
		// the property that makes the streamed bytes parallelism-invariant.
		next := 0
		for _, row := range wq.rows() {
			if row.start != next || row.end <= row.start {
				t.Fatalf("rows() skipped or reordered points: %+v", wq.rows())
			}
			next = row.end
		}
		if next != len(wq.Points) {
			t.Fatalf("rows() covered %d of %d points", next, len(wq.Points))
		}
	})
}

// FuzzClusterMerge feeds arbitrary member bodies — a peer's body is
// untrusted bytes — to both ?scope=cluster merges. Neither may panic;
// each must emit valid JSON, the same bytes for the same input, and
// never list a member both as merged and as unreachable. An empty body
// stands for a member the fan-out could not reach.
func FuzzClusterMerge(f *testing.F) {
	f.Add([]byte(`{"serving":{"requests_total":3},"events":[{"unix_ms":5,"seq":1}]}`),
		[]byte(`{"events":[{"unix_ms":5},{"unix_ms":"x"},7],"resp_cache":{"hits":2}}`), []byte{})
	f.Add([]byte(`null`), []byte(`[1,2]`), []byte(`{"gtpn_cache":{"hits":1.7e308}}`))
	f.Add([]byte(`{"serving":{"errors":1.7e308}}`), []byte(`{"serving":{"errors":1.7e308}}`), []byte(`{"events":null}`))
	members := []string{"http://a", "http://b", "http://c"}
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		bodies := map[string][]byte{}
		for i, body := range [][]byte{a, b, c} {
			if len(body) > 0 {
				bodies[members[i]] = body
			}
		}
		fo := Fanout{Self: members[0], Members: members, Bodies: bodies}
		for name, merge := range map[string]func() []byte{
			"metrics": func() []byte { return mergeMetrics(fo, 7) },
			"events":  func() []byte { return mergeTimelines(fo, "events") },
		} {
			out := merge()
			if !json.Valid(out) {
				t.Fatalf("%s merge emitted invalid JSON: %s", name, out)
			}
			if again := merge(); !bytes.Equal(out, again) {
				t.Fatalf("%s merge not deterministic:\n%s\nvs\n%s", name, out, again)
			}
			var doc struct {
				Nodes  map[string]json.RawMessage `json:"nodes"`
				Events []struct {
					Node string `json:"node"`
				} `json:"events"`
				Unreachable []string `json:"unreachable"`
			}
			if err := json.Unmarshal(out, &doc); err != nil {
				t.Fatalf("%s merge: %v: %s", name, err, out)
			}
			for _, u := range doc.Unreachable {
				_, merged := doc.Nodes[u]
				for _, e := range doc.Events {
					merged = merged || e.Node == u
				}
				if merged {
					t.Fatalf("%s merge lists %s as merged and unreachable: %s", name, u, out)
				}
			}
		}
	})
}
