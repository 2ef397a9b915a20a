package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// FuzzSolveRequest drives the production request decoder (decodeBody)
// with arbitrary bodies for /v1/solve, /v1/simulate and /v1/sweep.
// Decoding and validation must never panic. For the flat point bodies
// it is a differential test against encoding/json, which decodeFlat
// must never contradict: whenever decodeFlat accepts a body,
// json.Decoder with unknown fields rejected accepts it into an equal
// struct; decodeBody, through either decoder, accepts exactly what
// json.Decoder accepts, into an equal struct and with json.Decoder's 400
// text; and a validated request's canonicalBody, the bytes a forward
// sends, takes decodeFlat back to the same struct. Whatever validate
// accepts must satisfy the bounds the solver layers rely on (they are
// what keeps a single request from detonating the state space).
func FuzzSolveRequest(f *testing.F) {
	f.Add([]byte(solveBody))
	f.Add([]byte(sweepBody))
	f.Add([]byte(`{"arch":4,"conversations":8,"server_compute_us":1e7,"hosts":4,"non_local":true}`))
	f.Add([]byte(`{"arch":0}`))
	f.Add([]byte(`{"arch":2,"points":[],"parallelism":9}`))
	f.Add([]byte(`{"arch":2,"points":[{"conversations":1,"server_compute_us":-1}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"unknown_field":1}`))
	for _, seed := range []string{
		// Every client's spelling: a forward's canonicalBody, ipcload's
		// simulate body, a full simulate body.
		`{"arch":2,"conversations":1,"hosts":1,"non_local":false,"server_compute_us":1140}` + "\n",
		`{"arch":3,"conversations":2,"server_compute_us":570,"non_local":true,"seconds":2,"seed":42}`,
		`{"arch":1,"conversations":8,"hosts":2,"non_local":true,"replications":3,"seconds":600,"seed":18446744073709551615,"server_compute_us":2850.5}`,
		// The edges of decodeFlat's subset, on both sides.
		`{"arch":-0,"conversations":1,"server_compute_us":-0}`,
		`{"arch":1.0,"conversations":1}`,
		`{"arch":2,"conversations":1e2}`,
		`{"arch":2,"conversations":1,"hosts":9223372036854775808}`,
		`{"arch":2,"conversations":1,"seed":-1}`,
		`{"arch":2,"conversations":1,"seed":-0}`,
		`{"arch":2,"conversations":1,"server_compute_us":1e309}`,
		`{"arch":2,"conversations":1,"server_compute_us":0x1p3}`,
		`{"arch":2,"conversations":1,"server_compute_us":01}`,
		`{"ARCH":2,"conversations":1}`,
		`{"arch":"2","conversations":1}`,
		`{"ar\u0063h":2,"conversations":1}`,
		`{"arch":null,"conversations":1,"non_local":null}`,
		`null`,
		`{"arch":1,"arch":2,"conversations":3,"conversations":1,"non_local":true,"non_local":false}`,
		`{"arch":2,"conversations":1} trailing`,
		`{"arch":2,"conversations":1,"nested":{"nonlocal":true}}`,
		`{"nonlocal":true}`,
		`{}`,
		" \t\r\n{ \"arch\" :\t2 ,\n\"conversations\"\r: 1 , \"non_local\" : true } \n",
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxBodyBytes {
			return // decodeBody refuses it unread; json.Decoder has no limit
		}
		if sq, ok := checkPointDecode[solveRequest](t, s, "solve", data); ok {
			if sq.Arch < 1 || sq.Arch > 4 || sq.Conversations < 1 || sq.Conversations > 8 ||
				sq.Hosts < 1 || sq.Hosts > 4 || sq.ServerComputeUS < 0 || sq.ServerComputeUS > 1e7 {
				t.Fatalf("validate accepted out-of-bounds solve request: %+v", sq)
			}
			if k := sq.appendKey(nil); len(k) > keyBufLen {
				t.Fatalf("flight key %q outgrows the %d-byte stack buffer", k, keyBufLen)
			}
		}
		if mq, ok := checkPointDecode[simulateRequest](t, s, "simulate", data); ok {
			if mq.Seconds < 1 || mq.Seconds > 600 || mq.Seed == 0 || mq.Replications < 1 || mq.Replications > 64 {
				t.Fatalf("validate accepted out-of-bounds simulate request: %+v", mq)
			}
			if k := mq.appendKey(nil); len(k) > keyBufLen {
				t.Fatalf("flight key %q outgrows the %d-byte stack buffer", k, keyBufLen)
			}
		}

		var wq sweepRequest
		if !decodeRoute(s, "sweep", data, &wq, httptest.NewRecorder()) {
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

// decodeRoute decodes body into q through the production decoder, as
// route's handler does, answering a refusal on w.
func decodeRoute(s *Server, route string, body []byte, q any, w http.ResponseWriter) bool {
	return s.decodeBody(w, httptest.NewRequest(http.MethodPost, "/v1/"+route, bytes.NewReader(body)), q)
}

// pointRequest is a flat point request type, as decodeFlat takes it.
type pointRequest[T any] interface {
	*T
	validate() error
	canonicalBody() []byte
}

// sameRequest compares two decoded requests field by field, telling
// -0 from 0 (== does not).
func sameRequest(a, b any) bool { return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b) }

// checkPointDecode holds decodeFlat, decodeBody and the reference
// json.Decoder to one answer for data as a route's body. It returns the
// decoded request and whether it decoded and validated.
func checkPointDecode[T any, P pointRequest[T]](t *testing.T, s *Server, route string, data []byte) (T, bool) {
	t.Helper()
	var ref T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	refErr := dec.Decode(P(&ref))

	var fast T
	if decodeFlat(data, P(&fast)) && (refErr != nil || !sameRequest(fast, ref)) {
		t.Fatalf("%s body %q: decodeFlat decoded %+v, encoding/json %+v (err %v)", route, data, fast, ref, refErr)
	}

	var got T
	rec := httptest.NewRecorder()
	ok := decodeRoute(s, route, data, P(&got), rec)
	switch {
	case ok != (refErr == nil):
		t.Fatalf("%s body %q: decodeBody ok=%v, encoding/json err %v", route, data, ok, refErr)
	case ok && !sameRequest(got, ref):
		t.Fatalf("%s body %q: decodeBody decoded %+v, encoding/json %+v", route, data, got, ref)
	case !ok && rec.Body.String() != string(marshalDet(map[string]any{"error": "bad request body: " + refErr.Error()})):
		t.Fatalf("%s body %q: decodeBody answered %s, encoding/json's error is %v", route, data, rec.Body.Bytes(), refErr)
	}
	if !ok || P(&got).validate() != nil {
		return got, false
	}
	canonical := P(&got).canonicalBody()
	var again T
	if !decodeFlat(canonical, P(&again)) || !sameRequest(again, got) {
		t.Fatalf("%s body %q: canonical body %q decodes through decodeFlat to %+v, want %+v", route, data, canonical, again, got)
	}
	return got, true
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

// safeRequestID is the inherited-ID contract written independently of
// validInheritedID: 1 to 64 bytes of [A-Za-z0-9._:-].
var safeRequestID = regexp.MustCompile(`^[A-Za-z0-9._:-]{1,64}$`)

// FuzzRequestID sends an arbitrary X-Ipcd-Request-Id — a header any
// client can set — through Handler(), on a compute route and on
// /debug/requests. Nothing may panic; each response echoes the header
// exactly when it is a safe ID and omits it otherwise, and the request
// ring stays valid JSON with the solve's row under the inherited ID or a
// locally minted one.
func FuzzRequestID(f *testing.F) {
	for _, seed := range []string{"origin-7", "127.0.0.1:9001-7", `a"} 1`, "sp ace", "x{y", `b\slash`,
		"", "x\ny", "\xe9t\xe9", strings.Repeat("a", 64), strings.Repeat("a", 65)} {
		f.Add(seed)
	}
	h := New(Config{NodeName: "f"}).Handler()
	f.Fuzz(func(t *testing.T, raw string) {
		safe := safeRequestID.MatchString(raw)
		if validInheritedID(raw) != safe {
			t.Fatalf("validInheritedID(%q) = %v, want %v", raw, !safe, safe)
		}
		serve := func(method, path, body string) *httptest.ResponseRecorder {
			req := httptest.NewRequest(method, path, strings.NewReader(body))
			req.Header[RequestIDHeader] = []string{raw}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s with ID %q answered %d: %s", method, path, raw, rec.Code, rec.Body.Bytes())
			}
			if got, echoed := rec.Header()[RequestIDHeader]; echoed != safe || (safe && (len(got) != 1 || got[0] != raw)) {
				t.Fatalf("%s %s with ID %q echoed %q, want an echo only of a safe ID", method, path, raw, got)
			}
			return rec
		}
		serve(http.MethodPost, "/v1/solve", solveBody)
		rec := serve(http.MethodGet, "/debug/requests", "")
		var doc requestsDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || len(doc.Requests) == 0 {
			t.Fatalf("/debug/requests after ID %q: %v rows, %v: %s", raw, len(doc.Requests), err, rec.Body.Bytes())
		}
		if id := doc.Requests[len(doc.Requests)-1].ID; (safe && id != raw) || (!safe && !strings.HasPrefix(id, "f-")) {
			t.Fatalf("solve with ID %q recorded as %q", raw, id)
		}
	})
}
