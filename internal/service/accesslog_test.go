package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
)

// The access record, pinned byte for byte under both of ipcd's
// handlers. A fixed request sequence covers every decision a record can
// carry and the request's two ID sources; the handlers' ReplaceAttr
// masks only the record's time and the *_us durations, the values that
// depend on wall time. Refresh with -update.

// heldRouter is a non-owner's cluster tier that forwards nothing: Route
// never serves, so a miss computes locally, and ServeHeld lets the fast
// path answer held peer bytes as a replica hit.
type heldRouter struct{}

func (heldRouter) ServeHeld(string) bool { return true }
func (heldRouter) Route(context.Context, ComputeSpec) (RoutedResult, bool) {
	return RoutedResult{}, false
}
func (heldRouter) Offer(ComputeSpec, []byte)                     {}
func (heldRouter) MetricsSnapshot() map[string]any               { return nil }
func (heldRouter) Epoch() int64                                  { return 0 }
func (heldRouter) HealthSnapshot() []map[string]any              { return nil }
func (heldRouter) FanOut(context.Context, string, []byte) Fanout { return Fanout{} }

// maskAccessAttr blanks an access record's wall-time values.
func maskAccessAttr(_ []string, a slog.Attr) slog.Attr {
	if a.Key == slog.TimeKey || strings.HasSuffix(a.Key, "_us") {
		return slog.String(a.Key, "*")
	}
	return a
}

// accessSequence runs the fixed request sequence through a fresh
// server logging to h, one access record per request.
func accessSequence(t *testing.T, h slog.Handler) {
	t.Helper()
	s := New(Config{NodeName: "g0", AccessLog: slog.New(h), Cluster: heldRouter{}})
	held, err := SolveKey(2, 2, 1, 570, false)
	if err != nil {
		t.Fatal(err)
	}
	if !s.RespCache().PutReplica(held, []byte("{\"replica\":true}\n")) {
		t.Fatal("peer bytes refused")
	}
	for _, step := range []struct {
		method, path, body string
		hdr                map[string]string
		want               int
	}{
		{"POST", "/v1/solve", solveBody, nil, http.StatusOK},                                              // local_compute
		{"POST", "/v1/solve", solveBody, nil, http.StatusOK},                                              // resp_cache_hit
		{"POST", "/v1/solve", `{"arch":2,"conversations":2,"server_compute_us":570}`, nil, http.StatusOK}, // replica_hit
		{"POST", "/v1/solve", `not json`, nil, http.StatusBadRequest},                                     // decode error
		{"POST", "/v1/solve", `{"arch":9,"conversations":1}`, nil, http.StatusBadRequest},                 // validation error
		{"POST", "/v1/solve", solveBody, map[string]string{HopsHeader: "2"}, http.StatusLoopDetected},     // hop limit
		{"GET", "/healthz", "", map[string]string{RequestIDHeader: "peer-7"}, http.StatusOK},              // inherited ID
	} {
		if code, body := serveOne(t, s.Handler(), step.method, step.path, step.body, step.hdr); code != step.want {
			t.Fatalf("%s %s %s: %d %s, want %d", step.method, step.path, step.body, code, body, step.want)
		}
	}
}

func TestAccessRecordGolden(t *testing.T) {
	opts := &slog.HandlerOptions{ReplaceAttr: maskAccessAttr}
	var text, js bytes.Buffer
	accessSequence(t, slog.NewTextHandler(&text, opts))
	accessSequence(t, slog.NewJSONHandler(&js, opts))
	checkGolden(t, "access.txt", text.Bytes())
	checkGolden(t, "access.jsonl", js.Bytes())
}

// A handler that prints sources names logAccess in service.go: the
// record's PC is a PC inside the function that builds it.
func TestAccessRecordSource(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{AccessLog: slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{AddSource: true}))})
	if code, body := serveOne(t, s.Handler(), http.MethodPost, "/v1/solve", solveBody, nil); code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, body)
	}
	var rec struct {
		Source struct {
			Function, File string
			Line           int
		} `json:"source"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("access record %q: %v", buf.Bytes(), err)
	}
	if src := rec.Source; !strings.HasSuffix(src.Function, ".logAccess") ||
		filepath.Base(src.File) != "service.go" || src.Line <= 0 {
		t.Fatalf("access record source %+v, want logAccess in service.go", src)
	}
}
