package service

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	readmeRoute = regexp.MustCompile(`/v1/(solve|simulate|sweep)\b`)
	readmeBody  = regexp.MustCompile(`-d '([^']*)'`)
)

// Every body README.md's curl examples send to /v1/solve, /v1/simulate
// or /v1/sweep must pass that route's strict decoder and validation: a
// documented command that answers 400 is a broken example. A documented
// solve or simulate body must also be in decodeFlat's subset, as every
// client's is. Nothing is computed.
func TestREADMERequestBodies(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	seen := map[string]int{}
	// One segment per curl command, up to the next one: a compute-route
	// command names its route on its first line and sends one -d body,
	// possibly on a continuation line or spanning several.
	for _, cmd := range strings.Split(string(raw), "curl ")[1:] {
		first, _, _ := strings.Cut(cmd, "\n")
		route := readmeRoute.FindStringSubmatch(first)
		if route == nil {
			continue
		}
		body := readmeBody.FindStringSubmatch(cmd)
		if body == nil {
			t.Errorf("README curl to /v1/%s sends no -d body: %s", route[1], first)
			continue
		}
		seen[route[1]]++
		var q interface{ validate() error }
		switch route[1] {
		case "solve":
			q = new(solveRequest)
		case "simulate":
			q = new(simulateRequest)
		default:
			q = new(sweepRequest)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/"+route[1], strings.NewReader(body[1]))
		rec := httptest.NewRecorder()
		if !s.decodeValid(rec, req, q) {
			t.Errorf("README body for /v1/%s answers %d %s: %s", route[1], rec.Code, strings.TrimSpace(rec.Body.String()), body[1])
		}
		if route[1] != "sweep" && !decodeFlat([]byte(body[1]), q) {
			t.Errorf("README body for /v1/%s is outside decodeFlat's subset: %s", route[1], body[1])
		}
	}
	for _, route := range []string{"solve", "simulate", "sweep"} {
		if seen[route] == 0 {
			t.Errorf("README shows no /v1/%s body", route)
		}
	}
}
