package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// runAsIpcload, set in a child's environment, makes this test binary
// run ipcload's main on its arguments instead of the tests.
const runAsIpcload = "IPCLOAD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsIpcload) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// summary is the part of ipcload's -json document the tests read.
type summary struct {
	Requests   int            `json:"requests"`
	Mismatches int            `json:"mismatches"`
	Failed     map[string]int `json:"failed"`
}

// runIpcload re-executes the test binary as ipcload against targets and
// returns its exit code and decoded summary.
func runIpcload(t *testing.T, targets ...string) (int, summary) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-json", "-c", "2", "-duration", "300ms",
		"-targets", strings.Join(targets, ","))
	cmd.Env = append(os.Environ(), runAsIpcload+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	var s summary
	if err := json.Unmarshal(stdout.Bytes(), &s); err != nil {
		t.Fatalf("summary %q: %v; stderr %q", stdout.String(), err, stderr.String())
	}
	if s.Requests == 0 {
		t.Fatalf("no requests issued: %s", stdout.String())
	}
	return code, s
}

// ipcd serves one in-process service.Server over loopback, its
// response cache warmed with every point ipcload draws, so a short run
// issues many requests even under the race detector.
func ipcd(t *testing.T, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	h := service.New(service.Config{}).Handler()
	for _, p := range workloadPoints("solve", false) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(p)))
		if w.Code != http.StatusOK {
			t.Fatalf("warming %s: %d %s", p, w.Code, w.Body)
		}
	}
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// appendByte answers every 200 with one byte more than h wrote.
func appendByte(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			body = append(body, ' ')
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// ipcload's mismatch counter is the cross-node byte check: identical
// servers pass, one server's differing bytes fail the run, and refused
// requests fail it under their status bucket.
func TestLoadOutcomes(t *testing.T) {
	t.Run("identical", func(t *testing.T) {
		code, s := runIpcload(t, ipcd(t, nil), ipcd(t, nil))
		if code != 0 || s.Mismatches != 0 || len(s.Failed) != 0 {
			t.Fatalf("exit %d, summary %+v; want exit 0, no mismatch, no failure", code, s)
		}
	})
	t.Run("one-server-differs", func(t *testing.T) {
		code, s := runIpcload(t, ipcd(t, nil), ipcd(t, appendByte))
		if code != 1 || s.Mismatches == 0 || len(s.Failed) != 0 {
			t.Fatalf("exit %d, summary %+v; want exit 1 with mismatches and no failure", code, s)
		}
	})
	t.Run("backpressure", func(t *testing.T) {
		refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "busy", http.StatusTooManyRequests)
		}))
		defer refuse.Close()
		code, s := runIpcload(t, refuse.URL)
		if code != 1 || s.Failed["429 (backpressure)"] != s.Requests || len(s.Failed) != 1 {
			t.Fatalf("exit %d, summary %+v; want exit 1 with every request in the 429 bucket", code, s)
		}
	})
}
