package service

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"
)

// What sampling traces costs a warm server, measured in process at
// GOMAXPROCS 1: the 32 points ipcload drives are warmed, then 6,400
// sequential requests cycle through them with TraceEvery 100, beside a
// server that does not trace. A trace watches the path that serves a
// request, so the traced server recomputes nothing: that is asserted.
// The CPU and latency figures are logged, for the record:
//
//	go test ./internal/service -run TestTraceSamplingOnWarmServer -count 1 -v
func TestTraceSamplingOnWarmServer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var points [][]byte
	for arch := 1; arch <= 4; arch++ {
		for n := 1; n <= 2; n++ {
			for _, x := range []int{0, 570, 1140, 2850} {
				points = append(points, fmt.Appendf(nil,
					`{"arch":%d,"conversations":%d,"server_compute_us":%d}`, arch, n, x))
			}
		}
	}
	const requests = 6400
	for _, traced := range []bool{false, true} {
		cfg := Config{AccessLog: slog.New(slog.NewJSONHandler(io.Discard, nil))}
		if traced {
			cfg.TraceDir, cfg.TraceEvery = t.TempDir(), 100
		}
		s := New(cfg)
		h := s.Handler()
		rb := &replayBody{}
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", rb)
		w := &discardRW{h: make(http.Header, 4)}
		serve := func(body []byte) time.Duration {
			rb.Reset(body)
			w.status = 0
			t0 := time.Now()
			h.ServeHTTP(w, req)
			d := time.Since(t0)
			if w.status != http.StatusOK {
				t.Fatalf("traced=%v: status %d for %s", traced, w.status, body)
			}
			return d
		}
		for _, p := range points {
			serve(p)
		}
		lat := make([]time.Duration, requests)
		cpu0 := cpuTime(t)
		for i := range lat {
			lat[i] = serve(points[i%len(points)])
		}
		cpu := cpuTime(t) - cpu0
		slices.Sort(lat)
		s.metrics.mu.Lock()
		recomputes := s.metrics.c[fLeaders] - int64(len(points))
		s.metrics.mu.Unlock()
		t.Logf("traced=%v: %d recomputes, CPU %.1f µs/request, p50 %v, p99 %v", traced, recomputes,
			float64(cpu.Microseconds())/requests, lat[requests/2], lat[requests*99/100])
		if recomputes != 0 {
			t.Errorf("traced=%v: %d of %d warm requests recomputed, want 0", traced, recomputes, requests)
		}
	}
}

// cpuTime is the process's user and system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
