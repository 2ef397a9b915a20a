package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/service"
)

// reference answers requests from a fresh standalone server: no
// cluster, default configuration, no sockets.
type reference struct{ srv *service.Server }

// newReference drops the process-global GTPN solve cache first, so the
// reference recomputes every answer instead of reading back what the
// servers under test stored.
func newReference() *reference {
	core.ResetSolveCache()
	return &reference{srv: service.New(service.Config{})}
}

func (r *reference) serve(route string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	r.srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// lineDigests splits a body the way the generator reads it.
func lineDigests(body []byte) []digest {
	var out []digest
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		line := body
		if i >= 0 {
			line, body = body[:i+1], body[i+1:]
		} else {
			body = nil
		}
		h := fnv.New128a()
		h.Write(line)
		var d digest
		out = append(out, digest(h.Sum(d[:0])))
	}
	return out
}

func bodyDigest(body []byte) digest {
	h := fnv.New128a()
	h.Write(body)
	var d digest
	return digest(h.Sum(d[:0]))
}

func sameLines(a, b []digest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verify compares every distinct hot response and every recorded
// fresh response with the reference's bytes, returning how many
// responses differed. Mismatches are described on log. The reference
// solves run on every CPU: the sweep streams are re-solved in full.
func verify(c *checks, log io.Writer) int64 {
	type job struct {
		route string
		body  []byte
		// bad reports how many responses differ from the reference's.
		bad func(code int, want []byte) int64
	}
	var jobs []job
	for i, seen := range c.hot {
		if len(seen) == 0 {
			continue
		}
		jobs = append(jobs, job{"/v1/solve", hotBodies[i], func(code int, want []byte) int64 {
			var n int64
			for d, count := range seen {
				if code != http.StatusOK || d != bodyDigest(want) {
					n += count
				}
			}
			return n
		}})
	}
	for _, f := range c.fresh {
		route := "/v1/solve"
		if f.sweep {
			route = "/v1/sweep"
		}
		jobs = append(jobs, job{route, f.body, func(code int, want []byte) int64 {
			if code != http.StatusOK || !sameLines(f.lines, lineDigests(want)) {
				return 1
			}
			return 0
		}})
	}
	ref := newReference()
	next := make(chan job)
	var mu sync.Mutex
	var bad int64
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				if n := j.bad(ref.serve(j.route, j.body)); n > 0 {
					mu.Lock()
					bad += n
					fmt.Fprintf(log, "mismatch: %d responses to %s %s differ from a standalone server's\n", n, j.route, j.body)
					mu.Unlock()
				}
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return bad
}
