package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// The end-to-end times and rates are reported relative to a reference:
// a bare net/http server on its own loopback listener, driven in
// alternation with the workload by the same process on the same CPUs.
// The reference VM shares its host, and for tens of seconds at a time
// every loopback round trip in it runs about 1.5x slower: the hot round
// trip read either ~38 µs or ~60 µs, and 30-second runs landed wholly in
// either mode, so no statistic taken within a run could hold a 25%
// bound. The reference slows with it: over four 40-second hot runs the
// round trip's median read 0.037-0.063 ms while its ratio to the
// reference spread by 0.005 of its median.

// refBlock is how long the unloaded worker drives the reference before
// each sub-block of workload requests, and refSub how long a sub-block
// lasts (at least one request).
const (
	refBlock = 15 * time.Millisecond
	refSub   = 60 * time.Millisecond
	// refSaturated is how long the saturated workers drive the reference
	// after each saturated slice.
	refSaturated = 150 * time.Millisecond
)

// refResponse is the reference's answer: a JSON line of a hot solve
// response's length.
var refResponse = []byte(`{"ref":"` + string(bytes.Repeat([]byte("x"), 180)) + `"}` + "\n")

// refServer is the bare net/http reference and one keep-alive client
// per generator worker.
type refServer struct {
	url     string
	hs      *http.Server
	done    chan struct{}
	clients []*http.Client
	// rtts holds every unloaded reference round trip, in ms.
	rtts []float64
}

func startRef(workers int) (*refServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference listen: %w", err)
	}
	r := &refServer{url: "http://" + ln.Addr().String() + "/", done: make(chan struct{})}
	r.hs = &http.Server{ReadHeaderTimeout: 10 * time.Second,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			_, _ = io.Copy(io.Discard, req.Body)
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(refResponse)
		})}
	go func() {
		defer close(r.done)
		_ = r.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	for i := 0; i < workers; i++ {
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return r, nil
}

func (r *refServer) close() {
	_ = r.hs.Close()
	<-r.done
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
}

// roundTrip sends one request as worker i and returns its round trip.
func (r *refServer) roundTrip(i int) (time.Duration, error) {
	t0 := time.Now()
	status, body, err := post(r.clients[i], r.url, hotBodies[0], nil)
	if err == nil && (status != http.StatusOK || !bytes.Equal(body, refResponse)) {
		err = fmt.Errorf("reference answered %d with %d bytes", status, len(body))
	}
	return time.Since(t0), err
}

// unloaded drives the reference as worker 0 for refBlock and returns
// the median round trip in ns.
func (r *refServer) unloaded() (int64, error) {
	var rtts []float64
	for t0 := time.Now(); time.Since(t0) < refBlock; {
		d, err := r.roundTrip(0)
		if err != nil {
			return 0, err
		}
		rtts = append(rtts, float64(d))
		r.rtts = append(r.rtts, float64(d)/1e6)
	}
	return int64(median(rtts)), nil
}

// saturated drives the reference with n closed-loop workers for
// refSaturated and returns what it measured.
func (r *refServer) saturated(n int) (sliceStat, error) {
	counts := make([]int64, n)
	errs := make([]error, n)
	cpu0 := cpuTime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Since(t0) < refSaturated {
				if _, err := r.roundTrip(i); err != nil {
					errs[i] = err
					return
				}
				counts[i]++
			}
		}(i)
	}
	wg.Wait()
	st := sliceStat{elapsed: time.Since(t0), cpu: cpuTime() - cpu0}
	for i := range counts {
		if errs[i] != nil {
			return st, errs[i]
		}
		st.ok += counts[i]
	}
	return st, nil
}
