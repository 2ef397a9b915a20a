// Package workload generates the §6.3 conversation workload: clients
// loop making blocking remote-invocation sends; servers loop posting
// blocking receives, compute for a uniformly distributed time, and
// reply. The number of simultaneous conversations and the mean server
// computation time are the two workload parameters; the workload is
// designed to stress the message-based operating system, so clients do
// not compute.
package workload

import (
	"repro/internal/des"
	"repro/internal/kernel"
)

// Params are the §6.3 workload parameters.
type Params struct {
	// Conversations is the number of simultaneous client/server pairs.
	Conversations int
	// ComputeMean is the mean server computation per conversation, in
	// ticks. Durations are uniform on [ComputeMean/2, 3*ComputeMean/2],
	// per the §4.8 uniformly distributed busy loop. Note that on a kernel
	// configured with zero activity costs a local workload with zero
	// compute never advances simulated time (round trips are free); give
	// either the kernel or the workload a nonzero cost.
	ComputeMean int64
	// Warmup excludes initial transients from the measures; default is a
	// tenth of the horizon.
	Warmup int64
}

// Result reports the measured performance of a run.
type Result struct {
	// RoundTrips counts rendezvous completed in the measurement window.
	RoundTrips int64
	// Elapsed is the measurement window in ticks.
	Elapsed int64
	// Throughput is conversations completed per microsecond.
	Throughput float64
	// MeanRoundTrip is the mean client-observed cycle time in
	// microseconds.
	MeanRoundTrip float64
}

const serviceName = "conversation"

// uniformCompute draws the busy-loop duration.
func uniformCompute(t *kernel.Task, mean int64) int64 {
	if mean <= 0 {
		return 0
	}
	lo, hi := mean/2, mean+mean/2
	return t.Rand().UniformInt(lo, hi)
}

// startServers spawns p.Conversations server tasks on k, all offering
// one shared service (any server may serve any request, as in the
// models).
func startServers(k *kernel.Kernel, p Params) {
	owner := k.Spawn("server0", func(ts *kernel.Task) {
		svc := ts.CreateService(serviceName)
		ts.Advertise(serviceName, svc)
		_ = ts.Offer(svc)
		serverLoop(ts, svc, p)
	})
	_ = owner
	for i := 1; i < p.Conversations; i++ {
		k.Spawn("server", func(ts *kernel.Task) {
			svc := waitLookup(ts)
			_ = ts.Offer(svc)
			serverLoop(ts, svc, p)
		})
	}
}

func serverLoop(ts *kernel.Task, svc kernel.ServiceRef, p Params) {
	for {
		m, err := ts.Receive(svc)
		if err != nil {
			return
		}
		ts.Compute(uniformCompute(ts, p.ComputeMean))
		if err := ts.Reply(m, nil); err != nil {
			return
		}
	}
}

func waitLookup(ts *kernel.Task) kernel.ServiceRef {
	for {
		if ref, ok := ts.Lookup(serviceName); ok {
			return ref
		}
		ts.Yield()
	}
}

// counters collects completions reported by clients.
type counters struct {
	warmup     int64
	trips      int64
	tripTicks  int64
	horizonEnd int64
}

// startClients spawns the client loops on k, recording completions.
func startClients(k *kernel.Kernel, p Params, c *counters) {
	for i := 0; i < p.Conversations; i++ {
		k.Spawn("client", func(ts *kernel.Task) {
			ref := waitLookup(ts)
			for {
				start := ts.Now()
				if _, err := ts.Call(ref, nil, nil); err != nil {
					return
				}
				end := ts.Now()
				if start >= c.warmup && end <= c.horizonEnd {
					c.trips++
					c.tripTicks += end - start
				}
			}
		})
	}
}

func (c *counters) result(horizon int64) Result {
	elapsed := horizon - c.warmup
	r := Result{RoundTrips: c.trips, Elapsed: elapsed}
	if elapsed > 0 {
		r.Throughput = float64(c.trips) / (float64(elapsed) / float64(des.Microsecond))
	}
	if c.trips > 0 {
		r.MeanRoundTrip = float64(c.tripTicks) / float64(c.trips) / float64(des.Microsecond)
	}
	return r
}

// RunLocal drives local conversations: clients and servers on the same
// node. The engine must be fresh; the run owns it until horizon.
func RunLocal(eng *des.Engine, k *kernel.Kernel, p Params, horizon int64) Result {
	c := prepare(p, horizon)
	startServers(k, p)
	startClients(k, p, c)
	eng.Run(horizon)
	return c.result(horizon)
}

// RunNonLocal drives non-local conversations: clients grouped on node 0
// and servers on node 1, as in the §6.6.3 decomposition.
func RunNonLocal(eng *des.Engine, cl *kernel.Cluster, p Params, horizon int64) Result {
	c := prepare(p, horizon)
	startServers(cl.Kernel(1), p)
	startClients(cl.Kernel(0), p, c)
	eng.Run(horizon)
	return c.result(horizon)
}

func prepare(p Params, horizon int64) *counters {
	w := p.Warmup
	if w <= 0 {
		w = horizon / 10
	}
	return &counters{warmup: w, horizonEnd: horizon}
}
