package workload

import (
	"testing"

	"repro/internal/des"
	"repro/internal/kernel"
)

func TestRunLocalCountsRoundTrips(t *testing.T) {
	eng := des.New(5)
	k := kernel.New(eng, kernel.Config{Coprocessor: true})
	t.Cleanup(k.Shutdown)
	res := RunLocal(eng, k, Params{Conversations: 2, ComputeMean: 100 * des.Microsecond}, des.Second)
	if res.RoundTrips == 0 {
		t.Fatal("no round trips")
	}
	if res.Throughput <= 0 || res.MeanRoundTrip <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// With free communication the round trip is the compute draw
	// (uniform around 100 us) plus queueing behind the other
	// conversation's compute on the single host: ~200 us for two
	// conversations.
	if res.MeanRoundTrip < 100 || res.MeanRoundTrip > 300 {
		t.Fatalf("mean round trip = %.1f us, want ~200", res.MeanRoundTrip)
	}
}

func TestRunNonLocalCountsRoundTrips(t *testing.T) {
	eng := des.New(5)
	cl := kernel.NewCluster(eng, 2, kernel.Config{Coprocessor: true})
	t.Cleanup(cl.Shutdown)
	res := RunNonLocal(eng, cl, Params{Conversations: 2}, des.Second)
	if res.RoundTrips == 0 {
		t.Fatal("no round trips")
	}
	// Round trips must cross the wire: two packets each.
	if cl.Ring().Sent < 2*res.RoundTrips {
		t.Fatalf("only %d packets for %d round trips", cl.Ring().Sent, res.RoundTrips)
	}
}

func TestWarmupExcluded(t *testing.T) {
	eng := des.New(5)
	k := kernel.New(eng, kernel.Config{})
	t.Cleanup(k.Shutdown)
	// All-warmup window: nothing may be counted. (Nonzero compute keeps
	// simulated time advancing; a zero-cost zero-compute workload would
	// cycle forever at t=0.)
	res := RunLocal(eng, k, Params{Conversations: 1, ComputeMean: 100 * des.Microsecond, Warmup: des.Second}, des.Second)
	if res.RoundTrips != 0 {
		t.Fatalf("counted %d round trips inside warmup", res.RoundTrips)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Result {
		eng := des.New(99)
		k := kernel.New(eng, kernel.Config{Coprocessor: true})
		defer k.Shutdown()
		return RunLocal(eng, k, Params{Conversations: 3, ComputeMean: 500 * des.Microsecond}, des.Second)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}
