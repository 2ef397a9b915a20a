// Package core is the library's front door: it packages the thesis's
// contribution — a node architecture with a dedicated message
// coprocessor and smart-bus support for interprocess communication —
// behind a small API. A System pairs one of the four chapter 6 node
// architectures with the §6.3 conversation workload and can be
// evaluated two ways that cross-validate each other:
//
//   - Analyze solves the architecture's Generalized Timed Petri Net
//     model exactly (the thesis's analytical method), and
//   - Measure runs the full machine-level discrete-event simulation —
//     the 925-style kernel, scheduler, kernel buffers, and (for
//     non-local workloads) the token ring (the thesis's experimental
//     method).
//
// For building actual message-passing applications on the simulated
// kernel (services, send/receive/reply, memory references, interrupt
// handlers), use NewNode and NewCluster, which expose the kernel
// directly; the examples directory shows both styles.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/des"
	"repro/internal/gtpn"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/rng"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SolveCacheStats reports the process-global GTPN solve cache's
// counters. The experiment engine and the CLIs solve through that cache;
// a System does not (see systemSolve), so its solves count as bypassed.
type SolveCacheStats = gtpn.CacheStats

// SolveCache reports the solve cache counters.
func SolveCache() SolveCacheStats { return gtpn.SolveCacheStats() }

// ResetSolveCache drops all cached solutions and zeroes the counters.
func ResetSolveCache() { gtpn.ResetSolveCache() }

// EngineStats reports the GTPN solver's structural work counters:
// reachability graphs built, states and chain edges explored, and how
// often independent terminal classes were solved in parallel. Solve
// cache hits build nothing.
type EngineStats = gtpn.EngineStats

// SolverEngine reports the solver engine counters.
func SolverEngine() EngineStats { return gtpn.SolverEngineStats() }

// Arch selects the node architecture.
type Arch = timing.Arch

// The four architectures of chapter 6.
const (
	Uniprocessor       = timing.ArchI
	MessageCoprocessor = timing.ArchII
	SmartBus           = timing.ArchIII
	PartitionedBus     = timing.ArchIV
)

// Workload is the §6.3 conversation workload.
type Workload struct {
	// Conversations is the number of simultaneous client-server pairs.
	Conversations int
	// ServerComputeUS is the mean server computation per conversation in
	// microseconds (the thesis's X).
	ServerComputeUS float64
	// NonLocal groups clients on one node and servers on another,
	// communicating over the token ring.
	NonLocal bool
}

// systemSolve holds the solver options of every System solve. They skip
// the process-global solve cache. Every ipcd solve goes through a
// System; ipcd answers a repeated request from its response cache, and
// a System memoizes its C, so the cache would keep every solution for
// the life of the process and answer almost none of them again.
var systemSolve = models.SolveOptions{Uncached: true}

// System is one configured node architecture. It is safe for
// concurrent use.
type System struct {
	arch  Arch
	hosts int
	seed  uint64
	// c memoizes the canonical round trip C per locality (see
	// roundTripC), Workload.NonLocal → float64. It is shared by
	// pointer, so the copies MeasureMany makes of a System share it too.
	c *sync.Map
}

// Option configures a System.
type Option func(*System)

// WithHosts sets the number of host processors per node (default 1; the
// thesis test-bed had 2).
func WithHosts(n int) Option { return func(s *System) { s.hosts = n } }

// WithSeed seeds the simulation's random streams.
func WithSeed(seed uint64) Option { return func(s *System) { s.seed = seed } }

// New creates a System for the given architecture.
func New(arch Arch, opts ...Option) *System {
	s := &System{arch: arch, hosts: 1, seed: 1, c: new(sync.Map)}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Arch reports the system's architecture.
func (s *System) Arch() Arch { return s.arch }

// Prediction is an analytical (GTPN) result.
type Prediction struct {
	// Throughput in round trips per second.
	Throughput float64
	// RoundTripUS is the mean conversation cycle time.
	RoundTripUS float64
	// OfferedLoad is C/(C+S) for this system and workload.
	OfferedLoad float64
	// States is the size of the solved state space (client+server nets
	// for non-local workloads).
	States int
}

// Analyze solves the GTPN model of the system under the workload.
func (s *System) Analyze(w Workload) (Prediction, error) {
	return s.AnalyzeContext(context.Background(), w)
}

// AnalyzeContext is Analyze with cancellation: the context is threaded
// through the GTPN solver (and, for non-local workloads, the §6.6.3
// fixed-point iteration), so a request deadline bounds the solve.
func (s *System) AnalyzeContext(ctx context.Context, w Workload) (Prediction, error) {
	if w.Conversations <= 0 {
		return Prediction{}, fmt.Errorf("core: workload needs at least one conversation")
	}
	defer trace.ScopeFrom(ctx).Begin("core.analyze", "core").End()
	var p Prediction
	if w.NonLocal {
		res, err := models.SolveNonLocalContext(ctx, s.arch, w.Conversations, s.hosts, w.ServerComputeUS, systemSolve)
		if err != nil {
			return Prediction{}, err
		}
		p = Prediction{Throughput: res.Throughput * 1e6, RoundTripUS: res.RoundTrip,
			States: res.ClientStates + res.ServerStates}
	} else {
		res, err := models.BuildLocal(s.arch, w.Conversations, s.hosts, w.ServerComputeUS).SolveContext(ctx, systemSolve)
		if err != nil {
			return Prediction{}, err
		}
		p = Prediction{Throughput: res.Throughput * 1e6, RoundTripUS: res.RoundTrip, States: res.States}
	}
	c, err := s.roundTripC(ctx, w.NonLocal)
	if err != nil {
		return Prediction{}, err
	}
	p.OfferedLoad = timing.OfferedLoad(c, w.ServerComputeUS)
	return p, nil
}

// AnalyzeSweep solves an ordered grid of workload points with the
// sweep-native solver.
func (s *System) AnalyzeSweep(ws []Workload) ([]Prediction, error) {
	return s.AnalyzeSweepContext(context.Background(), ws)
}

// AnalyzeSweepContext solves an ordered grid of workload points,
// returning one Prediction per point in grid order. Consecutive local
// points chain through the sweep-native solver, so a sweep that varies
// only the server computation time (the paper's X axis) reuses one
// reachability graph and warm-starts every stationary solve after the
// first; non-local points fall back to the per-point §6.6.3 iteration
// and break the chain. The canonical C round-trip (for OfferedLoad) is
// the System's, solved once per locality. The first failing point
// aborts the sweep.
func (s *System) AnalyzeSweepContext(ctx context.Context, ws []Workload) ([]Prediction, error) {
	for i, w := range ws {
		if w.Conversations <= 0 {
			return nil, fmt.Errorf("core: sweep point %d needs at least one conversation", i)
		}
	}
	defer trace.ScopeFrom(ctx).Begin("core.analyze_sweep", "core").End()
	a := s.NewSweepAnalyzer()
	out := make([]Prediction, len(ws))
	for i, w := range ws {
		p, err := a.AnalyzeNext(ctx, w)
		if err != nil {
			return nil, fmt.Errorf("core: sweep point %d: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}

// SweepAnalyzer analyzes an ordered sequence of workload points one at
// a time, carrying the sweep-native solver's warm chain between calls:
// consecutive local points that share a net shape (same architecture,
// population, and hosts — only the server time moving) reuse the
// reachability graph and warm-start the stationary iteration. It is the
// incremental form of AnalyzeSweep, for callers that emit each point as
// it completes. Not safe for concurrent use.
type SweepAnalyzer struct {
	sys   *System
	local *models.LocalSweepSolver
}

// NewSweepAnalyzer starts a fresh sweep chain over this system.
func (s *System) NewSweepAnalyzer() *SweepAnalyzer {
	return &SweepAnalyzer{sys: s, local: models.NewLocalSweepSolver(systemSolve)}
}

// AnalyzeNext solves the next point of the sweep.
func (a *SweepAnalyzer) AnalyzeNext(ctx context.Context, w Workload) (Prediction, error) {
	if w.Conversations <= 0 {
		return Prediction{}, fmt.Errorf("core: workload needs at least one conversation")
	}
	var p Prediction
	if w.NonLocal {
		// Non-local points solve per point (the §6.6.3 iteration is its own
		// fixed point, not a chainable stationary solve) and invalidate the
		// local chain's adjacency.
		a.local.Reset()
		res, err := models.SolveNonLocalContext(ctx, a.sys.arch, w.Conversations, a.sys.hosts, w.ServerComputeUS, systemSolve)
		if err != nil {
			return Prediction{}, err
		}
		p = Prediction{Throughput: res.Throughput * 1e6, RoundTripUS: res.RoundTrip,
			States: res.ClientStates + res.ServerStates}
	} else {
		res, err := a.local.SolveNext(ctx, models.LocalSweepPoint{
			Arch: a.sys.arch, N: w.Conversations, Hosts: a.sys.hosts, XUS: w.ServerComputeUS})
		if err != nil {
			return Prediction{}, err
		}
		p = Prediction{Throughput: res.Throughput * 1e6, RoundTripUS: res.RoundTrip, States: res.States}
	}
	c, err := a.sys.roundTripC(ctx, w.NonLocal)
	if err != nil {
		return Prediction{}, err
	}
	p.OfferedLoad = timing.OfferedLoad(c, w.ServerComputeUS)
	return p, nil
}

// roundTripC reports the canonical round trip C behind OfferedLoad: one
// conversation at X = 0 in the given locality. It depends only on the
// System, so it is solved once per locality and memoized; a failed solve
// (a done context, say) is returned and not memoized. Concurrent first
// calls may each solve it, and store the same value.
func (s *System) roundTripC(ctx context.Context, nonLocal bool) (float64, error) {
	if c, ok := s.c.Load(nonLocal); ok {
		return c.(float64), nil
	}
	c, err := s.solveRoundTripC(ctx, nonLocal)
	if err != nil {
		return 0, err
	}
	s.c.Store(nonLocal, c)
	return c, nil
}

func (s *System) solveRoundTripC(ctx context.Context, nonLocal bool) (float64, error) {
	if nonLocal {
		res, err := models.SolveNonLocalContext(ctx, s.arch, 1, s.hosts, 0, systemSolve)
		if err != nil {
			return 0, err
		}
		return res.RoundTrip, nil
	}
	res, err := models.BuildLocal(s.arch, 1, s.hosts, 0).SolveContext(ctx, systemSolve)
	if err != nil {
		return 0, err
	}
	return res.RoundTrip, nil
}

// Measurement is a machine-level simulation result.
type Measurement struct {
	// Throughput in round trips per second.
	Throughput float64
	// RoundTripUS is the mean client-observed cycle time.
	RoundTripUS float64
	// RoundTrips completed in the measurement window.
	RoundTrips int64
}

// Measure runs the machine-level simulation of the system under the
// workload for the given number of simulated seconds.
func (s *System) Measure(w Workload, seconds int64) (Measurement, error) {
	if w.Conversations <= 0 {
		return Measurement{}, fmt.Errorf("core: workload needs at least one conversation")
	}
	if seconds <= 0 {
		seconds = 10
	}
	cfg := machine.Config{Hosts: s.hosts, Seed: s.seed}
	var m *machine.Machine
	if w.NonLocal {
		m = machine.NewNonLocal(s.arch, cfg)
	} else {
		m = machine.NewLocal(s.arch, cfg)
	}
	res := m.Run(workload.Params{
		Conversations: w.Conversations,
		ComputeMean:   int64(w.ServerComputeUS) * des.Microsecond,
	}, seconds*des.Second)
	if res.RoundTrips == 0 {
		return Measurement{}, fmt.Errorf("core: no round trips completed; extend the horizon")
	}
	return Measurement{
		Throughput:  res.Throughput * 1e6,
		RoundTripUS: res.MeanRoundTrip,
		RoundTrips:  res.RoundTrips,
	}, nil
}

// MeasureMany runs reps independent machine-level simulations of the
// workload — each seeded from its own SplitMix64 stream derived from the
// system seed by replication index — on up to workers concurrent
// goroutines (0 means GOMAXPROCS), and averages the measures in
// replication order. The result is bit-identical at any worker count,
// extending the repository's single-stream determinism guarantee to a
// parallel ensemble.
func (s *System) MeasureMany(w Workload, seconds int64, reps, workers int) (Measurement, error) {
	return s.MeasureManyContext(context.Background(), w, seconds, reps, workers)
}

// MeasureManyContext is MeasureMany with cancellation: the context is
// polled before each replication starts, so a deadline bounds an
// ensemble to the replications already in flight. (A single replication
// runs to completion: the discrete-event engine itself is not
// interruptible mid-run.)
func (s *System) MeasureManyContext(ctx context.Context, w Workload, seconds int64, reps, workers int) (Measurement, error) {
	if err := ctx.Err(); err != nil {
		return Measurement{}, err
	}
	if reps < 2 {
		return s.Measure(w, seconds)
	}
	seeds := make([]uint64, reps)
	src := rng.New(s.seed)
	for i := range seeds {
		seeds[i] = src.Uint64()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > reps {
		workers = reps
	}
	results := make([]Measurement, reps)
	errs := make([]error, reps)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				rep := *s
				rep.seed = seeds[i]
				results[i], errs[i] = rep.Measure(w, seconds)
			}
		}()
	}
	for i := 0; i < reps; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var agg Measurement
	for i, r := range results {
		if errs[i] != nil {
			return Measurement{}, errs[i]
		}
		agg.Throughput += r.Throughput
		agg.RoundTripUS += r.RoundTripUS
		agg.RoundTrips += r.RoundTrips
	}
	agg.Throughput /= float64(reps)
	agg.RoundTripUS /= float64(reps)
	return agg, nil
}

// Node is a single simulated node running the message-based kernel, for
// building applications directly against the IPC API.
type Node struct {
	// Eng is the node's event engine; call Eng.Run to advance time.
	Eng *des.Engine
	// Kernel spawns tasks and owns services.
	Kernel *kernel.Kernel
}

// NewNode creates a single node with the architecture's kernel
// organization and measured activity costs. Architecture I runs the IPC
// kernel on the host; the others on a message coprocessor.
func NewNode(arch Arch, opts ...Option) *Node {
	s := New(arch, opts...)
	eng := des.New(s.seed)
	k := kernel.New(eng, kernel.Config{
		Hosts:       s.hosts,
		Coprocessor: arch != Uniprocessor,
		Costs:       timing.CostsFor(arch, true),
	})
	return &Node{Eng: eng, Kernel: k}
}

// Cluster is a multi-node distributed system over a token ring.
type Cluster struct {
	Eng     *des.Engine
	Cluster *kernel.Cluster
}

// NewCluster creates nodes interconnected by the token ring, each with
// the architecture's kernel organization and non-local activity costs.
func NewCluster(arch Arch, nodes int, opts ...Option) *Cluster {
	s := New(arch, opts...)
	eng := des.New(s.seed)
	cl := kernel.NewCluster(eng, nodes, kernel.Config{
		Hosts:       s.hosts,
		Coprocessor: arch != Uniprocessor,
		Costs:       timing.CostsFor(arch, false),
	})
	return &Cluster{Eng: eng, Cluster: cl}
}
