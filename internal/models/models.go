// Package models encodes the chapter 6 GTPN performance models: the
// local-conversation nets of Figures 6.9 and 6.12, the non-local
// client/server net pair of Figures 6.10/6.11 and 6.13/6.14 with the
// §6.6.3 iterative fixed-point solution, and the §6.6.2 shared-memory
// contention sub-model of Figure 6.8.
//
// Stage means come from package timing (the transition tables 6.5
// through 6.23). Time is modeled in 1-microsecond ticks, and every large
// constant service time is represented by a geometrically distributed
// one with the same mean — the thesis's Figure 6.7 device for keeping
// the embedded Markov chain tractable.
package models

import (
	"context"
	"fmt"
	"math"

	"repro/internal/gtpn"
	"repro/internal/timing"
)

// netBuilder wraps gtpn.Builder with the geometric service-stage idiom
// shared by all chapter 6 nets.
type netBuilder struct {
	b *gtpn.Builder
	// gateKey canonically names this net's (single) gate condition for
	// the solve-cache signature: within one net every gated stage freezes
	// under the same interrupt-priority condition, so the key plus the
	// stage weight fully determines the frequency function. Leaving it
	// empty makes gated stages opaque (the net is then never cached).
	gateKey string
	// resNames maps resource places to their resource tag, so stage()
	// tags every transition holding the place's token; resTokens records
	// each tag's token count (its number of servers), which converts the
	// solver's resource usage into a utilization.
	resNames  map[gtpn.PlaceID]string
	resTokens map[string]int
}

func newNetBuilder() *netBuilder {
	return &netBuilder{
		b:         gtpn.NewBuilder(),
		resNames:  map[gtpn.PlaceID]string{},
		resTokens: map[string]int{},
	}
}

// resPlace creates a resource place — a pool of tokens representing
// identical servers (hosts, the MP, a DMA engine) — and registers its
// tag so stages holding it are resource-tagged for the solver's usage
// estimates (utilization = usage / tokens).
func (nb *netBuilder) resPlace(name string, tokens int) gtpn.PlaceID {
	p := nb.b.Place(name, tokens)
	nb.resNames[p] = name
	nb.resTokens[name] = tokens
	return p
}

// gateFunc inhibits a stage in states where it must not progress (the
// "(NetIntr = 0) & ~Ti & ~Tj -> f, 0" expressions).
type gateFunc func(v gtpn.View) bool

// stage adds a geometric service stage named name: tokens in `in` are
// served (one per resource token per tick) with mean service time m
// microseconds; a completed token moves to the outs places and the
// resource token returns. res < 0 builds a pure delay with no resource
// (the surrogate S_d/C_d stages). gate, when non-nil, freezes the stage.
// The completion transition is named "name" (rate = stage throughput);
// the continuation is "name.loop". It returns the completion TransID.
func (nb *netBuilder) stage(name string, in gtpn.PlaceID, res gtpn.PlaceID, hasRes bool, m float64, gate gateFunc, outs ...gtpn.PlaceID) {
	if m < 1 {
		panic(fmt.Sprintf("models: stage %s mean %.3f below one tick", name, m))
	}
	p := 1 / m
	setFreq := func(tb *gtpn.TransitionBuilder, f float64) {
		if gate == nil {
			tb.FreqConst(f)
			return
		}
		fn := func(v gtpn.View) float64 {
			if gate(v) {
				return f
			}
			return 0
		}
		if nb.gateKey == "" {
			tb.Freq(fn) // unkeyed gate: leave the net uncacheable
			return
		}
		// The weight f is always positive here, so the frequency's support —
		// which states the stage can progress in — is determined by the gate
		// alone: the shape key is the gate key, making every same-gate
		// variant of the net shape-compatible for sweep graph reuse.
		tb.FreqKeyedShape(fmt.Sprintf("%s:%x", nb.gateKey, f), nb.gateKey, fn)
	}
	endIn := []gtpn.PlaceID{in}
	endOut := append([]gtpn.PlaceID{}, outs...)
	loopIn := []gtpn.PlaceID{in}
	loopOut := []gtpn.PlaceID{in}
	if hasRes {
		endIn = append(endIn, res)
		endOut = append(endOut, res)
		loopIn = append(loopIn, res)
		loopOut = append(loopOut, res)
	}
	// Both the completion and the continuation hold the resource token,
	// so both carry the tag: the solver's per-resource usage then counts
	// every tick a server is occupied by this stage.
	tag := ""
	if hasRes {
		tag = nb.resNames[res]
	}
	end := nb.b.Transition(name).From(endIn...).To(endOut...).Delay(1)
	if tag != "" {
		end.Resource(tag)
	}
	setFreq(end, p)
	if p < 1 {
		loop := nb.b.Transition(name + ".loop").From(loopIn...).To(loopOut...).Delay(1)
		if tag != "" {
			loop.Resource(tag)
		}
		setFreq(loop, 1-p)
	}
}

// SolveOptions bundles solver tuning shared by the model entry points.
type SolveOptions struct {
	// MaxStates bounds each net's reachability graph (default 400k).
	MaxStates int
	// Uncached solves every net without the process-global solve cache
	// (gtpn.SolveOptions.Uncached).
	Uncached bool
}

func (o SolveOptions) gtpnOpts() gtpn.SolveOptions {
	ms := o.MaxStates
	if ms <= 0 {
		ms = 400_000
	}
	return gtpn.SolveOptions{MaxStates: ms, Uncached: o.Uncached}
}

// LocalResult reports the solved local-conversation model.
type LocalResult struct {
	// Throughput is completed conversations per microsecond.
	Throughput float64
	// RoundTrip is the mean per-conversation cycle time in microseconds
	// (Little's law: N / Throughput).
	RoundTrip float64
	// States is the size of the reachability graph.
	States int
	// Utilization maps each resource ("Host", "MP") to its predicted
	// utilization: the solver's time-averaged busy servers divided by
	// the resource's token count. This is the model half of the Figure
	// 6.15 measurement cross-check.
	Utilization map[string]float64
}

// LocalModel is the Figure 6.9/6.12 local-conversation net for one
// architecture.
type LocalModel struct {
	Net    *gtpn.Net
	Params timing.LocalParams
	N      int
	X      float64
	// Hosts is the host-processor token count; ResTokens records the
	// server count behind each resource tag in the net.
	Hosts     int
	ResTokens map[string]int
}

// BuildLocal constructs the local-conversation model: n simultaneous
// conversations, hosts host processors, and xUS microseconds of mean
// server computation per conversation (the workload parameters of §6.3).
func BuildLocal(arch timing.Arch, n, hosts int, xUS float64) *LocalModel {
	p := timing.LocalParamsFor(arch)
	nb := newNetBuilder()
	b := nb.b

	clients := b.Place("Clients", n)
	servers := b.Place("Servers", n)
	host := nb.resPlace("Host", hosts)
	comm := host
	if !p.Shared {
		comm = nb.resPlace("MP", 1)
	}

	// Client path: host stage, then send processing, into SentC.
	sentC := b.Place("SentC", 0)
	if p.CommSend > 0 {
		sendQ := b.Place("SendQ", 0)
		nb.stage("THostClient", clients, host, true, p.HostClient, nil, sendQ)
		nb.stage("TSend", sendQ, comm, true, p.CommSend, nil, sentC)
	} else {
		nb.stage("THostClient", clients, host, true, p.HostClient, nil, sentC)
	}

	// Server path: host stage, then receive processing, into RcvdS.
	rcvdS := b.Place("RcvdS", 0)
	if p.CommRecv > 0 {
		recvQ := b.Place("RecvQ", 0)
		nb.stage("THostServer", servers, host, true, p.HostServer, nil, recvQ)
		nb.stage("TRecv", recvQ, comm, true, p.CommRecv, nil, rcvdS)
	} else {
		nb.stage("THostServer", servers, host, true, p.HostServer, nil, rcvdS)
	}

	// Rendezvous: match on the communication processor.
	srvReady := b.Place("SrvReady", 0)
	commTag := nb.resNames[comm]
	nb.b.Transition("TMatch").From(sentC, rcvdS, comm).To(srvReady, comm).
		Delay(1).FreqConst(1 / p.CommMatch).Resource(commTag)
	nb.b.Transition("TMatch.loop").From(sentC, rcvdS, comm).To(sentC, rcvdS, comm).
		Delay(1).FreqConst(1 - 1/p.CommMatch).Resource(commTag)

	// Compute + reply syscall on the host; reply processing on the MP
	// completes the conversation, returning both tokens.
	computeMean := p.HostCompute + xUS
	if p.CommReply > 0 {
		replyQ := b.Place("ReplyQ", 0)
		nb.stage("TCompute", srvReady, host, true, computeMean, nil, replyQ)
		nb.stage("TReply", replyQ, comm, true, p.CommReply, nil, clients, servers)
	} else {
		nb.stage("TCompute", srvReady, host, true, computeMean, nil, clients, servers)
	}

	return &LocalModel{Net: b.MustBuild(), Params: p, N: n, X: xUS,
		Hosts: hosts, ResTokens: nb.resTokens}
}

// WithX returns the model for xUS microseconds of mean server
// computation: m's net with only TCompute and TCompute.loop reweighted,
// to p = 1/(HostCompute + xUS) and 1 − p, the floats and keys BuildLocal
// gives them, so its signatures are BuildLocal's too. Everything else is
// shared with m. An X at which BuildLocal would build the stage
// otherwise (a mean below one tick, or no loop: p ≥ 1 or NaN) is left
// to BuildLocal.
func (m *LocalModel) WithX(xUS float64) *LocalModel {
	mean := m.Params.HostCompute + xUS
	p := 1 / mean
	end, okEnd := m.Net.TransByName("TCompute")
	loop, okLoop := m.Net.TransByName("TCompute.loop")
	if !(mean >= 1 && p < 1) || !okEnd || !okLoop {
		return BuildLocal(m.Params.Arch, m.N, m.Hosts, xUS)
	}
	cp := *m
	cp.Net = m.Net.WithConstFreqs([]gtpn.TransID{end, loop}, []float64{p, 1 - p})
	cp.X = xUS
	return &cp
}

// LocalPointSolver solves local-model points one at a time on a
// gtpn.PointSolver, which keeps the last point's graph and resolver.
// A point that differs from the last model solved only in X takes its
// net from that model (WithX) instead of the Builder; any other point
// is built by BuildLocal. Every result equals BuildLocal(...) solved
// through SolveContext with Uncached set, bit for bit: the point solver
// starts every stationary solve uniform. After an error it must be
// discarded. Not safe for concurrent use.
type LocalPointSolver struct {
	ps *gtpn.PointSolver
	m  *LocalModel
}

// NewLocalPointSolver returns a point solver applying opts per point;
// its solves are uncached whatever opts.Uncached says.
func NewLocalPointSolver(opts SolveOptions) *LocalPointSolver {
	return &LocalPointSolver{ps: gtpn.NewPointSolver(opts.gtpnOpts())}
}

// SolveContext solves the local model BuildLocal(arch, n, hosts, xUS)
// describes.
func (ls *LocalPointSolver) SolveContext(ctx context.Context, arch timing.Arch, n, hosts int, xUS float64) (LocalResult, error) {
	m := ls.m
	if m != nil && m.Params.Arch == arch && m.N == n && m.Hosts == hosts {
		m = m.WithX(xUS)
	} else {
		m = BuildLocal(arch, n, hosts, xUS)
	}
	sol, err := ls.ps.SolveContext(ctx, m.Net)
	if err != nil {
		return LocalResult{}, err
	}
	ls.m = m
	return m.localResult(sol)
}

// doneTransition names the transition whose completions mark the end of a
// conversation in the local net.
func (m *LocalModel) doneTransition() string {
	if m.Params.CommReply > 0 {
		return "TReply"
	}
	return "TCompute"
}

// Solve computes the exact steady state of the local model.
func (m *LocalModel) Solve(opts SolveOptions) (LocalResult, error) {
	return m.SolveContext(context.Background(), opts)
}

// SolveContext is Solve with cancellation: a done ctx abandons the
// underlying GTPN solve with ctx.Err().
func (m *LocalModel) SolveContext(ctx context.Context, opts SolveOptions) (LocalResult, error) {
	sol, err := m.Net.SolveContext(ctx, opts.gtpnOpts())
	if err != nil {
		return LocalResult{}, err
	}
	return m.localResult(sol)
}

// localResult converts a solved net into the model-level result; shared
// by the single-point and sweep solve paths.
func (m *LocalModel) localResult(sol *gtpn.Solution) (LocalResult, error) {
	if !sol.Converged {
		return LocalResult{}, fmt.Errorf("models: local model (arch %v, n=%d) did not converge (residual %g)", m.Params.Arch, m.N, sol.Residual)
	}
	lam := sol.Rate(m.doneTransition())
	res := LocalResult{Throughput: lam, States: sol.States,
		Utilization: utilization(sol.ResourceUsage, m.ResTokens)}
	if lam > 0 {
		res.RoundTrip = float64(m.N) / lam
	}
	return res, nil
}

// utilization converts per-resource usage (mean busy servers) into
// per-resource utilization by dividing by the server count.
func utilization(usage map[string]float64, tokens map[string]int) map[string]float64 {
	if len(usage) == 0 {
		return nil
	}
	out := make(map[string]float64, len(usage))
	for r, u := range usage {
		if n := tokens[r]; n > 0 {
			out[r] = u / float64(n)
		}
	}
	return out
}

// Simulate cross-checks the local model by Monte Carlo.
func (m *LocalModel) Simulate(seed uint64, ticks int64) (LocalResult, error) {
	sim, err := m.Net.Simulate(gtpn.SimOptions{Seed: seed, Ticks: ticks})
	if err != nil {
		return LocalResult{}, err
	}
	if sim.Dead {
		return LocalResult{}, fmt.Errorf("models: local simulation deadlocked at tick %d", sim.DeadTick)
	}
	lam := sim.Rate(m.doneTransition())
	res := LocalResult{Throughput: lam}
	if lam > 0 {
		res.RoundTrip = float64(m.N) / lam
	}
	return res, nil
}

// maxFloat is a tiny helper for iteration guards.
func maxFloat(a, b float64) float64 { return math.Max(a, b) }
