package gtpn

import (
	"context"
	"fmt"

	"repro/internal/trace"
)

// graph is the reachability graph of the net's embedded Markov chain
// in compressed-sparse-row form. State i's words (marking then firing
// vector) sit at st.state(i); its successor edges are
// succ[rowPtr[i]:rowPtr[i+1]] with matching transition probabilities
// in prob; its expected per-step transition completions are the CSR
// row compT/compVal[compPtr[i]:compPtr[i+1]], with compT ascending
// within a row. Dead states carry a unit-time self-loop and an empty
// completion row. Everything downstream of graph construction — the
// SCC pass, the absorption and stationary sweeps, and the measure
// integration — walks these contiguous arrays instead of chasing
// per-state heap objects.
type graph struct {
	n  *Net
	st *stateTable
	// r is the resolver that built the graph; reweight rebinds it.
	r *resolver

	dt   []float64
	dead []bool

	rowPtr []int
	succ   []int32
	prob   []float64

	compPtr []int
	compT   []int32
	compVal []float64

	// Initial distribution over states after resolving the initial
	// instant, in outcome order.
	initIdx  []int32
	initProb []float64
}

func (g *graph) numStates() int { return len(g.dt) }

// words returns state i's flat configuration words.
func (g *graph) words(i int) []int32 { return g.st.state(i) }

// row returns state i's successor list and probabilities.
func (g *graph) row(i int) ([]int32, []float64) {
	lo, hi := g.rowPtr[i], g.rowPtr[i+1]
	return g.succ[lo:hi], g.prob[lo:hi]
}

// buildGraph explores the tangible state space into CSR form. The
// returned graph carries the initial distribution over states after
// resolving the initial instant.
//
// States are interned in discovery order and the frontier is FIFO, so
// state i's row is always completed before state i+1's begins — which
// is why the CSR arrays can be appended directly, and why the state
// numbering (and with it every floating-point accumulation order in
// the stationary solve) matches the reference implementation exactly.
func (n *Net) buildGraph(ctx context.Context, maxStates int) (*graph, error) {
	np := len(n.places)
	nt := len(n.trans)
	w := np + n.firingLen
	st := newStateTable(w)
	r := newResolver(n)
	g := &graph{n: n, st: st, r: r, rowPtr: []int{0}, compPtr: []int{0}}

	// Resolve the initial instant into the starting distribution.
	start := make([]int32, w)
	for i, p := range n.places {
		start[i] = int32(p.Initial)
	}
	if err := r.resolve(start, 1); err != nil {
		return nil, err
	}
	for _, id := range r.outs {
		idx, _ := st.intern(r.nodeCfg(id))
		g.initIdx = append(g.initIdx, idx)
		g.initProb = append(g.initProb, r.prob[id])
	}

	work := make([]int32, w)
	completed := make([]int32, nt)
	comp := make([]float64, nt)
	var explored int
	// The FIFO frontier visits states in index order, so the frontier
	// is implicit: expand state i while i trails the intern count.
	for i := 0; i < st.count(); i++ {
		explored++
		if explored%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		copy(work, st.state(i))
		c := n.wrap(work)
		dt, ok := n.advanceInto(&c, completed)
		if !ok {
			// Dead state: nothing in flight. It is absorbing; model it as
			// a unit-time self-loop so time averages remain defined.
			g.dead = append(g.dead, true)
			g.dt = append(g.dt, 1)
			g.succ = append(g.succ, int32(i))
			g.prob = append(g.prob, 1)
			g.rowPtr = append(g.rowPtr, len(g.succ))
			g.compPtr = append(g.compPtr, len(g.compT))
			continue
		}
		g.dead = append(g.dead, false)
		g.dt = append(g.dt, float64(dt))
		for t := 0; t < nt; t++ {
			comp[t] = float64(completed[t])
		}
		if err := r.resolve(work, 1); err != nil {
			return nil, err
		}
		for _, id := range r.outs {
			pr := r.prob[id]
			fired := r.nodeFired(id)
			for t, f := range fired {
				if f != 0 {
					comp[t] += f * pr
				}
			}
			j, fresh := st.intern(r.nodeCfg(id))
			g.succ = append(g.succ, j)
			g.prob = append(g.prob, pr)
			if fresh && st.count() > maxStates {
				return nil, fmt.Errorf("gtpn: state space exceeds %d states", maxStates)
			}
		}
		for t := 0; t < nt; t++ {
			if comp[t] != 0 {
				g.compT = append(g.compT, int32(t))
				g.compVal = append(g.compVal, comp[t])
			}
			comp[t] = 0
		}
		g.rowPtr = append(g.rowPtr, len(g.succ))
		g.compPtr = append(g.compPtr, len(g.compT))
	}

	engineStats.graphs.Add(1)
	engineStats.states.Add(uint64(g.numStates()))
	engineStats.edges.Add(uint64(len(g.succ)))
	return g, nil
}

// reweight rewrites g's weight-dependent data — dt, prob, compVal, and
// the initial distribution — in place for net n2, which must share g's
// net shape: the same reachable state set interned in the same discovery
// order with the same successor and completion skeletons (the
// ShapeSignature contract). It re-runs exactly the per-state advance and
// resolution walk of buildGraph over the frozen state table in the same
// order, so every rewritten float is bit-identical to what a cold build
// for n2 would have produced; the skeleton entries (succ, compT, dead,
// row shapes) are verified against the walk rather than trusted. What it
// skips relative to a cold build is every allocation and every state
// insertion — the arrays and the interning table are already exactly
// right-sized and populated, and the graph's resolver is rebound to n2
// rather than made anew.
//
// It reports false when the walk deviates from the recorded skeleton (a
// shape-key contract violation): g is then partially rewritten and MUST
// be discarded; the caller rebuilds cold. A ctx error aborts with the
// same discard obligation.
func (g *graph) reweight(ctx context.Context, n2 *Net) (bool, error) {
	n := n2
	np := len(n.places)
	nt := len(n.trans)
	w := np + n.firingLen
	if g.st.w != w || len(g.n.places) != np || len(g.n.trans) != nt {
		return false, nil
	}
	r := g.r
	r.bind(n)

	// Initial instant: same outcome set in the same order, new weights.
	start := make([]int32, w)
	for i, p := range n.places {
		start[i] = int32(p.Initial)
	}
	if err := r.resolve(start, 1); err != nil {
		return false, err
	}
	if len(r.outs) != len(g.initIdx) {
		return false, nil
	}
	for x, id := range r.outs {
		idx, fresh := g.st.intern(r.nodeCfg(id))
		if fresh || idx != g.initIdx[x] {
			return false, nil
		}
		g.initProb[x] = r.prob[id]
	}

	work := make([]int32, w)
	completed := make([]int32, nt)
	comp := make([]float64, nt)
	ns := g.numStates()
	for i := 0; i < ns; i++ {
		if (i+1)%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		copy(work, g.st.state(i))
		c := n.wrap(work)
		dt, ok := n.advanceInto(&c, completed)
		if !ok {
			// Dead-ness depends only on the marking and firing vector, so a
			// same-shape net must agree with the recorded skeleton.
			if !g.dead[i] {
				return false, nil
			}
			g.dt[i] = 1
			g.prob[g.rowPtr[i]] = 1
			continue
		}
		if g.dead[i] {
			return false, nil
		}
		g.dt[i] = float64(dt)
		for t := 0; t < nt; t++ {
			comp[t] = float64(completed[t])
		}
		if err := r.resolve(work, 1); err != nil {
			return false, err
		}
		row := g.rowPtr[i]
		if g.rowPtr[i+1]-row != len(r.outs) {
			return false, nil
		}
		for x, id := range r.outs {
			pr := r.prob[id]
			fired := r.nodeFired(id)
			for t, f := range fired {
				if f != 0 {
					comp[t] += f * pr
				}
			}
			j, fresh := g.st.intern(r.nodeCfg(id))
			if fresh || g.succ[row+x] != j {
				return false, nil
			}
			g.prob[row+x] = pr
		}
		ce := g.compPtr[i]
		for t := 0; t < nt; t++ {
			if comp[t] != 0 {
				if ce >= g.compPtr[i+1] || g.compT[ce] != int32(t) {
					return false, nil
				}
				g.compVal[ce] = comp[t]
				ce++
			}
			comp[t] = 0
		}
		if ce != g.compPtr[i+1] {
			return false, nil
		}
	}
	g.n = n
	return true, nil
}

// graphFor returns the graph to solve n on. A non-nil prev is
// reweighted in place for n, under a gtpn.graph_reuse span and counted
// in GraphsReused; when prev is nil, or its walk deviates from the
// recorded skeleton, n's graph is built cold, under a gtpn.build span
// and counted in GraphsBuilt. reused reports whether the graph is prev.
// prev is consumed either way: after an error or a deviation it is
// partly rewritten and must not be solved on again.
func graphFor(ctx context.Context, sc *trace.Scope, prev *graph, n *Net, maxStates int) (g *graph, reused bool, err error) {
	if prev != nil {
		sp := sc.Begin("gtpn.graph_reuse", "gtpn")
		ok, err := prev.reweight(ctx, n)
		sp.End()
		if err != nil {
			return nil, false, err
		}
		if ok {
			engineStats.graphsReused.Add(1)
			return prev, true, nil
		}
	}
	sp := sc.Begin("gtpn.build", "gtpn")
	g, err = n.buildGraph(ctx, maxStates)
	sp.End()
	return g, false, err
}
