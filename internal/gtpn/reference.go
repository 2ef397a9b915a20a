package gtpn

import (
	"context"
	"fmt"
	"math"
)

// This file preserves the solver's original data layout — string-keyed
// state interning, per-state successor slices and completion maps,
// pointer-chasing Gauss–Seidel sweeps — verbatim, as the reference
// implementation the differential tests hold the CSR hot path against.
// It is deliberately not optimized: its value is that it computes every
// figure with the exact floating-point operation order the repository's
// golden outputs were recorded under, so TestSolverMatchesReference*
// can demand byte-identical Solutions rather than tolerances. Nothing
// outside tests and benchmarks should call SolveReference.

// key serializes the config for use as a map key.
func (c config) key() string {
	b := make([]byte, 0, 4*(len(c.marking)+len(c.firing))+1)
	for _, v := range c.marking {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	b = append(b, 0xFE)
	for _, v := range c.firing {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// stateRec is one tangible state of the embedded Markov chain in the
// reference layout.
type stateRec struct {
	cfg  config
	dt   float64 // sojourn ticks (1 for dead states, which self-loop)
	dead bool
	succ []int
	prob []float64
	// comp[t] is the expected number of completions of transition t
	// attributed to the step out of this state (delayed completions at
	// the end of the sojourn plus zero-delay firings in the subsequent
	// resolution instant).
	comp map[int]float64
}

// outcome is one probabilistic result of resolving an instant: a stable
// configuration together with the expected number of zero-delay firings
// that occurred on the way (used for firing-rate accounting).
type outcome struct {
	cfg    config
	prob   float64
	fired0 map[int]float64 // zero-delay transition -> expected firings along this path
}

func cloneCounts(m map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

func mergeScaled(dst, src map[int]float64, scale float64) {
	for k, v := range src {
		dst[k] += v * scale
	}
}

// advance is the reference path's map-returning wrapper around
// advanceInto.
func (n *Net) advance(c *config) (dt int, completed map[int]int, ok bool) {
	dense := make([]int32, len(n.trans))
	dt, ok = n.advanceInto(c, dense)
	if !ok {
		return 0, nil, false
	}
	completed = map[int]int{}
	for t, d := range dense {
		if d > 0 {
			completed[t] = int(d)
		}
	}
	return dt, completed, true
}

// resolveInstant repeatedly starts firings in c until no transition is
// enabled (with positive frequency), branching probabilistically on
// conflicts. Zero-delay firings complete immediately (their output tokens
// are deposited and may enable further transitions); positive-delay
// firings hold their tokens in the firing vector. Identical intermediate
// configurations are merged, so commuting interleavings do not multiply.
func (n *Net) resolveInstant(c config, prob float64) ([]outcome, error) {
	type node struct {
		cfg    config
		prob   float64
		fired0 map[int]float64
	}
	// The worklist is processed in insertion order: merging makes the
	// order irrelevant for the distribution, but a deterministic order
	// keeps floating-point accumulation — and therefore every solved
	// figure — bit-identical across runs.
	pending := map[string]*node{}
	var order []string
	push := func(k string, nd *node) {
		pending[k] = nd
		order = append(order, k)
	}
	push(c.key(), &node{cfg: c, prob: prob, fired0: map[int]float64{}})
	final := map[string]*outcome{}
	finalOrder := []string(nil)
	steps := 0

	for len(order) > 0 {
		k := order[0]
		order = order[1:]
		nd, ok := pending[k]
		if !ok {
			continue // already popped via an earlier merge slot
		}
		delete(pending, k)
		steps++
		if steps > maxResolutionSteps {
			return nil, fmt.Errorf("gtpn: resolution did not stabilize after %d steps (zero-delay cycle?)", maxResolutionSteps)
		}

		v := view{n, &nd.cfg}
		type cand struct {
			t int
			w float64
		}
		var cands []cand
		var total float64
		for t := range n.trans {
			if !n.enabled(&nd.cfg, t) {
				continue
			}
			w := n.trans[t].Freq(v)
			if w > 0 && !math.IsInf(w, 0) && !math.IsNaN(w) {
				cands = append(cands, cand{t, w})
				total += w
			}
		}
		if len(cands) == 0 {
			fk := nd.cfg.key()
			if o, ok := final[fk]; ok {
				o.prob += nd.prob
				mergeScaled(o.fired0, nd.fired0, 1)
			} else {
				final[fk] = &outcome{cfg: nd.cfg, prob: nd.prob, fired0: nd.fired0}
				finalOrder = append(finalOrder, fk)
			}
			continue
		}
		for _, cd := range cands {
			p := nd.prob * cd.w / total
			child := nd.cfg.clone()
			tr := &n.trans[cd.t]
			for _, pm := range n.inList[cd.t] {
				child.marking[pm.p] -= pm.m
			}
			f0 := cloneCounts(nd.fired0)
			if tr.Delay == 0 {
				for p2, m := range n.outCount[cd.t] {
					child.marking[p2] += m
				}
				f0[cd.t] += 1
			} else {
				child.firing[n.firingOffset[cd.t]+tr.Delay-1]++
			}
			ck := child.key()
			if ex, ok := pending[ck]; ok {
				// Weighted merge of the zero-delay firing counts.
				tot := ex.prob + p
				merged := map[int]float64{}
				mergeScaled(merged, ex.fired0, ex.prob/tot)
				mergeScaled(merged, f0, p/tot)
				ex.fired0 = merged
				ex.prob = tot
			} else {
				push(ck, &node{cfg: child, prob: p, fired0: f0})
			}
		}
	}

	out := make([]outcome, 0, len(final))
	for _, fk := range finalOrder {
		out = append(out, *final[fk])
	}
	return out, nil
}

// refBuildGraph explores the tangible state space in the reference
// layout. init is the distribution over states after resolving the
// initial instant.
func (n *Net) refBuildGraph(ctx context.Context, maxStates int) ([]*stateRec, map[int]float64, error) {
	index := map[string]int{}
	var states []*stateRec

	intern := func(c config) (int, bool) {
		k := c.key()
		if i, ok := index[k]; ok {
			return i, false
		}
		i := len(states)
		index[k] = i
		states = append(states, &stateRec{cfg: c})
		return i, true
	}

	outcomes, err := n.resolveInstant(n.newConfig(), 1)
	if err != nil {
		return nil, nil, err
	}
	init := map[int]float64{}
	var frontier []int
	for _, o := range outcomes {
		i, fresh := intern(o.cfg)
		init[i] += o.prob
		if fresh {
			frontier = append(frontier, i)
		}
	}

	var explored int
	for len(frontier) > 0 {
		explored++
		if explored%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		i := frontier[0]
		frontier = frontier[1:]
		st := states[i]
		work := st.cfg.clone()
		dt, completed, ok := n.advance(&work)
		if !ok {
			// Dead state: nothing in flight. It is absorbing; model it as
			// a unit-time self-loop so time averages remain defined.
			st.dead = true
			st.dt = 1
			st.succ = []int{i}
			st.prob = []float64{1}
			st.comp = map[int]float64{}
			continue
		}
		st.dt = float64(dt)
		st.comp = map[int]float64{}
		for t, c := range completed {
			st.comp[t] += float64(c)
		}
		outs, err := n.resolveInstant(work, 1)
		if err != nil {
			return nil, nil, err
		}
		for _, o := range outs {
			mergeScaled(st.comp, o.fired0, o.prob)
			j, fresh := intern(o.cfg)
			st.succ = append(st.succ, j)
			st.prob = append(st.prob, o.prob)
			if fresh {
				frontier = append(frontier, j)
				if len(states) > maxStates {
					return nil, nil, fmt.Errorf("gtpn: state space exceeds %d states", maxStates)
				}
			}
		}
	}
	return states, init, nil
}

// refSolveStationary is the reference-layout stationary solve; see
// solveStationary for the algorithm.
func refSolveStationary(ctx context.Context, states []*stateRec, init map[int]float64, opts SolveOptions) (pi []float64, converged bool, residual float64, err error) {
	ns := len(states)
	pi = make([]float64, ns)
	if ns == 0 {
		return pi, true, 0, nil
	}
	comp, terminal := refTerminalClasses(states)

	// Classes and membership lists.
	nclasses := 0
	for _, c := range comp {
		if c+1 > nclasses {
			nclasses = c + 1
		}
	}
	members := make([][]int, nclasses)
	for i, c := range comp {
		members[c] = append(members[c], i)
	}
	var termClasses []int
	for c := 0; c < nclasses; c++ {
		if terminal[c] {
			termClasses = append(termClasses, c)
		}
	}

	// Absorption probability into each terminal class.
	absorb, err := refAbsorptionMass(ctx, states, init, comp, terminal, termClasses, opts)
	if err != nil {
		return nil, false, 0, err
	}

	converged = true
	for k, c := range termClasses {
		mass := absorb[k]
		if mass <= 0 {
			continue
		}
		local, ok, res, err := refClassStationary(ctx, states, members[c], opts)
		if err != nil {
			return nil, false, 0, err
		}
		if !ok {
			converged = false
		}
		if res > residual {
			residual = res
		}
		for idx, i := range members[c] {
			pi[i] = mass * local[idx]
		}
	}
	return pi, converged, residual, nil
}

// refTerminalClasses runs Tarjan's SCC algorithm (iteratively) over the
// reference layout.
func refTerminalClasses(states []*stateRec) (comp []int, terminal []bool) {
	ns := len(states)
	comp = make([]int, ns)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, ns)
	low := make([]int, ns)
	onStack := make([]bool, ns)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var nextIndex, nclasses int

	type frame struct {
		v, ei int
	}
	for root := 0; root < ns; root++ {
		if index[root] != -1 {
			continue
		}
		call := []frame{{root, 0}}
		index[root] = nextIndex
		low[root] = nextIndex
		nextIndex++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if f.ei < len(states[v].succ) {
				w := states[v].succ[f.ei]
				f.ei++
				if index[w] == -1 {
					index[w] = nextIndex
					low[w] = nextIndex
					nextIndex++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{w, 0})
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nclasses
					if w == v {
						break
					}
				}
				nclasses++
			}
		}
	}

	terminal = make([]bool, nclasses)
	for i := range terminal {
		terminal[i] = true
	}
	for i, st := range states {
		for _, j := range st.succ {
			if comp[j] != comp[i] {
				terminal[comp[i]] = false
			}
		}
	}
	return comp, terminal
}

// refAbsorbInto computes the probability of absorption into class from
// every state, in the reference layout.
func refAbsorbInto(ctx context.Context, states []*stateRec, comp []int, terminal []bool, class int, opts SolveOptions) ([]float64, error) {
	ns := len(states)
	h := make([]float64, ns)
	transient := make([]int, 0)
	for i := range states {
		switch {
		case comp[i] == class:
			h[i] = 1
		case terminal[comp[i]]:
			h[i] = 0
		default:
			transient = append(transient, i)
		}
	}
	if len(transient) == 0 {
		return h, nil
	}
	// Gauss-Seidel on h(i) = sum_j P(i,j) h(j) over transient states.
	for sweep := 0; sweep < opts.MaxSweeps; sweep++ {
		if sweep%8 == 7 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		var delta float64
		for _, i := range transient {
			st := states[i]
			var sum, selfP float64
			for k, j := range st.succ {
				if j == i {
					selfP += st.prob[k]
					continue
				}
				sum += st.prob[k] * h[j]
			}
			var v float64
			if d := 1 - selfP; d > 1e-300 {
				v = sum / d
			}
			if dd := math.Abs(v - h[i]); dd > delta {
				delta = dd
			}
			h[i] = v
		}
		if delta < opts.Tolerance {
			break
		}
	}
	return h, nil
}

func refAbsorptionMass(ctx context.Context, states []*stateRec, init map[int]float64, comp []int, terminal []bool, termClasses []int, opts SolveOptions) ([]float64, error) {
	out := make([]float64, len(termClasses))
	if len(termClasses) == 1 {
		// Everything is absorbed into the unique terminal class.
		out[0] = 1
		return out, nil
	}
	for k, c := range termClasses {
		h, err := refAbsorbInto(ctx, states, comp, terminal, c, opts)
		if err != nil {
			return nil, err
		}
		var mass float64
		for i, p := range init {
			mass += p * h[i]
		}
		out[k] = mass
	}
	// Normalize against numerical drift.
	var tot float64
	for _, m := range out {
		tot += m
	}
	if tot > 0 {
		for k := range out {
			out[k] /= tot
		}
	}
	return out, nil
}

// refClassStationary solves pi = pi P restricted to one terminal class
// in the reference layout.
func refClassStationary(ctx context.Context, states []*stateRec, members []int, opts SolveOptions) (pi []float64, converged bool, residual float64, err error) {
	m := len(members)
	if m == 1 {
		return []float64{1}, true, 0, nil
	}
	idx := make(map[int]int, m)
	for k, i := range members {
		idx[i] = k
	}
	type edge struct {
		from int
		p    float64
	}
	in := make([][]edge, m)
	selfP := make([]float64, m)
	for k, i := range members {
		st := states[i]
		for e, j := range st.succ {
			kj, ok := idx[j]
			if !ok {
				continue // cannot happen in a terminal class
			}
			if kj == k {
				selfP[k] += st.prob[e]
			} else {
				in[kj] = append(in[kj], edge{k, st.prob[e]})
			}
		}
	}

	if m <= denseClassLimit {
		if pi := refDenseClassSolve(states, members, idx); pi != nil {
			return pi, true, 0, nil
		}
	}

	// The warm-start restriction mirrors classStationary exactly (shared
	// helper), so a given StationaryStart yields the same trajectory on
	// both paths.
	if pi = warmClassStart(opts.StationaryStart, len(states), members); pi == nil {
		pi = make([]float64, m)
		for k := range pi {
			pi[k] = 1 / float64(m)
		}
	}
	resid := func() float64 {
		var r float64
		for k := 0; k < m; k++ {
			var sum float64
			for _, e := range in[k] {
				sum += pi[e.from] * e.p
			}
			sum += pi[k] * selfP[k]
			if d := math.Abs(sum - pi[k]); d > r {
				r = d
			}
		}
		return r
	}
	for sweep := 0; sweep < opts.MaxSweeps; sweep++ {
		if sweep%8 == 7 {
			if err := ctx.Err(); err != nil {
				return nil, false, 0, err
			}
		}
		for k := 0; k < m; k++ {
			var sum float64
			for _, e := range in[k] {
				sum += pi[e.from] * e.p
			}
			if d := 1 - selfP[k]; d > 1e-300 {
				pi[k] = sum / d
			}
		}
		var tot float64
		for _, v := range pi {
			tot += v
		}
		if tot <= 0 {
			break
		}
		for k := range pi {
			pi[k] /= tot
		}
		if sweep%8 == 7 || sweep == opts.MaxSweeps-1 {
			if r := resid(); r < opts.Tolerance {
				return pi, true, r, nil
			}
		}
	}
	return pi, false, resid(), nil
}

// refDenseClassSolve solves the balance equations of one class by
// Gaussian elimination; returns nil on numerical failure.
func refDenseClassSolve(states []*stateRec, members []int, idx map[int]int) []float64 {
	m := len(members)
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m+1)
	}
	for k, i := range members {
		st := states[i]
		for e, j := range st.succ {
			kj, ok := idx[j]
			if !ok {
				continue
			}
			a[kj][k] += st.prob[e]
		}
	}
	return gaussianStationary(a, m)
}

// gaussianStationary finishes the reference dense class solve: a
// arrives holding the column-stochastic restriction P^T of the class;
// the routine forms the balance system (P^T - I, with the last equation
// replaced by normalization), runs partial-pivot Gauss-Jordan
// elimination, and extracts pi. Returns nil on numerical failure. It is
// the plain row-slice loop the goldens were recorded under; production's
// flat kernel (gaussJordanStationary, stationary.go) must match it bit
// for bit.
func gaussianStationary(a [][]float64, m int) []float64 {
	for k := 0; k < m; k++ {
		a[k][k] -= 1
	}
	for k := 0; k < m; k++ {
		a[m-1][k] = 1
	}
	a[m-1][m] = 1

	for col := 0; col < m; col++ {
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-14 {
			return nil
		}
		a[col], a[piv] = a[piv], a[col]
		inv := 1 / a[col][col]
		for r := 0; r < m; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col] * inv
			for c := col; c <= m; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	pi := make([]float64, m)
	var tot float64
	for k := 0; k < m; k++ {
		pi[k] = a[k][m] / a[k][k]
		if pi[k] < 0 && pi[k] > -1e-9 {
			pi[k] = 0
		}
		if pi[k] < 0 {
			return nil
		}
		tot += pi[k]
	}
	if tot <= 0 {
		return nil
	}
	for k := range pi {
		pi[k] /= tot
	}
	return pi
}

// refMeasures converts the stationary distribution into time-averaged
// observables over the reference layout.
func (n *Net) refMeasures(states []*stateRec, pi []float64, converged bool, residual float64) *Solution {
	sol := &Solution{
		States:        len(states),
		MeanTokens:    make([]float64, n.NumPlaces()),
		MeanFiring:    make([]float64, n.NumTransitions()),
		FiringRate:    make([]float64, n.NumTransitions()),
		ResourceUsage: map[string]float64{},
		Converged:     converged,
		Residual:      residual,
		net:           n,
	}
	var totalTime float64
	for i, st := range states {
		totalTime += pi[i] * st.dt
		if st.dead {
			sol.DeadStates++
		}
	}
	if totalTime <= 0 {
		return sol
	}
	for i, st := range states {
		w := pi[i] * st.dt / totalTime
		if w == 0 {
			continue
		}
		for p, m := range st.cfg.marking {
			sol.MeanTokens[p] += w * float64(m)
		}
		for t := range n.trans {
			if n.trans[t].Delay == 0 {
				continue
			}
			if c := n.inflightTotal(&st.cfg, t); c > 0 {
				sol.MeanFiring[t] += w * float64(c)
			}
		}
		for t, c := range st.comp {
			sol.FiringRate[t] += pi[i] * c / totalTime
		}
	}
	n.fillResourceUsage(sol)
	return sol
}

// SolveReference computes the exact steady state with the pre-CSR
// solver layout. It exists solely so the differential tests (and the
// before/after benchmarks) can hold the optimized hot path to
// byte-identical output; it never consults or populates the solve
// cache. Production callers should use Solve.
func (n *Net) SolveReference(opts SolveOptions) (*Solution, error) {
	return n.SolveReferenceContext(context.Background(), opts)
}

// SolveReferenceContext is SolveReference with cancellation.
func (n *Net) SolveReferenceContext(ctx context.Context, opts SolveOptions) (*Solution, error) {
	opts = opts.normalize()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	states, init, err := n.refBuildGraph(ctx, opts.MaxStates)
	if err != nil {
		return nil, err
	}
	pi, converged, residual, err := refSolveStationary(ctx, states, init, opts)
	if err != nil {
		return nil, err
	}
	return n.refMeasures(states, pi, converged, residual), nil
}

// SolveReferenceSweep solves an ordered sequence of nets entirely on the
// reference pipeline under the sweep contract: every point's reference
// graph is rebuilt cold from scratch — no state-table, skeleton, or any
// other reuse — and point i's StationaryStart is point i-1's reference
// stationary vector whenever the two nets share a shape signature (the
// chain resets on a shape change, exactly when SolveSweep's does). It is
// the independent comparator the sweep differential harness holds
// SolveSweep to: the two must agree bit for bit on every point, which
// pins the production path's graph reuse, in-place reweighting, and
// warm-start plumbing against the frozen layout. Like SolveReference it
// never touches the solve cache and exists only for tests.
func SolveReferenceSweep(ctx context.Context, nets []*Net, opts SolveOptions) ([]*Solution, error) {
	opts = opts.normalize()
	out := make([]*Solution, len(nets))
	var prevPi []float64
	prevShape := ""
	for i, n := range nets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		states, init, err := n.refBuildGraph(ctx, opts.MaxStates)
		if err != nil {
			return nil, err
		}
		shape, shapeOK := n.ShapeSignature()
		popts := opts
		if shapeOK && shape == prevShape && prevPi != nil {
			popts.StationaryStart = prevPi
		}
		pi, converged, residual, err := refSolveStationary(ctx, states, init, popts)
		if err != nil {
			return nil, err
		}
		out[i] = n.refMeasures(states, pi, converged, residual)
		if shapeOK {
			prevPi, prevShape = pi, shape
		} else {
			prevPi, prevShape = nil, ""
		}
	}
	return out, nil
}
