package gtpn

import (
	"context"
	"math"
	"runtime"
	"sync"
)

// denseClassLimit is the largest terminal class solved by direct
// Gaussian elimination before falling back to iteration.
const denseClassLimit = 512

// solveStationary computes the long-run distribution of the embedded
// chain started from the graph's initial distribution. The chain may be
// reducible (nets that halt have absorbing dead states), so the
// computation proceeds in three steps: find the terminal strongly
// connected classes, compute the probability of absorption into each
// from init, and solve the stationary distribution within each class;
// the result is the absorption-weighted mixture. For the irreducible
// closed nets produced by the thesis models this reduces to a single
// per-class solve. Independent terminal classes are solved in parallel
// on a bounded worker pool — each class touches only its own members'
// pi entries and is internally sequential, so the parallel result is
// bit-identical to the sequential one. The iterative phases poll ctx
// between sweeps and abandon the solve with ctx.Err() on cancellation.
func solveStationary(ctx context.Context, g *graph, opts SolveOptions) (pi []float64, converged bool, residual float64, err error) {
	ns := g.numStates()
	pi = make([]float64, ns)
	if ns == 0 {
		return pi, true, 0, nil
	}
	comp, terminal := terminalClasses(g)

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
	absorb, err := absorptionMass(ctx, g, comp, terminal, termClasses, opts)
	if err != nil {
		return nil, false, 0, err
	}

	// local[i] is state i's index within its own class's member list.
	// Classes partition the states, and each class solve reads and
	// writes only its own members' slots, so one shared array serves
	// every class — including the concurrent ones.
	local := make([]int32, ns)

	type classResult struct {
		local     []float64
		converged bool
		residual  float64
		err       error
	}
	results := make([]classResult, len(termClasses))
	solveClass := func(k int) {
		c := termClasses[k]
		l, ok, res, err := classStationary(ctx, g, comp, c, members[c], local, opts)
		results[k] = classResult{local: l, converged: ok, residual: res, err: err}
	}

	var active []int
	for k := range termClasses {
		if absorb[k] > 0 {
			active = append(active, k)
		}
	}
	if workers := runtime.GOMAXPROCS(0); len(active) > 1 && workers > 1 {
		if workers > len(active) {
			workers = len(active)
		}
		engineStats.parallelClassSolves.Add(1)
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range jobs {
					solveClass(k)
				}
			}()
		}
		for _, k := range active {
			jobs <- k
		}
		close(jobs)
		wg.Wait()
	} else {
		for _, k := range active {
			solveClass(k)
		}
	}

	converged = true
	for _, k := range active {
		r := results[k]
		if r.err != nil {
			return nil, false, 0, r.err
		}
		if !r.converged {
			converged = false
		}
		if r.residual > residual {
			residual = r.residual
		}
		for idx, i := range members[termClasses[k]] {
			pi[i] = absorb[k] * r.local[idx]
		}
	}
	return pi, converged, residual, nil
}

// terminalClasses runs Tarjan's SCC algorithm (iteratively) over the
// CSR chain and reports the class of each state plus which classes are
// terminal (no edges leaving the class).
func terminalClasses(g *graph) (comp []int, terminal []bool) {
	ns := g.numStates()
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
			if e := g.rowPtr[v] + f.ei; e < g.rowPtr[v+1] {
				w := int(g.succ[e])
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
	for i := 0; i < ns; i++ {
		for e := g.rowPtr[i]; e < g.rowPtr[i+1]; e++ {
			if comp[int(g.succ[e])] != comp[i] {
				terminal[comp[i]] = false
			}
		}
	}
	return comp, terminal
}

// absorbInto computes, for each state, the probability that the chain
// is eventually absorbed into the given terminal class.
func absorbInto(ctx context.Context, g *graph, comp []int, terminal []bool, class int, opts SolveOptions) ([]float64, error) {
	ns := g.numStates()
	h := make([]float64, ns)
	transient := make([]int, 0)
	for i := 0; i < ns; i++ {
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
			var sum, selfP float64
			for e := g.rowPtr[i]; e < g.rowPtr[i+1]; e++ {
				if int(g.succ[e]) == i {
					selfP += g.prob[e]
					continue
				}
				sum += g.prob[e] * h[g.succ[e]]
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

func absorptionMass(ctx context.Context, g *graph, comp []int, terminal []bool, termClasses []int, opts SolveOptions) ([]float64, error) {
	out := make([]float64, len(termClasses))
	if len(termClasses) == 1 {
		// Everything is absorbed into the unique terminal class.
		out[0] = 1
		return out, nil
	}
	for k, c := range termClasses {
		h, err := absorbInto(ctx, g, comp, terminal, c, opts)
		if err != nil {
			return nil, err
		}
		var mass float64
		for x, i := range g.initIdx {
			mass += g.initProb[x] * h[i]
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

// warmClassStart restricts a full-length stationary start vector to one
// class and normalizes it into a Gauss-Seidel start, or returns nil when
// the restriction is unusable (nil or mis-sized vector; negative, NaN or
// infinite entries; zero total mass). It is shared by the CSR and
// reference class solves so a given start vector yields bit-identical
// seeds — and therefore bit-identical trajectories — on both paths.
func warmClassStart(start []float64, totalStates int, members []int) []float64 {
	if len(start) != totalStates {
		return nil
	}
	pi := make([]float64, len(members))
	var tot float64
	for k, i := range members {
		v := start[i]
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		pi[k] = v
		tot += v
	}
	if tot <= 0 || math.IsInf(tot, 0) {
		return nil
	}
	for k := range pi {
		pi[k] /= tot
	}
	return pi
}

// classStationary solves pi = pi P restricted to one terminal class
// (irreducible by construction). Small classes are solved directly;
// larger ones, and small ones the direct solve gives up on, by
// Gauss-Seidel from a uniform start (or the caller's StationaryStart
// restriction — see SolveOptions) with a damped power iteration
// fallback. Only Gauss-Seidel reads the class's incoming edges, so they
// are gathered into a local CSR (inPtr/inFrom/inP) only once the direct
// solve gives up, in the order the reference path appended them, which
// keeps the sweep accumulations bit-identical. local is the shared
// state→class-index array described in solveStationary.
func classStationary(ctx context.Context, g *graph, comp []int, class int, members []int, local []int32, opts SolveOptions) (pi []float64, converged bool, residual float64, err error) {
	m := len(members)
	if m == 1 {
		return []float64{1}, true, 0, nil
	}
	for k, i := range members {
		local[i] = int32(k)
	}
	if m <= denseClassLimit {
		if pi := denseClassSolve(g, comp, class, members, local); pi != nil {
			return pi, true, 0, nil
		}
	}

	// Two-pass incoming-edge CSR: count, prefix-sum, fill. The fill
	// visits members in ascending class index and each row in edge
	// order, matching the reference path's append order.
	cnt := make([]int, m+1)
	selfP := make([]float64, m)
	for k, i := range members {
		for e := g.rowPtr[i]; e < g.rowPtr[i+1]; e++ {
			j := int(g.succ[e])
			if comp[j] != class {
				continue // cannot happen in a terminal class
			}
			if kj := int(local[j]); kj != k {
				cnt[kj+1]++
			}
		}
	}
	for k := 0; k < m; k++ {
		cnt[k+1] += cnt[k]
	}
	inPtr := cnt
	inFrom := make([]int32, inPtr[m])
	inP := make([]float64, inPtr[m])
	cursor := make([]int, m)
	for k, i := range members {
		for e := g.rowPtr[i]; e < g.rowPtr[i+1]; e++ {
			j := int(g.succ[e])
			if comp[j] != class {
				continue
			}
			kj := int(local[j])
			if kj == k {
				selfP[k] += g.prob[e]
			} else {
				pos := inPtr[kj] + cursor[kj]
				inFrom[pos] = int32(k)
				inP[pos] = g.prob[e]
				cursor[kj]++
			}
		}
	}

	if pi = warmClassStart(opts.StationaryStart, g.numStates(), members); pi != nil {
		engineStats.warmStarts.Add(1)
	} else {
		pi = make([]float64, m)
		for k := range pi {
			pi[k] = 1 / float64(m)
		}
	}
	sweeps := 0
	defer func() { engineStats.stationarySweeps.Add(uint64(sweeps)) }()
	resid := func() float64 {
		var r float64
		for k := 0; k < m; k++ {
			var sum float64
			for e := inPtr[k]; e < inPtr[k+1]; e++ {
				sum += pi[inFrom[e]] * inP[e]
			}
			sum += pi[k] * selfP[k]
			if d := math.Abs(sum - pi[k]); d > r {
				r = d
			}
		}
		return r
	}
	for sweep := 0; sweep < opts.MaxSweeps; sweep++ {
		sweeps = sweep + 1
		if sweep%8 == 7 {
			if err := ctx.Err(); err != nil {
				return nil, false, 0, err
			}
		}
		for k := 0; k < m; k++ {
			var sum float64
			for e := inPtr[k]; e < inPtr[k+1]; e++ {
				sum += pi[inFrom[e]] * inP[e]
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

// denseClassSolve solves the balance equations of one class by
// Gauss-Jordan elimination; returns nil on numerical failure. The class
// restriction P^T is laid out as one flat row-major m×(m+1) matrix: row
// kj, column k accumulates the edges k → kj in the order the reference
// path adds them.
func denseClassSolve(g *graph, comp []int, class int, members []int, local []int32) []float64 {
	m := len(members)
	w := m + 1
	a := make([]float64, m*w)
	for k, i := range members {
		for e := g.rowPtr[i]; e < g.rowPtr[i+1]; e++ {
			j := int(g.succ[e])
			if comp[j] != class {
				continue
			}
			a[int(local[j])*w+k] += g.prob[e]
		}
	}
	return gaussJordanStationary(a, m)
}

// gaussJordanStationary is the dense kernel of the production solve: a
// holds the column-stochastic class restriction P^T as m rows of width
// m+1, flat and row-major. It forms the balance system (P^T - I, with
// the last equation replaced by normalization), runs partial-pivot
// Gauss-Jordan elimination and extracts pi, or returns nil on numerical
// failure — the same computation as the reference's gaussianStationary,
// and bit-identical to it, because every element sees the same
// floating-point operations in the same order:
//
//   - The pivot is the first row r >= col with the strictly largest
//     |a[r][col]|, and a pivot below 1e-14 in magnitude returns nil.
//   - A row swap exchanges two entries of row, the logical row → offset
//     map; no data moves.
//   - inv = 1 / pivot and f = a[r][col] * inv; a row with a[r][col] == 0
//     is skipped.
//   - Every updated element is x -= f * p, written in exactly that form,
//     so both kernels round alike wherever the compiler fuses.
//   - Extraction, the -1e-9 clamp, the negative → nil rule and the
//     normalization are the reference's.
//
// What differs cannot change a bit. A step reads only the pivot row and
// never writes it, so its target rows may be grouped and visited in any
// order: they are updated two per pass over the pivot row, so each
// pivot element is loaded once for two updates. A target row's own
// column col is not written:
// nothing reads it again, since later steps touch only columns > col
// and extraction reads only a[k][k] and a[k][m], and row k's diagonal
// is final once row k has been the pivot.
func gaussJordanStationary(a []float64, m int) []float64 {
	w := m + 1
	row := make([]int, m)
	for k := range row {
		row[k] = k * w
		a[k*w+k] -= 1
	}
	last := a[(m-1)*w : m*w]
	for k := range last {
		last[k] = 1
	}

	for col := 0; col < m; col++ {
		piv := col
		best := math.Abs(a[row[col]+col])
		for r := col + 1; r < m; r++ {
			if v := math.Abs(a[row[r]+col]); v > best {
				piv, best = r, v
			}
		}
		if best < 1e-14 {
			return nil
		}
		row[col], row[piv] = row[piv], row[col]
		po := row[col]
		inv := 1 / a[po+col]
		p := a[po+col+1 : po+w]

		held, fh := -1, 0.0 // a target row waiting for its pair
		for r := 0; r < m; r++ {
			o := row[r]
			if r == col || a[o+col] == 0 {
				continue
			}
			f := a[o+col] * inv
			if held < 0 {
				held, fh = o, f
				continue
			}
			x := a[held+col+1 : held+w]
			y := a[o+col+1 : o+w]
			x, y = x[:len(p)], y[:len(p)]
			for c, pc := range p {
				x[c] -= fh * pc
				y[c] -= f * pc
			}
			held = -1
		}
		if held >= 0 {
			x := a[held+col+1 : held+w]
			x = x[:len(p)]
			for c, pc := range p {
				x[c] -= fh * pc
			}
		}
	}

	pi := make([]float64, m)
	var tot float64
	for k := 0; k < m; k++ {
		o := row[k]
		pi[k] = a[o+m] / a[o+k]
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
