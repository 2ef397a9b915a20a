package gtpn

import (
	"strconv"
	"sync"
)

// The solve cache memoizes Net.Solve results across separately built
// nets. The chapter 6 experiment sweeps rebuild the same nets many times
// per run: a point several figures share, and the n=1, X=0 nets behind
// every table's C. Keying solutions by the canonical net signature
// (structure + initial marking + delays + frequency keys, see
// Net.Signature) plus the solver options lets every repeat return
// instantly. Solutions are immutable once computed, so entries are
// shared: callers must treat a *Solution as read-only, which every
// caller in this repository does. An entry keeps no net; a hit points
// its copy at the caller's identical net.
//
// The cache is process-global, unbounded and safe for concurrent use;
// the parallel experiment engine hits it from many goroutines at once.
// A caller whose nets never repeat (core.System, and so every ipcd
// solve) passes SolveOptions.Uncached and leaves nothing in it.

// CacheStats reports the solve cache's counters since the last reset.
type CacheStats struct {
	// Hits is the number of Solve calls answered from the cache.
	Hits uint64
	// Misses is the number of cacheable Solve calls that had to solve.
	Misses uint64
	// Bypassed counts Solve calls that did not consult the cache: the
	// call passed SolveOptions.Uncached or a stationary start vector, or
	// the net had no signature.
	Bypassed uint64
	// Entries is the number of solutions currently held.
	Entries int
}

var solveCache = struct {
	mu       sync.Mutex
	m        map[string]*Solution
	hits     uint64
	misses   uint64
	bypassed uint64
	// testHookStore, set only by tests, sees the net of each solution
	// stored, since the entry itself keeps none.
	testHookStore func(*Net)
}{m: map[string]*Solution{}}

// SolveCacheStats reports the cache counters.
func SolveCacheStats() CacheStats {
	solveCache.mu.Lock()
	defer solveCache.mu.Unlock()
	return CacheStats{
		Hits:     solveCache.hits,
		Misses:   solveCache.misses,
		Bypassed: solveCache.bypassed,
		Entries:  len(solveCache.m),
	}
}

// ResetSolveCache drops every cached solution and zeroes the counters.
func ResetSolveCache() {
	solveCache.mu.Lock()
	defer solveCache.mu.Unlock()
	solveCache.m = map[string]*Solution{}
	solveCache.hits, solveCache.misses, solveCache.bypassed = 0, 0, 0
}

// solveKey derives the cache key for solving n under opts (which must
// already be normalized). ok is false, and no key is built, when the
// cache is not to be used: the caller passed Uncached, the net is
// unsigned, or the solve carries a stationary start vector, whose bits
// are start-contract-specific rather than canonical. The key
// is the signature followed by "|ms=%d|tol=%x|sw=%d" of the options,
// appended with strconv ('x' formats a float64 as %x does).
func (n *Net) solveKey(opts SolveOptions) (string, bool) {
	if opts.Uncached || opts.StationaryStart != nil {
		return "", false
	}
	sig, ok := n.Signature()
	if !ok {
		return "", false
	}
	key := make([]byte, 0, len(sig)+64)
	key = append(key, sig...)
	key = append(key, "|ms="...)
	key = strconv.AppendInt(key, int64(opts.MaxStates), 10)
	key = append(key, "|tol="...)
	key = strconv.AppendFloat(key, opts.Tolerance, 'x', -1, 64)
	key = append(key, "|sw="...)
	key = strconv.AppendInt(key, int64(opts.MaxSweeps), 10)
	return string(key), true
}

// cacheLookup consults the cache, maintaining the counters. The second
// result reports a hit; the first is only valid on a hit.
func cacheLookup(key string, usable bool) (*Solution, bool) {
	solveCache.mu.Lock()
	defer solveCache.mu.Unlock()
	if !usable {
		solveCache.bypassed++
		return nil, false
	}
	if s, ok := solveCache.m[key]; ok {
		solveCache.hits++
		return s, true
	}
	solveCache.misses++
	return nil, false
}

// cacheStore records a freshly solved solution, without its net: a hit
// re-points its copy at the caller's net, so a stored net would only
// keep the whole net alive. Concurrent solvers of the same net may both
// store; the entries are identical, so the last write winning is
// harmless.
func cacheStore(key string, s *Solution) {
	cp := *s
	cp.net = nil
	solveCache.mu.Lock()
	defer solveCache.mu.Unlock()
	solveCache.m[key] = &cp
	if solveCache.testHookStore != nil {
		solveCache.testHookStore(s.net)
	}
}
