package gtpn

import (
	"strconv"
	"sync"
)

// The solve cache memoizes Net.Solve results across separately built
// nets. The chapter 6 experiment sweeps and the §6.6.3 non-local
// fixed-point iteration rebuild near-identical nets dozens of times per
// figure; keying solutions by the canonical net signature (structure +
// initial marking + delays + frequency keys, see Net.Signature) plus the
// solver options lets every repeat return instantly. Solutions are
// immutable once computed, so entries are shared: callers must treat a
// *Solution as read-only, which every caller in this repository does.
//
// The cache is process-global and safe for concurrent use; the parallel
// experiment engine hits it from many goroutines at once.

// CacheStats reports the solve cache's counters since the last reset.
type CacheStats struct {
	// Hits is the number of Solve calls answered from the cache.
	Hits uint64
	// Misses is the number of cacheable Solve calls that had to solve.
	Misses uint64
	// Bypassed counts Solve calls that could not consult the cache: the
	// cache was disabled or the net had no signature.
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
	disabled bool
}{m: map[string]*Solution{}}

// SetCacheEnabled turns the solve cache on or off (it is on by default).
// Disabling does not drop existing entries; use ResetSolveCache for that.
func SetCacheEnabled(on bool) {
	solveCache.mu.Lock()
	defer solveCache.mu.Unlock()
	solveCache.disabled = !on
}

// CacheEnabled reports whether the solve cache is consulted.
func CacheEnabled() bool {
	solveCache.mu.Lock()
	defer solveCache.mu.Unlock()
	return !solveCache.disabled
}

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
// already be normalized). ok is false when the cache cannot be used —
// the net is unsigned, or the solve carries a stationary start vector,
// whose bits are start-contract-specific rather than canonical. The key
// is the signature followed by "|ms=%d|tol=%x|sw=%d" of the options,
// appended with strconv ('x' formats a float64 as %x does).
func (n *Net) solveKey(opts SolveOptions) (string, bool) {
	if opts.StationaryStart != nil {
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
	if solveCache.disabled || !usable {
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

// cacheStore records a freshly solved solution unless the cache is off.
// Concurrent solvers of the same net may both store; the entries are
// identical, so the last write winning is harmless.
func cacheStore(key string, s *Solution) {
	solveCache.mu.Lock()
	defer solveCache.mu.Unlock()
	if solveCache.disabled {
		return
	}
	solveCache.m[key] = s
}
