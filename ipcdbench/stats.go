package main

import (
	"math"
	"net/http"
	"sort"
)

// percentile is the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// midMean is the interquartile mean of xs: the mean of the samples from
// the 25th to the 75th percentile (0 when empty). Where a workload mixes
// request classes whose times differ several-fold, the median sits on
// the edge between two classes and jumps with a few samples; the mean
// of the middle half moves only by their share.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// beyond counts the samples strictly above the p-th percentile's rank.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// ratio is num/den, or 0 with no base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// relTimes returns the OK samples' round trips and first-line times,
// each divided by the reference round trip measured just before it.
func relTimes(samples []sample) (rtt, first []float64) {
	for _, s := range samples {
		if s.status == http.StatusOK && s.ref > 0 {
			rtt = append(rtt, float64(s.rtt())/float64(s.ref))
			first = append(first, float64(s.firstLine-s.start)/float64(s.ref))
		}
	}
	return rtt, first
}

// relSaturated returns the saturated phase's OK rate and CPU per OK
// request, each divided by what the reference did right after the same
// slice, weighted by the slices' lengths and requests.
func relSaturated(slices []sliceStat) (rate, cpu float64) {
	var ok, refOK, cpuUs, refCPUUs float64
	for _, x := range slices {
		if x.ref == nil || x.ref.ok == 0 {
			continue
		}
		ok += float64(x.ok)
		refOK += float64(x.ref.ok) / x.ref.elapsed.Seconds() * x.elapsed.Seconds()
		cpuUs += float64(x.cpu.Microseconds())
		refCPUUs += float64(x.ref.cpu.Microseconds()) / float64(x.ref.ok) * float64(x.ok)
	}
	return ratio(ok, refOK), ratio(cpuUs, refCPUUs)
}

// fasterHalf returns the lower half of xs.
func fasterHalf(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[:(len(s)+1)/2]
}
