// Command ipcdbench is ipcd's end-to-end, layer-by-layer benchmark. It
// runs ipcd's service.Server / cluster.Node stack on in-process
// loopback listeners, configured as cmd/ipcd configures them, drives
// one workload with closed-loop clients, checks every response against
// a standalone server, and prints the end-to-end metrics (--trace 0)
// or the per-layer breakdown (--trace 1). The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	ipcdbench --workload hot --seed 1 --seconds 10 --trace 0
//	ipcdbench --workload all --seed 1 --seconds 10   every workload, each in a fresh process
//
// See README.md for the workloads, the metrics and what they should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
)

// metricDef declares one reported metric.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: the share a change may worsen it by
	moves              string  // per-layer only: what it should move, and where
}

// endToEnd are the metrics a user of ipcd sees, reported with --trace 0.
// The times and rates are relative ("x"): each is divided by what a bare
// net/http reference server did in alternation with the workload in the
// same run (ref.go). The report prints the absolute figures beside them.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "rtt_mid_rel", unit: "x", better: "lower", bound: 0.25},
	{name: "rtt_tail_rel", unit: "x", better: "lower", bound: 0.25},
	{name: "capacity_rel", unit: "x", better: "higher", bound: 0.25},
	{name: "first_line_mid_rel", unit: "x", better: "lower", bound: 0.25},
	{name: "cpu_per_req_rel", unit: "x", better: "lower", bound: 0.25},
	{name: "heap_mb", unit: "MB", better: "lower", bound: 0.25},
}

// perLayer are the traced run's metrics, reported with --trace 1.
var perLayer = []metricDef{
	{"trace.requests", "count", "higher", 0, "base of the decision shares: traced requests joined to their access records"},
	{"loopback.self_us.p50", "us", "lower", 0, "rtt_mid_rel, cpu_per_req_rel on hot"},
	{"service.decode_us.p50", "us", "lower", 0, "rtt_mid_rel, capacity_rel, cpu_per_req_rel on hot, cluster; <2% of cold"},
	{"service.self_us.p50", "us", "lower", 0, "rtt_mid_rel, capacity_rel, cpu_per_req_rel on hot, cluster; <2% of cold"},
	{"service.total_us.p50", "us", "lower", 0, "rtt_mid_rel, capacity_rel, cpu_per_req_rel on hot, cluster; <2% of cold"},
	{"service.compute_us.p50", "us", "lower", 0, "rtt_mid_rel, capacity_rel on cold; nothing on hot"},
	{"service.inproc_hit_us.p50", "us", "lower", 0, "rtt_mid_rel, capacity_rel on hot"},
	{"obs.hit_overhead_us", "us", "lower", 0, "rtt_mid_rel, cpu_per_req_rel on hot"},
	{"service.key_us.p50", "us", "lower", 0, "rtt_mid_rel on cluster, cold; nothing on hot"},
	{"service.wait_us.p50", "us", "lower", 0, "rtt_tail_rel, capacity_rel on cold"},
	{"service.wait_us.p99", "us", "lower", 0, "rtt_tail_rel, capacity_rel on cold"},
	{"service.rejected", "count", "lower", 0, "rtt_tail_rel, capacity_rel on cold"},
	{"service.coalesced_ratio", "ratio", "higher", 0, "rtt_tail_rel, capacity_rel on cold (base: leaders + coalesced)"},
	{"service.resp_cache.hit_ratio", "ratio", "higher", 0, "heap_mb on cold; rtt_mid_rel on hot, cluster (base: hits + misses)"},
	{"service.resp_cache.evictions", "count", "lower", 0, "heap_mb on cold; rtt_mid_rel on hot, cluster"},
	{"service.resp_cache.bytes", "bytes", "lower", 0, "heap_mb on cold"},
	{"gtpn.solve_cache.hit_ratio", "ratio", "higher", 0, "heap_mb on cold (base: hits + misses)"},
	{"gtpn.solve_cache.entries", "count", "lower", 0, "heap_mb on cold"},
	{"service.decision.resp_cache_hit_share", "ratio", "higher", 0, "rtt_mid_rel, capacity_rel on cluster (base: trace.requests)"},
	{"service.decision.flight_follower_share", "ratio", "higher", 0, "rtt_mid_rel, capacity_rel on cluster (base: trace.requests)"},
	{"service.decision.forwarded_share", "ratio", "lower", 0, "rtt_mid_rel, capacity_rel on cluster (base: trace.requests)"},
	{"service.decision.replica_hit_share", "ratio", "higher", 0, "rtt_mid_rel, capacity_rel on cluster (base: trace.requests)"},
	{"service.decision.hop_capped_local_share", "ratio", "lower", 0, "rtt_mid_rel, capacity_rel on cluster (base: trace.requests)"},
	{"service.decision.local_compute_share", "ratio", "lower", 0, "rtt_mid_rel, capacity_rel on cluster (base: trace.requests)"},
	{"cluster.forward_us.p50", "us", "lower", 0, "rtt_mid_rel, capacity_rel on cluster only"},
	{"cluster.peer_net_us.p50", "us", "lower", 0, "rtt_mid_rel, capacity_rel on cluster only"},
	{"cluster.route_call_us.p50", "us", "lower", 0, "rtt_mid_rel, capacity_rel on cluster only"},
	{"cluster.forwards_out", "count", "lower", 0, "rtt_mid_rel, capacity_rel on cluster only"},
	{"cluster.forward_fallback", "count", "lower", 0, "rtt_mid_rel, capacity_rel on cluster only"},
	{"cluster.replica_hits", "count", "higher", 0, "rtt_mid_rel, capacity_rel on cluster only"},
	{"cluster.replica_pushes", "count", "lower", 0, "rtt_mid_rel, capacity_rel on cluster only"},
	{"cluster.replica_push_errors", "count", "lower", 0, "rtt_mid_rel, capacity_rel on cluster only"},
	{"cluster.hop_cap_local", "count", "lower", 0, "rtt_mid_rel, capacity_rel on cluster only"},
	{"core.analyze_local_us.p50", "us", "lower", 0, "rtt_mid_rel, rtt_tail_rel, capacity_rel on cold; nothing on hot"},
	{"core.analyze_nonlocal_us.p50", "us", "lower", 0, "rtt_tail_rel, capacity_rel on cold; nothing on hot"},
	{"gtpn.states_explored_per_req", "states/req", "lower", 0, "rtt_mid_rel, rtt_tail_rel, capacity_rel on cold; nothing on hot"},
	{"gtpn.graphs_built", "count", "lower", 0, "rtt_mid_rel, rtt_tail_rel, capacity_rel on cold; nothing on hot"},
	{"gtpn.stationary_sweeps_per_req", "sweeps/req", "lower", 0, "rtt_mid_rel, rtt_tail_rel, capacity_rel on cold; nothing on hot"},
	{"core.sweep_point_us.p50", "us", "lower", 0, "rtt_mid_rel, first_line_mid_rel, capacity_rel on sweep"},
	{"gtpn.graphs_reused", "count", "higher", 0, "rtt_mid_rel, first_line_mid_rel, capacity_rel on sweep"},
	{"gtpn.warm_starts", "count", "higher", 0, "rtt_mid_rel, first_line_mid_rel, capacity_rel on sweep"},
	{"sweep.line_gap_us.p50", "us", "lower", 0, "rtt_mid_rel, capacity_rel on sweep"},
	{"trace.rtt_p50_ms", "ms", "lower", 0, "the traced unloaded phase's median round trip"},
	{"trace.overhead_ms", "ms", "lower", 0, "traced minus untraced median round trip in the same run: the cost of tracing"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// traceDir is where the traced run writes its Perfetto trace, relative
// to the checkout's root.
const traceDir = ".bench_out"

// setups is how many times an end-to-end run brings the stack up: half
// before the load, the last of which serves it, and half after (a
// traced run does only the first half). setup_s is the median of the
// faster half. Memory-bound work on the reference VM slows by up to
// half for seconds at a time, and set-ups taken in one window often
// all caught the same episode.
const setups = 16

func main() {
	var (
		name    = flag.String("workload", "", "workload: hot, cold, sweep, cluster, or all")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "measured seconds, split between the unloaded and saturated phases")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *traced != 0 && *traced != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *traced))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "ipcdbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *traced == 1, traceDir, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipcdbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipcdbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload, each in a fresh process: the GTPN solve
// cache and engine counters are process-global.
func runAll(seed uint64, seconds, traced int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipcdbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		fmt.Printf("== %s\n", w.name)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "ipcdbench: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// run sets the stack up, drives the workload's phases, checks the
// responses and computes the metrics, printing a readable report on
// out as it goes.
func run(w *workload, seed uint64, seconds int, traced bool, outDir string, out io.Writer) (result, error) {
	setupS, st, err := timeSetUps(w, traced, setups/2, true)
	if err != nil {
		return result{}, err
	}
	defer st.close()
	nsat := runtime.NumCPU()
	gens := newGens(st, w, nsat)
	defer closeGens(gens)
	fmt.Fprintf(out, "ipcdbench workload=%s seed=%d seconds=%d trace=%t nproc=%d nodes=%d\n",
		w.name, seed, seconds, traced, nsat, len(st.nodes))

	origin := time.Now()
	var rs []*phaseResult
	e2e := map[string]float64{}
	if !traced {
		// heap_mb: the stack just set up serves a fixed count of the
		// workload's requests, so that the figure does not follow the
		// run's throughput (on cold every fresh solve stays in the GTPN
		// solve cache).
		mem, err := runPhases(st, gens, w, seed, origin,
			[]phase{{name: "memory", workers: nsat, count: w.memCount}})
		if err != nil {
			return result{}, err
		}
		rs = append(rs, mem...)
		runtime.GC()
		runtime.GC() // the second drops what sync.Pools kept from the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		e2e["heap_mb"] = float64(ms.HeapInuse) / 1e6
	}

	// The unloaded phase gets three fifths of the time: its tail needs
	// ten samples beyond the reported percentile, while the saturated
	// phase's rates settle sooner.
	dur := time.Duration(seconds) * time.Second
	var ref *refServer
	phases := []phase{
		{name: "unloaded-untraced", workers: 1, duration: dur * 3 / 10},
		{name: "unloaded", workers: 1, duration: dur * 3 / 10, traced: true},
		{name: "saturated", workers: nsat, duration: dur * 2 / 5, traced: true},
	}
	if !traced {
		if ref, err = startRef(nsat); err != nil {
			return result{}, err
		}
		defer ref.close()
		phases = []phase{
			{name: "unloaded", workers: 1, duration: dur * 3 / 5, ref: ref},
			{name: "saturated", workers: nsat, duration: dur * 2 / 5, ref: ref},
		}
	}
	timed, err := runPhases(st, gens, w, seed, origin, phases)
	if err != nil {
		return result{}, err
	}
	rs = append(rs, timed...)
	byName := map[string]*phaseResult{}
	all := newChecks()
	delta := map[string]float64{} // per-layer counter deltas over the traced phases
	var attempted, failed int64
	for _, r := range rs {
		byName[r.name] = r
		all.merge(r.checks)
		attempted += int64(len(r.samples))
		failed += int64(len(r.samples)) - r.ok
		if r.traced {
			for k, v := range r.layers {
				delta[k] += v
			}
		}
		fmt.Fprintf(out, "phase %-17s workers=%d requests=%d ok=%d elapsed=%.3fs\n",
			r.name, r.workers, len(r.samples), r.ok, r.elapsed.Seconds())
	}
	end := readCounters(st)
	un, sat := byName["unloaded"], byName["saturated"]
	rtts, firsts := okTimes(un.samples)
	// The absolute figures, for the reader; the end-to-end metrics divide
	// them by the reference's.
	for _, m := range []struct {
		name, unit string
		v          float64
	}{
		{"rtt_p50_ms", "ms", median(rtts)},
		{"rtt_tail_ms", "ms", percentile(rtts, w.tailPct)},
		{"capacity_rps", "1/s", float64(sat.ok) / sat.elapsed.Seconds()},
		{"first_line_p50_ms", "ms", median(firsts)},
		{"cpu_us_per_req", "us", ratio(float64(sat.cpu.Microseconds()), float64(sat.ok))},
	} {
		fmt.Fprintf(out, "%-20s %14.6g %s\n", m.name, m.v, m.unit)
	}
	if !traced {
		relRTT, relFirst := relTimes(un.samples)
		e2e["rtt_mid_rel"] = midMean(relRTT)
		// The tail over the reference's own tail: the tail's causes (GC,
		// timer ticks) do not scale with the reference's median, which
		// made the per-request ratio's tail spread by 0.14 of its median
		// over four hot runs, the ratio of tails by 0.04.
		e2e["rtt_tail_rel"] = percentile(rtts, w.tailPct) / percentile(ref.rtts, w.tailPct)
		e2e["first_line_mid_rel"] = midMean(relFirst)
		e2e["capacity_rel"], e2e["cpu_per_req_rel"] = relSaturated(sat.slices)
		var refRTT []float64
		var refOK int64
		var refElapsed time.Duration
		for _, s := range un.samples {
			refRTT = append(refRTT, float64(s.ref)/1e6)
		}
		for _, x := range sat.slices {
			refOK += x.ref.ok
			refElapsed += x.ref.elapsed
		}
		fmt.Fprintf(out, "reference: unloaded rtt p50 %.6g ms, p%g %.6g ms, saturated %.6g OK/s\n",
			median(refRTT), w.tailPct, percentile(ref.rtts, w.tailPct), float64(refOK)/refElapsed.Seconds())

		// heap_mb is taken; the set-ups after the load start from a
		// process as small as the first ones did.
		for _, r := range rs {
			r.samples = nil
		}
		st.close()
		core.ResetSolveCache()
		runtime.GC()
		more, _, err := timeSetUps(w, false, setups/2, false)
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, more...)
		e2e["setup_s"] = median(fasterHalf(setupS))
	}

	mismatched := verify(all, os.Stderr)
	failed += mismatched
	fmt.Fprintf(out, "checked %d distinct hot points and %d fresh responses against a standalone server: %d mismatched\n",
		countHot(all), len(all.fresh), mismatched)
	fmt.Fprintf(out, "%-20s %14.6g %s (%d failed of %d attempted)\n", "error_rate",
		ratio(float64(failed), float64(attempted)), "ratio", failed, attempted)
	fmt.Fprintf(out, "the tail is p%g of %d unloaded samples (%d beyond it)\n",
		w.tailPct, len(rtts), beyond(len(rtts), w.tailPct))
	metrics := map[string]metric{}
	if !traced {
		for _, m := range endToEnd {
			metrics[m.name] = metric{e2e[m.name], m.unit}
			fmt.Fprintf(out, "%-20s %14.6g %s\n", m.name, e2e[m.name], m.unit)
		}
		return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
	}

	tracedSamples := append(append([]sample(nil), un.samples...), sat.samples...)
	bs, err := join(tracedSamples, st.records())
	if err != nil {
		return result{}, err
	}
	pinThreads(true) // the calls are sequential too
	calls, err := timeCalls(w, st, seed)
	pinThreads(false)
	if err != nil {
		return result{}, err
	}
	// join keeps the samples' order, and every OK sample has a record,
	// so the unloaded phase's breakdowns come first.
	v := layerValues(bs, bs[:un.ok], tracedSamples, un.samples, delta, end, calls)
	untracedRTT, _ := okTimes(byName["unloaded-untraced"].samples)
	v["trace.rtt_p50_ms"] = median(rtts)
	v["trace.overhead_ms"] = median(rtts) - median(untracedRTT)
	fmt.Fprintf(out, "untraced rtt p50 %.6g ms, traced %.6g: tracing overhead %.6g ms\n",
		median(untracedRTT), median(rtts), v["trace.overhead_ms"])
	fmt.Fprintf(out, "%-40s %14s %-10s %s\n", "per-layer metric", "value", "unit", "moves")
	for _, m := range perLayer {
		metrics[m.name] = metric{v[m.name], m.unit}
		fmt.Fprintf(out, "%-40s %14.6g %-10s %s\n", m.name, v[m.name], m.unit, m.moves)
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, seed))
	if err := writePerfetto(path, bs, st.nodes, origin); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(out, "wrote %s (%d of %d requests)\n", path, min(len(bs), maxTraceRequests), len(bs))
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// okTimes returns the round trips and first-line times of the OK
// samples, in ms.
func okTimes(samples []sample) (rtt, first []float64) {
	for _, s := range samples {
		if s.status == http.StatusOK {
			rtt = append(rtt, float64(s.rtt())/1e6)
			first = append(first, float64(s.firstLine-s.start)/1e6)
		}
	}
	return rtt, first
}

func countHot(c *checks) int {
	n := 0
	for _, m := range c.hot {
		if len(m) > 0 {
			n++
		}
	}
	return n
}
