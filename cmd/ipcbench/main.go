// Command ipcbench runs the repository's Go benchmarks with allocation
// reporting and records the results as a machine-readable JSON
// trajectory. Committed snapshots (BENCH_gtpn.json) let a change to the
// solver hot path be judged against the recorded baseline with nothing
// but `go run ./cmd/ipcbench` and a diff — ns/op, B/op, allocs/op, and
// any custom metrics (states, trips/s, ...) per benchmark, plus enough
// environment (go version, GOOS/GOARCH, GOMAXPROCS) to know when two
// snapshots are comparable. No timestamps are recorded, so re-running
// on identical code and hardware yields a stable file.
//
// With -compare BASELINE.json the freshly measured results are judged
// against the committed baseline instead of written out: any benchmark
// whose ns/op or allocs/op grew by more than -tolerance (relative),
// that disappeared, or that the baseline has no entry for (refresh the
// snapshot to admit new benchmarks), is reported and the exit status is
// non-zero — a CI gate against hot-path regressions. ns/op is only compared when the
// baseline's environment (go version, GOOS/GOARCH, GOMAXPROCS) matches
// the current one AND the two machines run a fixed calibration kernel
// at similar speed — two hosts can fingerprint identically yet differ
// 2× in clock, which would otherwise report phantom wall-clock
// regressions; allocs/op is environment-independent and is always
// compared. Wall-clock-only regressions are re-measured up to twice
// (keeping the fastest observation) before they fail the gate, so a
// burst of scheduler interference on a shared host cannot fail CI.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchResult is one benchmark line of `go test -bench` output.
type benchResult struct {
	Pkg   string `json:"pkg"`
	Name  string `json:"name"`
	Procs int    `json:"procs"`
	Iters int64  `json:"iters"`
	// NsPerOp, BPerOp and AllocsPerOp are the standard testing metrics;
	// Metrics carries any b.ReportMetric extras keyed by unit.
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// snapshot is the file schema.
type snapshot struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Bench      string `json:"bench"`
	Benchtime  string `json:"benchtime"`
	Count      int    `json:"count"`
	// CalibrationNsPerOp is the machine's speed on a fixed
	// single-threaded arithmetic kernel, measured alongside the
	// benchmarks. Machines whose calibrations diverge produce
	// incomparable wall-clock numbers even when every fingerprint field
	// above agrees.
	CalibrationNsPerOp float64       `json:"calibration_ns_per_op"`
	Packages           []string      `json:"packages"`
	Benchmarks         []benchResult `json:"benchmarks"`
}

func main() {
	var (
		out       = flag.String("out", "BENCH_gtpn.json", "output file (\"-\" for stdout)")
		bench     = flag.String("bench", "GTPN|Flat|Reference|Sweep|Serve|Decode", "benchmark regex passed to go test -bench")
		benchtime = flag.String("benchtime", "200ms", "per-benchmark time passed to -benchtime")
		count     = flag.Int("count", 3, "repetitions passed to -count (ns/op keeps the fastest run; other metrics are averaged)")
		compare   = flag.String("compare", "", "baseline snapshot to compare against instead of writing -out; regressions exit non-zero")
		tolerance = flag.Float64("tolerance", 0.25, "with -compare, allowed relative growth in ns/op and allocs/op")
	)
	flag.Parse()
	pkgs := []string{".", "./internal/gtpn", "./internal/service"}

	results, err := measure(pkgs, *bench, *benchtime, *count)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipcbench: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "ipcbench: no benchmarks matched %q\n", *bench)
		os.Exit(1)
	}

	snap := snapshot{
		Schema:             "ipcbench/1",
		GoVersion:          runtime.Version(),
		GOOS:               runtime.GOOS,
		GOARCH:             runtime.GOARCH,
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		Bench:              *bench,
		Benchtime:          *benchtime,
		Count:              *count,
		CalibrationNsPerOp: calibrate(),
		Packages:           pkgs,
		Benchmarks:         results,
	}

	if *compare != "" {
		raw, err := os.ReadFile(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipcbench: %v\n", err)
			os.Exit(1)
		}
		var base snapshot
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "ipcbench: %s: %v\n", *compare, err)
			os.Exit(1)
		}
		skipNs := !envComparable(base, snap)
		if skipNs {
			fmt.Printf("ipcbench: baseline environment differs (%s %s/%s procs=%d calib=%.2fns vs %s %s/%s procs=%d calib=%.2fns); comparing allocs/op only\n",
				base.GoVersion, base.GOOS, base.GOARCH, base.GOMAXPROCS, base.CalibrationNsPerOp,
				snap.GoVersion, snap.GOOS, snap.GOARCH, snap.GOMAXPROCS, snap.CalibrationNsPerOp)
		}
		regressions := compareSnapshots(base, snap, *tolerance, skipNs)
		// Wall-clock regressions on a busy host are often interference,
		// not code: re-measure and keep the fastest observation before
		// believing them. A real slowdown cannot produce a fast run, so
		// it survives every retry; allocation regressions are
		// deterministic and are never retried.
		for retry := 1; retry <= 2 && len(regressions) > 0 && allNsOnly(regressions); retry++ {
			fmt.Printf("ipcbench: %d wall-clock regression(s); re-measuring to rule out interference (retry %d)\n",
				len(regressions), retry)
			again, err := measure(pkgs, *bench, *benchtime, *count)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ipcbench: %v\n", err)
				os.Exit(1)
			}
			mergeMinNs(snap.Benchmarks, again)
			regressions = compareSnapshots(base, snap, *tolerance, skipNs)
		}
		for _, r := range regressions {
			fmt.Printf("ipcbench: REGRESSION %s\n", r.msg)
		}
		if len(regressions) > 0 {
			os.Exit(1)
		}
		fmt.Printf("ipcbench: %d benchmarks within %.0f%% of %s\n",
			len(results), *tolerance*100, *compare)
		return
	}

	enc, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipcbench: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "ipcbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ipcbench: wrote %d benchmarks to %s\n", len(results), *out)
}

// measure runs the benchmark suite once and parses the results.
func measure(pkgs []string, bench, benchtime string, count int) ([]benchResult, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(count)}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, raw)
	}
	return parseBenchOutput(raw)
}

// mergeMinNs folds a re-measurement into prior results, keeping the
// fastest ns/op seen for each benchmark. Only wall-clock is merged:
// allocation counts and custom metrics stay from the first run.
func mergeMinNs(dst []benchResult, again []benchResult) {
	byKey := map[string]float64{}
	for _, r := range again {
		byKey[r.Pkg+"\x00"+r.Name] = r.NsPerOp
	}
	for i := range dst {
		if v, ok := byKey[dst[i].Pkg+"\x00"+dst[i].Name]; ok && v > 0 && v < dst[i].NsPerOp {
			dst[i].NsPerOp = v
		}
	}
}

// parseBenchOutput extracts benchmark lines from `go test -bench`
// output. `pkg:` header lines attribute subsequent benchmarks. Across
// -count repeats, ns/op keeps the fastest run — scheduler interference
// is one-sided, it only ever slows a run down — while allocation counts
// and custom metrics (deterministic) are averaged. Results come back
// sorted by (pkg, name) so the file is diff-stable.
func parseBenchOutput(raw []byte) ([]benchResult, error) {
	type acc struct {
		benchResult
		runs int64
	}
	byKey := map[string]*acc{}
	pkg := ""
	for _, line := range bytes.Split(raw, []byte("\n")) {
		s := strings.TrimSpace(string(line))
		if rest, ok := strings.CutPrefix(s, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(s, "Benchmark") {
			continue
		}
		fields := strings.Fields(s)
		if len(fields) < 2 {
			continue
		}
		name, procs := splitProcs(fields[0])
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "Benchmark...: output" noise
		}
		a := byKey[pkg+"\x00"+name]
		if a == nil {
			a = &acc{benchResult: benchResult{Pkg: pkg, Name: name, Procs: procs}}
			byKey[pkg+"\x00"+name] = a
		}
		a.runs++
		a.Iters += iters
		// The remainder is value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], s)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				if a.NsPerOp == 0 || v < a.NsPerOp {
					a.NsPerOp = v
				}
			case "B/op":
				a.BPerOp += v
			case "allocs/op":
				a.AllocsPerOp += v
			default:
				if a.Metrics == nil {
					a.Metrics = map[string]float64{}
				}
				a.Metrics[unit] += v
			}
		}
	}
	results := make([]benchResult, 0, len(byKey))
	for _, a := range byKey {
		r := a.benchResult
		n := float64(a.runs)
		r.BPerOp /= n
		r.AllocsPerOp /= n
		for k := range r.Metrics {
			r.Metrics[k] /= n
		}
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Pkg != results[j].Pkg {
			return results[i].Pkg < results[j].Pkg
		}
		return results[i].Name < results[j].Name
	})
	return results, nil
}

// envComparable reports whether wall-clock numbers from the two
// snapshots were measured under the same conditions. Allocation counts
// survive environment changes; nanoseconds do not — and the static
// fingerprint alone cannot tell two same-spec hosts apart, so the
// measured calibration speeds must also agree (within 25%) before
// ns/op is trusted. A baseline recorded before calibration existed
// (field zero) is never ns-comparable.
func envComparable(a, b snapshot) bool {
	if a.GoVersion != b.GoVersion || a.GOOS != b.GOOS ||
		a.GOARCH != b.GOARCH || a.GOMAXPROCS != b.GOMAXPROCS {
		return false
	}
	if a.CalibrationNsPerOp <= 0 || b.CalibrationNsPerOp <= 0 {
		return false
	}
	r := a.CalibrationNsPerOp / b.CalibrationNsPerOp
	return r >= 1/1.25 && r <= 1.25
}

// calibrationSink defeats dead-code elimination of the kernel.
var calibrationSink float64

// calibrate times a fixed single-threaded float kernel — the shape of
// the solver's stationary iteration inner loop — taking the best of a
// few repetitions to shed scheduler noise. It is a property of the
// machine, not the code under benchmark.
func calibrate() float64 {
	const iters = 1 << 23
	buf := make([]float64, 1024)
	for i := range buf {
		buf[i] = float64(i%97)*1.000001 + 0.5
	}
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		start := nanotime()
		acc := 1.0
		for i := 0; i < iters; i++ {
			acc = acc*0.9999999 + buf[i&1023]*1e-7
		}
		calibrationSink = acc
		el := float64(nanotime()-start) / iters
		if best == 0 || el < best {
			best = el
		}
	}
	return best
}

func nanotime() int64 { return time.Now().UnixNano() }

// regression is one comparison failure; nsOnly marks pure wall-clock
// regressions, which are eligible for re-measurement retries.
type regression struct {
	msg    string
	nsOnly bool
}

func allNsOnly(regs []regression) bool {
	for _, r := range regs {
		if !r.nsOnly {
			return false
		}
	}
	return true
}

// compareSnapshots judges cur against base: every baseline benchmark
// must still exist, its ns/op (unless skipNs) and allocs/op must not
// have grown by more than tol relative (allocs/op not at all from a
// baseline of 0), and every current benchmark
// must be present in the baseline — a brand-new benchmark fails the
// comparison until the snapshot is refreshed, so the gate can never
// silently skip an entry it has no baseline for. Improvements never
// fail.
func compareSnapshots(base, cur snapshot, tol float64, skipNs bool) []regression {
	byKey := map[string]benchResult{}
	for _, r := range cur.Benchmarks {
		byKey[r.Pkg+"\x00"+r.Name] = r
	}
	inBase := map[string]bool{}
	for _, b := range base.Benchmarks {
		inBase[b.Pkg+"\x00"+b.Name] = true
	}
	var regressions []regression
	for _, c := range cur.Benchmarks {
		if !inBase[c.Pkg+"\x00"+c.Name] {
			regressions = append(regressions, regression{msg: fmt.Sprintf(
				"%s %s: benchmark missing from baseline (refresh the snapshot)", c.Pkg, c.Name)})
		}
	}
	for _, b := range base.Benchmarks {
		c, ok := byKey[b.Pkg+"\x00"+b.Name]
		if !ok {
			regressions = append(regressions, regression{msg: fmt.Sprintf(
				"%s %s: benchmark missing from current run", b.Pkg, b.Name)})
			continue
		}
		if !skipNs && b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+tol) {
			regressions = append(regressions, regression{nsOnly: true, msg: fmt.Sprintf(
				"%s %s: ns/op %.0f -> %.0f (+%.1f%%, tolerance %.0f%%)",
				b.Pkg, b.Name, b.NsPerOp, c.NsPerOp,
				(c.NsPerOp/b.NsPerOp-1)*100, tol*100)})
		}
		switch {
		case b.AllocsPerOp == 0 && c.AllocsPerOp > 0:
			// A baseline that allocates nothing is a floor: no relative
			// tolerance of zero admits an allocation.
			regressions = append(regressions, regression{msg: fmt.Sprintf(
				"%s %s: allocs/op 0 -> %g (the baseline allocates nothing)",
				b.Pkg, b.Name, c.AllocsPerOp)})
		case b.AllocsPerOp > 0 && c.AllocsPerOp > b.AllocsPerOp*(1+tol):
			regressions = append(regressions, regression{msg: fmt.Sprintf(
				"%s %s: allocs/op %.0f -> %.0f (+%.1f%%, tolerance %.0f%%)",
				b.Pkg, b.Name, b.AllocsPerOp, c.AllocsPerOp,
				(c.AllocsPerOp/b.AllocsPerOp-1)*100, tol*100)})
		}
	}
	return regressions
}

// splitProcs splits the "-N" GOMAXPROCS suffix off a benchmark name.
func splitProcs(s string) (string, int) {
	if i := strings.LastIndexByte(s, '-'); i > 0 {
		if n, err := strconv.Atoi(s[i+1:]); err == nil {
			return s[:i], n
		}
	}
	return s, 1
}
