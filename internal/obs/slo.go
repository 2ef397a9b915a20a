package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The SLO burn-rate engine. An Objective says "TargetPct% of requests
// on this route must succeed (and, optionally, finish under LatencyUS)";
// the Tracker measures compliance over several rolling windows at once
// and reports each window's burn rate — how fast the error budget is
// being spent, where 1.000 means exactly at budget. Multi-window burn
// rates are the standard way to alert on objectives: the short window
// catches sudden cliffs, the long one slow leaks, and requiring both
// suppresses flapping.
//
// The request path is two atomic adds per matching objective; all ring
// and window arithmetic happens on the once-per-second Tick. Everything
// is integer math (parts-per-million targets, milli burn rates) so the
// exposition is deterministic across platforms.

// sloWindowSpec fixes the rolling windows: ticks are one second apart,
// so the spans are 1m, 5m and 30m.
var sloWindowSpec = [...]struct {
	name  string
	ticks int
}{
	{"1m", 60},
	{"5m", 300},
	{"30m", 1800},
}

// sloMinSamples gates breach detection: a window with fewer total
// requests than this cannot breach, so an idle fleet (or the first
// seconds after start) never pages.
const sloMinSamples = 10

// Objective is one availability/latency target for a route.
type Objective struct {
	// Route names the instrumented route ("solve", "simulate", ...);
	// empty matches every route.
	Route string
	// TargetPPM is the success target in parts per million: 990_000
	// means 99% of requests must be good.
	TargetPPM int64
	// LatencyUS, when non-zero, additionally requires good requests to
	// finish within this many microseconds.
	LatencyUS int64
}

// budgetPPM is the error budget: the fraction of requests, in PPM,
// allowed to be bad.
func (o Objective) budgetPPM() int64 { return 1_000_000 - o.TargetPPM }

// Name renders the objective as a stable label: "solve:p99:lat50ms",
// or "solve:p99" for availability-only, or "all:p99.9" for a
// route-wildcard objective.
func (o Objective) Name() string {
	route := o.Route
	if route == "" {
		route = "all"
	}
	name := route + ":p" + formatPPMPct(o.TargetPPM)
	if o.LatencyUS > 0 {
		name += ":lat" + time.Duration(o.LatencyUS*int64(time.Microsecond)).String()
	}
	return name
}

// formatPPMPct renders a PPM target as a percentage with trailing
// zeros trimmed: 990000 → "99", 999000 → "99.9", 999500 → "99.95".
func formatPPMPct(ppm int64) string {
	whole := ppm / 10_000
	frac := ppm % 10_000
	if frac == 0 {
		return strconv.FormatInt(whole, 10)
	}
	s := fmt.Sprintf("%d.%04d", whole, frac)
	return strings.TrimRight(s, "0")
}

// ParseObjective parses the ipcd -slo flag syntax:
// "route=solve,p=99,lat=50ms". p may carry up to four decimal places
// (p=99.95); lat is any Go duration of at least 1µs and is optional
// (omitting it makes the objective availability-only); route defaults
// to "solve", is drawn from ipcd's route-name charset (lowercase letters
// and '_'), and when empty matches every route.
func ParseObjective(s string) (Objective, error) {
	o := Objective{Route: "solve"}
	sawP := false
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Objective{}, fmt.Errorf("slo: %q is not key=value", part)
		}
		switch key {
		case "route":
			if !isRouteName(val) {
				return Objective{}, fmt.Errorf("slo: route=%q is not a route name", val)
			}
			o.Route = val
		case "p":
			ppm, err := parsePctPPM(val)
			if err != nil {
				return Objective{}, err
			}
			o.TargetPPM = ppm
			sawP = true
		case "lat":
			d, err := time.ParseDuration(val)
			if err != nil {
				return Objective{}, fmt.Errorf("slo: lat: %w", err)
			}
			if d < time.Microsecond {
				return Objective{}, fmt.Errorf("slo: lat must be at least 1µs, got %q", val)
			}
			o.LatencyUS = int64(d / time.Microsecond)
		default:
			return Objective{}, fmt.Errorf("slo: unknown key %q (want route, p, lat)", key)
		}
	}
	if !sawP {
		return Objective{}, fmt.Errorf("slo: %q is missing p= (the success target percentage)", s)
	}
	return o, nil
}

// isRouteName reports whether s uses only the characters of ipcd's
// route names (lowercase letters and '_'), so an objective's Name never
// needs escaping in a Prometheus label value. Empty is every route.
func isRouteName(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < 'a' || c > 'z') && c != '_' {
			return false
		}
	}
	return true
}

// parsePctPPM converts "99", "99.9" or "99.95" into parts per million.
// Both parts are ASCII digits: no sign, and 1–4 fractional digits.
func parsePctPPM(s string) (int64, error) {
	whole, frac, dot := strings.Cut(s, ".")
	if !isDigits(whole, 3) {
		return 0, fmt.Errorf("slo: p=%q is not a percentage", s)
	}
	if dot && !isDigits(frac, 4) {
		return 0, fmt.Errorf("slo: p=%q needs one to four decimal digits", s)
	}
	// Both parts are short digit strings, so ParseInt cannot fail.
	w, _ := strconv.ParseInt(whole, 10, 64)
	ppm := w * 10_000
	if dot {
		f, _ := strconv.ParseInt(frac, 10, 64)
		for i := len(frac); i < 4; i++ {
			f *= 10
		}
		ppm += f
	}
	if ppm <= 0 || ppm >= 1_000_000 {
		return 0, fmt.Errorf("slo: p=%q must be strictly between 0 and 100", s)
	}
	return ppm, nil
}

// isDigits reports whether s is 1 to max ASCII digits.
func isDigits(s string, max int) bool {
	if len(s) == 0 || len(s) > max {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// DefaultObjectives is what a node tracks when no -slo flag is given:
// 99% of solves under 50ms, the paper-scale latency target the response
// cache was built to hold.
func DefaultObjectives() []Objective {
	return []Objective{{Route: "solve", TargetPPM: 990_000, LatencyUS: 50_000}}
}

// sloSample is one tick's worth of traffic for one objective.
type sloSample struct {
	good  int64
	total int64
}

// sloWindow is one rolling window over the shared sample ring.
type sloWindow struct {
	ticks    int
	good     int64 // rolling sums over the last `ticks` samples
	total    int64
	breached bool
}

// objectiveState is the per-objective tracker state. The two atomics
// are the only fields the request path touches.
type objectiveState struct {
	obj      Objective
	curGood  atomic.Int64
	curTotal atomic.Int64

	ring    []sloSample // shared by all windows; sized to the longest
	next    int
	elapsed int // ticks recorded so far, capped at len(ring)
	windows []sloWindow
}

// Tracker measures a set of objectives. Observe is lock-free and
// allocation-free; Tick and Snapshot serialize on a mutex.
type Tracker struct {
	mu      sync.Mutex
	objs    []*objectiveState
	journal *Journal
}

// NewTracker builds a tracker for the given objectives (sorted by Name
// for stable exposition order). A nil journal is fine — breach events
// are simply not recorded.
func NewTracker(objs []Objective, journal *Journal) *Tracker {
	sorted := append([]Objective(nil), objs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name() < sorted[j].Name() })
	t := &Tracker{journal: journal}
	longest := sloWindowSpec[len(sloWindowSpec)-1].ticks
	for _, o := range sorted {
		st := &objectiveState{obj: o, ring: make([]sloSample, longest)}
		for _, w := range sloWindowSpec {
			st.windows = append(st.windows, sloWindow{ticks: w.ticks})
		}
		t.objs = append(t.objs, st)
	}
	return t
}

// Observe records one finished request. Good means the status is a
// success (not 5xx, not 429 shed) and, when the objective sets a
// latency bound, the request finished within it. Two atomic adds per
// matching objective; no locks, no allocations.
func (t *Tracker) Observe(route string, status int, latencyUS int64) {
	if t == nil {
		return
	}
	for _, st := range t.objs {
		if st.obj.Route != "" && st.obj.Route != route {
			continue
		}
		st.curTotal.Add(1)
		if status < 500 && status != 429 && (st.obj.LatencyUS == 0 || latencyUS <= st.obj.LatencyUS) {
			st.curGood.Add(1)
		}
	}
}

// Tick closes the current one-second sample for every objective, rolls
// the windows forward, and records breach/recovery transitions in the
// journal. ipcd drives it from a ticker; tests call it directly.
func (t *Tracker) Tick(nowMS int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range t.objs {
		// Swap the request-path counters out. A request landing between
		// the two Swaps smears one count into the next tick; the window
		// sums self-correct as both samples roll through together.
		good := st.curGood.Swap(0)
		total := st.curTotal.Swap(0)
		cap := len(st.ring)
		for i := range st.windows {
			w := &st.windows[i]
			// Subtract the sample leaving the window BEFORE overwriting
			// the ring slot — for the longest window that slot is the
			// one being rewritten this tick.
			if st.elapsed >= w.ticks {
				leaving := st.ring[(st.next-w.ticks+cap)%cap]
				w.good -= leaving.good
				w.total -= leaving.total
			}
			w.good += good
			w.total += total
		}
		st.ring[st.next] = sloSample{good: good, total: total}
		st.next = (st.next + 1) % cap
		if st.elapsed < cap {
			st.elapsed++
		}
		budget := st.obj.budgetPPM()
		for i := range st.windows {
			w := &st.windows[i]
			bad := w.total - w.good
			breached := w.total >= sloMinSamples && bad*1_000_000 > w.total*budget
			if breached != w.breached {
				w.breached = breached
				verb := "recovered"
				if breached {
					verb = "breached"
				}
				t.journal.Record(EventSLO,
					st.obj.Name()+"/"+sloWindowSpec[i].name,
					fmt.Sprintf("%s bad=%d total=%d burn_milli=%d", verb, bad, w.total, burnMilli(bad, w.total, budget)))
			}
		}
	}
}

// burnMilli computes the burn rate in thousandths: how fast the error
// budget is being consumed, where 1000 means exactly at budget.
// burn = (bad/total) / (budget/1e6), carried in integers.
func burnMilli(bad, total, budgetPPM int64) int64 {
	if total == 0 || budgetPPM == 0 {
		return 0
	}
	return bad * 1_000_000_000 / (total * budgetPPM)
}

// WindowSnapshot is one rolling window's state for exposition.
type WindowSnapshot struct {
	Window    string // "1m", "5m", "30m"
	Seconds   int
	Good      int64
	Total     int64
	BurnMilli int64
	Breached  bool
}

// ObjectiveSnapshot is one objective's full state for exposition.
type ObjectiveSnapshot struct {
	Name      string
	Route     string
	TargetPPM int64
	LatencyUS int64
	Windows   []WindowSnapshot
}

// Snapshot copies every objective's windows, in Name order.
func (t *Tracker) Snapshot() []ObjectiveSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ObjectiveSnapshot, 0, len(t.objs))
	for _, st := range t.objs {
		snap := ObjectiveSnapshot{
			Name:      st.obj.Name(),
			Route:     st.obj.Route,
			TargetPPM: st.obj.TargetPPM,
			LatencyUS: st.obj.LatencyUS,
		}
		budget := st.obj.budgetPPM()
		for i, w := range st.windows {
			snap.Windows = append(snap.Windows, WindowSnapshot{
				Window:    sloWindowSpec[i].name,
				Seconds:   sloWindowSpec[i].ticks,
				Good:      w.good,
				Total:     w.total,
				BurnMilli: burnMilli(w.total-w.good, w.total, budget),
				Breached:  w.breached,
			})
		}
		out = append(out, snap)
	}
	return out
}
