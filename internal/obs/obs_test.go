package obs

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestJournalRingAndOrder(t *testing.T) {
	j := NewJournal(4, nil, "n1")
	ms := int64(1000)
	j.SetNow(func() time.Time { ms += 10; return time.UnixMilli(ms) })
	for i := 0; i < 6; i++ {
		j.Record(EventDrain, fmt.Sprintf("s%d", i), "d")
	}
	evs := j.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want ring capacity 4", len(evs))
	}
	for i, ev := range evs {
		wantSeq := int64(i + 3) // events 3..6 survive
		if ev.Seq != wantSeq {
			t.Errorf("event %d: seq %d, want %d", i, ev.Seq, wantSeq)
		}
		if i > 0 && evs[i-1].UnixMS >= ev.UnixMS {
			t.Errorf("events not in ascending time order at %d", i)
		}
	}
	if evs[0].Subject != "s2" {
		t.Errorf("oldest surviving subject %q, want s2", evs[0].Subject)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record(EventDrain, "s", "d") // must not panic
	if j.Events() != nil {
		t.Error("nil journal Events() should be nil")
	}
	if j.Capacity() != 0 {
		t.Error("nil journal Capacity() should be 0")
	}
	j.SetNow(time.Now)
}

func TestJournalSlogEmission(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	j := NewJournal(8, logger, "node-a")
	j.Record(EventPeerHealth, "peer-b", "healthy->unreachable")
	out := buf.String()
	for _, want := range []string{`"msg":"event"`, `"node":"node-a"`, `"type":"peer_health"`, `"subject":"peer-b"`, `"seq":1`} {
		if !strings.Contains(out, want) {
			t.Errorf("slog record missing %s in %s", want, out)
		}
	}
}

func TestPeerHealthHysteresis(t *testing.T) {
	p := NewPeerHealth() // ladder: 2/4/2
	if p.State() != Healthy {
		t.Fatal("new peer should start healthy")
	}
	// One failure: still healthy (hysteresis).
	if _, _, changed := p.ObserveFailure(1, "refused"); changed {
		t.Error("single failure should not transition")
	}
	// Second consecutive failure: degraded.
	from, to, changed := p.ObserveFailure(2, "refused")
	if !changed || from != Healthy || to != Degraded {
		t.Errorf("2nd failure: got %v->%v changed=%v, want healthy->degraded", from, to, changed)
	}
	// Third: still degraded.
	if _, _, changed := p.ObserveFailure(3, "refused"); changed {
		t.Error("3rd failure should not transition (degraded until 4)")
	}
	// Fourth: unreachable.
	from, to, changed = p.ObserveFailure(4, "refused")
	if !changed || from != Degraded || to != Unreachable {
		t.Errorf("4th failure: got %v->%v changed=%v, want degraded->unreachable", from, to, changed)
	}
	// One success: not yet healthy.
	if _, _, changed := p.ObserveSuccess(5, 500); changed {
		t.Error("single success should not recover")
	}
	// Second success: healthy again.
	from, to, changed = p.ObserveSuccess(6, 700)
	if !changed || from != Unreachable || to != Healthy {
		t.Errorf("2nd success: got %v->%v changed=%v, want unreachable->healthy", from, to, changed)
	}
	snap := p.Snapshot()
	if snap.Probes != 6 || snap.Failures != 4 {
		t.Errorf("probes=%d failures=%d, want 6/4", snap.Probes, snap.Failures)
	}
	if snap.LastChangeMS != 6 {
		t.Errorf("lastChangeMS=%d, want 6", snap.LastChangeMS)
	}
	if snap.LastErr != "" {
		t.Errorf("lastErr=%q, want cleared after success", snap.LastErr)
	}
}

func TestPeerHealthFailureInterruptsRecovery(t *testing.T) {
	p := NewPeerHealth()
	for i := int64(1); i <= 4; i++ {
		p.ObserveFailure(i, "x")
	}
	p.ObserveSuccess(5, 100)
	// A failure resets the consecutive-success streak.
	p.ObserveFailure(6, "x")
	if _, _, changed := p.ObserveSuccess(7, 100); changed {
		t.Error("one success after interruption should not recover")
	}
	if _, to, changed := p.ObserveSuccess(8, 100); !changed || to != Healthy {
		t.Error("two consecutive successes should recover")
	}
}

func TestPeerHealthRTTEWMA(t *testing.T) {
	p := NewPeerHealth()
	p.ObserveSuccess(1, 800)
	if got := p.Snapshot().RTTEWMAUS; got != 800 {
		t.Errorf("first sample seeds EWMA: got %d, want 800", got)
	}
	p.ObserveSuccess(2, 1600)
	// (7*800 + 1600) / 8 = 900
	if got := p.Snapshot().RTTEWMAUS; got != 900 {
		t.Errorf("EWMA after 1600: got %d, want 900", got)
	}
}

func TestPeerStateString(t *testing.T) {
	if Healthy.String() != "healthy" || Degraded.String() != "degraded" || Unreachable.String() != "unreachable" {
		t.Error("state names wrong")
	}
	if PeerState(9).String() != "unknown" {
		t.Error("out-of-range state should be unknown")
	}
}

func TestParseObjective(t *testing.T) {
	o, err := ParseObjective("route=solve,p=99,lat=50ms")
	if err != nil {
		t.Fatal(err)
	}
	if o.Route != "solve" || o.TargetPPM != 990_000 || o.LatencyUS != 50_000 {
		t.Errorf("parsed %+v", o)
	}
	if o.Name() != "solve:p99:lat50ms" {
		t.Errorf("name %q", o.Name())
	}

	o, err = ParseObjective("p=99.95")
	if err != nil {
		t.Fatal(err)
	}
	if o.Route != "solve" || o.TargetPPM != 999_500 || o.LatencyUS != 0 {
		t.Errorf("parsed %+v", o)
	}
	if o.Name() != "solve:p99.95" {
		t.Errorf("name %q", o.Name())
	}

	o, err = ParseObjective("route=,p=90")
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "all:p90" {
		t.Errorf("wildcard name %q", o.Name())
	}

	for _, bad := range []string{"", "route=solve", "p=0", "p=100", "p=abc", "p=99.12345", "lat=50ms,p=99,x=1", "p=99,lat=-1s", "nonsense"} {
		if _, err := ParseObjective(bad); err == nil {
			t.Errorf("ParseObjective(%q) should fail", bad)
		}
	}
}

// TestParseObjectiveRejectsMalformed: a latency bound that truncates to
// 0µs (which would silently make the objective availability-only), a
// signed percentage fraction, and a route that would need escaping in
// the ipcd_slo_* label are all refused; their nearest well-formed specs
// parse.
func TestParseObjectiveRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"route=solve,p=99,lat=500ns",
		"p=99.-5",
		"p=99.+5",
		"p=+99",
		"p=99.",
		`route=so"lve,p=99`,
		`route=so\lve,p=99`,
		"route=Solve,p=99",
	} {
		if o, err := ParseObjective(bad); err == nil {
			t.Errorf("ParseObjective(%q) = %+v, want an error", bad, o)
		}
	}
	for spec, want := range map[string]Objective{
		"route=solve,p=99,lat=1us":    {Route: "solve", TargetPPM: 990_000, LatencyUS: 1},
		"route=solve,p=99,lat=1500ns": {Route: "solve", TargetPPM: 990_000, LatencyUS: 1},
		"p=99.05":                     {Route: "solve", TargetPPM: 990_500},
		"route=sweep,p=99.5":          {Route: "sweep", TargetPPM: 995_000},
	} {
		if o, err := ParseObjective(spec); err != nil || o != want {
			t.Errorf("ParseObjective(%q) = %+v, %v; want %+v", spec, o, err, want)
		}
	}
}

func TestTrackerWindowsAndBreach(t *testing.T) {
	j := NewJournal(16, nil, "n1")
	ms := int64(0)
	j.SetNow(func() time.Time { ms += 1000; return time.UnixMilli(ms) })
	tr := NewTracker([]Objective{{Route: "solve", TargetPPM: 990_000, LatencyUS: 50_000}}, j)

	// 20 good requests in one tick: no breach.
	for i := 0; i < 20; i++ {
		tr.Observe("solve", 200, 1000)
	}
	tr.Tick(1000)
	snap := tr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("got %d objectives", len(snap))
	}
	w := snap[0].Windows[0]
	if w.Window != "1m" || w.Good != 20 || w.Total != 20 || w.Breached || w.BurnMilli != 0 {
		t.Errorf("window after good tick: %+v", w)
	}

	// 10 bad requests (slow): 10/30 bad >> 1% budget → breach on all windows.
	for i := 0; i < 10; i++ {
		tr.Observe("solve", 200, 200_000) // over the 50ms bound
	}
	tr.Tick(2000)
	snap = tr.Snapshot()
	for _, w := range snap[0].Windows {
		if !w.Breached {
			t.Errorf("window %s should be breached: %+v", w.Window, w)
		}
		// burn = (10/30) / 0.01 = 33.33x → 33333 milli
		if w.BurnMilli != 33333 {
			t.Errorf("window %s burn %d, want 33333", w.Window, w.BurnMilli)
		}
	}
	var breachEvents int
	for _, ev := range j.Events() {
		if ev.Type == EventSLO && strings.Contains(ev.Detail, "breached") {
			breachEvents++
		}
	}
	if breachEvents != 3 {
		t.Errorf("got %d breach events, want 3 (one per window)", breachEvents)
	}

	// Roll the 1m window clean: 60 ticks of pure good traffic.
	for i := 0; i < 60; i++ {
		for k := 0; k < 5; k++ {
			tr.Observe("solve", 200, 1000)
		}
		tr.Tick(int64(3000 + i*1000))
	}
	snap = tr.Snapshot()
	w1, w5 := snap[0].Windows[0], snap[0].Windows[1]
	if w1.Breached || w1.Total != 300 || w1.Good != 300 {
		t.Errorf("1m window should have recovered: %+v", w1)
	}
	if !w5.Breached {
		t.Errorf("5m window still holds the bad tick: %+v", w5)
	}
	var recoverEvents int
	for _, ev := range j.Events() {
		if ev.Type == EventSLO && strings.Contains(ev.Detail, "recovered") {
			recoverEvents++
		}
	}
	if recoverEvents != 1 {
		t.Errorf("got %d recovery events, want 1 (the 1m window)", recoverEvents)
	}
}

func TestTrackerWindowEviction(t *testing.T) {
	tr := NewTracker([]Objective{{Route: "solve", TargetPPM: 990_000}}, nil)
	// Fill far past the longest window; each tick carries exactly one
	// good request, so every full window's total equals its span.
	for i := 0; i < 2000; i++ {
		tr.Observe("solve", 200, 0)
		tr.Tick(int64(i) * 1000)
	}
	for _, w := range tr.Snapshot()[0].Windows {
		if w.Total != int64(w.Seconds) || w.Good != int64(w.Seconds) {
			t.Errorf("window %s: good=%d total=%d, want %d/%d", w.Window, w.Good, w.Total, w.Seconds, w.Seconds)
		}
	}
}

func TestTrackerStatusClassification(t *testing.T) {
	tr := NewTracker([]Objective{{Route: "solve", TargetPPM: 990_000}}, nil)
	tr.Observe("solve", 200, 0)    // good
	tr.Observe("solve", 400, 0)    // client error: still "good" for the server SLO
	tr.Observe("solve", 429, 0)    // shed: bad
	tr.Observe("solve", 500, 0)    // server error: bad
	tr.Observe("simulate", 200, 0) // different route: ignored
	tr.Tick(1000)
	w := tr.Snapshot()[0].Windows[0]
	if w.Total != 4 || w.Good != 2 {
		t.Errorf("good=%d total=%d, want 2/4", w.Good, w.Total)
	}
}

func TestTrackerWildcardRoute(t *testing.T) {
	tr := NewTracker([]Objective{{Route: "", TargetPPM: 990_000}}, nil)
	tr.Observe("solve", 200, 0)
	tr.Observe("simulate", 200, 0)
	tr.Tick(1000)
	if w := tr.Snapshot()[0].Windows[0]; w.Total != 2 {
		t.Errorf("wildcard total=%d, want 2", w.Total)
	}
}

func TestTrackerMinSampleGate(t *testing.T) {
	tr := NewTracker([]Objective{{Route: "solve", TargetPPM: 990_000}}, nil)
	// 5 bad requests — under the 10-sample gate, so no breach.
	for i := 0; i < 5; i++ {
		tr.Observe("solve", 500, 0)
	}
	tr.Tick(1000)
	if w := tr.Snapshot()[0].Windows[0]; w.Breached {
		t.Errorf("breach below min samples: %+v", w)
	}
}

func TestTrackerObserveZeroAlloc(t *testing.T) {
	tr := NewTracker(DefaultObjectives(), nil)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Observe("solve", 200, 1000)
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f/op, want 0", allocs)
	}
}

func TestTrackerNilSafe(t *testing.T) {
	var tr *Tracker
	tr.Observe("solve", 200, 0)
	tr.Tick(0)
	if tr.Snapshot() != nil {
		t.Error("nil tracker Snapshot() should be nil")
	}
}

func TestTrackerSortedByName(t *testing.T) {
	tr := NewTracker([]Objective{
		{Route: "simulate", TargetPPM: 990_000},
		{Route: "solve", TargetPPM: 990_000},
	}, nil)
	snap := tr.Snapshot()
	if snap[0].Name != "simulate:p99" || snap[1].Name != "solve:p99" {
		t.Errorf("order: %s, %s", snap[0].Name, snap[1].Name)
	}
}

func TestFormatPPMPct(t *testing.T) {
	cases := map[int64]string{
		990_000: "99",
		999_000: "99.9",
		999_500: "99.95",
		500_000: "50",
		999_990: "99.999",
	}
	for ppm, want := range cases {
		if got := formatPPMPct(ppm); got != want {
			t.Errorf("formatPPMPct(%d) = %q, want %q", ppm, got, want)
		}
	}
}
