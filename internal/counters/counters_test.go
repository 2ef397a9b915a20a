package counters

import (
	"bytes"
	"strings"
	"testing"
)

// The time-weighted average must reproduce a hand-computed schedule
// exactly: level 0 on [0,10), 3 on [10,30), 1 on [30,100), sampled at
// 100 -> (0*10 + 3*20 + 1*70)/100 = 1.30. Integer area accumulation
// makes this an equality, not a tolerance.
func TestTimeAvgHandComputedSchedule(t *testing.T) {
	r := New()
	a := r.TimeAvg("q")
	a.Set(10, 3)
	a.Set(30, 1)
	if got, want := a.Mean(100), 1.30; got != want {
		t.Fatalf("Mean(100) = %v, want %v", got, want)
	}
	// The in-progress interval counts: extending the horizon with the
	// level still 1 moves the mean toward 1.
	if got, want := a.Mean(230), (3*20+1*200)/230.0; got != want {
		t.Fatalf("Mean(230) = %v, want %v", got, want)
	}
	// Add is relative to the current level.
	a.Add(230, -1)
	if a.Value() != 0 {
		t.Fatalf("Value after Add(-1) = %d, want 0", a.Value())
	}
}

// A 0/1 busy TimeAvg is a utilization; a full-horizon busy interval
// must read exactly 1.
func TestTimeAvgFullUtilization(t *testing.T) {
	r := New()
	b := r.TimeAvg("busy")
	b.Set(0, 1)
	if got := b.Mean(12345); got != 1.0 {
		t.Fatalf("always-busy Mean = %v, want 1", got)
	}
}

// Every method on nil handles and the nil registry must be a safe no-op
// — the "counters disabled" configuration used by default in every
// simulator.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c, g, a := r.Counter("c"), r.Gauge("g"), r.TimeAvg("a")
	c.Inc()
	c.Add(5)
	g.Set(7)
	g.Add(-2)
	a.Set(10, 3)
	a.Add(20, 1)
	if c.Value() != 0 || g.Value() != 0 || a.Value() != 0 || a.Mean(100) != 0 {
		t.Fatal("nil handles accumulated state")
	}
	if got := r.Snapshot(100); got != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", got)
	}
}

// Re-registering a name returns the same handle (updates from two call
// sites accumulate in one metric); cross-kind reuse panics.
func TestRegistrationIdentityAndKindConflict(t *testing.T) {
	r := New()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("same-name counters are distinct handles")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-kind registration did not panic")
		}
	}()
	r.Gauge("x")
}

// Snapshot order is sorted by name regardless of registration order, so
// renderings are deterministic across construction-order differences.
func TestSnapshotSortedAndRenderDeterministic(t *testing.T) {
	build := func(reverse bool) []Sample {
		r := New()
		names := []string{"alpha", "mid.level", "zeta"}
		if reverse {
			names = []string{"zeta", "mid.level", "alpha"}
		}
		for _, n := range names {
			r.Counter(n).Add(int64(len(n)))
		}
		r.TimeAvg("busy").Set(0, 1)
		return r.Snapshot(1000)
	}
	a, b := build(false), build(true)
	var ba, bb bytes.Buffer
	if err := WriteText(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&bb, b); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Fatalf("renderings differ:\n%s\nvs\n%s", ba.String(), bb.String())
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Name >= a[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", a[i-1].Name, a[i].Name)
		}
	}
}

// Updates through existing handles must not allocate — the hot-path
// contract the DES instrumentation relies on.
func TestUpdatesDoNotAllocate(t *testing.T) {
	r := New()
	c := r.Counter("c")
	a := r.TimeAvg("a")
	g := r.Gauge("g")
	now := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		c.Inc()
		g.Add(1)
		a.Add(now, 1)
	})
	if allocs != 0 {
		t.Fatalf("updates allocated %v per run, want 0", allocs)
	}
}

func TestWriteTextFormats(t *testing.T) {
	r := New()
	r.Counter("events").Add(42)
	r.Gauge("level").Set(-3)
	r.TimeAvg("busy").Set(0, 1)
	var buf bytes.Buffer
	if err := WriteText(&buf, r.Snapshot(10)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"busy    1 (timeavg)", "events  42 (counter)", "level   -3 (gauge)"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
