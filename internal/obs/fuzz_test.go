package obs

import (
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// FuzzParseObjective feeds arbitrary -slo specs to ParseObjective. It
// must never panic; every accepted objective's Name must be a Prometheus
// label value that needs no escaping, and the objective written back as
// "route=…,p=…[,lat=…]" must reparse to the same Objective.
func FuzzParseObjective(f *testing.F) {
	for _, seed := range []string{
		"route=solve,p=99,lat=50ms",
		"route=simulate,p=99.9",
		"route=,p=90",
		"p=99.95",
		"route=solve,p=99,lat=500ns",
		"p=99.-5",
		`route=so"lve,p=99`,
		"lat=1us,p=50",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		o, err := ParseObjective(spec)
		if err != nil {
			return
		}
		name := o.Name()
		if !utf8.ValidString(name) || strings.ContainsAny(name, "\\\"\n") {
			t.Fatalf("ParseObjective(%q).Name() = %q needs escaping in a label value", spec, name)
		}
		back := "route=" + o.Route + ",p=" + formatPPMPct(o.TargetPPM)
		if o.LatencyUS > 0 {
			back += ",lat=" + (time.Duration(o.LatencyUS) * time.Microsecond).String()
		}
		again, err := ParseObjective(back)
		if err != nil || again != o {
			t.Fatalf("ParseObjective(%q) = %+v, but its written-back form %q reparses to %+v, %v", spec, o, back, again, err)
		}
	})
}
