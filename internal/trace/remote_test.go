package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// chromeEvents renders r's Chrome trace and decodes its events, numbers
// kept as written.
func chromeEvents(t *testing.T, r *Recorder) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("invalid Chrome JSON: %v", err)
	}
	return doc.TraceEvents
}

// TestMergeRemoteRoundTrip: a peer's spans land on a new process lane,
// re-based by the offset.
func TestMergeRemoteRoundTrip(t *testing.T) {
	peer := New(8, 1000)
	peer.Emit(0, 0, "serve", "http", 250, 1750)
	local := NewWall(8)
	local.RegisterProcess(0, "local")
	if err := local.MergeRemote("peer", peer.MarshalSpans(), 1000); err != nil {
		t.Fatal(err)
	}
	spans := local.Spans()
	if len(spans) != 1 || spans[0].Proc != 1 || spans[0].Start != 1250 || spans[0].Dur != 1750 {
		t.Fatalf("merged spans %+v, want serve on pid 1 at 1250 for 1750", spans)
	}
}

// TestMergeRemoteRejectsMalformedSpans: spans a peer sends with a
// negative start or duration, or whose re-based start overflows, are
// malformed: the merge fails and adds nothing, not even the lane.
func TestMergeRemoteRejectsMalformedSpans(t *testing.T) {
	for _, c := range []struct {
		data string
		off  int64
	}{
		{`[{"n":"x","t":-1500,"d":-1500}]`, 0},
		{`[{"n":"ok","t":5,"d":5},{"n":"x","t":5,"d":-1}]`, 0},
		{`[{"n":"x","t":9223372036854775807}]`, 1},
		{`[{"n":"x","t":10,"i":true}]`, -11},
	} {
		r := NewWall(8)
		r.RegisterProcess(0, "local")
		if err := r.MergeRemote("peer", []byte(c.data), c.off); err == nil {
			t.Errorf("%s at offset %d: merged, want an error", c.data, c.off)
		}
		if len(r.Spans()) != 0 || len(chromeEvents(t, r)) != 1 {
			t.Errorf("%s at offset %d: a rejected merge left spans or a lane behind", c.data, c.off)
		}
	}
}

// FuzzMergeRemote drives the X-Ipcd-Trace-Spans decoder with arbitrary
// peer bytes and offsets. It must never panic, and an accepted merge
// must render as valid Chrome JSON whose every ts and dur is
// non-negative.
func FuzzMergeRemote(f *testing.F) {
	peer := New(8, 1000)
	peer.Emit(0, 0, "serve", "http", 250, 1750)
	peer.Instant(0, 0, "gtpn.cache_hit", "gtpn", 900, -1)
	f.Add(string(peer.MarshalSpans()), int64(1000))
	f.Add(`[{"n":"x","t":-1500,"d":-1500}]`, int64(0))
	f.Add(`[{"n":"x","t":9223372036854775807,"d":9223372036854775807}]`, int64(0))
	f.Add(`[{"n":" \"q","c":"\\","t":1,"d":999}]`, int64(-1))
	f.Add(`[]`, int64(0))
	f.Add(`{"n":"x"}`, int64(0))
	f.Fuzz(func(t *testing.T, data string, off int64) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		r := NewWall(64)
		r.RegisterProcess(0, "local")
		if err := r.MergeRemote("peer", []byte(data), off); err != nil {
			if len(r.Spans()) != 0 {
				t.Fatalf("rejected merge left %d spans", len(r.Spans()))
			}
			return
		}
		for _, ev := range chromeEvents(t, r) {
			for _, k := range []string{"ts", "dur"} {
				v, ok := ev[k]
				if !ok {
					continue
				}
				if n, ok := v.(json.Number); !ok || strings.HasPrefix(string(n), "-") {
					t.Fatalf("event %v: %s %v is not a non-negative number", ev, k, v)
				}
			}
		}
	})
}
