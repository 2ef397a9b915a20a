package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
)

// WriteChrome renders the recording in the Chrome trace-event JSON
// format, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// The output is deterministic for a deterministic recording: metadata
// rows appear in registration order, spans in recording order, and
// timestamps are formatted by integer arithmetic (microseconds with up
// to three fractional digits, trailing zeros trimmed), never through
// float printing.
func (r *Recorder) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	if r != nil {
		r.mu.Lock()
		procs := append([]procMeta(nil), r.procs...)
		tracks := append([]trackMeta(nil), r.tracks...)
		spans := r.ring.Slice()
		tpus := r.ticksPerUS
		r.mu.Unlock()

		for _, p := range procs {
			sep()
			bw.WriteString(`{"ph":"M","pid":`)
			bw.WriteString(strconv.FormatInt(int64(p.id), 10))
			bw.WriteString(`,"tid":0,"name":"process_name","args":{"name":`)
			writeJSONString(bw, p.name)
			bw.WriteString(`}}`)
		}
		for _, t := range tracks {
			sep()
			bw.WriteString(`{"ph":"M","pid":`)
			bw.WriteString(strconv.FormatInt(int64(t.proc), 10))
			bw.WriteString(`,"tid":`)
			bw.WriteString(strconv.FormatInt(int64(t.id), 10))
			bw.WriteString(`,"name":"thread_name","args":{"name":`)
			writeJSONString(bw, t.name)
			bw.WriteString(`}}`)
		}
		for i := range spans {
			s := &spans[i]
			sep()
			switch s.Kind {
			case KindSpan:
				bw.WriteString(`{"ph":"X","pid":`)
				writeIDs(bw, s)
				bw.WriteString(`,"ts":`)
				writeTS(bw, s.Start, tpus)
				bw.WriteString(`,"dur":`)
				writeTS(bw, s.Dur, tpus)
			case KindInstant:
				bw.WriteString(`{"ph":"i","s":"t","pid":`)
				writeIDs(bw, s)
				bw.WriteString(`,"ts":`)
				writeTS(bw, s.Start, tpus)
			}
			bw.WriteString(`,"name":`)
			writeJSONString(bw, s.Name)
			if s.Cat != "" {
				bw.WriteString(`,"cat":`)
				writeJSONString(bw, s.Cat)
			}
			if s.Arg >= 0 {
				bw.WriteString(`,"args":{"v":`)
				bw.WriteString(strconv.FormatInt(s.Arg, 10))
				bw.WriteString(`}`)
			}
			bw.WriteString(`}`)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

func writeIDs(bw *bufio.Writer, s *Span) {
	bw.WriteString(strconv.FormatInt(int64(s.Proc), 10))
	bw.WriteString(`,"tid":`)
	bw.WriteString(strconv.FormatInt(int64(s.Track), 10))
}

// writeTS formats ticks as microseconds: integer µs when exact,
// otherwise with up to three fractional digits (ticksPerUS is 1 or
// 1000 in this repository), trailing zeros trimmed. Ticks are never
// negative: local spans are measured forward from the recorder's epoch,
// and MergeRemote rejects remote spans that are not.
func writeTS(bw *bufio.Writer, ticks, tpus int64) {
	ns := ticks * (1000 / tpus) // exact for tpus in {1, 1000}
	us, rem := ns/1000, ns%1000
	bw.WriteString(strconv.FormatInt(us, 10))
	if rem == 0 {
		return
	}
	frac := strconv.FormatInt(rem+1000, 10)[1:] // zero-padded 3 digits
	for len(frac) > 0 && frac[len(frac)-1] == '0' {
		frac = frac[:len(frac)-1]
	}
	bw.WriteByte('.')
	bw.WriteString(frac)
}

func writeJSONString(bw *bufio.Writer, s string) {
	b, err := json.Marshal(s) // string escaping is deterministic
	if err != nil {
		panic("trace: encode string: " + err.Error())
	}
	bw.Write(b)
}
