// Command ipctop is a terminal fleet dashboard for ipcd: it polls every
// -targets node's /metrics, /debug/health and /debug/events, and renders
// a refreshing per-node view — request totals and QPS, solve latency
// p50/p99, response-cache hit ratio, SLO burn rates, peer health — above
// the fleet's merged event journal.
//
// The poll fans out to each node's LOCAL scope and merges client-side
// through the same (unix_ms, node, seq) merge the cluster's own
// ?scope=cluster views use (service.MergeTimeline), so the dashboard works identically against one node, a
// full cluster, or a partial target list — and keeps working while
// members are down: a dead node renders as unreachable, it never blanks
// the view.
//
// Usage:
//
//	ipctop -targets http://n1:8080,http://n2:8080,http://n3:8080
//	ipctop -targets http://localhost:8080 -every 1s
//	ipctop -targets ... -once -json     one deterministic snapshot document
//
// -once -json prints a single machine-readable snapshot (deterministic
// encoding, nodes in target order, events merged) and exits — the form
// the tests and the CI smoke consume.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/service"
)

func main() {
	var (
		targets = flag.String("targets", "http://localhost:8080", "comma-separated ipcd base URLs, polled in order")
		every   = flag.Duration("every", 2*time.Second, "refresh interval")
		timeout = flag.Duration("timeout", 2*time.Second, "per-endpoint poll timeout")
		once    = flag.Bool("once", false, "poll once and exit instead of refreshing")
		asJSON  = flag.Bool("json", false, "print snapshots as deterministic JSON documents instead of the terminal view")
		events  = flag.Int("events", 10, "merged journal events shown in the terminal view")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ipctop: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	var list []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			list = append(list, strings.TrimRight(t, "/"))
		}
	}
	if len(list) == 0 {
		fmt.Fprintln(os.Stderr, "ipctop: -targets must name at least one URL")
		os.Exit(2)
	}
	client := &http.Client{Timeout: *timeout}

	var prev map[string]any
	var prevAt time.Time
	for {
		snap := collect(client, list)
		now := time.Now()
		if *asJSON {
			os.Stdout.Write(service.MarshalDeterministic(snap))
			os.Stdout.WriteString("\n")
		} else {
			render(os.Stdout, snap, prev, now.Sub(prevAt), *events, !*once)
		}
		if *once {
			return
		}
		prev, prevAt = snap, now
		time.Sleep(*every)
	}
}

// collect polls every target's local observability endpoints and builds
// one snapshot document: nodes in target order, the fleet's journals
// merged by (unix_ms, node, seq). The document is a pure function of the
// polled bodies, so a snapshot over unchanged nodes is byte-stable under
// the deterministic encoding.
func collect(client *http.Client, targets []string) map[string]any {
	var names []string
	var journals []map[string]any
	nodes := make([]any, 0, len(targets))
	unreachable := []string{}
	for _, target := range targets {
		metrics, errM := fetchJSON(client, target+"/metrics")
		health, errH := fetchJSON(client, target+"/debug/health")
		events, errE := fetchJSON(client, target+"/debug/events")
		if errM != nil || errH != nil || errE != nil {
			unreachable = append(unreachable, target)
			nodes = append(nodes, map[string]any{"target": target, "reachable": false})
			continue
		}
		name, _ := health["node"].(string)
		if name == "" {
			name = target
		}
		serving, _ := metrics["serving"].(map[string]any)
		nodes = append(nodes, map[string]any{
			"target":             target,
			"reachable":          true,
			"node":               name,
			"epoch":              health["epoch"],
			"requests_total":     num(serving, "requests_total"),
			"errors":             num(serving, "errors"),
			"in_flight":          num(serving, "in_flight"),
			"coalesced":          num(serving, "coalesced"),
			"solve_p50_us":       num(serving, "latency_us", "solve", "p50_us"),
			"solve_p99_us":       num(serving, "latency_us", "solve", "p99_us"),
			"resp_cache_hit_ppm": hitPPM(metrics),
			"slo":                objectives(metrics),
			"peers":              peerList(health),
			"events_in_journal":  journalLen(events),
		})
		names = append(names, name)
		journals = append(journals, events)
	}
	return map[string]any{
		"targets":     targets,
		"nodes":       nodes,
		"events":      service.MergeTimeline("events", names, journals),
		"unreachable": unreachable,
	}
}

// render paints one terminal frame: a per-node table, then the tail of
// the merged event journal. QPS needs two frames (a counter delta); the
// first frame and -once show "-".
func render(w io.Writer, snap, prev map[string]any, elapsed time.Duration, eventRows int, clear bool) {
	if clear {
		fmt.Fprint(w, "\x1b[2J\x1b[H")
	}
	fmt.Fprintf(w, "ipctop  %d node(s)\n\n", len(anyList(snap, "nodes")))
	fmt.Fprintf(w, "%-12s %-6s %10s %8s %9s %9s %6s %8s %-s\n",
		"NODE", "UP", "REQS", "QPS", "P50(us)", "P99(us)", "HIT%", "BURN1m", "PEERS")
	prevByTarget := map[string]map[string]any{}
	for _, n := range anyList(prev, "nodes") {
		if nm, ok := n.(map[string]any); ok {
			t, _ := nm["target"].(string)
			prevByTarget[t] = nm
		}
	}
	for _, n := range anyList(snap, "nodes") {
		nm, _ := n.(map[string]any)
		target, _ := nm["target"].(string)
		if up, _ := nm["reachable"].(bool); !up {
			fmt.Fprintf(w, "%-12s %-6s\n", target, "DOWN")
			continue
		}
		name, _ := nm["node"].(string)
		reqs := num(nm, "requests_total")
		qps := "-"
		if p := prevByTarget[target]; p != nil && elapsed > 0 {
			if d := reqs - num(p, "requests_total"); d >= 0 {
				qps = fmt.Sprintf("%.1f", d/elapsed.Seconds())
			}
		}
		hit := num(nm, "resp_cache_hit_ppm") / 10_000 // ppm -> percent
		fmt.Fprintf(w, "%-12s %-6s %10.0f %8s %9.0f %9.0f %5.1f%% %8s %-s\n",
			name, "ok", reqs, qps,
			num(nm, "solve_p50_us"), num(nm, "solve_p99_us"), hit,
			burn1m(nm), peerSummary(nm))
	}
	evs := anyList(snap, "events")
	if len(evs) > eventRows {
		evs = evs[len(evs)-eventRows:]
	}
	if len(evs) > 0 {
		fmt.Fprintf(w, "\nrecent events:\n")
		for _, e := range evs {
			em, _ := e.(map[string]any)
			fmt.Fprintf(w, "  %13.0f %-10s %-12s %s %s\n",
				num(em, "unix_ms"), em["node"], em["type"], em["subject"], em["detail"])
		}
	}
}

// burn1m reports the node's worst 1m burn rate across objectives, with a
// breach marker, or "-" when SLO tracking is off.
func burn1m(node map[string]any) string {
	worst, breached, have := 0.0, false, false
	for _, o := range anyList(node, "slo") {
		om, _ := o.(map[string]any)
		for _, win := range anyList(om, "windows") {
			wm, _ := win.(map[string]any)
			if wm["window"] != "1m" {
				continue
			}
			have = true
			if b := num(wm, "burn_milli"); b > worst {
				worst = b
			}
			if br, _ := wm["breached"].(bool); br {
				breached = true
			}
		}
	}
	if !have {
		return "-"
	}
	out := fmt.Sprintf("%.2fx", worst/1000)
	if breached {
		out += "!"
	}
	return out
}

// peerSummary renders "2/3 healthy" plus any non-healthy peers by state.
func peerSummary(node map[string]any) string {
	peers := anyList(node, "peers")
	if len(peers) == 0 {
		return "-"
	}
	healthy := 0
	var bad []string
	for _, p := range peers {
		pm, _ := p.(map[string]any)
		if st, _ := pm["state"].(string); st == "healthy" {
			healthy++
		} else {
			pr, _ := pm["peer"].(string)
			st, _ := pm["state"].(string)
			bad = append(bad, pr+"="+st)
		}
	}
	out := fmt.Sprintf("%d/%d healthy", healthy, len(peers))
	if len(bad) > 0 {
		out += " (" + strings.Join(bad, " ") + ")"
	}
	return out
}

// hitPPM derives the response-cache hit ratio in parts per million from
// a /metrics document (integer, so the snapshot encoding stays exact).
func hitPPM(metrics map[string]any) float64 {
	rc, _ := metrics["resp_cache"].(map[string]any)
	hits, misses := num(rc, "hits"), num(rc, "misses")
	if hits+misses == 0 {
		return 0
	}
	return float64(int64(hits * 1e6 / (hits + misses)))
}

// objectives extracts the /metrics SLO objective list (empty when
// tracking is disabled).
func objectives(metrics map[string]any) []any {
	slo, _ := metrics["slo"].(map[string]any)
	return anyList(slo, "objectives")
}

// peerList extracts a /debug/health document's peer rows.
func peerList(health map[string]any) []any { return anyList(health, "peers") }

// journalLen counts a /debug/events document's event rows.
func journalLen(events map[string]any) float64 {
	n := 0
	for _, e := range anyList(events, "events") {
		if _, ok := e.(map[string]any); ok {
			n++
		}
	}
	return float64(n)
}

// anyList reads doc[key] as a list, nil-safe on every level.
func anyList(doc map[string]any, key string) []any {
	if doc == nil {
		return nil
	}
	l, _ := doc[key].([]any)
	return l
}

// num walks nested objects and reads a float64 leaf, zero when any step
// is missing.
func num(doc map[string]any, keys ...string) float64 {
	cur := doc
	for i, k := range keys {
		if cur == nil {
			return 0
		}
		if i == len(keys)-1 {
			v, _ := cur[k].(float64)
			return v
		}
		cur, _ = cur[k].(map[string]any)
	}
	return 0
}

func fetchJSON(client *http.Client, url string) (map[string]any, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s answered %d", url, resp.StatusCode)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	return doc, nil
}
