package service

import (
	"encoding/json"
	"math"
	"sort"
)

// Cluster-scoped observability. The cluster tier's one transport method
// (ClusterRouter.FanOut) collects every member's LOCAL-scope body for a
// path — this node's own body is passed in, never fetched, so a merge
// can neither recurse through the cluster nor count itself — and the
// merges below, which own the body formats, build the ?scope=cluster
// views. Ordering is deterministic: members in sorted order, timeline
// entries by (unix_ms, node, per-node sequence), so a merge over
// unchanged bodies is byte-identical. Peer bodies are untrusted bytes:
// a member whose body is missing or does not decode into an object is
// reported unreachable, never merged.

// Fanout is one cluster-wide collection of an observability path.
type Fanout struct {
	Self    string            // this node's member URL
	Members []string          // every member, sorted
	Bodies  map[string][]byte // each reachable member's local-scope body
}

// decode parses each member's body in member order, splitting the
// members into the decoded and the unreachable.
func (f Fanout) decode() (nodes []string, docs []map[string]any, unreachable []string) {
	unreachable = []string{}
	for _, m := range f.Members {
		var doc map[string]any
		if body, ok := f.Bodies[m]; !ok || json.Unmarshal(body, &doc) != nil {
			unreachable = append(unreachable, m)
			continue
		}
		nodes = append(nodes, m)
		docs = append(docs, doc)
	}
	return nodes, docs, unreachable
}

// mergeMetrics builds GET /metrics?scope=cluster: every reachable
// member's body under "nodes", and the families flagged summed added
// up across members under "totals". (Counter aggregation observes its
// own collection: the fan-out's GETs are requests the members count.)
func mergeMetrics(f Fanout, epoch int64) []byte {
	nodes, docs, unreachable := f.decode()
	byNode := make(map[string]any, len(nodes))
	totals := map[string]any{}
	for i := range families {
		fam := &families[i]
		if fam.flags&summed == 0 {
			continue
		}
		var sum float64
		for _, doc := range docs {
			sec, _ := doc[fam.section].(map[string]any)
			// A hostile body could push the sum past float64; the total
			// then skips it rather than become unencodable.
			if v, ok := sec[fam.key].(float64); ok && !math.IsInf(sum+v, 0) {
				sum += v
			}
		}
		totals[fam.totalName()] = sum
	}
	for i, m := range nodes {
		byNode[m] = docs[i]
	}
	return marshalDet(map[string]any{
		"epoch":       epoch,
		"members":     f.Members,
		"nodes":       byNode,
		"self":        f.Self,
		"totals":      totals,
		"unreachable": unreachable,
	})
}

// mergeTimelines builds the ?scope=cluster view of a timeline route:
// every reachable member's doc[listKey] entries, tagged with their
// member and merged by MergeTimeline.
func mergeTimelines(f Fanout, listKey string) []byte {
	nodes, docs, unreachable := f.decode()
	return marshalDet(map[string]any{
		listKey:       MergeTimeline(listKey, nodes, docs),
		"members":     f.Members,
		"self":        f.Self,
		"unreachable": unreachable,
	})
}

// MergeTimeline merges per-node timelines: the object entries of each
// docs[i][listKey] are tagged "node": nodes[i] and ordered by (unix_ms,
// node, position in the node's list), so the merged view is
// deterministic for unchanged inputs even though node clocks are
// unrelated. Entries without a numeric unix_ms sort at 0; entries that
// are not objects are dropped. ipcd's ?scope=cluster views and ipctop's
// fleet journal both merge through it.
func MergeTimeline(listKey string, nodes []string, docs []map[string]any) []any {
	type tagged struct {
		unixMS float64
		node   string
		seq    int
		entry  map[string]any
	}
	var merged []tagged
	for i, doc := range docs {
		entries, _ := doc[listKey].([]any)
		for seq, e := range entries {
			em, ok := e.(map[string]any)
			if !ok {
				continue
			}
			em["node"] = nodes[i]
			ts, _ := em["unix_ms"].(float64)
			merged = append(merged, tagged{unixMS: ts, node: nodes[i], seq: seq, entry: em})
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].unixMS != merged[j].unixMS {
			return merged[i].unixMS < merged[j].unixMS
		}
		if merged[i].node != merged[j].node {
			return merged[i].node < merged[j].node
		}
		return merged[i].seq < merged[j].seq
	})
	out := make([]any, 0, len(merged))
	for _, t := range merged {
		out = append(out, t.entry)
	}
	return out
}
