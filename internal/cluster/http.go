package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"

	"repro/internal/service"
)

// The cluster control plane: a handful of JSON endpoints served beside
// the node's serving mux. They are intentionally outside the service
// layer's instrumentation — membership and replication must keep
// working while the node drains, exactly like the observability
// endpoints, or a draining node could never hand its slots off.
//
//	POST /cluster/v1/join       {"node": url}  add a member; returns the member set
//	POST /cluster/v1/leave      {"node": url}  remove a member; returns the member set
//	POST /cluster/v1/replicate  {"key", "body"} store a replicated response (replica set only)
//	GET  /cluster/v1/members    the member set, epoch, and self

// Handler serves the cluster endpoints beside the bound server's own
// handler. Serve this on the cluster listener (or the main one when the
// two are shared). Only /cluster/ paths reach the control mux, whose
// "/" fallback passes any path it does not match on to the service mux.
// Every other request — client traffic and forwarded /v1/* alike — goes
// straight to the service mux, so it pays one pattern match, as on a
// single node.
func (n *Node) Handler() http.Handler {
	if n.local == nil {
		panic("cluster: Handler called before Bind")
	}
	svc := n.local.Handler()
	ctl := http.NewServeMux()
	ctl.HandleFunc("POST /cluster/v1/join", n.handleJoin)
	ctl.HandleFunc("POST /cluster/v1/leave", n.handleLeave)
	ctl.HandleFunc("POST /cluster/v1/replicate", n.handleReplicate)
	ctl.HandleFunc("GET /cluster/v1/members", n.handleMembers)
	ctl.Handle("/", svc)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/cluster/") {
			ctl.ServeHTTP(w, r)
			return
		}
		svc.ServeHTTP(w, r)
	})
}

// decodeJSON strictly decodes one JSON value.
func decodeJSON(raw []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// readBody reads a bounded control-plane request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPeerBody))
	if err != nil {
		writeJSONErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return nil, false
	}
	return raw, true
}

func writeJSON(w http.ResponseWriter, status int, body map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(service.MarshalDeterministic(body))
}

func writeJSONErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg})
}

// membershipBody answers join/leave/members requests: one coherent view
// of the member set.
func (n *Node) membershipBody() map[string]any {
	return map[string]any{
		"self":    n.self,
		"epoch":   n.Epoch(),
		"members": n.Members(),
	}
}

func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBody(w, r)
	if !ok {
		return
	}
	var q struct {
		Node string `json:"node"`
	}
	if err := decodeJSON(raw, &q); err != nil || q.Node == "" {
		writeJSONErr(w, http.StatusBadRequest, "join wants {\"node\": url}")
		return
	}
	n.AddMember(q.Node)
	writeJSON(w, http.StatusOK, n.membershipBody())
}

func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBody(w, r)
	if !ok {
		return
	}
	var q struct {
		Node string `json:"node"`
	}
	if err := decodeJSON(raw, &q); err != nil || q.Node == "" {
		writeJSONErr(w, http.StatusBadRequest, "leave wants {\"node\": url}")
		return
	}
	n.RemoveMember(q.Node)
	writeJSON(w, http.StatusOK, n.membershipBody())
}

func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBody(w, r)
	if !ok {
		return
	}
	var q struct {
		Key  string `json:"key"`
		Body string `json:"body"`
	}
	if err := decodeJSON(raw, &q); err != nil || q.Key == "" || q.Body == "" {
		writeJSONErr(w, http.StatusBadRequest, "replicate wants {\"key\", \"body\"}")
		return
	}
	// Only a member of the key's replica set stores a push. Held peer
	// bytes answer at every non-owner, so a push stored anywhere would
	// let one POST from the public listener answer the key fleet-wide.
	// The push lands as peer bytes: the key's owner never serves them,
	// and a local compute of the key replaces them.
	stored := slices.Contains(n.ReplicasOf(q.Key), n.self) &&
		n.local.RespCache().PutReplica(q.Key, []byte(q.Body))
	if stored {
		n.counts[cReplicaStores].Add(1)
	}
	writeJSON(w, http.StatusOK, map[string]any{"stored": stored})
}

func (n *Node) handleMembers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, n.membershipBody())
}
