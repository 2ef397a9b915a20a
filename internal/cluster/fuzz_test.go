package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/service"
)

// FuzzControlPlane posts arbitrary bodies to the control-plane endpoints
// through Node.Handler(). Nothing may panic and every answer is a 200 or
// a 400 with a JSON body. A 400 leaves the member set, the epoch and the
// response cache as they were; a 200 changes the member set by at most
// one member; and replicate stores nothing for a key whose replica set
// leaves the node out.
func FuzzControlPlane(f *testing.F) {
	const self = "http://n0.test"
	peers := []string{"http://n1.test", "http://n2.test"}
	paths := [...]string{"/cluster/v1/join", "/cluster/v1/leave", "/cluster/v1/replicate"}

	// Seed replicate with one key on self's replica set and one off it.
	ring := BuildRing(append([]string{self}, peers...))
	var on, off string
	for i := 0; on == "" || off == ""; i++ {
		k := "solve|k=" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		if slices.Contains(ring.Replicas(k, 2), self) {
			on = k
		} else {
			off = k
		}
	}
	for _, seed := range []struct {
		path uint8
		body string
	}{
		{0, `{"node":"http://n3.test"}`},
		{0, `{"node":"http://n1.test"}`},
		{0, `{"node":"http://n3.test","extra":1}`},
		{0, `{}`},
		{1, `{"node":"http://n1.test"}`},
		{1, `{"node":"http://n0.test"}`},
		{1, `{"node":"http://n9.test"}`},
		{2, `{"key":"` + on + `","body":"{\"x\":1}\n"}`},
		{2, `{"key":"` + off + `","body":"{\"x\":1}\n"}`},
		{2, `{"key":"k","body":""}`},
		{2, `not json`},
	} {
		f.Add(seed.path, []byte(seed.body))
	}

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		node, err := New(Config{Self: self, Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		srv := service.New(service.Config{Cluster: node})
		node.Bind(srv)
		path := paths[int(which)%len(paths)]
		// The handler decodes strictly; a lenient decode names the same
		// key whenever the strict one succeeds.
		var q struct {
			Key string `json:"key"`
		}
		_ = json.NewDecoder(bytes.NewReader(body)).Decode(&q)
		onReplicaSet := slices.Contains(node.ReplicasOf(q.Key), self)
		members, epoch, cache := node.Members(), node.Epoch(), srv.RespCache().Stats()

		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))

		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("POST %s %q answered %d", path, body, rec.Code)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("POST %s %q answered a non-JSON body %q", path, body, rec.Body.Bytes())
		}
		after := node.Members()
		if rec.Code == http.StatusBadRequest &&
			(!slices.Equal(after, members) || node.Epoch() != epoch || srv.RespCache().Stats() != cache) {
			t.Fatalf("POST %s %q answered 400 but changed state: members %v -> %v, epoch %d -> %d, cache %+v -> %+v",
				path, body, members, after, epoch, node.Epoch(), cache, srv.RespCache().Stats())
		}
		if changed := len(after) + len(members) - 2*countShared(after, members); changed > 1 {
			t.Fatalf("POST %s %q changed %d members: %v -> %v", path, body, changed, members, after)
		}
		if path == paths[2] && !onReplicaSet && srv.RespCache().Stats().Stores != cache.Stores {
			t.Fatalf("replicate stored key %q off its replica set %v", q.Key, node.ReplicasOf(q.Key))
		}
	})
}

// countShared counts the members two sorted member lists share.
func countShared(a, b []string) int {
	n := 0
	for _, m := range a {
		if _, ok := slices.BinarySearch(b, m); ok {
			n++
		}
	}
	return n
}
