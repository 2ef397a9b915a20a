package cluster

import (
	"context"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// The health prober: each node periodically GETs every peer's /healthz
// and feeds the outcome into a per-peer obs.PeerHealth hysteresis state
// machine. Reachability is the question — any HTTP answer (even a
// draining 503) is a success, only a transport error or timeout is a
// failure — because the forwarding tier wants to know "will a dial
// succeed", not "is the peer accepting work" (a draining peer still
// answers forwards during its handoff window). The forwarding path
// consults the resulting state to skip known-unreachable owners
// proactively: local compute is byte-identical and costs no dial
// timeout. State transitions land in the event journal.

// StartProber runs the probe loop until ctx is done. ipcd starts it as
// a goroutine; every <= 0 disables probing entirely (the health map
// stays empty and every peer counts as healthy).
func (n *Node) StartProber(ctx context.Context, every time.Duration) {
	if every <= 0 {
		return
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			n.ProbeOnce(ctx)
		}
	}
}

// ProbeOnce probes every current peer once, in sorted member order.
// Exported so tests (and the loop above) drive probe rounds
// deterministically.
func (n *Node) ProbeOnce(ctx context.Context) {
	for _, m := range n.Members() {
		if m == n.self {
			continue
		}
		n.probePeer(ctx, m)
	}
}

// probeTimeout bounds one health probe.
const probeTimeout = 2 * time.Second

func (n *Node) probePeer(ctx context.Context, peer string) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	t0 := time.Now()
	var probeErr error
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		probeErr = err
	} else if resp, err := n.cfg.Client.Do(req); err != nil {
		probeErr = err
	} else {
		// Drain the small body so the pooled connection is reusable.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}
	rttUS := time.Since(t0).Microseconds()
	nowMS := time.Now().UnixMilli()

	n.healthMu.Lock()
	ph := n.health[peer]
	if ph == nil {
		ph = obs.NewPeerHealth()
		n.health[peer] = ph
	}
	var from, to obs.PeerState
	var changed bool
	if probeErr != nil {
		from, to, changed = ph.ObserveFailure(nowMS, probeErr.Error())
	} else {
		from, to, changed = ph.ObserveSuccess(nowMS, rttUS)
	}
	n.healthMu.Unlock()
	if changed {
		n.journal.Record(obs.EventPeerHealth, peer, from.String()+"->"+to.String())
	}
}

// peerUnreachable reports whether the prober currently believes peer is
// unreachable. An unprobed peer (no prober running, or a fresh member)
// is healthy — skipping must be earned by consecutive failed probes.
func (n *Node) peerUnreachable(peer string) bool {
	n.healthMu.Lock()
	defer n.healthMu.Unlock()
	ph := n.health[peer]
	return ph != nil && ph.State() == obs.Unreachable
}

// HealthSnapshot implements service.ClusterRouter: one entry per
// current peer, in sorted member order. unix_ms is the peer's last
// state transition, giving the cluster merge its timeline ordering.
func (n *Node) HealthSnapshot() []map[string]any {
	members := n.Members()
	out := make([]map[string]any, 0, len(members))
	n.healthMu.Lock()
	defer n.healthMu.Unlock()
	for _, m := range members {
		if m == n.self {
			continue
		}
		var snap obs.PeerHealthSnapshot // an unprobed peer: healthy, no probes
		if ph := n.health[m]; ph != nil {
			snap = ph.Snapshot()
		}
		out = append(out, map[string]any{
			"peer":          m,
			"state":         snap.State.String(),
			"rtt_ewma_us":   snap.RTTEWMAUS,
			"probes":        snap.Probes,
			"failures":      snap.Failures,
			"consec_fails":  int64(snap.ConsecFails),
			"unix_ms":       snap.LastChangeMS,
			"last_probe_ms": snap.LastProbeMS,
			"last_err":      snap.LastErr,
		})
	}
	return out
}
