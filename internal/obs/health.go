package obs

// The peer-health state machine. A prober feeds it one observation per
// probe (success with an RTT, or failure with a reason) and it runs the
// healthy → degraded → unreachable ladder with consecutive-count
// hysteresis, so a single dropped probe never flips routing and a
// single lucky probe never un-flips a dead peer. The machine holds no
// lock and no clock: callers pass timestamps in and synchronize around
// it, which keeps transitions deterministic under test.

// PeerState is a peer's health as seen from one node.
type PeerState uint8

const (
	// Healthy: probes answer. The forwarding tier routes normally.
	Healthy PeerState = iota
	// Degraded: degradedAfter consecutive probes failed. Forwards still
	// go out (the dial may well succeed — probe loss can be transient),
	// but operators see the state and the journal records the crossing.
	Degraded
	// Unreachable: unreachableAfter consecutive probes failed. The
	// forwarding tier skips this peer proactively — local compute is
	// byte-identical and costs no dial timeout.
	Unreachable
)

var peerStateNames = [...]string{"healthy", "degraded", "unreachable"}

func (s PeerState) String() string {
	if int(s) < len(peerStateNames) {
		return peerStateNames[s]
	}
	return "unknown"
}

// The hysteresis ladder.
const (
	degradedAfter    = 2 // consecutive failures before healthy → degraded
	unreachableAfter = 4 // consecutive failures before → unreachable
	healthyAfter     = 2 // consecutive successes before → healthy
)

// PeerHealth tracks one peer. Not internally synchronized — the owner
// (the cluster prober) serializes observations.
type PeerHealth struct {
	state        PeerState
	fails        int // consecutive failures
	oks          int // consecutive successes
	rttEWMAUS    int64
	probes       int64
	failures     int64
	lastChangeMS int64
	lastProbeMS  int64
	lastErr      string
}

// NewPeerHealth creates a tracker in the Healthy state.
func NewPeerHealth() *PeerHealth { return &PeerHealth{} }

// ObserveSuccess records one answered probe with its round-trip time.
// It reports the transition the observation caused, if any.
func (p *PeerHealth) ObserveSuccess(nowMS, rttUS int64) (from, to PeerState, changed bool) {
	p.probes++
	p.lastProbeMS = nowMS
	p.lastErr = ""
	p.fails = 0
	p.oks++
	// Integer EWMA with alpha = 1/8: steady under jitter, converged
	// within a handful of probes, and allocation- and float-free.
	if p.rttEWMAUS == 0 {
		p.rttEWMAUS = rttUS
	} else {
		p.rttEWMAUS = (7*p.rttEWMAUS + rttUS) / 8
	}
	from = p.state
	if p.state != Healthy && p.oks >= healthyAfter {
		p.state = Healthy
		p.lastChangeMS = nowMS
		return from, Healthy, true
	}
	return from, p.state, false
}

// ObserveFailure records one failed probe (transport error or timeout)
// and reports the transition it caused, if any.
func (p *PeerHealth) ObserveFailure(nowMS int64, errMsg string) (from, to PeerState, changed bool) {
	p.probes++
	p.failures++
	p.lastProbeMS = nowMS
	p.lastErr = errMsg
	p.oks = 0
	p.fails++
	from = p.state
	next := p.state
	switch {
	case p.fails >= unreachableAfter:
		next = Unreachable
	case p.fails >= degradedAfter:
		next = Degraded
	}
	// The ladder only descends on failures: a degraded peer cannot pop
	// back to healthy except through ObserveSuccess.
	if next > p.state {
		p.state = next
		p.lastChangeMS = nowMS
		return from, next, true
	}
	return from, p.state, false
}

// State reports the current state.
func (p *PeerHealth) State() PeerState { return p.state }

// PeerHealthSnapshot is a peer's health rendered for /debug/health.
type PeerHealthSnapshot struct {
	State        PeerState
	RTTEWMAUS    int64
	Probes       int64
	Failures     int64
	ConsecFails  int
	LastChangeMS int64
	LastProbeMS  int64
	LastErr      string
}

// Snapshot copies the current state for rendering.
func (p *PeerHealth) Snapshot() PeerHealthSnapshot {
	return PeerHealthSnapshot{
		State:        p.state,
		RTTEWMAUS:    p.rttEWMAUS,
		Probes:       p.probes,
		Failures:     p.failures,
		ConsecFails:  p.fails,
		LastChangeMS: p.lastChangeMS,
		LastProbeMS:  p.lastProbeMS,
		LastErr:      p.lastErr,
	}
}
