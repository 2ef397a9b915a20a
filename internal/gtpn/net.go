package gtpn

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// PlaceID identifies a place within a Net.
type PlaceID int

// TransID identifies a transition within a Net.
type TransID int

// View gives frequency functions read access to the state in which they
// are evaluated: the current marking and the multiset of in-flight
// (currently firing) transitions.
type View interface {
	// Tokens reports the number of tokens currently in place p.
	Tokens(p PlaceID) int
	// Firing reports how many firings of transition t are in flight.
	Firing(t TransID) int
}

// FreqFunc computes the firing weight of a transition in a given state.
// A non-positive weight disables the transition in that state.
type FreqFunc func(v View) float64

// Const returns a state-independent frequency.
func Const(w float64) FreqFunc {
	return func(View) float64 { return w }
}

// If returns a frequency that is then when cond holds and otherwise
// otherwise, mirroring the thesis notation "<expr> -> a, b".
func If(cond func(v View) bool, then, otherwise float64) FreqFunc {
	return func(v View) float64 {
		if cond(v) {
			return then
		}
		return otherwise
	}
}

// Place is a node of the net holding tokens.
type Place struct {
	Name    string
	Initial int
}

// Transition is an event of the net. In and Out are multisets of places
// expressed by repetition.
type Transition struct {
	Name     string
	In       []PlaceID
	Out      []PlaceID
	Delay    int
	Freq     FreqFunc
	Resource string
	// FreqKey, when non-empty, is a canonical description of Freq. It is
	// what lets two separately built nets compare equal: the net signature
	// (see Signature) covers structure, delays, initial marking, and these
	// keys. A transition whose frequency was set through the opaque Freq
	// setter has no key, which makes the whole net uncacheable.
	FreqKey string
	// ShapeKey, when non-empty, is a canonical description of Freq's
	// support — the set of states in which it returns a positive weight —
	// without the weight values themselves. It is deliberately coarser
	// than FreqKey: two nets that differ only in positive weights share
	// shape keys, and therefore (see ShapeSignature) the same reachable
	// state set and chain skeleton, which is what lets the sweep engine
	// reuse one point's reachability graph for the next.
	ShapeKey string
}

// Net is an immutable Generalized Timed Petri Net.
type Net struct {
	places []Place
	trans  []Transition

	// inCount[t][p] and outCount[t][p] are dense multiplicity tables.
	inCount  [][]int32
	outCount [][]int32
	// sparse input lists for the enabling test.
	inList [][]placeMult
	// maxDelay across transitions.
	maxDelay int
	// firingOffset[t] is the index of transition t's first remaining-time
	// bucket in the flattened firing vector; transition t with Delay d
	// owns buckets firingOffset[t] .. firingOffset[t]+d-1, where bucket i
	// counts firings with remaining time i+1. Zero-delay transitions own
	// no buckets.
	firingOffset []int
	firingLen    int

	// sigOnce computes both signatures on first use: an uncached solve
	// never reads them. A frozen Net is otherwise immutable, so it may be
	// solved and simulated concurrently.
	sigOnce sync.Once
	// sig is the canonical net signature; sigOK reports whether every
	// transition carried a frequency key.
	sig   string
	sigOK bool
	// shapeSig is the support-only analogue of sig (see ShapeSignature);
	// shapeOK reports whether every transition carried a shape key.
	shapeSig string
	shapeOK  bool
}

type placeMult struct {
	p PlaceID
	m int32
}

// NumPlaces reports the number of places in the net.
func (n *Net) NumPlaces() int { return len(n.places) }

// NumTransitions reports the number of transitions in the net.
func (n *Net) NumTransitions() int { return len(n.trans) }

// PlaceName reports the name of place p.
func (n *Net) PlaceName(p PlaceID) string { return n.places[p].Name }

// TransName reports the name of transition t.
func (n *Net) TransName(t TransID) string { return n.trans[t].Name }

// PlaceByName looks a place up by name.
func (n *Net) PlaceByName(name string) (PlaceID, bool) {
	for i, p := range n.places {
		if p.Name == name {
			return PlaceID(i), true
		}
	}
	return 0, false
}

// TransByName looks a transition up by name.
func (n *Net) TransByName(name string) (TransID, bool) {
	for i, t := range n.trans {
		if t.Name == name {
			return TransID(i), true
		}
	}
	return 0, false
}

// Resources reports the distinct resource tags used in the net, sorted.
func (n *Net) Resources() []string {
	seen := map[string]bool{}
	for _, t := range n.trans {
		if t.Resource != "" {
			seen[t.Resource] = true
		}
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// initialMarking returns a fresh copy of the net's initial marking.
func (n *Net) initialMarking() []int32 {
	m := make([]int32, len(n.places))
	for i, p := range n.places {
		m[i] = int32(p.Initial)
	}
	return m
}

// Builder assembles a Net.
type Builder struct {
	places []Place
	trans  []*TransitionBuilder
	names  map[string]bool
	errs   []error
}

// NewBuilder returns an empty net builder.
func NewBuilder() *Builder {
	return &Builder{names: map[string]bool{}}
}

// Place adds a place with the given name and initial token count and
// returns its id.
func (b *Builder) Place(name string, initial int) PlaceID {
	if b.names["p:"+name] {
		b.errs = append(b.errs, fmt.Errorf("gtpn: duplicate place %q", name))
	}
	b.names["p:"+name] = true
	if initial < 0 {
		b.errs = append(b.errs, fmt.Errorf("gtpn: place %q has negative initial marking %d", name, initial))
	}
	b.places = append(b.places, Place{Name: name, Initial: initial})
	return PlaceID(len(b.places) - 1)
}

// Transition starts the definition of a transition. Attributes are set on
// the returned TransitionBuilder; defaults are Delay 0 and Freq Const(1).
func (b *Builder) Transition(name string) *TransitionBuilder {
	if b.names["t:"+name] {
		b.errs = append(b.errs, fmt.Errorf("gtpn: duplicate transition %q", name))
	}
	b.names["t:"+name] = true
	tb := &TransitionBuilder{t: Transition{Name: name, Freq: Const(1), FreqKey: constKey(1), ShapeKey: constShapeKey(1)}}
	b.trans = append(b.trans, tb)
	return tb
}

// TransitionBuilder configures a single transition fluently.
type TransitionBuilder struct {
	t Transition
}

// From appends input places (repetition expresses multiplicity).
func (tb *TransitionBuilder) From(ps ...PlaceID) *TransitionBuilder {
	tb.t.In = append(tb.t.In, ps...)
	return tb
}

// To appends output places (repetition expresses multiplicity).
func (tb *TransitionBuilder) To(ps ...PlaceID) *TransitionBuilder {
	tb.t.Out = append(tb.t.Out, ps...)
	return tb
}

// Delay sets the deterministic firing duration in ticks.
func (tb *TransitionBuilder) Delay(d int) *TransitionBuilder {
	tb.t.Delay = d
	return tb
}

// Freq sets the firing-weight function. The function is opaque, so the
// transition loses its frequency and shape keys and the net becomes
// invisible to the solve cache and the sweep engine's graph reuse;
// prefer FreqConst or FreqKeyed when the frequency has a canonical
// description.
func (tb *TransitionBuilder) Freq(f FreqFunc) *TransitionBuilder {
	tb.t.Freq = f
	tb.t.FreqKey = ""
	tb.t.ShapeKey = ""
	return tb
}

// FreqConst sets a state-independent firing weight and keys it so the
// net stays eligible for the solve cache. Its shape key records only
// whether the weight is positive: any two positive constants enable the
// transition in exactly the same states.
func (tb *TransitionBuilder) FreqConst(w float64) *TransitionBuilder {
	tb.t.setConst(w)
	return tb
}

// setConst gives t the constant frequency w and its keys.
func (t *Transition) setConst(w float64) {
	t.Freq = Const(w)
	t.FreqKey = constKey(w)
	t.ShapeKey = constShapeKey(w)
}

// FreqKeyed sets the firing-weight function together with a canonical
// key. The caller guarantees that any two nets with equal structural
// signatures and equal keys evaluate f identically in every state; under
// that contract the solve cache may reuse one net's solution for the
// other. The shape key defaults to the frequency key — identical
// frequencies trivially share a support — so keyed nets stay eligible
// for graph reuse at least across repeats; use FreqKeyedShape to widen
// reuse across weight-only variations.
func (tb *TransitionBuilder) FreqKeyed(key string, f FreqFunc) *TransitionBuilder {
	tb.t.Freq = f
	tb.t.FreqKey = "k:" + key
	tb.t.ShapeKey = tb.t.FreqKey
	return tb
}

// FreqKeyedShape is FreqKeyed with an explicit support key. The caller
// guarantees, beyond the FreqKeyed contract, that any two nets with
// equal shape signatures and equal shape keys have frequencies that are
// positive in exactly the same states — the weights may differ, the
// support may not. Under that contract the sweep engine may reuse one
// net's reachability graph (states, successor and completion skeletons)
// for the other, rebuilding only the edge weights.
func (tb *TransitionBuilder) FreqKeyedShape(key, shapeKey string, f FreqFunc) *TransitionBuilder {
	tb.t.Freq = f
	tb.t.FreqKey = "k:" + key
	tb.t.ShapeKey = "s:" + shapeKey
	return tb
}

// constKey is the canonical frequency key of Const(w). The hex float
// form is exact, so two weights key equal iff they are the same float64.
func constKey(w float64) string {
	var buf [32]byte
	return string(strconv.AppendFloat(append(buf[:0], "c:"...), w, 'x', -1, 64))
}

// constShapeKey is the canonical shape key of Const(w): a positive
// constant enables everywhere its inputs are marked, a non-positive one
// nowhere.
func constShapeKey(w float64) string {
	if w > 0 {
		return "c:+"
	}
	return "c:0"
}

// Resource tags the transition with a named resource; the solver reports
// the time-averaged number of in-flight firings per resource.
func (tb *TransitionBuilder) Resource(r string) *TransitionBuilder {
	tb.t.Resource = r
	return tb
}

// Build validates the net and freezes it.
func (b *Builder) Build() (*Net, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.places) == 0 {
		return nil, fmt.Errorf("gtpn: net has no places")
	}
	if len(b.trans) == 0 {
		return nil, fmt.Errorf("gtpn: net has no transitions")
	}
	n := &Net{places: append([]Place(nil), b.places...)}
	for _, tb := range b.trans {
		t := tb.t
		if t.Delay < 0 {
			return nil, fmt.Errorf("gtpn: transition %q has negative delay %d", t.Name, t.Delay)
		}
		if len(t.In) == 0 {
			return nil, fmt.Errorf("gtpn: transition %q has no input places", t.Name)
		}
		for _, p := range append(append([]PlaceID(nil), t.In...), t.Out...) {
			if int(p) < 0 || int(p) >= len(n.places) {
				return nil, fmt.Errorf("gtpn: transition %q references unknown place %d", t.Name, p)
			}
		}
		n.trans = append(n.trans, t)
	}
	n.freeze()
	return n, nil
}

// MustBuild is Build that panics on error; for use in tests and in model
// constructors whose nets are statically known to be well-formed.
func (b *Builder) MustBuild() *Net {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}

// WithConstFreqs returns a copy of n in which transition ts[i] has the
// constant frequency ws[i], set and keyed as FreqConst sets it. It is
// the net a Builder would freeze from n's definition with those
// FreqConst calls, signatures included, without building one: the copy
// shares n's places and frozen tables, which never change, and owns
// only its transition list.
func (n *Net) WithConstFreqs(ts []TransID, ws []float64) *Net {
	c := &Net{
		places:       n.places,
		trans:        append([]Transition(nil), n.trans...),
		inCount:      n.inCount,
		outCount:     n.outCount,
		inList:       n.inList,
		maxDelay:     n.maxDelay,
		firingOffset: n.firingOffset,
		firingLen:    n.firingLen,
	}
	for i, t := range ts {
		c.trans[t].setConst(ws[i])
	}
	return c
}

func (n *Net) freeze() {
	np, nt := len(n.places), len(n.trans)
	n.inCount = make([][]int32, nt)
	n.outCount = make([][]int32, nt)
	n.inList = make([][]placeMult, nt)
	n.firingOffset = make([]int, nt)
	off := 0
	for i, t := range n.trans {
		in := make([]int32, np)
		out := make([]int32, np)
		for _, p := range t.In {
			in[p]++
		}
		for _, p := range t.Out {
			out[p]++
		}
		n.inCount[i] = in
		n.outCount[i] = out
		var lst []placeMult
		for p, m := range in {
			if m > 0 {
				lst = append(lst, placeMult{PlaceID(p), m})
			}
		}
		n.inList[i] = lst
		n.firingOffset[i] = off
		off += t.Delay
		if t.Delay > n.maxDelay {
			n.maxDelay = t.Delay
		}
	}
	n.firingLen = off
}

// computeSignature canonicalizes the frozen net, once, on the first
// Signature or ShapeSignature call: places with initial markings, then
// transitions with input/output multisets, delays, resources, and
// frequency keys. Two nets built independently but identically (the
// sweep-point and fixed-point case) produce equal signatures, which is
// what the solve cache keys on. The bytes must be what fmt prints for
// "p%q=%d;" per place and "t%q:i%v:o%v:d%d:r%q:f%q;" per transition,
// appended here with strconv because fmt dominated a fresh solve's CPU
// time: cache keys, and the hit counts the goldens record, depend on
// them (the tests pin them to referenceSignature).
func (n *Net) computeSignature() {
	buf := make([]byte, 0, 64*(len(n.places)+len(n.trans)))
	for _, p := range n.places {
		buf = append(buf, 'p')
		buf = strconv.AppendQuote(buf, p.Name)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, int64(p.Initial), 10)
		buf = append(buf, ';')
	}
	places := len(buf)
	buf, n.sigOK = n.appendTransitions(buf, false)
	if n.sigOK {
		n.sig = string(buf)
	}
	buf, n.shapeOK = n.appendTransitions(buf[:places], true)
	if n.shapeOK {
		n.shapeSig = string(buf)
	}
}

// appendTransitions appends every transition's signature term, keyed by
// its shape key when shape is set and by its frequency key otherwise.
// It stops and reports false at the first transition without that key.
func (n *Net) appendTransitions(dst []byte, shape bool) ([]byte, bool) {
	for i := range n.trans {
		t := &n.trans[i]
		key := t.FreqKey
		if shape {
			key = t.ShapeKey
		}
		if key == "" {
			return dst, false
		}
		dst = append(dst, 't')
		dst = strconv.AppendQuote(dst, t.Name)
		dst = append(dst, ":i"...)
		dst = appendPlaceIDs(dst, t.In)
		dst = append(dst, ":o"...)
		dst = appendPlaceIDs(dst, t.Out)
		dst = append(dst, ":d"...)
		dst = strconv.AppendInt(dst, int64(t.Delay), 10)
		dst = append(dst, ":r"...)
		dst = strconv.AppendQuote(dst, t.Resource)
		dst = append(dst, ":f"...)
		dst = strconv.AppendQuote(dst, key)
		dst = append(dst, ';')
	}
	return dst, true
}

// appendPlaceIDs appends ids the way %v prints them: "[0 2 2]".
func appendPlaceIDs(dst []byte, ids []PlaceID) []byte {
	dst = append(dst, '[')
	for i, p := range ids {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(p), 10)
	}
	return append(dst, ']')
}

// Signature reports the canonical net signature, and whether one exists:
// a net containing a transition with an opaque frequency function (no
// FreqKey) has no signature and is never cached.
func (n *Net) Signature() (string, bool) {
	n.sigOnce.Do(n.computeSignature)
	return n.sig, n.sigOK
}

// ShapeSignature reports the canonical net shape: the full structural
// signature (places, initial marking, input/output multisets, delays,
// resources) with every frequency reduced to its support key. Two nets
// with equal shape signatures have identical reachable state sets and
// identical chain skeletons — the same states in the same discovery
// order with the same successor and completion structure — differing
// only in edge weights, which is the precondition for the sweep
// engine's graph reuse. A net containing a transition without a shape
// key has no shape signature and is never shape-matched.
func (n *Net) ShapeSignature() (string, bool) {
	n.sigOnce.Do(n.computeSignature)
	return n.shapeSig, n.shapeOK
}
