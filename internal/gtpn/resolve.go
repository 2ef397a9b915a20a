package gtpn

import (
	"fmt"
	"math"
)

// resolver resolves instants — the zero-time cascades of firing starts
// between completions — on flat scratch buffers that are reused across
// calls. It is the allocation-free replacement for the original
// map[string]-keyed resolveInstant (retained in reference.go): nodes
// live in index-addressed arenas (configs in one flat []int32, the
// expected zero-delay firing counts in one flat []float64), the
// pending and final sets are wordTables over those arenas, and the
// worklist is a FIFO of node indices.
//
// The processing order is the exact order of the original
// implementation — nodes are created and popped in the same sequence,
// merges combine the same values with the same scale factors — so
// every floating-point result is bit-identical to the reference path.
// One resolver serves one graph construction; it is not safe for
// concurrent use. A graph keeps its resolver, so a reweight (see
// graph.reweight) rebinds it to the new net instead of making another.
type resolver struct {
	n  *Net
	w  int // words per configuration
	nt int // transitions

	// Node arenas, indexed by node id: configuration words at id*w,
	// zero-delay firing counts at id*nt.
	cfg    []int32
	fired  []float64
	prob   []float64
	popped []bool

	queue []int32 // FIFO of node ids, processed once each
	head  int
	pend  wordTable // live pending nodes keyed by configuration

	outs []int32   // representative node ids of the final outcomes, in first-final order
	fin  wordTable // final outcomes keyed by configuration

	// Per-step scratch.
	childCfg   []int32
	childFired []float64
	zeroFired  []float64
	candT      []int32
	candW      []float64

	// The view handed to frequency functions: vcfg is re-pointed at the
	// node under evaluation, and iview boxes a pointer to v, so neither a
	// Freq call nor a bind converts anything to an interface.
	vcfg  config
	v     view
	iview View
}

func newResolver(n *Net) *resolver {
	r := &resolver{n: n, w: len(n.places) + n.firingLen, nt: len(n.trans)}
	r.pend.init(r.w, &r.cfg, 64)
	r.fin.init(r.w, &r.cfg, 64)
	r.childCfg = make([]int32, r.w)
	r.childFired = make([]float64, r.nt)
	r.zeroFired = make([]float64, r.nt)
	r.v = view{n, &r.vcfg}
	r.iview = &r.v
	return r
}

// bind points the resolver at n, which must have r.n's configuration
// width and transition count: the scratch is sized for those alone.
func (r *resolver) bind(n *Net) {
	r.n = n
	r.v.n = n
}

// wrap adapts flat state words to the config layout (marking, then
// firing) without copying; mutations through the config mutate words.
func (n *Net) wrap(words []int32) config {
	np := len(n.places)
	return config{marking: words[:np], firing: words[np:]}
}

func (r *resolver) nodeCfg(id int32) []int32 {
	return r.cfg[int(id)*r.w : (int(id)+1)*r.w]
}

func (r *resolver) nodeFired(id int32) []float64 {
	return r.fired[int(id)*r.nt : (int(id)+1)*r.nt]
}

func (r *resolver) addNode(cfg []int32, fired []float64, p float64) int32 {
	id := int32(len(r.prob))
	r.cfg = append(r.cfg, cfg...)
	r.fired = append(r.fired, fired...)
	r.prob = append(r.prob, p)
	r.popped = append(r.popped, false)
	return id
}

// resolve computes the stable outcome distribution reachable from the
// configuration start carrying probability mass p. The outcomes are
// exposed through outs/prob/nodeFired and stay valid until the next
// call. start is copied; it may alias caller scratch.
func (r *resolver) resolve(start []int32, p float64) error {
	r.cfg = r.cfg[:0]
	r.fired = r.fired[:0]
	r.prob = r.prob[:0]
	r.popped = r.popped[:0]
	r.queue = r.queue[:0]
	r.head = 0
	r.outs = r.outs[:0]
	r.pend.reset()
	r.fin.reset()

	id := r.addNode(start, r.zeroFired, p)
	h := hashWords(start)
	r.pend.set(r.pend.probe(start, h), id, h)
	r.queue = append(r.queue, id)

	steps := 0
	for r.head < len(r.queue) {
		id := r.queue[r.head]
		r.head++
		r.popped[id] = true
		steps++
		if steps > maxResolutionSteps {
			return fmt.Errorf("gtpn: resolution did not stabilize after %d steps (zero-delay cycle?)", maxResolutionSteps)
		}

		cfg := r.nodeCfg(id)
		r.vcfg = r.n.wrap(cfg)
		r.candT = r.candT[:0]
		r.candW = r.candW[:0]
		var total float64
		for t := range r.n.trans {
			if !r.n.enabled(&r.vcfg, t) {
				continue
			}
			w := r.n.trans[t].Freq(r.iview)
			if w > 0 && !math.IsInf(w, 0) && !math.IsNaN(w) {
				r.candT = append(r.candT, int32(t))
				r.candW = append(r.candW, w)
				total += w
			}
		}
		if len(r.candT) == 0 {
			// Stable configuration: merge into (or register as) a final
			// outcome.
			fh := hashWords(cfg)
			slot := r.fin.probe(cfg, fh)
			if ex := r.fin.refAt(slot); ex >= 0 {
				r.prob[ex] += r.prob[id]
				ef, nf := r.nodeFired(ex), r.nodeFired(id)
				for t2 := range ef {
					ef[t2] += nf[t2]
				}
			} else {
				r.fin.set(slot, id, fh)
				r.outs = append(r.outs, id)
			}
			continue
		}
		for ci, t32 := range r.candT {
			t := int(t32)
			pch := r.prob[id] * r.candW[ci] / total
			copy(r.childCfg, r.nodeCfg(id))
			copy(r.childFired, r.nodeFired(id))
			child := r.n.wrap(r.childCfg)
			tr := &r.n.trans[t]
			for _, pm := range r.n.inList[t] {
				child.marking[pm.p] -= pm.m
			}
			if tr.Delay == 0 {
				for p2, m := range r.n.outCount[t] {
					if m != 0 {
						child.marking[p2] += m
					}
				}
				r.childFired[t]++
			} else {
				child.firing[r.n.firingOffset[t]+tr.Delay-1]++
			}
			ch := hashWords(r.childCfg)
			slot := r.pend.probe(r.childCfg, ch)
			if ex := r.pend.refAt(slot); ex >= 0 && !r.popped[ex] {
				// Weighted merge of the zero-delay firing counts into the
				// still-pending node.
				tot := r.prob[ex] + pch
				s1, s2 := r.prob[ex]/tot, pch/tot
				ef := r.nodeFired(ex)
				for t2 := range ef {
					ef[t2] = ef[t2]*s1 + r.childFired[t2]*s2
				}
				r.prob[ex] = tot
			} else {
				nid := r.addNode(r.childCfg, r.childFired, pch)
				r.pend.set(slot, nid, ch)
				r.queue = append(r.queue, nid)
			}
		}
	}
	return nil
}
