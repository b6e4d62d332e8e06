package core

import (
	"stpq/internal/index"
	"stpq/internal/rtree"
)

// featureRef is one element of the per-set stream D_i: either a concrete
// feature object with its preference score s(t), or the virtual feature ∅
// emitted after the set is exhausted (paper Section 6.1): dist(p,∅) = 0
// and s(∅) = 0, so a combination may cover fewer than c feature sets.
// entry points into an immutable decoded node (nil for ∅).
type featureRef struct {
	entry   *rtree.Entry
	score   float64
	virtual bool
}

// featureStream retrieves the feature objects of one feature set in
// non-increasing preference score s(t), using best-first traversal ordered
// by the bound ŝ(e) (Algorithm 4 lines 3–7). Subtrees that cannot contain
// a relevant feature (empty keyword intersection with W_i) are pruned. As
// the final element the stream yields the virtual feature ∅.
//
// In signature mode (hashed keyword summaries) a popped leaf's exact score
// is only a bound: the stream resolves it against the feature record —
// paying the verification page read — and re-enqueues it with its exact
// score, preserving the global non-increasing order.
type featureStream struct {
	g         *index.FeatureGroup
	pq        index.PreparedQuery
	heap      boundHeap
	exhausted bool
}

// newFeatureStream seeds the stream with every part root of the group; the
// shared bound heap merges the part trees into one globally non-increasing
// score stream. A query with no keywords for this set makes every feature
// irrelevant, so the stream yields only ∅.
func newFeatureStream(g *index.FeatureGroup, q index.QueryKeywords) (*featureStream, error) {
	s := &featureStream{}
	if err := s.init(g, q); err != nil {
		return nil, err
	}
	return s, nil
}

// init (re)initializes the stream in place, keeping the heap's backing
// array so pooled streams reach steady state without allocating.
func (s *featureStream) init(g *index.FeatureGroup, q index.QueryKeywords) error {
	s.g = g
	s.pq = g.Prepare(q)
	s.heap = s.heap[:0]
	s.exhausted = false
	if g.Len() == 0 || q.Set.IsEmpty() {
		return nil
	}
	for pi, part := range g.Parts() {
		if part.Len() == 0 {
			continue
		}
		root, err := part.Tree().RootEntry()
		if err != nil {
			return err
		}
		if part.EntryRelevant(&root, &s.pq) {
			s.heap.push(boundItem{entry: &root, part: pi, bound: part.EntryBound(&root, &s.pq)})
		}
	}
	return nil
}

// next returns the feature with the highest remaining score, or the
// virtual feature once, then reports done=true.
func (s *featureStream) next() (ref featureRef, done bool, err error) {
	for s.heap.Len() > 0 {
		it := s.heap.pop()
		idx := s.g.Part(it.part)
		if it.entry.Leaf {
			if it.resolved {
				return featureRef{entry: it.entry, score: it.bound}, false, nil
			}
			score, relevant, err := idx.ResolveLeaf(it.entry, &s.pq)
			if err != nil {
				return featureRef{}, false, err
			}
			if !relevant {
				continue // signature false positive
			}
			if s.heap.Len() == 0 || score >= s.heap[0].bound-1e-12 {
				return featureRef{entry: it.entry, score: score}, false, nil
			}
			s.heap.push(boundItem{entry: it.entry, part: it.part, bound: score, resolved: true})
			continue
		}
		node, err := idx.Tree().Node(it.entry.Child)
		if err != nil {
			return featureRef{}, false, err
		}
		for i := range node.Entries {
			c := &node.Entries[i]
			if !idx.EntryRelevant(c, &s.pq) {
				continue
			}
			s.heap.push(boundItem{entry: c, part: it.part, bound: idx.EntryBound(c, &s.pq)})
		}
	}
	if !s.exhausted {
		s.exhausted = true
		return featureRef{virtual: true, score: virtualScore}, false, nil
	}
	return featureRef{}, true, nil
}

// boundItem pairs an entry with its score bound ŝ(e) and the feature-group
// part it came from; resolved marks leaf entries whose bound is already the
// exact score. entry points into an immutable decoded node (or at a root
// aggregate), so heap moves copy a pointer, not the entry.
type boundItem struct {
	entry    *rtree.Entry
	part     int
	bound    float64
	resolved bool
}

// boundHeap is a max-heap over bounds.
type boundHeap []boundItem

func (h boundHeap) Len() int { return len(h) }
