package core

import (
	"stpq/internal/geo"
	"stpq/internal/obs"
	"stpq/internal/rtree"
)

// stdsBatch is the improved STDS of Section 5 ("Performance
// improvements"): instead of one feature-index traversal per data object,
// a whole batch of objects — one leaf page of the object R-tree, which is
// spatially coherent — shares a single best-first traversal per feature
// set. An index entry is expanded if it is within range of at least one
// unresolved object of the batch; when a feature object is popped, every
// batch object within distance r takes its score (the maximum, because
// features arrive in non-increasing s(t)) and leaves the batch.
func (e *Engine) stdsBatch(q *Query, stats *Stats, tr *obs.Trace) ([]Result, error) {
	acc := e.newTopk(q.K)
	c := len(e.features)
	var walkErr error
	scoreLeaf := func(batch []rtree.Entry) bool {
		objs := e.scratchBatch(len(batch))
		for i := range batch {
			objs[i].entry = &batch[i]
			stats.ObjectsScored++
		}
		active := objs
		for set := 0; set < c && len(active) > 0; set++ {
			sp := tr.StartPhase("index.descend")
			err := e.batchRangeScores(set, q, active)
			sp.End()
			if err != nil {
				walkErr = err
				return false
			}
			// τ̂ pruning between feature sets (Algorithm 1 line 6): drop
			// objects whose best possible total is strictly below the
			// current threshold (a tie can still win the id tie-break).
			if !acc.full() {
				continue
			}
			tau := acc.threshold()
			remaining := float64(c - set - 1)
			kept := active[:0]
			for _, o := range active {
				if o.sum+remaining >= tau {
					kept = append(kept, o)
				}
			}
			active = kept
		}
		for _, o := range active {
			acc.offer(Result{ID: o.entry.ItemID, Location: o.entry.Point(), Score: o.sum})
		}
		return true
	}
	for _, part := range e.objects {
		if part.Len() == 0 {
			continue
		}
		if err := part.Tree().Leaves(scoreLeaf); err != nil {
			return nil, err
		}
		if walkErr != nil {
			return nil, walkErr
		}
	}
	return acc.results(), nil
}

// batchObj tracks one data object through the per-set score computations;
// entry points into the object tree's immutable decoded leaf.
type batchObj struct {
	entry    *rtree.Entry
	sum      float64
	resolved bool // score for the current feature set found
}

// batchRangeScores runs the batched Algorithm 2 for one feature set,
// adding each object's τ_i(p) to its running sum.
func (e *Engine) batchRangeScores(set int, q *Query, batch []*batchObj) error {
	g := e.features[set]
	qk := q.keywordsFor(set)
	if g.Len() == 0 || qk.Set.IsEmpty() {
		return nil // every τ_i is 0
	}
	prepared := g.Prepare(qk)
	for _, o := range batch {
		o.resolved = false
	}
	unresolved := len(batch)
	withinAny := func(en *rtree.Entry) bool {
		for _, o := range batch {
			if o.resolved {
				continue
			}
			if en.Rect.MinDist(o.entry.Point()) <= q.Radius {
				return true
			}
		}
		return false
	}
	assign := func(fp geo.Point, score float64) {
		for _, o := range batch {
			if o.resolved {
				continue
			}
			if o.entry.Point().Dist(fp) <= q.Radius {
				o.sum += score
				o.resolved = true
				unresolved--
			}
		}
	}
	pq := e.scratchBoundHeap()
	for pi, part := range g.Parts() {
		if part.Len() == 0 {
			continue
		}
		root, err := part.Tree().RootEntry()
		if err != nil {
			return err
		}
		if part.EntryRelevant(&root, &prepared) && withinAny(&root) {
			pq.push(boundItem{entry: &root, part: pi, bound: part.EntryBound(&root, &prepared)})
		}
	}
	for pq.Len() > 0 && unresolved > 0 {
		it := pq.pop()
		idx := g.Part(it.part)
		if it.entry.Leaf {
			fp := it.entry.Point()
			if it.resolved {
				assign(fp, it.bound)
				continue
			}
			if !withinAny(it.entry) {
				continue // no candidate object: skip the verification read
			}
			score, relevant, err := idx.ResolveLeaf(it.entry, &prepared)
			if err != nil {
				return err
			}
			if !relevant {
				continue
			}
			if pq.Len() == 0 || score >= (*pq)[0].bound-1e-12 {
				assign(fp, score)
			} else {
				pq.push(boundItem{entry: it.entry, part: it.part, bound: score, resolved: true})
			}
			continue
		}
		n, err := idx.Tree().Node(it.entry.Child)
		if err != nil {
			return err
		}
		for i := range n.Entries {
			child := &n.Entries[i]
			if !idx.EntryRelevant(child, &prepared) {
				continue
			}
			if !withinAny(child) {
				continue
			}
			pq.push(boundItem{entry: child, part: it.part, bound: idx.EntryBound(child, &prepared)})
		}
	}
	return nil
}
