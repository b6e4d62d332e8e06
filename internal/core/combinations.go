package core

import (
	"math"

	"stpq/internal/geo"
	"stpq/internal/obs"
	"stpq/internal/rtree"
)

// combination is a valid combination C = {t_1, ..., t_c} of feature
// objects (Definition 4) with its score s(C) = Σ s(t_i).
type combination struct {
	refs  []featureRef
	score float64
}

// combinationStream implements Algorithm 4 (nextCombination): it pulls
// feature objects from the per-set streams under a pulling strategy,
// forms combinations ordered by score, and emits a combination only when
// the thresholding scheme guarantees no unseen combination can score
// higher:
//
//	τ = max over non-exhausted j of (max_1 + … + min_j + … + max_c).
//
// Combinations are enumerated over the retrieved prefixes D_i. The default
// implementation is a lazy lattice walk (a rank-join style frontier): pop
// the best index vector, push its c successors — which emits exactly the
// same sequence as the paper's eager materialization (Algorithm 4 line 9,
// selected by Options.Combinations; the range variant uses it by
// default) with bounded memory.
type combinationStream struct {
	q       *Query
	streams []*featureStream
	stats   *Stats
	tr      *obs.Trace // nil when tracing is off

	// pairFilter enables the validity constraint dist(t_i,t_j) ≤ 2r of
	// Definition 4 (range variant only; influence and NN variants use the
	// unfiltered stream, Sections 7.1–7.2).
	pairFilter bool
	pull       PullStrategy
	eager      bool

	// grids accelerate eager generation: one spatial hash per feature
	// set over the retrieved (concrete) features, with cell size 2r, so
	// valid partners of a new feature are found without scanning D_j.
	// Empty when the stream does not use them; the grids themselves are
	// kept for reuse by later queries.
	grids []*pairGrid

	d         [][]featureRef // retrieved features per set, scores non-increasing
	mins      []float64      // score of the last retrieved feature (1 before first access)
	maxs      []float64      // score of the first retrieved feature (1 before first access)
	started   []bool
	exhausted []bool // stream fully consumed (∅ already appended to d)
	rr        int    // round-robin cursor

	heap    comboHeap
	visited map[string]bool
	pending [][]vecEntry // lazy successors waiting for d[i] to grow
	seeded  bool

	// refsBuf backs the refs slice of emitted combinations; each next()
	// call overwrites it, so callers must consume a combination before
	// requesting the next one (all STPS drivers do).
	refsBuf []featureRef

	// vec and chosen are generateEager's working index vector and the
	// dimensions assigned so far; arena backs the index vectors pushed
	// onto the heap (see newVec). All three are reused across queries.
	vec    []int
	chosen []int
	arena  []int
}

// vecEntry is an index vector into the d arrays with its combination score.
type vecEntry struct {
	vec   []int
	score float64
}

// newCombinationStream builds the stream for a query against the engine's
// feature indexes. On a pooled session the stream and all its growable
// state (per-set streams and their heaps, retrieved prefixes, the
// combination heap, the visited map) are recycled from the query scratch,
// so steady-state STPS queries rebuild the stream without heap growth.
func newCombinationStream(e *Engine, q *Query, pairFilter bool, stats *Stats, tr *obs.Trace) (*combinationStream, error) {
	c := len(e.features)
	eager := pairFilter
	switch e.opts.Combinations {
	case CombinationsEager:
		eager = true
	case CombinationsLazy:
		eager = false
	}
	cs := &combinationStream{}
	if sc := e.scratch; sc != nil {
		cs = &sc.cs
	}
	cs.reinit(c)
	cs.q, cs.stats, cs.tr = q, stats, tr
	cs.pairFilter, cs.pull, cs.eager = pairFilter, e.opts.Pull, eager
	cs.grids = cs.grids[:0]
	if eager && pairFilter {
		cs.grids = reuseLen(cs.grids, c)
		for i, g := range cs.grids {
			if g == nil {
				g = &pairGrid{cells: make(map[[2]int32]cellSpan)}
				cs.grids[i] = g
			}
			g.reset(2 * q.Radius)
		}
	}
	for i := 0; i < c; i++ {
		if err := cs.streams[i].init(e.features[i], q.keywordsFor(i)); err != nil {
			return nil, err
		}
		cs.mins[i] = 1 // upper bound on any unseen feature score
		cs.maxs[i] = 1
	}
	return cs, nil
}

// reinit resets the stream's per-query state in place, keeping every
// backing allocation (stream structs with their heaps, inner d/pending
// slices, the heap array, the visited map) for reuse.
func (cs *combinationStream) reinit(c int) {
	cs.streams = reuseLen(cs.streams, c)
	for i := range cs.streams {
		if cs.streams[i] == nil {
			cs.streams[i] = &featureStream{}
		}
	}
	cs.d = reuseNested(cs.d, c)
	cs.pending = reuseNested(cs.pending, c)
	cs.mins = reuseLen(cs.mins, c)
	cs.maxs = reuseLen(cs.maxs, c)
	cs.started = reuseLen(cs.started, c)
	cs.exhausted = reuseLen(cs.exhausted, c)
	for i := 0; i < c; i++ {
		cs.started[i] = false
		cs.exhausted[i] = false
	}
	cs.heap = cs.heap[:0]
	cs.arena = cs.arena[:0]
	if cs.visited == nil {
		cs.visited = make(map[string]bool)
	} else {
		clear(cs.visited)
	}
	cs.rr = 0
	cs.seeded = false
}

// reuseLen returns buf resized to n, reusing its backing array when large
// enough; existing elements within the new length are kept as-is.
func reuseLen[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	nb := make([]T, n)
	copy(nb, buf)
	return nb
}

// reuseNested resizes an outer slice to n, truncating every inner slice to
// length 0 while keeping its capacity.
func reuseNested[T any](buf [][]T, n int) [][]T {
	buf = reuseLen(buf, n)
	for i := range buf {
		buf[i] = buf[i][:0]
	}
	return buf
}

// pairGrid is a spatial hash with cell size equal to the pair-distance
// limit 2r: any point within 2r of p lies in one of the 3×3 cells around
// p's cell. Each cell is an intrusive list over the feature indexes it
// holds, threaded through next in insertion (ascending) order, so adding
// a feature and walking a neighbourhood allocate nothing once the map and
// next have grown.
type pairGrid struct {
	cell  float64
	cells map[[2]int32]cellSpan
	next  []int32 // next[idx]: the following index in idx's cell, or -1
}

// cellSpan is the first and last feature index of one grid cell.
type cellSpan struct{ first, last int32 }

// reset empties the grid for a new query with the given cell size.
func (g *pairGrid) reset(cell float64) {
	if cell <= 0 {
		cell = 1
	}
	g.cell = cell
	clear(g.cells)
	g.next = g.next[:0]
}

// key maps a point to its cell.
func (g *pairGrid) key(p geo.Point) [2]int32 {
	return [2]int32{int32(math.Floor(p.X / g.cell)), int32(math.Floor(p.Y / g.cell))}
}

// add registers index idx at point p. Indexes are added in increasing
// order.
func (g *pairGrid) add(p geo.Point, idx int) {
	g.next = reuseLen(g.next, idx+1)
	g.next[idx] = -1
	k := g.key(p)
	if span, ok := g.cells[k]; ok {
		g.next[span.last] = int32(idx)
		g.cells[k] = cellSpan{first: span.first, last: int32(idx)}
		return
	}
	g.cells[k] = cellSpan{first: int32(idx), last: int32(idx)}
}

// first returns the first index of the cell at k, or -1 when it is empty.
func (g *pairGrid) first(k [2]int32) int32 {
	if span, ok := g.cells[k]; ok {
		return span.first
	}
	return -1
}

// next returns the valid combination with the highest score not yet
// emitted, or ok=false when the combination space is exhausted.
func (cs *combinationStream) next() (combination, bool, error) {
	for {
		if cs.heap.Len() > 0 {
			top := cs.heap[0]
			if cs.allExhausted() || top.score >= cs.threshold()-1e-12 {
				ve := cs.heap.pop()
				if !cs.eager {
					cs.pushSuccessors(ve.vec)
				}
				comb, valid := cs.materialize(ve)
				if valid {
					cs.stats.Combinations++
					return comb, true, nil
				}
				continue
			}
		}
		if cs.allExhausted() {
			return combination{}, false, nil
		}
		if err := cs.pullNext(); err != nil {
			return combination{}, false, err
		}
	}
}

// allExhausted reports whether every per-set stream is done.
func (cs *combinationStream) allExhausted() bool {
	for _, ex := range cs.exhausted {
		if !ex {
			return false
		}
	}
	return true
}

// threshold computes τ, the best score any unseen combination can reach: a
// combination not yet enumerable must use a not-yet-retrieved feature from
// some non-exhausted set j, whose score is at most min_j, combined with at
// best the top feature of every other set.
func (cs *combinationStream) threshold() float64 {
	var sumMax float64
	for i := range cs.maxs {
		sumMax += cs.maxs[i]
	}
	tau := negInf
	for j := range cs.mins {
		if cs.exhausted[j] {
			continue
		}
		if t := sumMax - cs.maxs[j] + cs.mins[j]; t > tau {
			tau = t
		}
	}
	return tau
}

// nextFeatureSet applies the pulling strategy (Definition 5 or round
// robin), never returning an exhausted set.
func (cs *combinationStream) nextFeatureSet() int {
	if cs.pull == PullRoundRobin {
		c := len(cs.streams)
		for t := 0; t < c; t++ {
			i := cs.rr % c
			cs.rr++
			if !cs.exhausted[i] {
				return i
			}
		}
		return -1
	}
	// Prioritized: before every set has been accessed once, fill the
	// gaps; afterwards pick the set responsible for the threshold.
	for i := range cs.d {
		if !cs.started[i] && !cs.exhausted[i] {
			return i
		}
	}
	var sumMax float64
	for i := range cs.maxs {
		sumMax += cs.maxs[i]
	}
	best, bestVal := -1, negInf
	for j := range cs.mins {
		if cs.exhausted[j] {
			continue
		}
		if v := sumMax - cs.maxs[j] + cs.mins[j]; v > bestVal {
			best, bestVal = j, v
		}
	}
	return best
}

// pullNext retrieves one feature (or ∅) from the chosen set, updates the
// bookkeeping and feeds the combination heap.
func (cs *combinationStream) pullNext() error {
	i := cs.nextFeatureSet()
	if i < 0 {
		return nil
	}
	sp := cs.tr.StartPhase("features.pull")
	ref, done, err := cs.streams[i].next()
	sp.End()
	if err != nil {
		return err
	}
	if done {
		cs.exhausted[i] = true
		return nil
	}
	cs.stats.FeaturesPulled++
	cs.d[i] = append(cs.d[i], ref)
	if !cs.started[i] {
		cs.started[i] = true
		cs.maxs[i] = ref.score
	}
	cs.mins[i] = ref.score
	if ref.virtual {
		cs.exhausted[i] = true
		cs.mins[i] = virtualScore
	}
	if cs.eager {
		cs.generateEager(i)
	} else {
		cs.seedOrFlush(i)
	}
	return nil
}

// seedOrFlush handles lazy-lattice bookkeeping after d[i] grew: seed the
// origin vector once every set has an element, and materialize successors
// that were waiting for this growth.
func (cs *combinationStream) seedOrFlush(i int) {
	if !cs.seeded {
		for _, di := range cs.d {
			if len(di) == 0 {
				return
			}
		}
		cs.seeded = true
		origin := make([]int, len(cs.d))
		cs.pushVec(origin)
		return
	}
	waiting := cs.pending[i]
	cs.pending[i] = cs.pending[i][:0] // keep the backing for reuse
	for _, ve := range waiting {
		cs.pushVec(ve.vec)
	}
}

// pushSuccessors pushes the c successor vectors of vec (one index advanced
// per dimension), deferring those that point past the retrieved prefix.
func (cs *combinationStream) pushSuccessors(vec []int) {
	for i := range vec {
		succ := cs.newVec(vec)
		succ[i]++
		if cs.visited[vecKey(succ)] {
			continue
		}
		if succ[i] >= len(cs.d[i]) {
			if cs.exhausted[i] {
				continue // no further elements will ever arrive
			}
			cs.visited[vecKey(succ)] = true
			cs.pending[i] = append(cs.pending[i], vecEntry{vec: succ})
			continue
		}
		cs.pushVec(succ)
	}
}

// pushVec scores and pushes an index vector, marking it visited.
func (cs *combinationStream) pushVec(vec []int) {
	key := vecKey(vec)
	cs.visited[key] = true
	score := 0.0
	for i, a := range vec {
		score += cs.d[i][a].score
	}
	cs.heap.push(vecEntry{vec: vec, score: score})
}

// newVec copies vec into the stream's index-vector arena and returns the
// copy. Vectors live until the query ends (the heap and the pending lists
// hold them), so the arena is only rewound by reinit; when it fills up a
// larger one replaces it and the full one stays reachable through the
// vectors carved from it. After warm-up a pooled stream allocates no
// index vectors at all.
func (cs *combinationStream) newVec(vec []int) []int {
	n := len(vec)
	if len(cs.arena)+n > cap(cs.arena) {
		size := 2 * cap(cs.arena)
		if size < 64*n {
			size = 64 * n
		}
		cs.arena = make([]int, 0, size)
	}
	start := len(cs.arena)
	cs.arena = cs.arena[:start+n]
	v := cs.arena[start : start+n : start+n]
	copy(v, vec)
	return v
}

// generateEager materializes, as the paper's Algorithm 4 line 9 does, all
// combinations that include the newest feature of set i, discarding
// invalid ones immediately. Once a concrete feature is part of the
// partial combination, candidates for the remaining sets come from the
// spatial grid around it (every member of a valid combination lies within
// 2r of every other), so generation cost tracks the number of valid
// combinations rather than |D_1|×…×|D_c|. The walk runs on the stream's
// reusable vec/chosen buffers and allocates nothing but arena growth.
func (cs *combinationStream) generateEager(i int) {
	newIdx := len(cs.d[i]) - 1
	newRef := &cs.d[i][newIdx]
	if len(cs.grids) > 0 && !newRef.virtual {
		cs.grids[i].add(newRef.entry.Point(), newIdx)
	}
	cs.vec = reuseLen(cs.vec, len(cs.d))
	cs.vec[i] = newIdx
	cs.chosen = append(cs.chosen[:0], i)
	// The anchor is the first concrete feature of the partial
	// combination (nil while it holds only ∅).
	cs.eagerDim(i, 0, newRef.score, newRef.entry)
}

// eagerDim assigns dimension dim (skipping the fixed dimension i) of the
// partial combination in cs.vec and recurses; at the last dimension it
// pushes the completed vector.
func (cs *combinationStream) eagerDim(i, dim int, score float64, anchor *rtree.Entry) {
	if dim == i {
		dim++
	}
	if dim == len(cs.d) {
		cs.heap.push(vecEntry{vec: cs.newVec(cs.vec), score: score})
		return
	}
	if anchor != nil && len(cs.grids) > 0 {
		g := cs.grids[dim]
		k := g.key(anchor.Point())
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for a := g.first([2]int32{k[0] + dx, k[1] + dy}); a >= 0; a = g.next[a] {
					cs.eagerTry(i, dim, int(a), score, anchor)
				}
			}
		}
		// The virtual feature (always the last element, if present)
		// pairs with anything.
		if n := len(cs.d[dim]); n > 0 && cs.d[dim][n-1].virtual {
			cs.eagerTry(i, dim, n-1, score, anchor)
		}
		return
	}
	for a := range cs.d[dim] {
		cs.eagerTry(i, dim, a, score, anchor)
	}
}

// eagerTry places feature a of set dim into the partial combination and,
// if it is valid against the members chosen so far, recurses.
func (cs *combinationStream) eagerTry(i, dim, a int, score float64, anchor *rtree.Entry) {
	ref := &cs.d[dim][a]
	cs.vec[dim] = a
	if !cs.validAgainstChosen(ref, cs.vec, cs.chosen) {
		return
	}
	if anchor == nil {
		anchor = ref.entry // stays nil for ∅
	}
	cs.chosen = append(cs.chosen, dim)
	cs.eagerDim(i, dim+1, score+ref.score, anchor)
	cs.chosen = cs.chosen[:len(cs.chosen)-1]
}

// validAgainstChosen checks Definition 4's pairwise constraint for ref at
// its dim against every already-chosen member. The virtual feature is at
// distance 0 from everything. Always true when the pair filter is off.
func (cs *combinationStream) validAgainstChosen(ref *featureRef, vec []int, chosenDims []int) bool {
	if !cs.pairFilter || ref.virtual {
		return true
	}
	limit := 2 * cs.q.Radius
	p := ref.entry.Point()
	for _, j := range chosenDims {
		other := &cs.d[j][vec[j]]
		if other.virtual {
			continue
		}
		if p.Dist(other.entry.Point()) > limit {
			return false
		}
	}
	return true
}

// materialize converts an index vector into a combination, applying the
// validity filter (lazy mode checks it at emission; eager mode filtered at
// generation).
func (cs *combinationStream) materialize(ve vecEntry) (combination, bool) {
	refs := cs.refsBuf[:0]
	for i, a := range ve.vec {
		refs = append(refs, cs.d[i][a])
	}
	cs.refsBuf = refs
	if cs.pairFilter && !cs.eager {
		limit := 2 * cs.q.Radius
		for i := 0; i < len(refs); i++ {
			if refs[i].virtual {
				continue
			}
			for j := i + 1; j < len(refs); j++ {
				if refs[j].virtual {
					continue
				}
				if refs[i].entry.Point().Dist(refs[j].entry.Point()) > limit {
					return combination{}, false
				}
			}
		}
	}
	return combination{refs: refs, score: ve.score}, true
}

// vecKey encodes an index vector as a map key.
func vecKey(vec []int) string {
	buf := make([]byte, 0, len(vec)*4)
	for _, v := range vec {
		for v >= 0x80 {
			buf = append(buf, byte(v)|0x80)
			v >>= 7
		}
		buf = append(buf, byte(v))
	}
	return string(buf)
}

// comboHeap is a max-heap of index vectors by combination score.
type comboHeap []vecEntry

func (h comboHeap) Len() int { return len(h) }
