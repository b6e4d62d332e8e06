package main

// oracle.go checks the program's answers. It evaluates the paper's range
// score literally — τ(p) = Σ_i max{ s(t) : t ∈ F_i, dist(p,t) ≤ r,
// t.W ∩ W_i ≠ ∅ }, with s(t) = (1−λ)·t.score + λ·Jaccard(t.W, W_i) — the
// definition core.Engine.BruteForce scans, but restricted per object to the
// features of its grid neighbourhood, so a query costs about a millisecond
// instead of the seconds a full 20k×40k scan takes. oracle_test.go pins it
// to core.Engine.BruteForce.

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"stpq/internal/serve"
)

// scoreEps absorbs float rounding between the oracle's and the engine's
// arithmetic; real score gaps are many orders of magnitude larger.
const scoreEps = 1e-9

type result struct {
	ID    int64
	Score float64
}

// oracle holds one data state with each object's in-range features.
type oracle struct {
	objs []object
	sets [][]feature
	// nbr[s][start[s][i]:start[s][i+1]] lists the features of set s within
	// queryRadius of object i.
	start [][]int32
	nbr   [][]int32
}

func newOracle(objs []object, sets [][]feature) *oracle {
	o := &oracle{objs: objs, sets: sets, start: make([][]int32, len(sets)), nbr: make([][]int32, len(sets))}
	const cells = int(1 / queryRadius)
	cellOf := func(v float64) int {
		c := int(v * float64(cells))
		if c < 0 {
			return 0
		}
		if c >= cells {
			return cells - 1
		}
		return c
	}
	for s, fs := range sets {
		grid := make([][]int32, cells*cells)
		for j, f := range fs {
			c := cellOf(f.X)*cells + cellOf(f.Y)
			grid[c] = append(grid[c], int32(j))
		}
		start := make([]int32, 0, len(objs)+1)
		var nbr []int32
		for _, ob := range objs {
			start = append(start, int32(len(nbr)))
			cx, cy := cellOf(ob.X), cellOf(ob.Y)
			for x := cx - 1; x <= cx+1; x++ {
				for y := cy - 1; y <= cy+1; y++ {
					if x < 0 || y < 0 || x >= cells || y >= cells {
						continue
					}
					for _, j := range grid[x*cells+y] {
						f := &fs[j]
						if math.Hypot(ob.X-f.X, ob.Y-f.Y) <= queryRadius {
							nbr = append(nbr, j)
						}
					}
				}
			}
		}
		start = append(start, int32(len(nbr)))
		o.start[s], o.nbr[s] = start, nbr
	}
	return o
}

// featureScores computes s(t) for every feature of every set, with −1
// marking features that share no keyword with the query (they never
// contribute, whatever their distance).
func (o *oracle) featureScores(kw [numSets]kwBits) [][]float64 {
	out := make([][]float64, len(o.sets))
	for s, fs := range o.sets {
		q := kw[s]
		sc := make([]float64, len(fs))
		for j := range fs {
			inter, union := 0, 0
			for w := range q {
				inter += bits.OnesCount64(q[w] & fs[j].Kw[w])
				union += bits.OnesCount64(q[w] | fs[j].Kw[w])
			}
			if inter == 0 {
				sc[j] = -1
				continue
			}
			sc[j] = (1-queryLambda)*fs[j].Score + queryLambda*(float64(inter)/float64(union))
		}
		out[s] = sc
	}
	return out
}

func (o *oracle) scoreAt(i int, fsc [][]float64) float64 {
	total := 0.0
	for s := range fsc {
		best := 0.0
		for _, j := range o.nbr[s][o.start[s][i]:o.start[s][i+1]] {
			if v := fsc[s][j]; v > best {
				best = v
			}
		}
		total += best
	}
	return total
}

// answer is the oracle's verdict for one query: the exact top-k, and the
// score of every object that reaches the k-th best score (ties included),
// which is all a correct or approximate answer can be checked against.
type answer struct {
	top  []result
	good map[int64]float64
}

func (o *oracle) answer(kw [numSets]kwBits) *answer {
	fsc := o.featureScores(kw)
	all := make([]float64, len(o.objs))
	a := &answer{good: make(map[int64]float64)}
	for i := range o.objs {
		all[i] = o.scoreAt(i, fsc)
		// Insert into the running top-k, best first, ties by ascending id.
		r := result{ID: o.objs[i].ID, Score: all[i]}
		if len(a.top) == queryK && !before(r, a.top[queryK-1]) {
			continue
		}
		pos := sort.Search(len(a.top), func(j int) bool { return before(r, a.top[j]) })
		if len(a.top) < queryK {
			a.top = append(a.top, result{})
		}
		copy(a.top[pos+1:], a.top[pos:])
		a.top[pos] = r
	}
	if n := len(a.top); n > 0 {
		kth := a.top[n-1].Score
		for i, s := range all {
			if s >= kth-scoreEps {
				a.good[o.objs[i].ID] = s
			}
		}
	}
	return a
}

// before is the result order: higher score first, then lower id.
func before(a, b result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// check verifies an exact answer: the right number of results, each
// rank's score equal to the oracle's score at that rank, each returned
// object really scoring what was reported, and no object twice. Ties at
// equal scores may come back in any order.
func (a *answer) check(got []serve.ResultJSON) error {
	if len(got) != len(a.top) {
		return fmt.Errorf("got %d results, want %d", len(got), len(a.top))
	}
	seen := make(map[int64]bool, len(got))
	for i, r := range got {
		if seen[r.ID] {
			return fmt.Errorf("rank %d: object %d returned twice", i, r.ID)
		}
		seen[r.ID] = true
		if math.Abs(r.Score-a.top[i].Score) > scoreEps {
			return fmt.Errorf("rank %d: score %.12g, want %.12g (object %d)", i, r.Score, a.top[i].Score, a.top[i].ID)
		}
		s, ok := a.good[r.ID]
		if !ok {
			return fmt.Errorf("rank %d: object %d scores below the k-th best", i, r.ID)
		}
		if math.Abs(s-r.Score) > scoreEps {
			return fmt.Errorf("rank %d: object %d reported %.12g, scores %.12g", i, r.ID, r.Score, s)
		}
	}
	return nil
}

// recall is recall@k of an approximate answer: the share of the k slots
// filled by objects whose true score reaches the exact k-th best score.
// Ties at the k-th score count as relevant, so any valid exact answer
// scores 1.
func (a *answer) recall(got []serve.ResultJSON) float64 {
	if len(a.top) == 0 {
		return 1
	}
	seen := make(map[int64]bool, len(got))
	hits := 0
	for _, r := range got {
		if seen[r.ID] {
			continue
		}
		seen[r.ID] = true
		if _, ok := a.good[r.ID]; ok {
			hits++
		}
	}
	if hits > len(a.top) {
		hits = len(a.top)
	}
	return float64(hits) / float64(len(a.top))
}
