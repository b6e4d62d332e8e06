package datagen

import (
	"math/rand"

	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/kwset"
)

// Regionalize derives a dataset with spatial-textual correlation: a G×G
// grid tiles the unit square, the vocabulary splits into G² contiguous
// slices, and every feature redraws its keywords from the slice of its
// grid cell (locations, scores and the data objects are untouched).
//
// The base synthetic generator draws keywords uniformly — every region is
// textually identical, so a textual bound can never separate one region
// from another. Real POI data is the opposite: keywords concentrate
// where their businesses do. Regionalized workloads reproduce that
// shape, which is what lets bound pruning skip the object parts (or
// cluster nodes) whose region cannot contain the queried keywords.
func (d *Dataset) Regionalize(grid int, seed int64) *Dataset {
	if grid < 1 {
		grid = 1
	}
	rng := rand.New(rand.NewSource(seed))
	cells := grid * grid
	out := &Dataset{
		Objects:     d.Objects,
		VocabWidth:  d.VocabWidth,
		FeatureSets: make([][]index.Feature, len(d.FeatureSets)),
		keywordCDF:  make([][]float64, len(d.FeatureSets)),
	}
	cellOf := func(p geo.Point) int {
		ix := int(p.X * float64(grid))
		if ix >= grid {
			ix = grid - 1
		}
		iy := int(p.Y * float64(grid))
		if iy >= grid {
			iy = grid - 1
		}
		return iy*grid + ix
	}
	for s, feats := range d.FeatureSets {
		counts := make([]float64, d.VocabWidth)
		nf := make([]index.Feature, len(feats))
		for i, f := range feats {
			c := cellOf(f.Location)
			lo := c * d.VocabWidth / cells
			hi := (c + 1) * d.VocabWidth / cells
			if hi <= lo {
				// More cells than keywords: neighboring cells share a word.
				lo = c % d.VocabWidth
				hi = lo + 1
			}
			n := f.Keywords.Count()
			if n < 1 {
				n = 1
			}
			kw := kwset.NewSet(d.VocabWidth)
			for j := 0; j < n; j++ {
				id := lo + rng.Intn(hi-lo)
				kw.Add(id)
				counts[id]++
			}
			nf[i] = index.Feature{ID: f.ID, Location: f.Location, Score: f.Score, Keywords: kw}
		}
		out.FeatureSets[s] = nf
		out.keywordCDF[s] = cumulate(counts)
	}
	return out
}
