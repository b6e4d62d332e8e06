// Package shard builds the sharded layout of a DB: a spatial partitioner
// slices the data objects into S cells, each non-empty cell gets its own
// object R-tree, and the feature sets are sliced by the same cell function
// into per-cell index parts reassembled into one multi-root
// index.FeatureGroup per set.
//
// The layout is queried as ONE engine: core.NewEngineWithParts over the
// cells' object indexes and the shared feature groups. STPS then generates
// each valid feature combination once and probes every object part with
// it (the influence search seeds one heap with every part root), so
// answers — scores and tie-break order — are byte-identical to the
// single-tree engine while the feature work is done once, not once per
// cell. The package keeps only the partitioner, the build of the per-cell
// indexes and their Save/Open.
package shard

import (
	"errors"
	"fmt"

	"stpq/internal/geo"
	"stpq/internal/index"
)

// Options configures the sharded build.
type Options struct {
	// Shards is the partition count S (at least 2; use the plain engine
	// for S = 1).
	Shards int
	// Strategy selects the spatial partitioner (default HilbertRuns).
	Strategy Strategy
	// Index configures the per-cell object and feature indexes (vocabulary
	// width, page size, kind, ...), exactly as for an unsharded build.
	Index index.Options
}

// cellMeta describes one object part: the partition cell it covers, its
// object count and the MBR of its objects.
type cellMeta struct {
	Cell  int      `json:"cell"`
	Count int      `json:"count"`
	Rect  geo.Rect `json:"rect"`
}

// Shards is a sharded build: one object index per non-empty cell and one
// feature group per feature set (one part per non-empty cell). Pass
// Objects, Total and Groups to core.NewEngineWithParts to query it.
type Shards struct {
	// Objects holds the per-cell object indexes, in cell order.
	Objects []*index.ObjectIndex
	// Groups holds the shared feature groups, one per feature set.
	Groups []*index.FeatureGroup
	// Total is the number of data objects across the cells.
	Total int
	cells []cellMeta
	part  partitioning
}

// New partitions the objects and features and builds the per-cell
// indexes. Cells that receive no objects produce no object index (their
// features still become parts of the shared groups, so scores are
// unaffected).
func New(objects []index.Object, featureSets [][]index.Feature, opts Options) (*Shards, error) {
	if opts.Shards < 2 {
		return nil, fmt.Errorf("shard: shard count %d must be at least 2", opts.Shards)
	}
	if len(objects) == 0 {
		return nil, errors.New("shard: at least one data object required")
	}
	if len(featureSets) == 0 {
		return nil, errors.New("shard: at least one feature set required")
	}
	part, err := buildPartitioning(objects, opts.Shards, opts.Strategy)
	if err != nil {
		return nil, err
	}

	objCells := make([][]index.Object, part.cells)
	for _, o := range objects {
		c := part.assign(o.Location)
		objCells[c] = append(objCells[c], o)
	}

	s := &Shards{Groups: make([]*index.FeatureGroup, len(featureSets)), Total: len(objects), part: part}
	for i, fs := range featureSets {
		featCells := make([][]index.Feature, part.cells)
		for _, f := range fs {
			c := part.assign(f.Location)
			featCells[c] = append(featCells[c], f)
		}
		var parts []*index.FeatureIndex
		for c := 0; c < part.cells; c++ {
			if len(featCells[c]) == 0 {
				continue
			}
			p, err := index.BuildFeatureIndex(featCells[c], opts.Index)
			if err != nil {
				return nil, fmt.Errorf("shard: feature set %d cell %d: %w", i, c, err)
			}
			parts = append(parts, p)
		}
		if len(parts) == 0 {
			// Empty feature set: one empty part, matching the unsharded
			// engine's single empty index.
			p, err := index.BuildFeatureIndex(nil, opts.Index)
			if err != nil {
				return nil, fmt.Errorf("shard: feature set %d: %w", i, err)
			}
			parts = append(parts, p)
		}
		g, err := index.NewFeatureGroup(parts...)
		if err != nil {
			return nil, err
		}
		s.Groups[i] = g
	}

	for c := 0; c < part.cells; c++ {
		if len(objCells[c]) == 0 {
			continue
		}
		oidx, err := index.BuildObjectIndex(objCells[c], opts.Index)
		if err != nil {
			return nil, fmt.Errorf("shard: cell %d objects: %w", c, err)
		}
		rect := geo.EmptyRect()
		for _, o := range objCells[c] {
			rect = rect.Extend(o.Location)
		}
		s.Objects = append(s.Objects, oidx)
		s.cells = append(s.cells, cellMeta{Cell: c, Count: len(objCells[c]), Rect: rect})
	}
	return s, nil
}
