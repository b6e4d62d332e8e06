package main

// shard.go benchmarks the sharded layout: a shard-count sweep (S = 1 is
// the single object tree) over two workload shapes — the paper's
// uniform-keyword synthetic data and a regionalized variant (spatially
// correlated keywords, the shape of real POI data). A sharded build is one
// engine over S per-cell object trees and feature parts; results are
// identical across the sweep by construction, so the experiment measures
// what the layout costs: logical reads and latency per query, each also
// printed relative to S = 1.
//
// Unlike the figure experiments, this one always writes its records to
// BENCH_shard.json in the working directory (in addition to -json, when
// given): the read distributions are the point of the experiment, and the
// text table has no room for them.

import (
	"fmt"
	"log"

	"stpq/internal/core"
	"stpq/internal/datagen"
	"stpq/internal/index"
	"stpq/internal/shard"
)

// shardBenchFile is where the shard sweep always saves its records.
const shardBenchFile = "BENCH_shard.json"

func (b *bench) shardExp() {
	header("shard sweep: S per-cell object trees in one engine vs a single tree (STPS, SRT)")
	uniform := b.synthetic(b.scaled(defObjects), b.scaled(defFeatures), defSets, defVocab)
	regional := uniform.Regionalize(4, b.seed)
	workloads := []struct {
		name    string
		ds      *datagen.Dataset
		variant core.Variant
	}{
		{"uniform kw, range", uniform, core.RangeScore},
		{"regional kw, range", regional, core.RangeScore},
		{"regional kw, influence", regional, core.InfluenceScore},
	}
	var recs []Record
	for _, wl := range workloads {
		qc := b.defaultQC(wl.variant)
		qc.NumKeywords = 2 // keep regional queries near-local (≤2 regions/set)
		qs := wl.ds.GenQueries(b.queries, qc)
		var base core.Stats // the S = 1 per-query means
		for _, shards := range []int{1, 2, 4, 8} {
			e := b.shardEngine(wl.ds, shards)
			var (
				acc core.Stats
				per = make([]core.Stats, 0, len(qs))
			)
			mc := startMemCount()
			for _, q := range qs {
				_, st, err := e.STPS(q)
				if err != nil {
					log.Fatal(err)
				}
				acc.Add(st)
				per = append(per, st)
			}
			label := fmt.Sprintf("  %s, S=%d", wl.name, shards)
			rec := newRecord("shard", label, "SRT", "stps", qs, per)
			rec.AllocsPerOp, rec.BytesPerOp = mc.perOp(len(qs))
			recs = append(recs, rec)
			mean := acc.Scale(len(qs))
			if shards == 1 {
				base = mean
			}
			line(label, cell(mean), fmt.Sprintf("%8.1f reads/query  vs S=1: reads x%.2f latency x%.2f",
				rec.LogicalReads.Mean, ratio(mean.LogicalReads, base.LogicalReads),
				ratio(int64(mean.Total()), int64(base.Total()))))
		}
	}
	if err := writeRecords(shardBenchFile, recs); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d shard records to %s", len(recs), shardBenchFile)
	if b.jsonPath != "" {
		b.records = append(b.records, recs...)
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// shardEngine builds the engine over ds split into S cells (S = 1: the
// single object tree), fresh so its buffer pools start cold at every S.
func (b *bench) shardEngine(ds *datagen.Dataset, shards int) *core.Engine {
	opts := index.Options{Kind: index.SRT, VocabWidth: ds.VocabWidth, BufferPages: b.buffer}
	copts := core.Options{BatchSTDS: true, CostModel: b.cost, Trace: b.jsonPath != ""}
	if shards <= 1 {
		oidx, err := index.BuildObjectIndex(ds.Objects, opts)
		if err != nil {
			log.Fatal(err)
		}
		fidxs := make([]*index.FeatureIndex, len(ds.FeatureSets))
		for i, fs := range ds.FeatureSets {
			fidxs[i], err = index.BuildFeatureIndex(fs, opts)
			if err != nil {
				log.Fatal(err)
			}
		}
		e, err := core.NewEngine(oidx, fidxs, copts)
		if err != nil {
			log.Fatal(err)
		}
		return e
	}
	s, err := shard.New(ds.Objects, ds.FeatureSets, shard.Options{Shards: shards, Index: opts})
	if err != nil {
		log.Fatal(err)
	}
	e, err := core.NewEngineWithParts(s.Objects, s.Total, s.Groups, copts)
	if err != nil {
		log.Fatal(err)
	}
	return e
}
