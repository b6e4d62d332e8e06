package main

// ingest.go benchmarks the live write path (stpq.Apply over a WAL): a
// read/write mix sweep on one synthetic DB, from read-only to
// write-heavy. Each data point interleaves STPS range queries with small
// durable mutation batches and reports both sides: query cost (un-merged
// writes are visible through small delta index parts that every query
// searches beside the base indexes) and per-batch Apply latency (WAL
// append + fsync + delta publish). The
// ingest counters — applied mutations, auto-flush merges — land in the
// record so the merge cadence behind each number is visible.
//
// Like the shard sweep, the records always go to BENCH_ingest.json (in
// addition to -json, when given): the write-latency distribution and the
// counters are the point of the experiment.

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"stpq"
	"stpq/internal/core"
	"stpq/internal/datagen"
)

// ingestBenchFile is where the ingest sweep always saves its records.
const ingestBenchFile = "BENCH_ingest.json"

// ingestIDBase keeps bench-generated ids clear of the synthetic dataset.
const ingestIDBase int64 = 1 << 40

func (b *bench) ingestExp() {
	header(fmt.Sprintf("ingest: read/write mix over a WAL-backed DB (STPS, SRT, range, k=%d, r=%g)", defK, defRadius))
	// A smaller base than the figure experiments: each sweep point builds
	// a fresh DB (the WAL must start empty) and the experiment measures
	// the read/write interaction, not absolute index scale.
	objects := b.scaled(defObjects) / 4
	features := b.scaled(defFeatures) / 4
	ds := b.synthetic(objects, features, defSets, defVocab)
	var recs []Record
	for _, frac := range []float64{0, 0.1, 0.5} {
		recs = append(recs, b.ingestPoint(ds, frac)...)
	}
	recs = append(recs, b.ingestSweep(ds)...)
	if err := writeRecords(ingestBenchFile, recs); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d ingest records to %s", len(recs), ingestBenchFile)
	if b.jsonPath != "" {
		b.records = append(b.records, recs...)
	}
}

// ingestPoint runs one mix: b.queries operations, each a write batch with
// probability frac, otherwise a query. It returns a read record and, for
// mixed points, a write record whose TotalMS is the wall-clock Apply
// latency.
func (b *bench) ingestPoint(ds *datagen.Dataset, frac float64) []Record {
	walDir, err := os.MkdirTemp("", "stpq-bench-wal")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)
	db := ingestDB(ds, walDir, b.buffer, nil)
	rng := rand.New(rand.NewSource(b.seed))
	var (
		reads    []core.Stats
		writes   []core.Stats
		inserted []int64
		nextID   = ingestIDBase
		acc      core.Stats
	)
	for op := 0; op < b.queries; op++ {
		if rng.Float64() < frac {
			batch, ids := ingestBatch(rng, ds, nextID, inserted)
			nextID += int64(len(ids))
			inserted = append(inserted, ids...)
			t0 := time.Now()
			if err := db.Apply(batch); err != nil {
				log.Fatal(err)
			}
			// Wall-clock Apply latency reported through the CPU column:
			// the WAL fsync is real I/O, but the storage cost model only
			// meters page reads.
			writes = append(writes, core.Stats{CPUTime: time.Since(t0)})
			continue
		}
		_, st, err := db.TopK(ingestQuery(rng, ds))
		if err != nil {
			log.Fatal(err)
		}
		cst := coreStats(st)
		acc.Add(cst)
		reads = append(reads, cst)
	}
	m := db.Metrics().Counters
	counters := map[string]int64{
		"stpq_ingest_applied_total": m["stpq_ingest_applied_total"],
		"stpq_ingest_merges_total":  m["stpq_ingest_merges_total"],
	}
	label := fmt.Sprintf("  write-frac=%.2f", frac)
	read := newRecord("ingest", label+" reads", "SRT", "stps", nil, reads)
	read.Variant = core.RangeScore.String()
	read.Counters = counters
	recs := []Record{read}
	cols := []string{fmt.Sprintf("%4d reads %s", len(reads), cell(acc.Scale(len(reads))))}
	if len(writes) > 0 {
		write := newRecord("ingest", label+" writes", "SRT", "apply", nil, writes)
		write.Counters = counters
		recs = append(recs, write)
		cols = append(cols, fmt.Sprintf("%4d writes p50 %.2fms (merges %d)",
			len(writes), write.TotalMS.P50, counters["stpq_ingest_merges_total"]))
	}
	line(label, cols...)
	return recs
}

// ingestSweep is the sustained-write comparison behind the incremental-
// compaction work: the same write-heavy workload driven through each merge
// strategy on a fresh DB. AutoFlushOps is set low enough that every mode
// merges many times during the sweep, so the per-batch Apply latency
// distribution exposes the merge stall directly — under MergeRebuild the
// p99 batch is an O(N) bulk re-load, under MergeAuto it is a partial merge
// of the net delta, and with BackgroundCompaction the foreground batch only
// seals a run. The final Flush is inside the measured wall clock, so
// background mode pays for its deferred work in ops/sec.
func (b *bench) ingestSweep(ds *datagen.Dataset) []Record {
	header("ingest: sustained writes, merge-strategy sweep (rebuild vs incremental vs background)")
	modes := []struct {
		label string
		tune  func(c *stpq.Config)
	}{
		{"rebuild", func(c *stpq.Config) { c.MergePolicy = stpq.MergeRebuild }},
		{"incremental", func(c *stpq.Config) { c.MergePolicy = stpq.MergeAuto }},
		{"background", func(c *stpq.Config) {
			c.MergePolicy = stpq.MergeAuto
			c.BackgroundCompaction = true
		}},
	}
	var recs []Record
	for _, m := range modes {
		recs = append(recs, b.ingestSweepPoint(ds, m.label, m.tune)...)
	}
	return recs
}

// ingestSweepPoint drives one merge strategy: b.queries write batches with
// a read sampled every eighth operation, then a draining Flush. The write
// record's TotalMS.P99 is the write-stall number; QPS is applied mutations
// per second of measured wall clock.
func (b *bench) ingestSweepPoint(ds *datagen.Dataset, label string, tune func(c *stpq.Config)) []Record {
	walDir, err := os.MkdirTemp("", "stpq-bench-wal")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)
	db := ingestDB(ds, walDir, b.buffer, func(c *stpq.Config) {
		// Merge roughly every 16 batches so each mode's merge cadence —
		// not the WAL fsync — dominates the latency distribution.
		c.AutoFlushOps = 64
		tune(c)
	})
	defer db.CloseWAL()
	rng := rand.New(rand.NewSource(b.seed))
	var (
		reads    []core.Stats
		writes   []core.Stats
		inserted []int64
		nextID   = ingestIDBase
	)
	start := time.Now()
	for op := 0; op < b.queries; op++ {
		if op%8 == 7 {
			_, st, err := db.TopK(ingestQuery(rng, ds))
			if err != nil {
				log.Fatal(err)
			}
			reads = append(reads, coreStats(st))
			continue
		}
		batch, ids := ingestBatch(rng, ds, nextID, inserted)
		nextID += int64(len(ids))
		inserted = append(inserted, ids...)
		t0 := time.Now()
		if err := db.Apply(batch); err != nil {
			log.Fatal(err)
		}
		writes = append(writes, core.Stats{CPUTime: time.Since(t0)})
	}
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)
	m := db.Metrics().Counters
	counters := map[string]int64{
		"stpq_ingest_applied_total":        m["stpq_ingest_applied_total"],
		"stpq_ingest_merges_total":         m["stpq_ingest_merges_total"],
		"stpq_ingest_partial_merges_total": m["stpq_ingest_partial_merges_total"],
		"stpq_ingest_full_rebuilds_total":  m["stpq_ingest_full_rebuilds_total"],
		"stpq_ingest_compactions_total":    m["stpq_ingest_compactions_total"],
		"stpq_ingest_write_stalls_total":   m["stpq_ingest_write_stalls_total"],
	}
	lbl := fmt.Sprintf("  %-12s", label)
	write := newRecord("ingest-sweep", lbl+" writes", "SRT", "apply", nil, writes)
	write.Counters = counters
	write.QPS = float64(m["stpq_ingest_applied_total"]) / wall.Seconds()
	read := newRecord("ingest-sweep", lbl+" reads", "SRT", "stps", nil, reads)
	read.Variant = core.RangeScore.String()
	read.Counters = counters
	line(lbl, fmt.Sprintf("%6.0f ops/s  write p50 %6.2fms p99 %7.2fms  read p99 %6.2fms  (partial %d, full %d, stalls %d)",
		write.QPS, write.TotalMS.P50, write.TotalMS.P99, read.TotalMS.P99,
		counters["stpq_ingest_partial_merges_total"],
		counters["stpq_ingest_full_rebuilds_total"],
		counters["stpq_ingest_write_stalls_total"]))
	return []Record{write, read}
}

// ingestDB builds a fresh WAL-backed single-engine DB over ds, naming
// keywords kw<id> the way cmd/stpqd's synthetic path does. tune, when
// non-nil, adjusts the config before the DB is created.
func ingestDB(ds *datagen.Dataset, walDir string, buffer int, tune func(c *stpq.Config)) *stpq.DB {
	cfg := stpq.Config{WALDir: walDir, BufferPages: buffer}
	if tune != nil {
		tune(&cfg)
	}
	db := stpq.New(cfg)
	objs := make([]stpq.Object, len(ds.Objects))
	for i, o := range ds.Objects {
		objs[i] = stpq.Object{ID: o.ID, X: o.Location.X, Y: o.Location.Y}
	}
	db.AddObjects(objs)
	for i, fs := range ds.FeatureSets {
		feats := make([]stpq.Feature, len(fs))
		for j, f := range fs {
			var kws []string
			f.Keywords.ForEach(func(id int) { kws = append(kws, fmt.Sprintf("kw%d", id)) })
			feats[j] = stpq.Feature{
				ID: f.ID, X: f.Location.X, Y: f.Location.Y,
				Score: f.Score, Keywords: kws,
			}
		}
		db.AddFeatureSet(fmt.Sprintf("set%d", i+1), feats)
	}
	if err := db.Build(); err != nil {
		log.Fatal(err)
	}
	return db
}

// ingestBatch synthesizes one mutation batch: a fresh object, one feature
// upsert per set with an existing keyword (the delta path — new keywords
// would force a merge per batch), and sometimes a delete of an earlier
// bench-inserted object.
func ingestBatch(rng *rand.Rand, ds *datagen.Dataset, nextID int64, inserted []int64) ([]stpq.Mutation, []int64) {
	id := nextID
	muts := []stpq.Mutation{{
		Op:     stpq.OpUpsertObject,
		Object: &stpq.Object{ID: id, X: rng.Float64(), Y: rng.Float64()},
	}}
	for i := range ds.FeatureSets {
		muts = append(muts, stpq.Mutation{
			Op: stpq.OpUpsertFeature, Set: fmt.Sprintf("set%d", i+1),
			Feature: &stpq.Feature{
				ID: id + int64(i) + 1, X: rng.Float64(), Y: rng.Float64(),
				Score:    rng.Float64(),
				Keywords: []string{fmt.Sprintf("kw%d", rng.Intn(ds.VocabWidth))},
			},
		})
	}
	if len(inserted) > 0 && rng.Intn(4) == 0 {
		muts = append(muts, stpq.Mutation{
			Op: stpq.OpDeleteObject, ID: inserted[rng.Intn(len(inserted))],
		})
	}
	return muts, []int64{id}
}

// ingestQuery draws one STPS range query with the Table 2 defaults.
func ingestQuery(rng *rand.Rand, ds *datagen.Dataset) stpq.Query {
	kws := make(map[string][]string, len(ds.FeatureSets))
	for i := range ds.FeatureSets {
		set := make([]string, defQKw)
		for j := range set {
			set[j] = fmt.Sprintf("kw%d", rng.Intn(ds.VocabWidth))
		}
		kws[fmt.Sprintf("set%d", i+1)] = set
	}
	return stpq.Query{
		K: defK, Radius: defRadius, Lambda: defLambda,
		Keywords: kws, Variant: stpq.Range, Algorithm: stpq.STPS,
	}
}

// coreStats lowers the public Stats back into the internal struct the
// record layer summarizes (the trace tree is not carried over).
func coreStats(st stpq.Stats) core.Stats {
	return core.Stats{
		CPUTime:        st.CPUTime,
		IOTime:         st.IOTime,
		LogicalReads:   st.LogicalReads,
		PhysicalReads:  st.PhysicalReads,
		VoronoiCPUTime: st.VoronoiCPUTime,
		VoronoiReads:   st.VoronoiReads,
		Combinations:   st.Combinations,
		FeaturesPulled: st.FeaturesPulled,
		ObjectsScored:  st.ObjectsScored,
	}
}
