package stpq

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stpq/internal/shard"
)

// shardTestData builds deterministic random objects and two feature sets
// for the sharded-vs-single comparisons.
func shardTestData(seed int64) ([]Object, []Feature, []Feature, []string) {
	return shardTestDataSized(seed, 400, 350, 300)
}

// shardTestDataSized is shardTestData with explicit cardinalities: nObj
// objects, nFood and nCafes features.
func shardTestDataSized(seed int64, nObj, nFood, nCafes int) ([]Object, []Feature, []Feature, []string) {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"pizza", "sushi", "tacos", "ramen", "bagels", "pho", "curry", "bbq",
		"espresso", "latte", "tea", "cocoa"}
	objs := make([]Object, nObj)
	for i := range objs {
		objs[i] = Object{ID: int64(i), X: rng.Float64(), Y: rng.Float64()}
	}
	mk := func(n int) []Feature {
		feats := make([]Feature, n)
		for i := range feats {
			feats[i] = Feature{
				ID: int64(i), X: rng.Float64(), Y: rng.Float64(), Score: rng.Float64(),
				Keywords: []string{words[rng.Intn(len(words))], words[rng.Intn(len(words))]},
			}
		}
		return feats
	}
	return objs, mk(nFood), mk(nCafes), words
}

func buildShardTestDB(t *testing.T, cfg Config, objs []Object, food, cafes []Feature) *DB {
	t.Helper()
	db := New(cfg)
	db.AddObjects(objs)
	db.AddFeatureSet("food", food)
	db.AddFeatureSet("cafes", cafes)
	if err := db.Build(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestShardedDBMatchesSingle drives the sharded layout through the public
// DB API: for both index kinds, all three variants, both algorithms and
// several shard counts, results must be byte-identical (scores and order)
// to the unsharded build of the same data.
func TestShardedDBMatchesSingle(t *testing.T) {
	objs, food, cafes, words := shardTestData(7)
	for _, kind := range []IndexKind{SRT, IR2} {
		single := buildShardTestDB(t, Config{IndexKind: kind, PageSize: 1024}, objs, food, cafes)
		for _, shards := range []int{2, 4, 8} {
			strategy := ShardHilbert
			if shards == 4 {
				strategy = ShardGrid
			}
			sharded := buildShardTestDB(t, Config{
				IndexKind: kind, PageSize: 1024,
				ShardCount: shards, ShardStrategy: strategy,
			}, objs, food, cafes)
			rng := rand.New(rand.NewSource(int64(shards)))
			for _, variant := range []Variant{Range, Influence, NearestNeighbor} {
				for _, alg := range []Algorithm{STPS, STDS} {
					q := Query{
						K: 8, Radius: 0.06, Lambda: 0.5,
						Keywords: map[string][]string{
							"food":  {words[rng.Intn(len(words))], words[rng.Intn(len(words))]},
							"cafes": {words[rng.Intn(len(words))]},
						},
						Variant: variant, Algorithm: alg,
					}
					want, _, err := single.TopK(q)
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := sharded.TopK(q)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("kind %v shards %d %v: %d results, want %d", kind, shards, variant, len(got), len(want))
					}
					for i := range want {
						if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
							t.Fatalf("kind %v shards %d %v alg %v rank %d: got (%d, %v) want (%d, %v)",
								kind, shards, variant, alg, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
						}
					}
				}
			}
		}
	}
}

// TestShardedDBSurface checks the non-query surface of a sharded DB:
// snapshots, rebuild, metrics, save/open round trip and score oracle.
func TestShardedDBSurface(t *testing.T) {
	objs, food, cafes, _ := shardTestData(8)
	db := buildShardTestDB(t, Config{ShardCount: 4, PageSize: 1024}, objs, food, cafes)

	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumObjects() != len(objs) {
		t.Fatalf("NumObjects %d, want %d", snap.NumObjects(), len(objs))
	}
	nf := snap.NumFeatures()
	if nf["food"] != len(food) || nf["cafes"] != len(cafes) {
		t.Fatalf("NumFeatures %v", nf)
	}
	if _, err := db.KeywordStats("food"); err != nil {
		t.Fatal(err)
	}
	q := Query{K: 5, Radius: 0.05, Lambda: 0.5,
		Keywords: map[string][]string{"food": {"pizza"}}}
	if _, err := db.Score(q, 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.TopK(q); err != nil {
		t.Fatal(err)
	}
	// One engine answers over every cell: the query is observed once, and
	// its object reads land in the per-cell object pools.
	m := db.Metrics()
	if n := m.Counters[`stpq_queries_total{alg="stps",variant="range"}`]; n != 1 {
		t.Fatalf("sharded query observed %d times, want 1", n)
	}
	var objReads int64
	for i := 0; i < snap.NumShards(); i++ {
		label := fmt.Sprintf(`{pool="objects_shard%02d"}`, i)
		objReads += m.Counters["stpq_bufferpool_hits_total"+label] + m.Counters["stpq_bufferpool_misses_total"+label]
	}
	if snap.NumShards() < 2 || objReads == 0 {
		t.Fatalf("per-cell object pool metrics missing: %d shards, %d reads", snap.NumShards(), objReads)
	}
	// Save/open round trip: the reopened sharded DB must answer every
	// query identically to the engine that saved it.
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatalf("Save on sharded DB: %v", err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open on sharded save: %v", err)
	}
	for _, alg := range []Algorithm{STPS, STDS} {
		for _, v := range []Variant{Range, Influence, NearestNeighbor} {
			rq := q
			rq.Algorithm = alg
			rq.Variant = v
			want, _, err := db.TopK(rq)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := db2.TopK(rq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("alg %v variant %v: reopened sharded DB diverges:\n got %v\nwant %v", alg, v, got, want)
			}
		}
	}
	if err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.TopK(q); err != nil {
		t.Fatal(err)
	}
}

// TestShardedReadAmplification guards the cost of the sharded layout: one
// engine over the per-cell object trees generates each feature combination
// once, so its STPS logical reads stay within a small factor of the
// unsharded DB's on the same queries — the per-cell roots and partly
// filled cell trees are the only extra pages. Re-running the whole query
// once per cell would cost about S times the reads and fail the bound.
func TestShardedReadAmplification(t *testing.T) {
	objs, food, cafes, words := shardTestDataSized(31, 2000, 2000, 2000)
	single := buildShardTestDB(t, Config{PageSize: 1024}, objs, food, cafes)
	for _, tc := range []struct {
		shards int
		bound  float64
	}{{4, 2}, {8, 3}} {
		sharded := buildShardTestDB(t, Config{PageSize: 1024, ShardCount: tc.shards}, objs, food, cafes)
		for _, variant := range []struct {
			v    Variant
			name string
		}{{Range, "range"}, {Influence, "influence"}} {
			rng := rand.New(rand.NewSource(5))
			var want, got int64
			for i := 0; i < 12; i++ {
				q := Query{
					K: 8, Radius: 0.03, Lambda: 0.5, Variant: variant.v,
					Keywords: map[string][]string{
						"food":  {words[rng.Intn(len(words))], words[rng.Intn(len(words))]},
						"cafes": {words[rng.Intn(len(words))]},
					},
				}
				_, st, err := single.TopK(q)
				if err != nil {
					t.Fatal(err)
				}
				want += st.LogicalReads
				_, st, err = sharded.TopK(q)
				if err != nil {
					t.Fatal(err)
				}
				got += st.LogicalReads
			}
			ratio := float64(got) / float64(want)
			t.Logf("S=%d %s: %d sharded vs %d unsharded logical reads (%.2fx)", tc.shards, variant.name, got, want, ratio)
			if ratio > tc.bound {
				t.Errorf("S=%d %s: sharded STPS reads %.2fx the unsharded DB's, bound %.1fx", tc.shards, variant.name, ratio, tc.bound)
			}
		}
	}
}

// TestShardedSaveWritesManifestsLast: Save writes every page dump before
// shards.json and the DB manifest, so a failure partway through leaves no
// manifest pointing at missing pages.
func TestShardedSaveWritesManifestsLast(t *testing.T) {
	objs, food, cafes, _ := shardTestData(9)
	db := buildShardTestDB(t, Config{ShardCount: 4, PageSize: 1024}, objs, food, cafes)
	dir := t.TempDir()
	// A directory where the second object dump belongs makes its create fail.
	if err := os.Mkdir(filepath.Join(dir, "objects_shard01.pages"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err == nil {
		t.Fatal("Save over a blocked page path succeeded")
	}
	for _, name := range []string{manifestName, shard.ManifestName} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("failed Save left %s behind (stat: %v)", name, err)
		}
	}
}

// TestOpenShardedSavedByEarlierFormat opens testdata/sharded_v1: a 3-shard
// DB saved from shardTestData(21) while Config still had a
// ShardParallelism field, which its manifest carries. It must open and
// answer every variant and algorithm byte-identically to an unsharded
// build of the same data.
func TestOpenShardedSavedByEarlierFormat(t *testing.T) {
	opened, err := Open(filepath.Join("testdata", "sharded_v1"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := opened.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumShards() != 3 {
		t.Fatalf("opened %d shards, want 3", snap.NumShards())
	}
	objs, food, cafes, words := shardTestData(21)
	single := buildShardTestDB(t, Config{PageSize: 1024}, objs, food, cafes)
	rng := rand.New(rand.NewSource(3))
	for _, variant := range []Variant{Range, Influence, NearestNeighbor} {
		for _, alg := range []Algorithm{STPS, STDS} {
			q := Query{
				K: 8, Radius: 0.06, Lambda: 0.5, Variant: variant, Algorithm: alg,
				Keywords: map[string][]string{
					"food":  {words[rng.Intn(len(words))], words[rng.Intn(len(words))]},
					"cafes": {words[rng.Intn(len(words))]},
				},
			}
			want, _, err := single.TopK(q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := opened.TopK(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v %v: opened sharded DB diverges:\n got %v\nwant %v", variant, alg, got, want)
			}
		}
	}
}
