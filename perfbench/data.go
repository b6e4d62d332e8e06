package main

// data.go generates everything the program under test receives: the
// synthetic dataset (the same generator stpqd -synthetic uses) and the
// query and mutation streams, all derived from the workload seed.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"stpq"
	"stpq/internal/datagen"
	"stpq/internal/serve"
)

// Dataset sizes and query parameters: the stpqd -synthetic defaults and
// the paper's Table 2 default query (k=10, r=0.01, λ=0.5, 3 keywords per
// feature set, range variant, Jaccard similarity).
const (
	numObjects  = 20_000
	numFeatures = 20_000 // per feature set
	numSets     = 2
	vocabSize   = 256
	queryK      = 10
	queryRadius = 0.01
	queryLambda = 0.5
	queryKw     = 3
)

// kwBits is a keyword set over the synthetic vocabulary (kw0…kw255).
type kwBits [vocabSize / 64]uint64

func (b *kwBits) add(id int)      { b[id/64] |= 1 << (id % 64) }
func (b *kwBits) has(id int) bool { return b[id/64]&(1<<(id%64)) != 0 }

func (b kwBits) names() []string {
	var out []string
	for id := 0; id < vocabSize; id++ {
		if b.has(id) {
			out = append(out, fmt.Sprintf("kw%d", id))
		}
	}
	return out
}

// object and feature are the benchmark's own copy of the data, kept so
// the oracle can score answers without asking the program.
type object struct {
	ID   int64
	X, Y float64
}

type feature struct {
	ID    int64
	X, Y  float64
	Score float64
	Kw    kwBits
}

// dataset is one generated world.
type dataset struct {
	objects []object
	sets    [][]feature // numSets sets, named set1, set2, …
	gen     *datagen.Dataset
}

func setName(i int) string { return fmt.Sprintf("set%d", i+1) }

// genDataset builds a dataset with datagen.Synthetic, as stpqd
// -synthetic does.
func genDataset(seed int64, objects, features int) *dataset {
	gen := datagen.Synthetic(datagen.SyntheticConfig{
		Objects: objects, FeaturesPerSet: features, FeatureSets: numSets,
		Vocab: vocabSize, Seed: seed,
	})
	ds := &dataset{gen: gen, objects: make([]object, len(gen.Objects)), sets: make([][]feature, len(gen.FeatureSets))}
	for i, o := range gen.Objects {
		ds.objects[i] = object{ID: o.ID, X: o.Location.X, Y: o.Location.Y}
	}
	for s, fs := range gen.FeatureSets {
		out := make([]feature, len(fs))
		for j, f := range fs {
			out[j] = feature{ID: f.ID, X: f.Location.X, Y: f.Location.Y, Score: f.Score}
			f.Keywords.ForEach(func(id int) { out[j].Kw.add(id) })
		}
		ds.sets[s] = out
	}
	return ds
}

// stpqObjects and stpqSets convert the dataset into library types, with
// keywords spelled kw<id> like stpqd's synthetic loader.
func (ds *dataset) stpqObjects() []stpq.Object {
	out := make([]stpq.Object, len(ds.objects))
	for i, o := range ds.objects {
		out[i] = stpq.Object{ID: o.ID, X: o.X, Y: o.Y}
	}
	return out
}

func (ds *dataset) stpqSet(s int) []stpq.Feature {
	out := make([]stpq.Feature, len(ds.sets[s]))
	for i, f := range ds.sets[s] {
		out[i] = stpq.Feature{ID: f.ID, X: f.X, Y: f.Y, Score: f.Score, Keywords: f.Kw.names()}
	}
	return out
}

// query is one generated read: its keyword sets plus the mode it is sent
// in, and the request body sent to /query.
type query struct {
	id     int // index in the workload's query list
	kw     [numSets]kwBits
	approx bool
	body   []byte
}

func (q *query) request() serve.QueryRequest {
	req := serve.QueryRequest{K: queryK, Radius: queryRadius, Lambda: queryLambda, Keywords: map[string][]string{}}
	for s := range q.kw {
		req.Keywords[setName(s)] = q.kw[s].names()
	}
	if q.approx {
		req.Mode = stpq.ModeApprox
		req.Recall = approxRecall
	}
	return req
}

// libQuery is the same read as a library query, for the direct calls of
// the traced run and the reference DB.
func (q *query) libQuery() stpq.Query {
	req := q.request()
	lq, err := req.Query()
	if err != nil {
		panic(err) // the generator only builds valid requests
	}
	return lq
}

// genQueries draws n distinct-keyword queries following each feature
// set's keyword distribution (datagen.GenQueries, the paper's query
// generator).
func genQueries(ds *dataset, n int, seed int64) []*query {
	cqs := ds.gen.GenQueries(n, datagenQueryConfig(seed))
	out := make([]*query, n)
	for i, cq := range cqs {
		q := &query{id: i}
		for s := range cq.Keywords {
			cq.Keywords[s].ForEach(func(id int) { q.kw[s].add(id) })
		}
		out[i] = q
	}
	return out
}

func datagenQueryConfig(seed int64) datagen.QueryConfig {
	return datagen.QueryConfig{K: queryK, Radius: queryRadius, Lambda: queryLambda, NumKeywords: queryKw, Seed: seed}
}

// finish fills in the request bodies once the modes are fixed.
func finish(qs []*query) {
	for _, q := range qs {
		b, err := json.Marshal(q.request())
		if err != nil {
			panic(err)
		}
		q.body = b
	}
}

// zipf draws ranks 0..n-1 with probability ∝ 1/(rank+1)^s by inverse CDF.
// math/rand's Zipf needs s > 1, which concentrates too much mass on the
// head for a cache that should see a minority of repeats.
type zipf struct {
	cdf []float64
	rng *rand.Rand
}

func newZipf(rng *rand.Rand, n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n), rng: rng}
	total := 0.0
	for i := range z.cdf {
		total += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

func (z *zipf) next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
