package main

// ingest.go generates the ingest workload's write stream. Every mutation
// touches an id no other mutation of the run touches, so the batches
// commute: the final data is the same whatever order the two client
// connections deliver them in, and the benchmark's model of it is exact.

import (
	"encoding/json"
	"math"
	"math/rand"

	"stpq/internal/serve"
)

// Mutation mix of the ingest workload, per deck of 50 mutations dealt in
// a seeded shuffle: 2 object upserts (4%; half new objects, half moved
// ones) and 1 object delete (2%) are the stated minority, 32 feature
// upserts (64%; half updates, half new features) and 15 feature deletes
// (30%) the rest. Dealing fixed decks keeps every flush cycle's count of
// object upserts, which set the overlay's read cost, the same on every
// seed. Part of the workload's definition: keep it identical on both
// sides of any comparison.
const (
	deckObjUpsert  = 2
	deckObjDelete  = 1
	deckFeatUpsert = 32
	deckFeatDelete = 15
)

// mutation kinds dealt from the deck.
const (
	objUpsert = iota
	objDelete
	featUpsert
	featDelete
)

func newDeck() []int {
	var d []int
	for kind, n := range []int{deckObjUpsert, deckObjDelete, deckFeatUpsert, deckFeatDelete} {
		for i := 0; i < n; i++ {
			d = append(d, kind)
		}
	}
	return d
}

// batch is one POST /ingest request body.
type batch struct {
	body []byte
}

// writeStream is a run's generated write traffic plus the data it leaves.
type writeStream struct {
	batches []*batch
	objects []object    // final objects
	sets    [][]feature // final feature sets
	counts  map[string]int
}

// genWrites draws nBatches batches of batchOps mutations over ds.
func genWrites(ds *dataset, seed int64, nBatches, batchOps int) *writeStream {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	objs := map[int64]object{}
	for _, o := range ds.objects {
		objs[o.ID] = o
	}
	feats := make([]map[int64]feature, len(ds.sets))
	featPerm := make([][]int, len(ds.sets))
	nextFeat := make([]int64, len(ds.sets))
	for s, fs := range ds.sets {
		feats[s] = map[int64]feature{}
		for _, f := range fs {
			feats[s][f.ID] = f
		}
		featPerm[s] = rng.Perm(len(fs))
		nextFeat[s] = int64(len(fs))
	}
	objPerm := rng.Perm(len(ds.objects))
	nextObj := int64(len(ds.objects))
	jitter := func(v float64) float64 { return math.Min(1, math.Max(0, v+0.002*rng.NormFloat64())) }
	newKw := func() kwBits {
		var kw kwBits
		n := 1 + rng.Intn(3)
		for kw.count() < n {
			kw.add(rng.Intn(vocabSize))
		}
		return kw
	}
	ws := &writeStream{counts: map[string]int{}}
	var deck []int
	for b := 0; b < nBatches; b++ {
		req := serve.IngestRequest{Features: map[string][]serve.FeatureJSON{}, DeleteFeatures: map[string][]int64{}}
		for i := 0; i < batchOps; i++ {
			if len(deck) == 0 {
				deck = newDeck()
				rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			}
			kind := deck[0]
			deck = deck[1:]
			switch kind {
			case objUpsert:
				var o object
				if rng.Intn(2) == 0 { // move an existing object
					base := ds.objects[objPerm[0]]
					objPerm = objPerm[1:]
					o = object{ID: base.ID, X: jitter(base.X), Y: jitter(base.Y)}
				} else { // a new object near an existing one
					near := ds.objects[rng.Intn(len(ds.objects))]
					o = object{ID: nextObj, X: jitter(near.X), Y: jitter(near.Y)}
					nextObj++
				}
				objs[o.ID] = o
				req.Objects = append(req.Objects, serve.ObjectJSON{ID: o.ID, X: o.X, Y: o.Y})
				ws.counts["object_upserts"]++
			case objDelete:
				id := ds.objects[objPerm[0]].ID
				objPerm = objPerm[1:]
				delete(objs, id)
				req.DeleteObjects = append(req.DeleteObjects, id)
				ws.counts["object_deletes"]++
			case featUpsert:
				s := rng.Intn(len(ds.sets))
				var f feature
				if rng.Intn(2) == 0 { // update an existing feature
					base := ds.sets[s][featPerm[s][0]]
					featPerm[s] = featPerm[s][1:]
					f = feature{ID: base.ID, X: jitter(base.X), Y: jitter(base.Y), Score: rng.Float64(), Kw: newKw()}
				} else { // a new feature near an existing one
					near := ds.sets[s][rng.Intn(len(ds.sets[s]))]
					f = feature{ID: nextFeat[s], X: jitter(near.X), Y: jitter(near.Y), Score: rng.Float64(), Kw: newKw()}
					nextFeat[s]++
				}
				feats[s][f.ID] = f
				req.Features[setName(s)] = append(req.Features[setName(s)], serve.FeatureJSON{
					ID: f.ID, X: f.X, Y: f.Y, Score: f.Score, Keywords: f.Kw.names()})
				ws.counts["feature_upserts"]++
			default:
				s := rng.Intn(len(ds.sets))
				id := ds.sets[s][featPerm[s][0]].ID
				featPerm[s] = featPerm[s][1:]
				delete(feats[s], id)
				req.DeleteFeatures[setName(s)] = append(req.DeleteFeatures[setName(s)], id)
				ws.counts["feature_deletes"]++
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		ws.batches = append(ws.batches, &batch{body: body})
	}
	ws.objects = sortedObjects(objs)
	ws.sets = make([][]feature, len(feats))
	for s, m := range feats {
		ws.sets[s] = sortedFeatures(m)
	}
	return ws
}

func (b kwBits) count() int {
	n := 0
	for id := 0; id < vocabSize; id++ {
		if b.has(id) {
			n++
		}
	}
	return n
}

func sortedObjects(m map[int64]object) []object {
	out := make([]object, 0, len(m))
	for id := int64(0); len(out) < len(m); id++ {
		if o, ok := m[id]; ok {
			out = append(out, o)
		}
	}
	return out
}

func sortedFeatures(m map[int64]feature) []feature {
	out := make([]feature, 0, len(m))
	for id := int64(0); len(out) < len(m); id++ {
		if f, ok := m[id]; ok {
			out = append(out, f)
		}
	}
	return out
}
