package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/kwset"
)

// TestObjectPartsMatchUnion pins the object-part contract live ingest
// relies on: an engine whose data objects are split over parts {A, ∅, B}
// answers every algorithm and variant exactly like an engine over one tree
// of A ∪ B — bitwise-identical results and the same ObjectsScored — with
// one empty part and one part of height ≥ 2.
func TestObjectPartsMatchUnion(t *testing.T) {
	const vocabW = 24
	rng := rand.New(rand.NewSource(77))
	objs := make([]index.Object, 500)
	for i := range objs {
		objs[i] = index.Object{ID: int64(i), Location: randPoint(rng)}
	}
	var a, b []index.Object
	for _, o := range objs {
		if o.ID%5 == 0 {
			b = append(b, o)
		} else {
			a = append(a, o)
		}
	}
	build := func(os []index.Object) *index.ObjectIndex {
		t.Helper()
		x, err := index.BuildObjectIndex(os, index.Options{PageSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	union, partA, empty, partB := build(objs), build(a), build(nil), build(b)
	if h := partB.Tree().Height(); h < 2 {
		t.Fatalf("part B height %d, want ≥ 2", h)
	}
	fidxs := make([]*index.FeatureIndex, 2)
	for s := range fidxs {
		feats := make([]index.Feature, 300)
		for i := range feats {
			kw := kwset.NewSet(vocabW)
			for j := 0; j < 1+rng.Intn(3); j++ {
				kw.Add(rng.Intn(vocabW))
			}
			feats[i] = index.Feature{ID: int64(i), Location: randPoint(rng), Score: rng.Float64(), Keywords: kw}
		}
		var err error
		fidxs[s], err = index.BuildFeatureIndex(feats, index.Options{Kind: index.SRT, VocabWidth: vocabW, PageSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
	}
	w := &testWorld{vocabW: vocabW}
	fromB := 0 // answers ranking a part-B object: the test is not vacuous
	for _, batch := range []bool{false, true} {
		opts := Options{BatchSTDS: batch}
		one, err := NewEngine(union, fidxs, opts)
		if err != nil {
			t.Fatal(err)
		}
		groups, err := index.GroupEach(fidxs)
		if err != nil {
			t.Fatal(err)
		}
		split, err := NewEngineWithParts([]*index.ObjectIndex{partA, empty, partB}, len(objs), groups, opts)
		if err != nil {
			t.Fatal(err)
		}
		if split.NumObjects() != one.NumObjects() {
			t.Fatalf("NumObjects %d, union engine has %d", split.NumObjects(), one.NumObjects())
		}
		for _, v := range []Variant{RangeScore, InfluenceScore, NearestNeighborScore} {
			for i := 0; i < 8; i++ {
				q := w.randQuery(rng, 2, v)
				for _, alg := range []string{"stds", "stps", "bruteforce"} {
					label := fmt.Sprintf("batch=%v %s/%v q%d", batch, alg, v, i)
					want, wantSt := runAlg(t, one, alg, q)
					got, gotSt := runAlg(t, split, alg, q)
					assertBitwiseEqual(t, label, got, want)
					for _, r := range got {
						if r.ID%5 == 0 {
							fromB++
							break
						}
					}
					if gotSt.ObjectsScored != wantSt.ObjectsScored {
						t.Fatalf("%s: ObjectsScored %d, union engine %d", label, gotSt.ObjectsScored, wantSt.ObjectsScored)
					}
				}
				ubWant, err := one.UpperBoundAll(q)
				if err != nil {
					t.Fatal(err)
				}
				ubGot, err := split.UpperBoundAll(q)
				if err != nil {
					t.Fatal(err)
				}
				if ubGot != ubWant {
					t.Fatalf("UpperBoundAll %v, union engine %v", ubGot, ubWant)
				}
			}
		}
	}
	if fromB == 0 {
		t.Fatal("no answer ranked an object of part B")
	}
}

func runAlg(t *testing.T, e *Engine, alg string, q Query) ([]Result, Stats) {
	t.Helper()
	var (
		res []Result
		st  Stats
		err error
	)
	switch alg {
	case "stds":
		res, st, err = e.STDS(q)
	case "stps":
		res, st, err = e.STPS(q)
	default:
		res, err = e.BruteForce(q)
	}
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	return res, st
}

func assertBitwiseEqual(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Location != want[i].Location ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestUpperBoundAllCoversEveryPart: the whole-engine bound a cluster node
// reports must cover objects of every part. Part A lies far from every
// feature and part B next to them, so a bound over A's MBR alone would
// wrongly be 0.
func TestUpperBoundAllCoversEveryPart(t *testing.T) {
	const vocabW = 8
	rng := rand.New(rand.NewSource(5))
	corner := func(id int64, lo float64) index.Object {
		return index.Object{ID: id, Location: geo.Point{X: lo + 0.1*rng.Float64(), Y: lo + 0.1*rng.Float64()}}
	}
	var a, b []index.Object
	for i := int64(0); i < 50; i++ {
		a = append(a, corner(i, 0))
		b = append(b, corner(100+i, 0.9))
	}
	kw := kwset.NewSet(vocabW)
	kw.Add(1)
	feats := make([]index.Feature, 20)
	for i := range feats {
		feats[i] = index.Feature{ID: int64(i), Location: corner(0, 0.9).Location, Score: 0.8, Keywords: kw}
	}
	opts := index.Options{Kind: index.SRT, VocabWidth: vocabW, PageSize: 1024}
	fidx, err := index.BuildFeatureIndex(feats, opts)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := index.GroupEach([]*index.FeatureIndex{fidx})
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*index.ObjectIndex, 2)
	for i, os := range [][]index.Object{a, b} {
		if parts[i], err = index.BuildObjectIndex(os, opts); err != nil {
			t.Fatal(err)
		}
	}
	e, err := NewEngineWithParts(parts, len(a)+len(b), groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{K: 5, Radius: 0.05, Lambda: 0.5, Keywords: []kwset.Set{kw}, Variant: RangeScore}
	ub, err := e.UpperBoundAll(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := e.STPS(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].Score <= 0 || ub < res[0].Score {
		t.Fatalf("UpperBoundAll %v does not cover the best score %+v", ub, res)
	}
}
