package main

import (
	"testing"

	"stpq/internal/core"
	"stpq/internal/index"
	"stpq/internal/serve"
)

// The oracle's neighbourhood-restricted evaluation must agree with
// core.Engine.BruteForce, which scans every object against every feature.
func TestOracleMatchesBruteForce(t *testing.T) {
	ds := genDataset(7, 1500, 1500)
	objs := make([]index.Object, len(ds.gen.Objects))
	copy(objs, ds.gen.Objects)
	oidx, err := index.BuildObjectIndex(objs, index.Options{VocabWidth: vocabSize})
	if err != nil {
		t.Fatal(err)
	}
	var fidxs []*index.FeatureIndex
	for _, fs := range ds.gen.FeatureSets {
		fi, err := index.BuildFeatureIndex(fs, index.Options{VocabWidth: vocabSize})
		if err != nil {
			t.Fatal(err)
		}
		fidxs = append(fidxs, fi)
	}
	eng, err := core.NewEngine(oidx, fidxs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	orc := newOracle(ds.objects, ds.sets)
	cqs := ds.gen.GenQueries(20, datagenQueryConfig(3))
	qs := genQueries(ds, 20, 3)
	for i, cq := range cqs {
		want, err := eng.BruteForce(cq)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]serve.ResultJSON, len(want))
		for j, r := range want {
			got[j] = serve.ResultJSON{ID: r.ID, X: r.Location.X, Y: r.Location.Y, Score: r.Score}
		}
		if err := orc.answer(qs[i].kw).check(got); err != nil {
			t.Errorf("query %d: BruteForce answer fails the oracle: %v", i, err)
		}
	}
}

func TestCheckRejectsWrongAnswers(t *testing.T) {
	a := &answer{
		top:  []result{{1, 0.9}, {2, 0.8}, {3, 0.7}},
		good: map[int64]float64{1: 0.9, 2: 0.8, 3: 0.7, 4: 0.7},
	}
	ok := []serve.ResultJSON{{ID: 1, Score: 0.9}, {ID: 2, Score: 0.8}, {ID: 4, Score: 0.7}}
	if err := a.check(ok); err != nil {
		t.Errorf("tie at the k-th score rejected: %v", err)
	}
	for name, got := range map[string][]serve.ResultJSON{
		"short":     ok[:2],
		"wrong id":  {{ID: 1, Score: 0.9}, {ID: 2, Score: 0.8}, {ID: 5, Score: 0.7}},
		"bad score": {{ID: 1, Score: 0.9}, {ID: 2, Score: 0.75}, {ID: 3, Score: 0.7}},
		"twice":     {{ID: 1, Score: 0.9}, {ID: 1, Score: 0.9}, {ID: 3, Score: 0.7}},
	} {
		if a.check(got) == nil {
			t.Errorf("%s: wrong answer accepted", name)
		}
	}
}

func TestRecallAtK(t *testing.T) {
	a := &answer{
		top:  []result{{1, 0.9}, {2, 0.8}, {3, 0.7}, {4, 0.6}},
		good: map[int64]float64{1: 0.9, 2: 0.8, 3: 0.7, 4: 0.6, 5: 0.6},
	}
	for _, c := range []struct {
		ids  []int64
		want float64
	}{
		{[]int64{1, 2, 3, 4}, 1},
		{[]int64{1, 2, 3, 5}, 1},    // 5 ties the k-th score
		{[]int64{1, 2, 9, 8}, 0.5},  // two below the k-th score
		{[]int64{1, 1, 1, 1}, 0.25}, // duplicates count once
		{nil, 0},
	} {
		var got []serve.ResultJSON
		for _, id := range c.ids {
			got = append(got, serve.ResultJSON{ID: id})
		}
		if r := a.recall(got); r != c.want {
			t.Errorf("recall(%v) = %v, want %v", c.ids, r, c.want)
		}
	}
}
