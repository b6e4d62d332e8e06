package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stpq/internal/index"
	"stpq/internal/kwset"
)

// The paper's I/O metric is the number of page reads a query makes
// through the buffer pool. It must not depend on how node pages are kept
// in memory, so the per-query logical and physical read counts of a fixed
// seeded query set are pinned in testdata/page_reads.golden. Regenerate
// with `go test ./internal/core -run TestGoldenPageReads -update-golden`
// only when a change is meant to alter the access pattern.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/page_reads.golden")

const goldenPageReadsFile = "testdata/page_reads.golden"

// goldenWorld builds a seeded engine whose every index uses the given
// buffer-pool capacity (0 selects the rtree default).
func goldenWorld(t *testing.T, kind index.Kind, sigBits, bufferPages int) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(4242))
	objs := make([]index.Object, 1000)
	for i := range objs {
		objs[i] = index.Object{ID: int64(i), Location: randPoint(rng)}
	}
	oidx, err := index.BuildObjectIndex(objs, index.Options{PageSize: 1024, BufferPages: bufferPages})
	if err != nil {
		t.Fatal(err)
	}
	const vocab = 24
	fidxs := make([]*index.FeatureIndex, 2)
	for s := range fidxs {
		feats := make([]index.Feature, 2000)
		for i := range feats {
			kw := kwset.NewSet(vocab)
			for j := 0; j < 1+rng.Intn(3); j++ {
				kw.Add(rng.Intn(vocab))
			}
			feats[i] = index.Feature{ID: int64(i), Location: randPoint(rng), Score: rng.Float64(), Keywords: kw}
		}
		fidxs[s], err = index.BuildFeatureIndex(feats, index.Options{
			Kind: kind, VocabWidth: vocab, PageSize: 1024, BufferPages: bufferPages, SignatureBits: sigBits,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	eng, err := NewEngine(oidx, fidxs, Options{BatchSTDS: true})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// goldenPageReads runs the fixed query set and renders one line per query.
func goldenPageReads(t *testing.T) []string {
	t.Helper()
	type config struct {
		name        string
		kind        index.Kind
		sigBits     int
		bufferPages int
		warm        bool
	}
	configs := []config{
		{"SRT/cold32", index.SRT, 0, 32, false},
		{"SRT/warm", index.SRT, 0, 0, true},
		{"IR2/cold32", index.IR2, 0, 32, false},
		{"IR2/warm", index.IR2, 0, 0, true},
		{"IR2sig16/cold32", index.IR2, 16, 32, false},
	}
	var lines []string
	for _, cfg := range configs {
		eng := goldenWorld(t, cfg.kind, cfg.sigBits, cfg.bufferPages)
		w := &testWorld{engine: eng, vocabW: 24}
		for _, variant := range []Variant{RangeScore, InfluenceScore} {
			rng := rand.New(rand.NewSource(77))
			qs := make([]Query, 4)
			for i := range qs {
				qs[i] = w.randQuery(rng, 2, variant)
			}
			for _, alg := range []string{"stds", "stps"} {
				run := func(q Query) Stats {
					var (
						st  Stats
						err error
					)
					if alg == "stds" {
						_, st, err = eng.STDS(q)
					} else {
						_, st, err = eng.STPS(q)
					}
					if err != nil {
						t.Fatal(err)
					}
					return st
				}
				if cfg.warm {
					for _, q := range qs {
						run(q)
					}
				}
				for i, q := range qs {
					st := run(q)
					lines = append(lines, fmt.Sprintf("%s %s %s q%d logical=%d physical=%d",
						cfg.name, variant, alg, i, st.LogicalReads, st.PhysicalReads))
				}
			}
		}
	}
	return lines
}

// TestGoldenPageReads asserts that per-query page-read counts match the
// recorded golden file exactly, on cold (32-page) and warm pools over the
// SRT, IR² and signature-file IR² indexes.
func TestGoldenPageReads(t *testing.T) {
	got := goldenPageReads(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPageReadsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPageReadsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPageReadsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("got %d query records, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("record %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
