package core

import (
	"math/rand"
	"testing"

	"stpq/internal/index"
)

// Steady-state allocation regression tests (the scratch-pooling
// contract): after warm-up, a repeated top-k query must stay under a
// fixed allocation budget. The budgets leave headroom for query geometry
// but catch order-of-magnitude regressions: losing the scratch pool, the
// typed heaps reverting to container/heap boxing, or node visits decoding
// pages again instead of sharing the decoded node cached in the buffer
// pool frame (read counts are charged per visit either way, see
// DESIGN.md §10).
//
// Measured on this fixed world: ~1.2k allocs/op for STDS (the literal
// per-object scan; each computeScore call still builds one root aggregate
// per feature part) and ~16 for STPS (index-vector arena, reused grids and
// buffers in the combination stream).
const (
	stdsAllocBudget = 2000
	stpsAllocBudget = 64
)

func steadyStateAllocs(t *testing.T, run func()) float64 {
	t.Helper()
	// Warm up the scratch pool and any lazily grown buffers.
	for i := 0; i < 5; i++ {
		run()
	}
	return testing.AllocsPerRun(20, run)
}

func TestAllocsSteadyStateSTDS(t *testing.T) {
	w := buildWorld(t, 901, 400, 200, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(902))
	q := w.randQuery(rng, 2, RangeScore)
	q.K = 10
	avg := steadyStateAllocs(t, func() {
		if _, _, err := w.engine.STDS(q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state STDS allocs/op: %.1f", avg)
	if avg > stdsAllocBudget {
		t.Fatalf("steady-state STDS allocates %.1f objects per query, budget %d", avg, stdsAllocBudget)
	}
}

func TestAllocsSteadyStateSTPS(t *testing.T) {
	w := buildWorld(t, 903, 400, 200, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(904))
	q := w.randQuery(rng, 2, RangeScore)
	q.K = 10
	avg := steadyStateAllocs(t, func() {
		if _, _, err := w.engine.STPS(q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state STPS allocs/op: %.1f", avg)
	if avg > stpsAllocBudget {
		t.Fatalf("steady-state STPS allocates %.1f objects per query, budget %d", avg, stpsAllocBudget)
	}
}
