package main

import (
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond, ok := tail(xs, 0.9); !ok || beyond != 10 || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %d beyond, ok=%v; want 90, 10, true", v, beyond, ok)
	}
	if _, beyond, ok := tail(xs, 0.99); ok || beyond != 1 {
		t.Errorf("p99 of 100 samples: %d beyond, ok=%v; want 1, false", beyond, ok)
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, beyond, ok := tail(big, 0.99); !ok || beyond != 10 || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %d beyond, ok=%v; want 990, 10, true", v, beyond, ok)
	}
}

// A stall in the system delays every request queued behind it; timing
// from the due time charges that wait to them, while the generator itself
// stays on schedule.
func TestOpenLoopTimesFromDueTimeAcrossAStall(t *testing.T) {
	const n, stall = 300, 150 * time.Millisecond
	ops := make([]op, n)
	for i := range ops {
		ops[i].due = time.Duration(i) * 2 * time.Millisecond
	}
	res := runOpen(ops, 1, func(o *op) outcome {
		if o == &ops[5] {
			time.Sleep(stall)
		}
		return outcome{status: 200}
	})
	// Op 6 was due 2ms after op 5 started stalling: it waits out the rest.
	if got := res.samples[6].lat; got < stall-10*time.Millisecond {
		t.Errorf("op after the stall: latency %v, want ≥ %v", got, stall-10*time.Millisecond)
	}
	// Op 39, due 78ms in, completes only once the backlog clears at ~155ms.
	if got := res.samples[39].lat; got < 60*time.Millisecond {
		t.Errorf("op 39: latency %v, want the queueing behind the stall counted", got)
	}
	for i, s := range res.samples {
		if s.late > 50*time.Millisecond {
			t.Errorf("op %d: generator late by %v; the stall was in the system, not the generator", i, s.late)
		}
	}
	if inv := res.validity(); inv != "" {
		t.Errorf("a single stall that drains made the run invalid: %s", inv)
	}
}

func TestOpenLoopRefusesAGrowingBacklog(t *testing.T) {
	ops := make([]op, 200)
	for i := range ops {
		ops[i].due = time.Duration(i) * time.Millisecond
	}
	// Each op takes twice its arrival interval: the backlog grows all run.
	res := runOpen(ops, 1, func(*op) outcome {
		time.Sleep(2 * time.Millisecond)
		return outcome{status: 200}
	})
	if res.validity() == "" {
		t.Errorf("overloaded run (growth %.0f ops, drain %v) was accepted", res.growth, res.drain)
	}
}

func TestSlopeFit(t *testing.T) {
	var pts [][2]float64
	for x := 0.0; x < 100; x += 7 {
		pts = append(pts, [2]float64{x, 5 + 0.84*x})
	}
	if got := slope(pts); got < 0.8399 || got > 0.8401 {
		t.Errorf("slope = %v, want 0.84", got)
	}
	if got := slope(pts[:1]); got != 0 {
		t.Errorf("slope of one point = %v, want 0", got)
	}
}
