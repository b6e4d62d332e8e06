package main

// load.go drives traffic: an open loop that sends each operation at its
// scheduled due time and times it from then, and a closed loop whose
// clients send back to back. Both use at most `clients` connections.

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// op is one scheduled operation.
type op struct {
	due   time.Duration // offset from the phase start
	read  *query        // a read, or
	write *batch        // a write
}

// sample is what happened to one operation.
type sample struct {
	op   *op
	late time.Duration // how late the generator handed the op to a client
	lat  time.Duration // completion minus due time (open loop) or send time (closed loop)
	out  outcome
}

// outcome is the client's view of one request.
type outcome struct {
	status int // HTTP status; 0 on a transport error
	err    error
	read   *readReply
}

func (o outcome) ok() bool { return o.err == nil && o.status == 200 }

// openLoop is the result of one open-loop phase.
type openLoop struct {
	samples []sample
	// drain is how long after the last due time the last op completed.
	drain time.Duration
	// growth is the trend of the outstanding ops (sent but not completed)
	// over the phase: the least-squares slope times the phase length.
	growth float64
}

// runOpen dispatches ops at their due times to `clients` workers running
// exec. A request that waits for a free client is late by that wait, and
// its latency still counts from its due time.
func runOpen(ops []op, clients int, exec func(*op) outcome) openLoop {
	samples := make([]sample, len(ops))
	queue := make(chan int, len(ops)) // sized to the schedule: dispatch never blocks
	var completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				samples[i].out = exec(&ops[i])
				samples[i].lat = time.Since(start) - ops[i].due
				completed.Add(1)
			}
		}()
	}
	outstanding := make([][2]float64, len(ops))
	for i := range ops {
		if d := ops[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		samples[i].op = &ops[i]
		samples[i].late = time.Since(start) - ops[i].due
		outstanding[i] = [2]float64{ops[i].due.Seconds(), float64(int64(i) - completed.Load())}
		queue <- i
	}
	close(queue)
	wg.Wait()
	res := openLoop{samples: samples}
	if n := len(ops); n > 0 {
		res.drain = time.Since(start) - ops[n-1].due
		res.growth = slope(outstanding) * ops[n-1].due.Seconds()
	}
	return res
}

// Validity limits of an open-loop phase. The offered rate sits near half
// of the system's capacity, so a healthy run drains quickly and its
// outstanding requests only fluctuate (ingest's merges queue requests
// for a while, then the queue empties again). A run past these limits
// measured an overloaded system or a stalled generator and is refused
// rather than reported.
const (
	maxGenLate = 50 * time.Millisecond // generator lateness p99
	maxDrain   = 2 * time.Second
	// The outstanding-request trend may not grow by more than this many
	// requests, or this share of the phase's requests, over the phase.
	maxGrowthOps   = 16
	maxGrowthShare = 0.05
)

// validity reports why an open-loop phase is invalid, or "" if it is not.
func (l openLoop) validity() string {
	late := make([]float64, len(l.samples))
	for i, s := range l.samples {
		late[i] = ms(s.late)
	}
	if p := quantile(late, 0.99); p > ms(maxGenLate) {
		return fmt.Sprintf("generator fell behind: late p99 %.1fms", p)
	}
	if l.drain > maxDrain {
		return fmt.Sprintf("backlog kept growing: drained %.1fms after the last due time", ms(l.drain))
	}
	if limit := math.Max(maxGrowthOps, maxGrowthShare*float64(len(l.samples))); l.growth > limit {
		return fmt.Sprintf("backlog kept growing: by %.0f requests over the phase (limit %.0f)", l.growth, limit)
	}
	return ""
}

// closedLoop is the result of one closed-loop phase.
type closedLoop struct {
	samples []sample
	elapsed time.Duration
}

// runClosed runs `clients` workers that each send next() back to back
// until d has passed. next must be safe for concurrent use.
func runClosed(d time.Duration, clients int, next func() *op, exec func(*op) outcome) closedLoop {
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				o := next()
				t := time.Now()
				out := exec(o)
				s := sample{op: o, lat: time.Since(t), out: out}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return closedLoop{samples: samples, elapsed: time.Since(start)}
}

// quantile is the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// minBeyond is the least number of samples that must lie beyond a
// reported tail percentile.
const minBeyond = 10

// tail returns the q-quantile of xs and how many samples lie beyond it;
// ok is false when fewer than minBeyond do, and the percentile is then
// not reported.
func tail(xs []float64, q float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), 0, false
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	beyond = len(xs) - 1 - i
	return quantile(xs, q), beyond, beyond >= minBeyond
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
