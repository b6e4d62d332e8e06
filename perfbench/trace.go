package main

// trace.go records spans from the benchmark's own code around the calls
// it makes into each layer: the HTTP round trip, a wrapper around the
// service or coordinator handler, and the direct library calls of the
// traced run (Service.Do, Snapshot.PlanQuery, Snapshot.TopK with
// Query.Trace on, Coordinator.Do, DB.Checkpoint, stpq.Open). Spans of one
// request share its X-Request-Id. They stay in memory and are written out
// when the run ends.

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stpq"
)

// span is one recorded interval.
type span struct {
	Req     string  `json:"req"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// recorder collects spans while on.
type recorder struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(req, name, parent string, start time.Time, dur time.Duration) {
	if !r.on.Load() {
		return
	}
	sp := span{Req: req, Name: name, Parent: parent,
		StartUS: float64(start.Sub(r.t0)) / 1e3, DurUS: float64(dur) / 1e3}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// addTree records a program span tree (stpq.Span) under parent. The
// program reports durations only, so children are laid out from their
// parent's start; self times are exact either way.
func (r *recorder) addTree(req, parent string, start time.Time, sp *stpq.Span) {
	if sp == nil {
		return
	}
	r.add(req, sp.Name, parent, start, sp.Duration)
	for _, c := range sp.Children {
		r.addTree(req, sp.Name, start, c)
	}
}

// tracedHandler wraps the system's HTTP handler with a server-side span.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.rec.add(r.Header.Get("X-Request-Id"), "handler"+r.URL.Path, "client"+r.URL.Path, start, time.Since(start))
}

// selfTimes sums, per span name, the total and self time in
// milliseconds: a span's self time is its duration minus its children's
// (the children of one request never overlap).
func selfTimes(spans []span) map[string][2]float64 {
	type key struct{ req, name string }
	childSum := map[key]float64{}
	for _, s := range spans {
		if s.Parent != "" {
			childSum[key{s.Req, s.Parent}] += s.DurUS
		}
	}
	// Names repeat within one request (STPS re-enters its phases); their
	// child sums are pooled per name, so self time is per name per request.
	perReq := map[key][2]float64{}
	for _, s := range spans {
		k := key{s.Req, s.Name}
		v := perReq[k]
		v[0] += s.DurUS
		perReq[k] = v
	}
	out := map[string][2]float64{}
	for k, v := range perReq {
		o := out[k.name]
		o[0] += v[0] / 1e3
		o[1] += (v[0] - childSum[k]) / 1e3
		out[k.name] = o
	}
	return out
}

// writeSpans writes the spans as JSON lines, sorted by start time.
func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
