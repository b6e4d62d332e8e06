package stpq

// telemetry.go is the public query-telemetry surface: the per-query event
// log (RecentQueries), the slow-query log (SlowQueries), and the per-shape
// cost statistics (QueryShapes) that back EXPLAIN's predictions. All three
// are always on with bounded memory; see DESIGN.md §12.

import (
	"time"

	"stpq/internal/obs"
)

// TraceMode is a query's explicit tracing decision.
type TraceMode int

const (
	// TraceDefault defers to the engine toggle (Config.Tracing /
	// DB.SetTracing) and, failing that, the probabilistic sampler
	// (Config.TraceSampleRate).
	TraceDefault TraceMode = iota
	// TraceOn forces span collection for this query.
	TraceOn
	// TraceOff suppresses span collection for this query.
	TraceOff
)

// QueryEvent is one query's structured record in the event log: identity,
// canonical shape, cost counters and outcome, plus the full span tree for
// sampled, explicitly traced, or slow queries.
type QueryEvent struct {
	// Seq is the event's position in the log's append order (1-based,
	// monotonically increasing across ring wrap-arounds).
	Seq uint64 `json:"seq"`
	// Start is when query execution began.
	Start time.Time `json:"start"`
	// RequestID attributes the event to one request; empty when the caller
	// did not set one.
	RequestID string `json:"request_id,omitempty"`
	// Shape is the canonical query shape label — the join key into
	// QueryShapes.
	Shape string `json:"shape"`
	// Algorithm is "stds" or "stps"; Variant the score variant name.
	Algorithm string  `json:"algorithm"`
	Variant   string  `json:"variant"`
	K         int     `json:"k"`
	Radius    float64 `json:"radius,omitempty"`
	// Duration is the measured wall time; IOTime the modeled disk time.
	Duration       time.Duration `json:"duration_ns"`
	IOTime         time.Duration `json:"io_ns"`
	LogicalReads   int64         `json:"logical_reads"`
	PhysicalReads  int64         `json:"physical_reads"`
	Combinations   int           `json:"combinations"`
	FeaturesPulled int           `json:"features_pulled"`
	ObjectsScored  int           `json:"objects_scored"`
	// CacheHit marks queries answered from a serving-layer result cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Sampled reports that the span tree was kept by the sampler or an
	// explicit tracing request; Slow that the query crossed
	// Config.SlowQueryThreshold.
	Sampled bool `json:"sampled,omitempty"`
	Slow    bool `json:"slow,omitempty"`
	// Outcome is "ok" or "error"; Error carries the error text.
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// Trace is the full span tree, present only when Sampled or Slow.
	Trace *Span `json:"trace,omitempty"`
}

// fromObsEvent copies an internal event record into the public type.
func fromObsEvent(ev obs.QueryEvent) QueryEvent {
	return QueryEvent{
		Seq:            ev.Seq,
		Start:          ev.Start,
		RequestID:      ev.RequestID,
		Shape:          ev.Shape,
		Algorithm:      ev.Algorithm,
		Variant:        ev.Variant,
		K:              ev.K,
		Radius:         ev.Radius,
		Duration:       ev.Duration,
		IOTime:         ev.IOTime,
		LogicalReads:   ev.LogicalReads,
		PhysicalReads:  ev.PhysicalReads,
		Combinations:   ev.Combinations,
		FeaturesPulled: ev.FeaturesPulled,
		ObjectsScored:  ev.ObjectsScored,
		CacheHit:       ev.CacheHit,
		Sampled:        ev.Sampled,
		Slow:           ev.Slow,
		Outcome:        ev.Outcome,
		Error:          ev.Error,
		Trace:          fromObsSpan(ev.Trace),
	}
}

// fromObsEvents converts a batch, preserving order (newest first).
func fromObsEvents(evs []obs.QueryEvent) []QueryEvent {
	out := make([]QueryEvent, len(evs))
	for i, ev := range evs {
		out[i] = fromObsEvent(ev)
	}
	return out
}

// RecentQueries returns up to n of the most recent query event records,
// newest first (n ≤ 0 returns all held). The log is a fixed-size ring
// (Config.EventLogEntries) recording every query — successes, failures and
// cache hits — with negligible overhead; full span trees are attached only
// for sampled, explicitly traced, or slow queries.
func (db *DB) RecentQueries(n int) []QueryEvent {
	db.mu.RLock()
	tel := db.tel
	db.mu.RUnlock()
	if tel == nil {
		return nil
	}
	return fromObsEvents(tel.Events.Recent(n))
}

// SlowQueries returns up to n of the most recent queries whose CPU time
// reached Config.SlowQueryThreshold, newest first, each with a complete
// span tree regardless of the sampling rate. Empty when no threshold is
// configured.
func (db *DB) SlowQueries(n int) []QueryEvent {
	db.mu.RLock()
	tel := db.tel
	db.mu.RUnlock()
	if tel == nil {
		return nil
	}
	return fromObsEvents(tel.Slow.Recent(n))
}

// ShapeStat is the aggregate cost profile of one canonical query shape:
// how many times the shape ran and its mean costs. These means are what
// DB.Explain reports as predicted cost.
type ShapeStat struct {
	Shape             string        `json:"shape"`
	Samples           int64         `json:"samples"`
	MeanDuration      time.Duration `json:"mean_duration_ns"`
	MeanIOTime        time.Duration `json:"mean_io_ns"`
	MeanLogicalReads  float64       `json:"mean_logical_reads"`
	MeanPhysicalReads float64       `json:"mean_physical_reads"`
	MeanCombinations  float64       `json:"mean_combinations"`
}

// fromObsPrediction copies an internal shape profile into the public type.
func fromObsPrediction(p obs.ShapePrediction) ShapeStat {
	return ShapeStat{
		Shape:             p.Shape,
		Samples:           p.Samples,
		MeanDuration:      p.MeanDuration,
		MeanIOTime:        p.MeanIOTime,
		MeanLogicalReads:  p.MeanLogicalReads,
		MeanPhysicalReads: p.MeanPhysicalReads,
		MeanCombinations:  p.MeanCombinations,
	}
}

// QueryShapes returns the recorded cost profile of every query shape seen
// so far, most-queried first. The same data is exported in Prometheus form
// (stpq_shape_*_total) by WriteMetricsPrometheus.
func (db *DB) QueryShapes() []ShapeStat {
	db.mu.RLock()
	tel := db.tel
	db.mu.RUnlock()
	if tel == nil {
		return nil
	}
	rows := tel.Shapes.Rows()
	out := make([]ShapeStat, len(rows))
	for i, p := range rows {
		out[i] = fromObsPrediction(p)
	}
	return out
}
