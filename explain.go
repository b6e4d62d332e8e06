package stpq

// explain.go is the EXPLAIN surface: DB.Explain describes how a query
// would execute — algorithm, index, the object parts it searches — and
// predicts its cost from the recorded per-shape statistics
// (DB.QueryShapes), without running the query. Exposed as
// `stpq -explain` on the CLI and `"explain": true` on the HTTP query
// endpoint.

import (
	"fmt"
	"strings"
	"time"

	"stpq/internal/core"
	"stpq/internal/obs"
	"stpq/internal/plan"
)

// PlanCandidate is one algorithm the planner considered for a query, with
// the statistical evidence it had at decision time.
type PlanCandidate struct {
	Algorithm string `json:"algorithm"`
	// Samples is the number of recorded executions of the query's shape
	// under this algorithm; Known reports it reached MinPredictSamples.
	Samples int64 `json:"samples"`
	// Cost is the recorded mean total cost (CPU + modeled I/O), zero when
	// unobserved.
	Cost  time.Duration `json:"cost_ns"`
	Known bool          `json:"known"`
}

// PlanDecision is the cost-based planner's verdict for a query: the
// algorithm it chose (or annotated, when forced), why, at what predicted
// cost, and the alternatives it weighed. Explain embeds it, and
// Snapshot.PlanQuery returns it standalone.
type PlanDecision struct {
	Algorithm string `json:"algorithm"`
	Reason    string `json:"reason"`
	// Forced reports the caller fixed the algorithm; Fallback the
	// deterministic cold-start default (Auto below the sample floor).
	Forced   bool `json:"forced,omitempty"`
	Fallback bool `json:"fallback,omitempty"`
	// Cost is the predicted mean total cost of the chosen plan, unknown
	// (CostKnown false) below the sample floor.
	Cost      time.Duration `json:"cost_ns,omitempty"`
	CostKnown bool          `json:"cost_known"`
	// Candidates lists every algorithm considered, chosen first.
	Candidates []PlanCandidate `json:"candidates,omitempty"`
}

// fromPlanDecision lifts the internal decision into the public type.
func fromPlanDecision(d plan.Decision) PlanDecision {
	out := PlanDecision{
		Algorithm: d.Algorithm,
		Reason:    d.Reason,
		Forced:    d.Forced,
		Fallback:  d.Fallback,
		Cost:      d.Cost,
		CostKnown: d.CostKnown,
	}
	for _, c := range d.Candidates {
		out.Candidates = append(out.Candidates, PlanCandidate{
			Algorithm: c.Algorithm, Samples: c.Samples, Cost: c.Cost, Known: c.Known,
		})
	}
	return out
}

// Explain describes how a query would execute and what it is expected to
// cost. Predicted is nil until the query's shape has been executed at
// least MinPredictSamples times.
type Explain struct {
	// Algorithm is "stds" or "stps"; Variant the score variant name.
	Algorithm string `json:"algorithm"`
	Variant   string `json:"variant"`
	// Index names the feature index structure ("srt" or "ir2").
	Index      string  `json:"index"`
	Similarity string  `json:"similarity"`
	K          int     `json:"k"`
	Radius     float64 `json:"radius,omitempty"`
	// Mode is "approx" for fast-tier queries (omitted for exact), and
	// Recall its effective recall target with the lowered LSH parameters.
	Mode         string  `json:"mode,omitempty"`
	Recall       float64 `json:"recall,omitempty"`
	ApproxBands  int     `json:"approx_bands,omitempty"`
	ApproxRows   int     `json:"approx_rows,omitempty"`
	ApproxVerify bool    `json:"approx_verify,omitempty"`
	// KeywordSets counts the non-empty query keyword sets out of the DB's
	// feature sets.
	KeywordSets int `json:"keyword_sets"`
	FeatureSets int `json:"feature_sets"`
	// Shape is the canonical shape label the prediction is keyed by.
	Shape string `json:"shape"`
	// ObjectParts is the number of object trees the engine searches
	// together — one per non-empty cell of a sharded DB, base plus delta
	// with pending ingest — omitted when there is one.
	ObjectParts int `json:"object_parts,omitempty"`
	// Predicted is the recorded mean cost of the shape, nil while fewer
	// than MinPredictSamples executions have been recorded; Samples is the
	// number of recorded executions either way.
	Predicted *ShapeStat `json:"predicted,omitempty"`
	Samples   int64      `json:"samples"`
	// Plan is the cost-based planner's decision: for Algorithm: Auto the
	// choice it made and why, for forced algorithms the annotation of what
	// it would have done.
	Plan *PlanDecision `json:"plan,omitempty"`
}

// MinPredictSamples is how many recorded executions a query shape needs
// before Explain reports predicted costs.
const MinPredictSamples = obs.MinPredictSamples

// Explain describes how the query would execute against the current
// indexes without running it: the chosen algorithm and index, the object
// parts it searches, and the predicted cost from recorded per-shape statistics once the shape has
// enough samples.
func (db *DB) Explain(q Query) (*Explain, error) {
	snap, err := db.Snapshot()
	if err != nil {
		return nil, err
	}
	ex, err := snap.Explain(q)
	if err != nil {
		return nil, err
	}
	// Snapshots do not retain the config; name the index here.
	db.mu.RLock()
	if db.cfg.IndexKind == IR2 {
		ex.Index = "ir2"
	} else {
		ex.Index = "srt"
	}
	db.mu.RUnlock()
	return ex, nil
}

// Explain is DB.Explain against a pinned snapshot.
func (s *Snapshot) Explain(q Query) (*Explain, error) {
	cq, err := s.toCoreQuery(q)
	if err != nil {
		return nil, err
	}
	// The planner decision comes first: with Algorithm: Auto the rest of
	// the explanation (shape, prediction) describes the resolved plan.
	d := s.decide(q, &cq)
	alg := d.Algorithm
	pd := fromPlanDecision(d)
	key := core.QueryShapeKey(alg, &cq)
	ex := &Explain{
		Algorithm:   alg,
		Variant:     cq.Variant.String(),
		Similarity:  cq.Similarity.String(),
		K:           q.K,
		Radius:      q.Radius,
		KeywordSets: key.Sets,
		FeatureSets: len(s.names),
		Plan:        &pd,
	}
	if a := cq.Approx; a != nil {
		ex.Mode = ModeApprox
		ex.Recall = a.Params.Recall
		ex.ApproxBands = a.Params.Bands
		ex.ApproxRows = a.Params.Rows
		ex.ApproxVerify = !a.Params.SkipVerify
	}
	if s.tel != nil {
		ex.Shape = s.tel.Shapes.Name(key)
		if p := s.tel.Shapes.Predict(key); p != nil {
			stat := fromObsPrediction(*p)
			ex.Predicted = &stat
			ex.Samples = p.Samples
		} else {
			// Below the sample floor: still report how many we have.
			for _, row := range s.tel.Shapes.Rows() {
				if row.Shape == ex.Shape {
					ex.Samples = row.Samples
					break
				}
			}
		}
	} else {
		ex.Shape = key.String()
	}
	if n := len(s.engine.ObjectParts()); n > 1 {
		ex.ObjectParts = n
	}
	return ex, nil
}

// String renders the plan as the `stpq -explain` text output.
func (e *Explain) String() string {
	var b strings.Builder
	if e.Index != "" {
		fmt.Fprintf(&b, "EXPLAIN %s %s (%s index, %s similarity)\n", e.Algorithm, e.Variant, e.Index, e.Similarity)
	} else {
		fmt.Fprintf(&b, "EXPLAIN %s %s (%s similarity)\n", e.Algorithm, e.Variant, e.Similarity)
	}
	fmt.Fprintf(&b, "  k=%d", e.K)
	if e.Radius > 0 {
		fmt.Fprintf(&b, " radius=%g", e.Radius)
	}
	fmt.Fprintf(&b, " keyword sets: %d/%d non-empty\n", e.KeywordSets, e.FeatureSets)
	if e.Mode == ModeApprox {
		verify := "skip-verify"
		if e.ApproxVerify {
			verify = "verify"
		}
		fmt.Fprintf(&b, "  mode: approx (recall target %g, %d band(s) x %d row(s), %s)\n",
			e.Recall, e.ApproxBands, e.ApproxRows, verify)
	}
	fmt.Fprintf(&b, "  shape: %s\n", e.Shape)
	if p := e.Plan; p != nil {
		fmt.Fprintf(&b, "  planner: %s — %s\n", p.Algorithm, p.Reason)
		for _, c := range p.Candidates {
			if c.Known {
				fmt.Fprintf(&b, "    candidate %s: predicted %s (%d samples)\n",
					c.Algorithm, c.Cost.Round(time.Microsecond), c.Samples)
			} else {
				fmt.Fprintf(&b, "    candidate %s: cold (%d of %d samples)\n",
					c.Algorithm, c.Samples, MinPredictSamples)
			}
		}
	}
	if e.ObjectParts > 1 {
		fmt.Fprintf(&b, "  plan: one engine over %d object parts\n", e.ObjectParts)
	} else {
		fmt.Fprintf(&b, "  plan: single engine\n")
	}
	if p := e.Predicted; p != nil {
		fmt.Fprintf(&b, "  predicted (from %d samples): %s CPU + %s IO, %.0f logical / %.0f physical reads, %.0f combinations\n",
			p.Samples, p.MeanDuration.Round(time.Microsecond), p.MeanIOTime.Round(time.Microsecond),
			p.MeanLogicalReads, p.MeanPhysicalReads, p.MeanCombinations)
	} else {
		fmt.Fprintf(&b, "  predicted: insufficient samples (%d recorded, need %d)\n", e.Samples, MinPredictSamples)
	}
	return b.String()
}
