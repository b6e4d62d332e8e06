package stpq

// snapshot.go implements the serving-side view of a DB: an immutable
// Snapshot handle that queries run against, and Rebuild, which constructs
// a fresh engine and swaps it in without disturbing in-flight queries.
//
// A Snapshot pins the engine, vocabulary and feature-set names that were
// current when it was taken. Rebuild replaces those pointers atomically
// (under the DB lock) and bumps the generation counter; queries running
// against an older snapshot finish on the old engine, whose indexes and
// page caches stay valid. The generation number is how the serving layer
// (internal/serve) invalidates its result cache on rebuild.

import (
	"fmt"
	"time"

	"stpq/internal/approx"
	"stpq/internal/core"
	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/kwset"
	"stpq/internal/obs"
	"stpq/internal/plan"
)

// Snapshot is an immutable handle onto a built DB's indexes. It is safe
// for concurrent use: any number of goroutines may call TopK on the same
// Snapshot, and a Snapshot keeps working after the DB is rebuilt.
type Snapshot struct {
	engine *core.Engine
	vocab  *kwset.Vocabulary
	names  []string
	gen    uint64
	shards int
	tel    *obs.Telemetry
}

// Snapshot returns a handle onto the current indexes. It fails with
// ErrNotBuilt before Build.
func (db *DB) Snapshot() (*Snapshot, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if !db.built {
		return nil, fmt.Errorf("%w: Snapshot before Build", ErrNotBuilt)
	}
	shards := 1
	if db.shards != nil {
		shards = len(db.shards.Objects)
	}
	return &Snapshot{engine: db.engine, vocab: db.vocab, names: db.setNames, gen: db.gen, shards: shards, tel: db.tel}, nil
}

// Generation returns the build generation the snapshot was taken at: 1
// after the first Build, incremented by every Rebuild. Serving layers use
// it to detect that cached results belong to a superseded index.
func (s *Snapshot) Generation() uint64 { return s.gen }

// FeatureSetNames returns the feature-set names of this snapshot in
// registration order.
func (s *Snapshot) FeatureSetNames() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// NumObjects returns the number of indexed data objects.
func (s *Snapshot) NumObjects() int { return s.engine.NumObjects() }

// NumShards returns the number of cell object trees the snapshot's engine
// searches (1 on an unsharded DB).
func (s *Snapshot) NumShards() int { return s.shards }

// NumFeatures returns the number of features per set, keyed by set name.
func (s *Snapshot) NumFeatures() map[string]int {
	out := make(map[string]int, len(s.names))
	for i, name := range s.names {
		out[name] = s.engine.FeatureGroups()[i].Len()
	}
	return out
}

// forcedAlg maps the public algorithm choice to the planner's forced-
// algorithm string: "" means Auto (the planner decides).
func forcedAlg(a Algorithm) string {
	switch a {
	case STDS:
		return plan.AlgSTDS
	case Auto:
		return ""
	default:
		return plan.AlgSTPS
	}
}

// planner returns the cost-based planner over this snapshot's per-shape
// statistics. The zero planner (nil shapes) is valid and always cold.
func (s *Snapshot) planner() plan.Planner {
	p := plan.Planner{}
	if s.tel != nil {
		p.Shapes = s.tel.Shapes
	}
	return p
}

// resolve turns the query's algorithm choice (possibly Auto) into the
// concrete algorithm. A forced algorithm bypasses the planner entirely, so
// existing callers pay nothing.
func (s *Snapshot) resolve(q Query, cq *core.Query) string {
	forced := forcedAlg(q.Algorithm)
	if forced != "" {
		return forced
	}
	p := s.planner()
	alg, _, _ := p.Resolve(core.QueryShapeKey("", cq), forced)
	return alg
}

// TopK runs the query against the snapshot and returns the k best objects
// with execution statistics. Safe for concurrent use. With Algorithm:
// Auto, the cost-based planner picks the algorithm from recorded per-shape
// statistics; results are byte-identical to either forced algorithm.
func (s *Snapshot) TopK(q Query) ([]Result, Stats, error) {
	cq, err := s.toCoreQuery(q)
	if err != nil {
		return nil, Stats{}, err
	}
	var (
		res []core.Result
		st  core.Stats
	)
	if s.resolve(q, &cq) == plan.AlgSTDS {
		res, st, err = s.engine.STDS(cq)
	} else {
		res, st, err = s.engine.STPS(cq)
	}
	if err != nil {
		return nil, Stats{}, err
	}
	if a := cq.Approx; a != nil {
		// The request's counters hold the whole logical query's totals
		// (session copies alias the same request), loaded exactly once
		// here.
		st.ApproxCandidates = a.Candidates.Load()
		st.ApproxPruned = a.Pruned.Load()
		st.ApproxSkippedReads = a.SkippedReads.Load()
	}
	// A trace collected only provisionally — so a slow-query capture would
	// be complete — is not part of the answer unless the query actually
	// crossed the threshold.
	if st.Trace != nil && !st.Trace.Kept() &&
		!(s.tel != nil && s.tel.SlowThreshold > 0 && st.CPUTime >= s.tel.SlowThreshold) {
		st.Trace = nil
	}
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = Result{ID: r.ID, X: r.Location.X, Y: r.Location.Y, Score: r.Score}
	}
	return out, fromCoreStats(st), nil
}

// UpperBound returns an admissible upper bound on the best score any
// object of this snapshot can reach under the query: no indexed object
// scores strictly above it. A cluster node answers the coordinator's
// scatter probe with it, and the coordinator prunes the nodes whose bound
// the merged k-th score strictly beats.
func (s *Snapshot) UpperBound(q Query) (float64, error) {
	cq, err := s.toCoreQuery(q)
	if err != nil {
		return 0, err
	}
	return s.engine.UpperBoundAll(cq)
}

// Score computes the exact spatio-textual preference score of an arbitrary
// location under the query, by brute force. Intended for debugging and
// verification, not for production use.
func (s *Snapshot) Score(q Query, x, y float64) (float64, error) {
	cq, err := s.toCoreQuery(q)
	if err != nil {
		return 0, err
	}
	return s.engine.ExactScore(cq, geo.Point{X: x, Y: y})
}

// toCoreQuery validates and lowers a public query against the snapshot.
func (s *Snapshot) toCoreQuery(q Query) (core.Query, error) {
	if err := ValidateQuery(q, s.names); err != nil {
		return core.Query{}, err
	}
	kws := make([]kwset.Set, len(s.names))
	for i, name := range s.names {
		kws[i] = s.vocab.LookupSet(q.Keywords[name]...)
	}
	cq := core.Query{
		K:          q.K,
		Radius:     q.Radius,
		Lambda:     q.Lambda,
		Keywords:   kws,
		Variant:    core.Variant(q.Variant),
		Similarity: index.Similarity(q.Similarity),
		RequestID:  q.RequestID,
		Trace:      core.TraceMode(q.Trace),
	}
	if q.Mode == ModeApprox {
		// One request per logical query: session copies alias it, so its
		// atomic counters aggregate the whole execution.
		cq.Approx = approx.NewRequest(q.Recall)
	}
	return cq, nil
}

// RecordCacheHit files an event record for a query answered from a
// serving-layer result cache under the snapshot's telemetry: the request
// stays attributable in the event log even though no engine ran.
func (s *Snapshot) RecordCacheHit(q Query, start time.Time, elapsed time.Duration) {
	if s.tel == nil {
		return
	}
	cq, err := s.toCoreQuery(q)
	if err != nil {
		return
	}
	// Auto queries are attributed to the algorithm the planner would pick,
	// matching how the cached execution was recorded.
	core.RecordCacheHit(s.tel, s.resolve(q, &cq), &cq, start, elapsed)
}

// PredictCost resolves the query through the planner and returns the
// canonical shape label of the resolved plan plus its predicted mean total
// cost. known is false — and cost zero — while the resolved shape has
// fewer than MinPredictSamples recorded executions; the serve layer's
// cost-aware admission then falls back to queue-only admission.
func (s *Snapshot) PredictCost(q Query) (shape string, cost time.Duration, known bool, err error) {
	cq, err := s.toCoreQuery(q)
	if err != nil {
		return "", 0, false, err
	}
	p := s.planner()
	key := core.QueryShapeKey("", &cq)
	alg, cost, known := p.Resolve(key, forcedAlg(q.Algorithm))
	key.Alg = alg
	if s.tel != nil {
		shape = s.tel.Shapes.Name(key)
	} else {
		shape = key.String()
	}
	if !known {
		cost = 0
	}
	return shape, cost, known, nil
}

// PlanQuery reports the planner's full decision for the query — chosen
// algorithm, reason, predicted cost and the alternatives considered —
// without executing it. DB.Explain embeds the same
// decision.
func (s *Snapshot) PlanQuery(q Query) (*PlanDecision, error) {
	cq, err := s.toCoreQuery(q)
	if err != nil {
		return nil, err
	}
	d := s.decide(q, &cq)
	pd := fromPlanDecision(d)
	return &pd, nil
}

// decide computes the full planner decision for a validated query.
func (s *Snapshot) decide(q Query, cq *core.Query) plan.Decision {
	p := s.planner()
	return p.Decide(core.QueryShapeKey("", cq), forcedAlg(q.Algorithm))
}

// Rebuild reconstructs the indexes from the raw objects and feature sets —
// including any added with AddObjects/AddFeatureSet since the last build —
// and atomically swaps them in. Queries already in flight finish against
// the previous snapshot; new snapshots observe an incremented Generation.
// DBs loaded with Open do not retain the raw data and cannot be rebuilt.
func (db *DB) Rebuild() error {
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.built {
		return fmt.Errorf("%w: Rebuild before Build", ErrNotBuilt)
	}
	if len(db.objects) == 0 {
		return fmt.Errorf("stpq: Rebuild requires the raw data, which DBs loaded with Open do not retain")
	}
	if db.pendingLocked() {
		// Fold pending live-ingest mutations (sealed runs and the active
		// delta) into the raw data so the rebuild does not lose them. The
		// merge is forced down the full-rebuild path because raw data may
		// have been added since the last build; mergeLocked clones the
		// vocabulary and runs buildLocked itself.
		return db.mergeLocked(nil, true)
	}
	// Intern into a clone so queries on the previous snapshot keep a
	// stable vocabulary; buildLocked swaps db.engine and bumps db.gen.
	db.vocab = db.vocab.Clone()
	return db.buildLocked()
}
