package main

// traced.go is the traced run: the same schedule as the untraced run,
// replayed with the span recorder on, followed by direct calls into each
// layer's public entry points on a sample of the schedule's queries. It
// produces the per-layer metrics; end-to-end metrics always come from the
// untraced pass.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"stpq"
)

// probeQueries is how many of the schedule's distinct queries the direct
// calls of the traced run visit.
const probeQueries = 24

// overlayProbeEvery is the period of the ingest overlay probe: a direct,
// single Snapshot.TopK timed against the pending delta objects.
const overlayProbeEvery = 100 * time.Millisecond

// layerStats is what the traced pass measured.
type layerStats struct {
	m     map[string]float64
	spans []span
}

// counters reads every counter of the system's registries, summed by
// name prefix, so deltas across a pass are cheap to take.
func counters(e *env) map[string]float64 {
	out := map[string]float64{}
	add := func(name string, v float64) {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	dbs := []*stpq.DB{e.db}
	for _, n := range e.nodes {
		dbs = append(dbs, n.db)
	}
	for _, db := range dbs {
		if db == nil {
			continue
		}
		m := db.Metrics()
		for k, v := range m.Counters {
			add(k, float64(v))
		}
		for k, h := range m.Histograms {
			add(k+"_sum", h.Sum)
			add(k+"_count", float64(h.Count))
		}
	}
	if e.coord != nil {
		for k, v := range e.coord.Metrics().Snapshot().Counters {
			add(k, float64(v))
		}
	}
	return out
}

func diff(after, before map[string]float64, name string) float64 { return after[name] - before[name] }

// tracedPass replays the open-loop schedule on a fresh system with spans
// on, then makes the direct calls.
func tracedPass(c config, in *inputs, ck *checker) (*layerStats, *phaseResult, error) {
	e, err := startEnv(c, in.ds)
	if err != nil {
		return nil, nil, err
	}
	defer e.removeDirs()
	closed := false
	defer func() {
		if !closed {
			_ = e.close()
		}
	}()
	cl := newClient(e, clients)
	defer cl.close()
	if err := warmUp(cl, in.warm); err != nil {
		return nil, nil, err
	}
	ls := &layerStats{m: map[string]float64{}}
	before := counters(e)

	// The ingest overlay probe: while the schedule runs, time a direct
	// Snapshot.TopK against the delta objects pending at that moment.
	var points [][2]float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if c.workload == "ingest" {
		pending := func() float64 { return e.db.Metrics().Gauges["stpq_ingest_delta_objects"] }
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(overlayProbeEvery)
			defer t.Stop()
			q := in.queries[len(in.queries)-1].libQuery()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				pend := pending()
				snap, err := e.db.Snapshot()
				if err != nil {
					continue
				}
				start := time.Now()
				if _, _, err := snap.TopK(q); err == nil {
					d := time.Since(start)
					e.rec.add(fmt.Sprintf("overlay-%d", i), "Snapshot.TopK", "", start, d)
					points = append(points, [2]float64{pend, ms(d)})
				}
			}
		}()
	}
	e.rec.on.Store(true)
	pr, err := runPhases(c, in, e, cl, 0)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	after := counters(e)
	if err := directCalls(c, in, e, pr, ls); err != nil {
		return nil, nil, err
	}
	e.rec.on.Store(false)

	reads := readSamples(pr.open.samples)
	var handler, queueWait, logical, physical, comb, pulled, scored []float64
	var fanout, pruned, amp []float64
	var approxCand, approxPruned, approxSkip, approxExec []float64
	cached, rejected := 0, 0
	for _, s := range pr.open.samples {
		if st := s.out.status; st == 429 || st == 503 || st == 504 {
			rejected++
		}
	}
	for _, s := range reads {
		r := s.out.read
		if r.Cached {
			cached++
			continue
		}
		st := r.Stats
		if s.op.read.approx {
			approxCand = append(approxCand, float64(st.ApproxCandidates))
			if st.ApproxCandidates > 0 {
				approxPruned = append(approxPruned, float64(st.ApproxPruned)/float64(st.ApproxCandidates))
			}
			approxSkip = append(approxSkip, float64(st.ApproxSkippedReads))
			approxExec = append(approxExec, float64(st.CPUMicros)/1e3)
			continue
		}
		queueWait = append(queueWait, float64(r.ElapsedUS-st.CPUMicros)/1e3)
		logical = append(logical, float64(st.LogicalReads))
		physical = append(physical, float64(st.PhysicalReads))
		comb = append(comb, float64(st.Combinations))
		pulled = append(pulled, float64(st.FeaturesPulled))
		scored = append(scored, float64(st.ObjectsScored))
		if c.workload == "scatter" {
			fanout = append(fanout, float64(st.ShardFanout))
			pruned = append(pruned, float64(st.ShardPruned))
			if ref := ck.refReads[s.op.read.id]; ref > 0 {
				amp = append(amp, float64(st.LogicalReads)/float64(ref))
			}
		}
	}
	ls.spans = e.rec.spans
	for _, s := range ls.spans {
		if s.Name == "handler/query" {
			handler = append(handler, s.DurUS/1e3)
		}
	}
	executed := float64(len(reads) - cached)
	m := ls.m
	m["serve.handler_ms"] = mean(handler)
	if c.workload != "scatter" { // the coordinator has no serve queue in front of it
		m["serve.queue_wait_ms"] = mean(queueWait)
	}
	m["serve.cache_hit_ratio"] = ratio(float64(cached), float64(len(reads)))
	m["serve.rejected"] = float64(rejected)
	m["core.combinations"] = mean(comb)
	m["core.features_pulled"] = mean(pulled)
	m["core.objects_scored"] = mean(scored)
	m["storage.logical_reads"] = mean(logical)
	m["storage.physical_reads"] = mean(physical)
	m["storage.hit_ratio"] = 1 - ratio(sum(physical), sum(logical))
	m["storage.evictions"] = ratio(diff(after, before, "stpq_bufferpool_evictions_total"), executed)
	m["approx.candidates"] = mean(approxCand)
	m["approx.pruned_ratio"] = mean(approxPruned)
	m["approx.skipped_reads"] = mean(approxSkip)
	m["approx.exec_ms"] = mean(approxExec)
	m["cluster.fanout"] = mean(fanout)
	m["cluster.pruned"] = mean(pruned)
	m["cluster.read_amplification"] = mean(amp)
	m["cluster.retries"] = diff(after, before, "stpq_cluster_retries_total")
	if c.workload == "ingest" {
		var apply []float64
		for _, s := range ls.spans {
			if s.Name == "handler/ingest" {
				apply = append(apply, s.DurUS/1e3)
			}
		}
		m["ingest.apply_ms"] = mean(apply)
		m["ingest.wal_fsync_ms"] = 1e3 * ratio(diff(after, before, "stpq_ingest_wal_fsync_seconds_sum"), diff(after, before, "stpq_ingest_wal_fsync_seconds_count"))
		m["ingest.merges"] = diff(after, before, "stpq_ingest_merges_total")
		m["ingest.merge_s"] = diff(after, before, "stpq_ingest_merge_seconds_sum")
		m["ingest.write_stalls"] = diff(after, before, "stpq_ingest_write_stalls_total")
		m["ingest.checkpoint_s"] = mean(pr.ckpt.times)
		m["ingest.bytes_written"] = float64(pr.walBytes + pr.ckpt.bytes)
		m["ingest.overlay_ms_per_pending_upsert"] = slope(points)
		rcv, err := recoverAndCheck(e, in, e.rec, true)
		closed = true
		if err != nil {
			return nil, nil, err
		}
		m["ingest.replay_s"] = rcv.replayS
		ls.spans = e.rec.spans
	}
	return ls, pr, nil
}

// directCalls makes the single-threaded library calls of the traced run
// on a sample of the schedule's distinct queries, after the traffic has
// stopped: Service.Do and Snapshot.TopK with Query.Trace on (the program's
// phase spans hang under them), Snapshot.PlanQuery, an untraced
// Snapshot.TopK bracketed by MemStats for allocations, and
// Coordinator.Do on scatter.
func directCalls(c config, in *inputs, e *env, pr *phaseResult, ls *layerStats) error {
	var qs []*query
	seen := map[int]bool{}
	for _, s := range pr.open.samples {
		if q := s.op.read; q != nil && !q.approx && !seen[q.id] && len(qs) < probeQueries {
			seen[q.id] = true
			qs = append(qs, q)
		}
	}
	var decide, allocs, bytesPer, exec, pull, gen, retrieve, gather []float64
	stds := 0
	for i, q := range qs {
		req := fmt.Sprintf("probe-%d", i)
		lq := q.libQuery()
		lq.RequestID = req
		if e.coord != nil {
			lq.Trace = stpq.TraceOn
			t := time.Now()
			resp, err := e.coord.Do(lq)
			if err != nil {
				return fmt.Errorf("Coordinator.Do: %w", err)
			}
			d := time.Since(t)
			e.rec.add(req, "Coordinator.Do", "", t, d)
			// One wave queries every node at once, so the engines' critical
			// path is the slowest node; the rest of the wall time is the
			// coordinator's probe, RPC and merge work. Engine and phase
			// times sum over the nodes.
			slowest, sumExec, sumPull, sumGen, sumRetrieve := 0.0, 0.0, 0.0, 0.0, 0.0
			for _, raw := range resp.NodeTraces {
				var sp stpq.Span
				if err := json.Unmarshal(raw, &sp); err != nil {
					return fmt.Errorf("node trace: %w", err)
				}
				e.rec.addTree(req, "Coordinator.Do", t, &sp)
				slowest = max(slowest, ms(sp.Duration))
				sumExec += ms(sp.Duration)
				sumPull += phaseMs(&sp, "features.pull")
				sumGen += phaseMs(&sp, "combos.generate")
				sumRetrieve += phaseMs(&sp, "objects.retrieve")
			}
			gather = append(gather, ms(d)-slowest)
			exec, pull = append(exec, sumExec), append(pull, sumPull)
			gen, retrieve = append(gen, sumGen), append(retrieve, sumRetrieve)
			continue
		}
		snap, err := e.db.Snapshot()
		if err != nil {
			return err
		}
		t := time.Now()
		d, err := snap.PlanQuery(lq)
		if err != nil {
			return fmt.Errorf("Snapshot.PlanQuery: %w", err)
		}
		took := time.Since(t)
		e.rec.add(req, "Snapshot.PlanQuery", "", t, took)
		decide = append(decide, float64(took)/1e3)
		if d.Algorithm == "stds" {
			stds++
		}

		traced := lq
		traced.Trace = stpq.TraceOn
		t = time.Now()
		resp, err := e.svc.Do(context.Background(), traced)
		if err != nil {
			return fmt.Errorf("Service.Do: %w", err)
		}
		e.rec.add(req, "Service.Do", "", t, time.Since(t))
		e.rec.addTree(req, "Service.Do", t, resp.Stats.Trace)

		t = time.Now()
		_, st, err := snap.TopK(traced)
		if err != nil {
			return fmt.Errorf("Snapshot.TopK: %w", err)
		}
		e.rec.add(req+"-topk", "Snapshot.TopK", "", t, time.Since(t))
		e.rec.addTree(req+"-topk", "Snapshot.TopK", t, st.Trace)
		exec = append(exec, ms(st.CPUTime))
		pull = append(pull, phaseMs(st.Trace, "features.pull"))
		gen = append(gen, phaseMs(st.Trace, "combos.generate"))
		retrieve = append(retrieve, phaseMs(st.Trace, "objects.retrieve"))

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, _, err := snap.TopK(lq); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		bytesPer = append(bytesPer, float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	m := ls.m
	m["plan.decide_us"] = mean(decide)
	m["plan.stds_share"] = ratio(float64(stds), float64(len(decide)))
	m["core.exec_ms"] = mean(exec)
	m["core.features_pull_ms"] = mean(pull)
	m["core.combos_generate_ms"] = mean(gen)
	m["core.objects_retrieve_ms"] = mean(retrieve)
	m["engine.allocs_per_query"] = mean(allocs)
	m["engine.bytes_per_query"] = mean(bytesPer)
	m["cluster.gather_ms"] = mean(gather)
	return nil
}

// phaseMs sums the durations of the spans named name in a program trace.
func phaseMs(sp *stpq.Span, name string) float64 {
	total := 0.0
	sp.Walk(func(_ int, s *stpq.Span) {
		if s.Name == name {
			total += ms(s.Duration)
		}
	})
	return total
}

// timeReplay measures WAL replay alone: it reopens a copy of the
// checkpoint whose manifest names no log, then attaches the log and times
// the replay.
func timeReplay(e *env, rec *recorder) (float64, error) {
	dir, err := os.MkdirTemp(filepath.Dir(e.ckptDir), "replay-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	files, err := os.ReadDir(e.ckptDir)
	if err != nil {
		return 0, err
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(e.ckptDir, f.Name()))
		if err != nil {
			return 0, err
		}
		if f.Name() == "stpq.json" {
			var man map[string]any
			if err := json.Unmarshal(data, &man); err != nil {
				return 0, err
			}
			cfg, _ := man["config"].(map[string]any)
			if cfg == nil {
				return 0, fmt.Errorf("checkpoint manifest has no config")
			}
			delete(cfg, "WALDir")
			if data, err = json.Marshal(man); err != nil {
				return 0, err
			}
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
			return 0, err
		}
	}
	db, err := stpq.Open(dir)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	n, err := db.AttachWAL(e.walDir)
	took := time.Since(t)
	if err != nil {
		return 0, fmt.Errorf("AttachWAL: %w", err)
	}
	rec.add("replay", "DB.AttachWAL", "", t, took)
	if n == 0 {
		return 0, fmt.Errorf("replay found no WAL records after the last checkpoint")
	}
	return took.Seconds(), db.CloseWAL()
}

// slope fits y = a + b·x by least squares and returns b.
func slope(pts [][2]float64) float64 {
	n := float64(len(pts))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		sx += p[0]
		sy += p[1]
		sxx += p[0] * p[0]
		sxy += p[0] * p[1]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// readSamples keeps the successful reads.
func readSamples(ss []sample) []sample {
	var out []sample
	for _, s := range ss {
		if s.op.read != nil && s.out.ok() && s.out.read != nil {
			out = append(out, s)
		}
	}
	return out
}
