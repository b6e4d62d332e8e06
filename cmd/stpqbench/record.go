package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"

	"stpq/internal/core"
	"stpq/internal/obs"
)

// Quantiles summarizes one measure over a query workload.
type Quantiles struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
}

// newQuantiles computes mean/p50/p99 (nearest-rank) of vals.
func newQuantiles(vals []float64) Quantiles {
	if len(vals) == 0 {
		return Quantiles{}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	rank := func(q float64) float64 {
		i := int(q*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return Quantiles{Mean: sum / float64(len(sorted)), P50: rank(0.50), P99: rank(0.99)}
}

// PhaseBreakdown is the per-query mean cost of one trace phase, keyed by
// its slash-separated path under the query root (e.g.
// "combos.generate/features.pull").
type PhaseBreakdown struct {
	Name              string  `json:"name"`
	MeanMS            float64 `json:"mean_ms"`
	MeanPhysicalReads float64 `json:"mean_physical_reads"`
}

// Record is one experiment data point: the workload summary the text output
// prints as a single row, plus the distribution and phase detail the text
// format has no room for.
type Record struct {
	Experiment    string    `json:"experiment"`
	Label         string    `json:"label"`
	Index         string    `json:"index"`
	Algorithm     string    `json:"algorithm"`
	Variant       string    `json:"variant"`
	Queries       int       `json:"queries"`
	TotalMS       Quantiles `json:"total_ms"`
	CPUMS         Quantiles `json:"cpu_ms"`
	IOMS          Quantiles `json:"io_ms"`
	PhysicalReads Quantiles `json:"physical_reads"`
	LogicalReads  Quantiles `json:"logical_reads"`
	// QPS is the aggregate throughput of concurrent workloads (0 for the
	// serial experiments, whose wall time is the per-query mean).
	QPS float64 `json:"qps,omitempty"`
	// AllocsPerOp / BytesPerOp are runtime.MemStats deltas over the
	// workload divided by the query count, the benchstat-style allocation
	// cost of one query including all harness-visible garbage.
	AllocsPerOp float64          `json:"allocs_per_op"`
	BytesPerOp  float64          `json:"bytes_per_op"`
	Phases      []PhaseBreakdown `json:"phases,omitempty"`
	// Counters carries experiment-specific totals over the whole workload
	// (e.g. the cluster sweep's fanout/pruned counts).
	Counters map[string]int64 `json:"counters,omitempty"`
}

// newRecord summarizes the per-query stats of one data point.
func newRecord(exp, label, idx, alg string, qs []core.Query, per []core.Stats) Record {
	rec := Record{
		Experiment: exp,
		Label:      label,
		Index:      idx,
		Algorithm:  alg,
		Queries:    len(per),
	}
	if len(qs) > 0 {
		rec.Variant = qs[0].Variant.String()
	}
	total := make([]float64, len(per))
	cpu := make([]float64, len(per))
	io := make([]float64, len(per))
	phy := make([]float64, len(per))
	logr := make([]float64, len(per))
	type phaseAcc struct {
		ms    float64
		reads float64
	}
	phases := make(map[string]*phaseAcc)
	for i, st := range per {
		total[i] = ms(st.Total())
		cpu[i] = ms(st.CPUTime)
		io[i] = ms(st.IOTime)
		phy[i] = float64(st.PhysicalReads)
		logr[i] = float64(st.LogicalReads)
		if st.Trace != nil {
			st.Trace.Walk(func(path string, depth int, sp *obs.Span) {
				if depth == 0 {
					return // the root is the whole query, already summarized
				}
				pa := phases[path]
				if pa == nil {
					pa = &phaseAcc{}
					phases[path] = pa
				}
				// Each span's totals include its children's; the path keys
				// let consumers reconstruct the hierarchy.
				pa.ms += ms(sp.Duration)
				pa.reads += float64(sp.PhysicalReads)
			})
		}
	}
	rec.TotalMS = newQuantiles(total)
	rec.CPUMS = newQuantiles(cpu)
	rec.IOMS = newQuantiles(io)
	rec.PhysicalReads = newQuantiles(phy)
	rec.LogicalReads = newQuantiles(logr)
	if len(phases) > 0 {
		names := make([]string, 0, len(phases))
		for n := range phases {
			names = append(names, n)
		}
		sort.Strings(names)
		n := float64(len(per))
		for _, name := range names {
			rec.Phases = append(rec.Phases, PhaseBreakdown{
				Name:              name,
				MeanMS:            phases[name].ms / n,
				MeanPhysicalReads: phases[name].reads / n,
			})
		}
	}
	return rec
}

// memCounter snapshots the runtime allocation totals so a workload can
// report allocations per query. The delta over the whole process includes
// harness overhead (stats slices, channel sends), which is negligible
// against the per-query index work.
type memCounter struct{ mallocs, bytes uint64 }

func startMemCount() memCounter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounter{mallocs: m.Mallocs, bytes: m.TotalAlloc}
}

// perOp returns the allocation deltas since the snapshot divided by n.
func (c memCounter) perOp(n int) (allocs, bytes float64) {
	if n <= 0 {
		return 0, 0
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs-c.mallocs) / float64(n), float64(m.TotalAlloc-c.bytes) / float64(n)
}

// writeRecords writes the collected records as a JSON array.
func writeRecords(path string, recs []Record) error {
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
