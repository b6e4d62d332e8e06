// Command stpqperf is the repository's benchmark. It stands up the system
// the way cmd/stpqd does, drives it over HTTP through its real front doors
// (the serve handler, the cluster coordinator's handler, POST /ingest) from
// this one process over at most two client connections, checks every
// answer, and prints the end-to-end metrics; with -trace 1 it replays the
// same schedule with spans on and prints the per-layer metrics.
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash perfbench/run.sh --rates <BENCHMARK.json's rates> --workload hot --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --rates <BENCHMARK.json's rates> --workload all --seed 1 --seconds 20 --trace 1
//
// The offered open-loop rates are fixed in BENCHMARK.json's command line
// (--rates). See perfbench/README.md for why each workload exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// endToEnd lists the metrics BENCHMARK.json gates, reported by every
// workload with --trace 0; perLayer those reported with --trace 1.
// benchmark_test.go keeps them equal to BENCHMARK.json.
var endToEnd = []string{"read_p50_ms", "read_qps", "setup_s", "heap_mb"}

var perLayer = []string{
	"serve.handler_ms", "serve.queue_wait_ms", "serve.cache_hit_ratio", "serve.rejected",
	"plan.decide_us", "plan.stds_share",
	"core.exec_ms", "core.features_pull_ms", "core.combos_generate_ms", "core.objects_retrieve_ms",
	"core.combinations", "core.features_pulled", "core.objects_scored",
	"storage.logical_reads", "storage.physical_reads", "storage.hit_ratio", "storage.evictions",
	"engine.allocs_per_query", "engine.bytes_per_query",
	"approx.candidates", "approx.pruned_ratio", "approx.skipped_reads", "approx.exec_ms",
	"cluster.fanout", "cluster.pruned", "cluster.read_amplification", "cluster.gather_ms", "cluster.retries",
	"ingest.apply_ms", "ingest.wal_fsync_ms", "ingest.merges", "ingest.merge_s", "ingest.write_stalls",
	"ingest.checkpoint_s", "ingest.bytes_written", "ingest.overlay_ms_per_pending_upsert", "ingest.replay_s",
	"trace.overhead", "gen.late_p99_ms",
	// End-to-end metrics BENCHMARK.json does not gate, measured in the
	// traced run's untraced pass: the workload-specific ones, and the read
	// tail, whose spread across runs on a shared 2-vCPU host exceeds any
	// usable bound.
	"read_p90_ms", "pages_per_read", "approx_recall", "write_p50_ms", "write_p90_ms", "write_amp", "recover_s", "failed_frac",
}

// units of every metric, by name or by name prefix.
func unit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || name == "trace.overhead":
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case name == "read_qps":
		return "1/s"
	case name == "heap_mb":
		return "MB"
	case strings.HasSuffix(name, "_reads") || name == "pages_per_read" || name == "storage.evictions":
		return "pages"
	case name == "engine.bytes_per_query" || name == "ingest.bytes_written":
		return "bytes"
	case strings.HasSuffix(name, "_pending_upsert"):
		return "ms/object"
	case strings.Contains(name, "ratio") || strings.HasSuffix(name, "_share") || strings.HasSuffix(name, "_frac") ||
		name == "approx_recall" || name == "write_amp" || name == "cluster.read_amplification":
		return "ratio"
	default:
		return "count"
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "hot | cold | scatter | ingest | all")
		seed     = flag.Int64("seed", 1, "workload seed: data, queries and writes derive from it")
		seconds  = flag.Float64("seconds", 16, "measured seconds per run (open loop plus closed loop)")
		trace    = flag.Int("trace", 0, "1: also replay the schedule traced and report per-layer metrics")
		rates    = flag.String("rates", "", "offered open-loop rates, e.g. hot=170,cold=20,scatter=70,ingest=8,ingest_writes=100")
		buildDir = flag.String("build-dir", ".bench_build", "directory for records, spans and scratch files")
		outDir   = flag.String("out", "", "where records and span files go (default <build-dir>/perfbench)")
	)
	flag.Parse()
	if *outDir == "" {
		*outDir = filepath.Join(*buildDir, "perfbench")
	}
	rs, err := parseRates(*rates)
	if err != nil {
		fatal(err)
	}
	var ws []string
	switch *workload {
	case "all":
		ws = workloads
	case "hot", "cold", "scatter", "ingest":
		ws = []string{*workload}
	default:
		fatal(fmt.Errorf("unknown --workload %q (want hot, cold, scatter, ingest or all)", *workload))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(*buildDir, "perfbench-tmp-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	final := lastLine{Correct: true, Metrics: map[string]metricJSON{}}
	exit := 0
	for _, w := range ws {
		c := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, tmpDir: tmp,
			readRate: rs[w], writeRate: rs["ingest_writes"]}
		if c.readRate <= 0 || (w == "ingest" && c.writeRate <= 0) {
			fatal(fmt.Errorf("--rates gives no offered rate for %s", w))
		}
		rep, err := runWorkload(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stpqperf: %s: %v\n", w, err)
			os.RemoveAll(tmp)
			os.Exit(1)
		}
		rep.print(os.Stdout)
		path := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w, *seed, *trace))
		if err := rep.write(path); err != nil {
			fatal(err)
		}
		fmt.Printf("record: %s\n", path)
		if rep.Spans != nil {
			sp := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", w, *seed))
			if err := writeSpans(sp, rep.Spans); err != nil {
				fatal(err)
			}
			fmt.Printf("spans: %s\n", sp)
		}
		if rep.Invalid != "" {
			fmt.Fprintf(os.Stderr, "stpqperf: %s: run invalid, not reported: %s\n", w, rep.Invalid)
			os.RemoveAll(tmp)
			os.Exit(1)
		}
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		if !rep.Correct {
			final.Correct = false
			exit = 1
		}
		names := endToEnd
		if c.trace {
			names = perLayer
		}
		for _, n := range names {
			key := n
			if len(ws) > 1 {
				key = w + "." + n
			}
			final.Metrics[key] = metricJSON{Value: rep.value(n), Unit: unit(n)}
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if exit != 0 {
		os.RemoveAll(tmp)
		os.Exit(exit)
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine is the one JSON object the benchmark prints last.
type lastLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func parseRates(s string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, kv := range strings.Split(s, ",") {
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		f, err := strconv.ParseFloat(v, 64)
		if !ok || err != nil || f <= 0 {
			return nil, fmt.Errorf("bad --rates entry %q (want name=reads_per_second)", kv)
		}
		out[k] = f
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "stpqperf: %v\n", err)
	os.Exit(2)
}

// report is one workload's record.
type report struct {
	Provenance map[string]any     `json:"provenance"`
	Workload   string             `json:"workload"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Invalid    string             `json:"invalid,omitempty"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	// Notes carry sample counts and other context printed beside metrics.
	Notes map[string]string     `json:"notes"`
	Self  map[string][2]float64 `json:"span_total_self_ms,omitempty"`
	Spans []span                `json:"-"`
}

func (r *report) value(name string) float64 {
	if v, ok := r.PerLayer[name]; ok {
		return v
	}
	return r.EndToEnd[name]
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes the human-readable report: provenance, then every metric
// by name with its unit.
func (r *report) print(w *os.File) {
	fmt.Fprintf(w, "== %s ==\n", r.Workload)
	keys := make([]string, 0, len(r.Provenance))
	for k := range r.Provenance {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-24s %v\n", k, r.Provenance[k])
	}
	fmt.Fprintf(w, "  %-24s %d attempted, %d failed, correct=%v\n", "operations", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	show := func(title string, m map[string]float64) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s:\n", title)
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "    %-38s %14.4f %-9s %s\n", n, m[n], unit(n), r.Notes[n])
		}
	}
	show("end-to-end (untraced)", r.EndToEnd)
	var extra []string
	for n := range r.Notes {
		if _, ok := r.EndToEnd[n]; !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		fmt.Fprintf(w, "    %-38s %s\n", n, r.Notes[n])
	}
	show("per-layer (traced)", r.PerLayer)
	if len(r.Self) > 0 {
		fmt.Fprintf(w, "  spans (total / self ms, summed over the traced run):\n")
		names := make([]string, 0, len(r.Self))
		for n := range r.Self {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return r.Self[names[i]][1] > r.Self[names[j]][1] })
		for _, n := range names {
			fmt.Fprintf(w, "    %-38s %12.1f %12.1f\n", n, r.Self[n][0], r.Self[n][1])
		}
	}
}

// provenance states how the record was made.
func provenance(c config, in *inputs, opened, closed int) map[string]any {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	pool := 1024
	if c.workload == "cold" {
		pool = coldPoolPages
	}
	p := map[string]any{
		"commit":              commit,
		"go":                  runtime.Version(),
		"nproc":               runtime.NumCPU(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"seed":                c.seed,
		"seconds":             c.seconds,
		"dataset":             fmt.Sprintf("%d objects, %d×%d features, vocab %d", len(in.ds.objects), numSets, numFeatures, vocabSize),
		"page_size_bytes":     4096,
		"pool_pages":          pool,
		"clients":             clients,
		"io":                  "pages are memory-resident: page reads are counted, not timed",
		"offered_reads_per_s": c.readRate,
		"open_loop_ops":       opened,
		"closed_loop_ops":     closed,
		"date":                time.Now().UTC().Format(time.RFC3339),
	}
	if c.workload == "ingest" {
		p["offered_batches_per_s"] = c.writeRate
		p["mutations"] = in.writes.counts
		p["flush_policy"] = "library defaults: AutoFlushOps 4096, MergeAuto, synchronous merges, fsync per Apply"
	}
	if c.workload == "scatter" {
		p["cluster_nodes"] = scatterNodes
	}
	return p
}

// runWorkload runs one workload end to end.
func runWorkload(c config) (*report, error) {
	in := genInputs(c)
	ck, err := newChecker(c, in)
	if err != nil {
		return nil, err
	}
	e, setupS, heapMB, err := setUp(c, in.ds)
	if err != nil {
		return nil, err
	}
	defer e.removeDirs()
	cl := newClient(e, clients)
	if err := warmUp(cl, in.warm); err != nil {
		cl.close()
		_ = e.close()
		return nil, err
	}
	closedDur := c.closedDur()
	if c.trace {
		closedDur = 0 // the traced run's second pass takes the closed loop's time
	}
	pr, err := runPhases(c, in, e, cl, closedDur)
	cl.close()
	if err != nil {
		_ = e.close()
		return nil, err
	}
	var rcv *recovery
	if c.workload == "ingest" {
		rcv, err = recoverAndCheck(e, in, e.rec, false)
	} else {
		err = e.close()
	}
	if err != nil {
		return nil, err
	}
	if err := ck.prepare(append(append([]sample(nil), pr.open.samples...), pr.closed.samples...)); err != nil {
		return nil, err
	}
	var t tally
	t.add(ck, pr.open.samples)
	t.add(ck, pr.closed.samples)

	rep := &report{Workload: c.workload, Notes: map[string]string{}, EndToEnd: map[string]float64{},
		Provenance: provenance(c, in, len(pr.open.samples), len(pr.closed.samples))}
	rep.Invalid = pr.open.validity()
	endToEndMetrics(c, rep, pr, &t, setupS, heapMB, rcv)
	if c.trace {
		ls, tpr, err := tracedPass(c, in, ck)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		if err := ck.prepare(tpr.open.samples); err != nil {
			return nil, err
		}
		t.add(ck, tpr.open.samples)
		rep.PerLayer = ls.m
		rep.Spans = ls.spans
		rep.Self = selfTimes(ls.spans)
		if inv := tpr.open.validity(); inv != "" && rep.Invalid == "" {
			rep.Invalid = "traced pass: " + inv
		}
		traced := latencies(tpr.open.samples, true)
		ls.m["trace.overhead"] = quantile(traced, 0.5) - rep.EndToEnd["read_p50_ms"]
		for _, n := range perLayer {
			if v, ok := rep.EndToEnd[n]; ok {
				ls.m[n] = v
			}
		}
		for _, n := range perLayer {
			if _, ok := ls.m[n]; !ok {
				ls.m[n] = 0 // the layer does not run on this workload
			}
		}
	}
	rep.Attempted, rep.Failed, rep.Errors = t.attempted, t.failed, t.errs
	rep.EndToEnd["failed_frac"] = ratio(float64(t.failed), float64(t.attempted))
	rep.Correct = t.failed == 0
	for _, n := range endToEnd {
		if _, ok := rep.EndToEnd[n]; !ok && !c.trace && rep.Invalid == "" {
			rep.Invalid = fmt.Sprintf("%s not measured (%s)", n, rep.Notes[n+" (not reported)"])
		}
	}
	for n, v := range rep.EndToEnd {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errors.New(n + " is not a number: too few successful samples")
		}
	}
	return rep, nil
}

// latencies returns the open-loop read (or write) latencies in ms; failed
// operations count as infinitely late.
func latencies(ss []sample, reads bool) []float64 {
	var out []float64
	for _, s := range ss {
		if (s.op.read != nil) != reads {
			continue
		}
		out = append(out, latency(s))
	}
	return out
}

// latency is a sample's latency in ms; a failed operation counts as
// infinitely late.
func latency(s sample) float64 {
	if !s.out.ok() {
		return math.Inf(1)
	}
	return ms(s.lat)
}

// endToEndMetrics fills the untraced metrics.
func endToEndMetrics(c config, rep *report, pr *phaseResult, t *tally, setupS, heapMB float64, rcv *recovery) {
	m, notes := rep.EndToEnd, rep.Notes
	reads := latencies(pr.open.samples, true)
	m["read_p50_ms"] = quantile(reads, 0.5)
	notes["read_p50_ms"] = fmt.Sprintf("n=%d open-loop reads, timed from due time", len(reads))
	for _, p := range []struct {
		name string
		q    float64
	}{{"read_p90_ms", 0.90}, {"read_p99_ms", 0.99}} {
		if v, beyond, ok := tail(reads, p.q); ok {
			m[p.name] = v
			notes[p.name] = fmt.Sprintf("%d samples beyond", beyond)
		} else {
			notes[p.name+" (not reported)"] = fmt.Sprintf("only %d samples beyond", beyond)
		}
	}
	if c.workload == "ingest" {
		writes := latencies(pr.open.samples, false)
		m["write_p50_ms"] = quantile(writes, 0.5)
		notes["write_p50_ms"] = fmt.Sprintf("n=%d /ingest batches of %d mutations", len(writes), batchOps)
		for _, p := range []struct {
			name string
			q    float64
		}{{"write_p90_ms", 0.90}, {"write_p99_ms", 0.99}} {
			if v, beyond, ok := tail(writes, p.q); ok {
				m[p.name] = v
				notes[p.name] = fmt.Sprintf("%d samples beyond", beyond)
			} else {
				notes[p.name+" (not reported)"] = fmt.Sprintf("only %d samples beyond", beyond)
			}
		}
		var payload int64
		for _, s := range pr.open.samples {
			if s.op.write != nil && s.out.ok() {
				payload += int64(len(s.op.write.body))
			}
		}
		m["write_amp"] = ratio(float64(pr.walBytes+pr.ckpt.bytes), float64(payload))
		notes["write_amp"] = fmt.Sprintf("WAL %d + checkpoint %d bytes / %d JSON payload bytes", pr.walBytes, pr.ckpt.bytes, payload)
		m["recover_s"] = rcv.openS
	}
	if pr.closed.elapsed > 0 {
		ok := 0
		for _, s := range pr.closed.samples {
			if s.out.ok() {
				ok++
			}
		}
		m["read_qps"] = float64(ok) / pr.closed.elapsed.Seconds()
		notes["read_qps"] = fmt.Sprintf("%d reads over %.1fs, %d closed-loop clients", ok, pr.closed.elapsed.Seconds(), clients)
	}
	var pages []float64
	for _, s := range readSamples(pr.open.samples) {
		if !s.op.read.approx {
			pages = append(pages, float64(s.out.read.Stats.PhysicalReads))
		}
	}
	m["pages_per_read"] = mean(pages)
	notes["pages_per_read"] = "physical page reads per exact read (counted, not timed)"
	if len(t.recall) > 0 {
		m["approx_recall"] = mean(t.recall)
		notes["approx_recall"] = fmt.Sprintf("recall@%d over %d approx reads at recall target %.2f", queryK, len(t.recall), approxRecall)
	}
	m["setup_s"] = setupS
	notes["setup_s"] = fmt.Sprintf("median of %d set-ups, data generation excluded", setupReps)
	m["heap_mb"] = heapMB
	late := make([]float64, len(pr.open.samples))
	for i, s := range pr.open.samples {
		late[i] = ms(s.late)
	}
	m["gen.late_p99_ms"] = quantile(late, 0.99)
	if c.workload == "hot" {
		seen := map[int]bool{}
		repeats, n := 0, 0
		for _, s := range append(append([]sample(nil), pr.open.samples...), pr.closed.samples...) {
			n++
			if seen[s.op.read.id] {
				repeats++
			}
			seen[s.op.read.id] = true
		}
		notes["repeat_share"] = fmt.Sprintf("%.3f of %d reads repeat an earlier query", ratio(float64(repeats), float64(n)), n)
	}
}
