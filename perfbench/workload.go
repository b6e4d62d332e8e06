package main

// workload.go defines the four workloads and runs one: set-up, warm-up,
// the open-loop phase, the closed-loop phase, the correctness checks, and
// the end-to-end metrics. The traced run is in traced.go.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stpq"
	"stpq/internal/serve"
)

// clients is the number of client connections: nproc on the 2-vCPU hosts
// the benchmark was sized on, fixed so runs compare across hosts.
const clients = 2

// dataSeed generates the dataset: stpqd -synthetic's default -seed. The
// workload seed varies the reads, the writes and their schedule over this
// one dataset, so seeds differ in traffic, not in data.
const dataSeed = 1

// Workload parameters. They are part of the workload definitions: keep
// them identical on both sides of any comparison.
const (
	hotPool      = 20_000 // distinct queries hot draws from
	hotZipfS     = 0.8    // popularity skew of the hot pool: a minority of reads repeat
	approxShare  = 0.25   // share of cold reads sent with mode approx
	approxRecall = 0.9    // their recall target
	setupReps    = 5      // set-ups per run; setup_s is their median
	batchOps     = 16     // mutations per /ingest batch
	ckptPerRun   = 2      // checkpoints spread over ingest's open loop
	recoverProbe = 16     // queries compared before and after recovery
)

// workloads in the order `--workload all` runs them.
var workloads = []string{"hot", "cold", "scatter", "ingest"}

// openShare is the share of --seconds spent in the open loop; the rest
// is the closed loop. Ingest gives the open loop more, because its
// reads are slow and its writes must cover two flush cycles there.
func openShare(w string) float64 {
	if w == "ingest" {
		return 0.75
	}
	return 0.5
}

// warmupReads is the number of reads sent before timing starts: enough
// to fill hot's buffer pools and warm the planner's shape statistics.
func warmupReads(w string) int {
	switch w {
	case "hot":
		return 600
	case "scatter":
		return 200
	default:
		return 60
	}
}

// config is one run's settings.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	readRate  float64 // open-loop reads/s
	writeRate float64 // open-loop /ingest batches/s (ingest only)
	tmpDir    string
}

func (c config) openDur() time.Duration {
	return time.Duration(c.seconds * openShare(c.workload) * float64(time.Second))
}

func (c config) closedDur() time.Duration {
	return time.Duration(c.seconds*float64(time.Second)) - c.openDur()
}

// inputs is everything generated from the seed.
type inputs struct {
	ds      *dataset
	warm    []*query
	open    []op
	closed  func() *op // the closed loop's read stream
	writes  *writeStream
	queries []*query // every read query of the run, by id
}

// genInputs builds a run's data, reads and writes from its seed.
func genInputs(c config) *inputs {
	in := &inputs{ds: genDataset(dataSeed, numObjects, numFeatures)}
	in.warm = genQueries(in.ds, warmupReads(c.workload), c.seed+100)
	finish(in.warm)
	// Streams are sized well past any plausible need, so distinct-query
	// workloads never repeat: the open loop's Poisson count with margin,
	// the closed loop's at 4000 reads/s.
	nOpen := int(c.readRate*c.openDur().Seconds()*1.5) + 100
	nClosed := int(c.closedDur().Seconds()*4000) + 1000
	var draw func() *query
	switch c.workload {
	case "hot":
		// The pool, like the data, is the same for every seed: its most
		// popular queries carry much of the load, and letting the seed
		// re-draw them would swing the load's cost from run to run. The
		// seed draws the popularity sequence and the schedule.
		in.queries = genQueries(in.ds, hotPool, dataSeed+1)
		z := newZipf(rand.New(rand.NewSource(c.seed+2)), hotPool, hotZipfS)
		draw = func() *query { return in.queries[z.next()] }
	default:
		in.queries = genQueries(in.ds, nOpen+nClosed, c.seed+1)
		if c.workload == "cold" {
			modes := rand.New(rand.NewSource(c.seed + 3))
			for _, q := range in.queries {
				q.approx = modes.Float64() < approxShare
			}
		}
		next := 0
		draw = func() *query { next++; return in.queries[next-1] }
	}
	finish(in.queries)
	for _, t := range ticks(rand.New(rand.NewSource(c.seed+4)), c.readRate, c.openDur()) {
		in.open = append(in.open, op{due: t, read: draw()})
	}
	if c.workload == "ingest" {
		wt := ticks(rand.New(rand.NewSource(c.seed+5)), c.writeRate, c.openDur())
		in.writes = genWrites(in.ds, c.seed+6, len(wt), batchOps)
		for i, t := range wt {
			in.open = append(in.open, op{due: t, write: in.writes.batches[i]})
		}
		sort.SliceStable(in.open, func(i, j int) bool { return in.open[i].due < in.open[j].due })
	}
	var mu sync.Mutex
	in.closed = func() *op {
		mu.Lock()
		defer mu.Unlock()
		return &op{read: draw()}
	}
	return in
}

// ticks is a constant-rate schedule over d with a seeded phase: the same
// number of operations at the same spacing on every seed, so seeds differ
// in what is sent rather than in how bursty the arrivals are, and ingest's
// writes end at the same point of the flush cycle.
func ticks(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	period := time.Duration(float64(time.Second) / rate)
	var out []time.Duration
	for t := time.Duration(rng.Int63n(int64(period))); t < d; t += period {
		out = append(out, t)
	}
	return out
}

// startEnv stands up the workload's system.
func startEnv(c config, ds *dataset) (*env, error) {
	if c.workload == "scatter" {
		return startScatter(ds)
	}
	return startSingle(c.workload, ds, c.tmpDir)
}

// setUp starts the system setupReps times and keeps the last one; the
// median start time is setup_s. heap_mb is the live heap the system adds,
// measured after a GC.
func setUp(c config, ds *dataset) (e *env, setupS, heapMB float64, err error) {
	base := liveHeap()
	var times []float64
	for i := 0; i < setupReps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, 0, 0, err
			}
			e.removeDirs()
		}
		t := time.Now()
		if e, err = startEnv(c, ds); err != nil {
			return nil, 0, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	heapMB = float64(liveHeap()-base) / 1e6
	return e, median(times), heapMB, nil
}

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// warmUp sends the warm-up reads back to back; failures here abort the run.
func warmUp(cl *client, qs []*query) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				if out := cl.exec(&op{read: qs[i]}); !out.ok() && errs[c] == nil {
					errs[c] = fmt.Errorf("warm-up read: %v", out.err)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkpointer runs DB.Checkpoint at fixed offsets into the open loop,
// as stpqd's -checkpoint-every-* poller would, and accounts its bytes.
type checkpointer struct {
	times []float64 // seconds per checkpoint
	bytes int64     // bytes of files the checkpoints wrote
	err   error
}

func (cp *checkpointer) run(e *env, d time.Duration, rec *recorder, done <-chan struct{}) {
	start := time.Now()
	for i := 1; i <= ckptPerRun; i++ {
		due := time.Duration(float64(d) * float64(i) / float64(ckptPerRun+1))
		select {
		case <-done:
			return
		case <-time.After(due - time.Since(start)):
		}
		before, err := dirBytes(e.ckptDir)
		if err != nil {
			cp.err = err
			return
		}
		t := time.Now()
		if err := e.db.Checkpoint(e.ckptDir); err != nil {
			cp.err = fmt.Errorf("checkpoint: %w", err)
			return
		}
		took := time.Since(t)
		rec.add(fmt.Sprintf("ckpt-%d", i), "DB.Checkpoint", "", t, took)
		cp.times = append(cp.times, took.Seconds())
		after, err := dirBytes(e.ckptDir)
		if err != nil {
			cp.err = err
			return
		}
		for path, n := range after {
			if old, ok := before[path]; !ok || old != n || modifiedSince(path, t) {
				cp.bytes += n
			}
		}
	}
}

func modifiedSince(path string, t time.Time) bool {
	info, err := os.Stat(path)
	return err == nil && !info.ModTime().Before(t)
}

// phaseResult is one pass over the open-loop schedule, plus the closed
// loop when one ran.
type phaseResult struct {
	open     openLoop
	closed   closedLoop
	ckpt     checkpointer
	walBytes int64 // WAL bytes appended during the pass
}

// runPhases runs the open loop (with checkpoints on ingest) and, unless
// closedDur is zero, the closed loop.
func runPhases(c config, in *inputs, e *env, cl *client, closedDur time.Duration) (*phaseResult, error) {
	pr := &phaseResult{}
	walBefore := walBytes(e)
	done := make(chan struct{})
	var wg sync.WaitGroup
	if c.workload == "ingest" {
		wg.Add(1)
		go func() { defer wg.Done(); pr.ckpt.run(e, c.openDur(), e.rec, done) }()
	}
	pr.open = runOpen(in.open, clients, cl.exec)
	close(done)
	wg.Wait()
	if pr.ckpt.err != nil {
		return nil, pr.ckpt.err
	}
	pr.walBytes = walBytes(e) - walBefore
	if c.workload == "ingest" {
		// The writes end with a flush, so the closed loop reads the merged
		// trees the run's writes leave behind.
		if out := cl.exec(&op{write: &batch{body: []byte(`{"flush":true}`)}}); !out.ok() {
			return nil, fmt.Errorf("final flush: %v", out.err)
		}
	}
	if closedDur > 0 {
		pr.closed = runClosed(closedDur, clients, in.closed, cl.exec)
	}
	return pr, nil
}

func walBytes(e *env) int64 {
	if e.db == nil {
		return 0
	}
	return e.db.Metrics().Counters["stpq_wal_bytes_total"]
}

// checker verifies reads against the oracle (hot, cold) or against one
// unsharded DB over the full data (scatter), computing expected answers
// lazily per distinct query after the timed phases.
type checker struct {
	w   string
	orc *oracle
	ref *stpq.DB // scatter's unsharded reference
	mu  sync.Mutex
	ans map[int]*answer
	exp map[int][]byte // scatter: reference results, JSON-encoded
	// refReads is each query's logical reads on the unsharded reference,
	// the denominator of cluster.read_amplification.
	refReads map[int]int64
}

func newChecker(c config, in *inputs) (*checker, error) {
	ck := &checker{w: c.workload, ans: map[int]*answer{}, exp: map[int][]byte{}, refReads: map[int]int64{}}
	if c.workload == "ingest" {
		return ck, nil // reads see a moving state; checked after recovery instead
	}
	ck.orc = newOracle(in.ds.objects, in.ds.sets)
	if c.workload == "scatter" {
		var err error
		if ck.ref, err = buildDB(stpq.Config{}, in.ds, in.ds.stpqObjects()); err != nil {
			return nil, err
		}
	}
	return ck, nil
}

// prepare computes the expected answers of every distinct query in
// samples, on `clients` goroutines.
func (ck *checker) prepare(samples []sample) error {
	if ck.orc == nil {
		return nil
	}
	var todo []*query
	seen := map[int]bool{}
	for _, s := range samples {
		if q := s.op.read; q != nil && !seen[q.id] && ck.ans[q.id] == nil {
			seen[q.id] = true
			todo = append(todo, q)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(todo) {
					return
				}
				q := todo[i]
				a := ck.orc.answer(q.kw)
				var exp []byte
				var reads int64
				if ck.ref != nil {
					lq := q.libQuery()
					res, st, err := ck.ref.TopK(lq)
					if err != nil {
						errs[c] = err
						return
					}
					got := toJSON(res)
					if err := a.check(got); err != nil {
						errs[c] = fmt.Errorf("unsharded reference disagrees with the oracle: %v", err)
						return
					}
					exp, _ = json.Marshal(got)
					reads = st.LogicalReads
				}
				ck.mu.Lock()
				ck.ans[q.id] = a
				if exp != nil {
					ck.exp[q.id], ck.refReads[q.id] = exp, reads
				}
				ck.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func toJSON(res []stpq.Result) []serve.ResultJSON {
	out := make([]serve.ResultJSON, len(res))
	for i, r := range res {
		out[i] = serve.ResultJSON{ID: r.ID, X: r.X, Y: r.Y, Score: r.Score}
	}
	return out
}

// verdict is the check of one sample: an error for a failed or wrong
// operation, and the recall of an approximate read.
func (ck *checker) verdict(s sample) (recall float64, err error) {
	if !s.out.ok() {
		if s.out.err == nil {
			return 0, fmt.Errorf("HTTP %d", s.out.status)
		}
		return 0, s.out.err
	}
	q := s.op.read
	if q == nil {
		return 0, nil
	}
	got := s.out.read.Results
	if ck.orc == nil { // ingest: the answer must at least be a ranked top-k
		if len(got) != queryK {
			return 0, fmt.Errorf("got %d results, want %d", len(got), queryK)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Score > got[i-1].Score {
				return 0, fmt.Errorf("results out of order at rank %d", i)
			}
		}
		return 0, nil
	}
	a := ck.ans[q.id]
	if q.approx {
		return a.recall(got), nil
	}
	if exp, ok := ck.exp[q.id]; ok {
		b, _ := json.Marshal(got)
		if !bytes.Equal(b, exp) {
			return 0, fmt.Errorf("query %d: scatter answer %s differs from the unsharded DB's %s", q.id, b, exp)
		}
		return 0, nil
	}
	if err := a.check(got); err != nil {
		return 0, fmt.Errorf("query %d: %v", q.id, err)
	}
	return 0, nil
}

// tally accumulates attempted and failed operations and the first errors.
type tally struct {
	attempted, failed int
	errs              []string
	recall            []float64
}

func (t *tally) add(ck *checker, samples []sample) {
	for _, s := range samples {
		t.attempted++
		r, err := ck.verdict(s)
		if err != nil {
			t.failed++
			if len(t.errs) < 5 {
				t.errs = append(t.errs, err.Error())
			}
			continue
		}
		if s.op.read != nil && s.op.read.approx {
			t.recall = append(t.recall, r)
		}
	}
}

// recovery closes the ingest DB, reopens it from checkpoint plus WAL, and
// requires a fixed query sample to match both the pre-close answers and
// the oracle over the final data.
type recovery struct {
	openS   float64 // stpq.Open including WAL replay
	replayS float64 // AttachWAL replay alone, on a copy without the log (traced run)
}

func recoverAndCheck(e *env, in *inputs, rec *recorder, measureReplay bool) (*recovery, error) {
	qs := in.queries[len(in.queries)-recoverProbe:]
	snap, err := e.db.Snapshot()
	if err != nil {
		return nil, err
	}
	before := make([][]byte, len(qs))
	for i, q := range qs {
		res, _, err := snap.TopK(q.libQuery())
		if err != nil {
			return nil, err
		}
		before[i], _ = json.Marshal(toJSON(res))
	}
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("closing before recovery: %w", err)
	}
	r := &recovery{}
	t := time.Now()
	db, err := stpq.Open(e.ckptDir)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	took := time.Since(t)
	rec.add("recover", "stpq.Open", "", t, took)
	r.openS = took.Seconds()
	defer db.CloseWAL()
	orc := newOracle(in.writes.objects, in.writes.sets)
	for i, q := range qs {
		res, _, err := db.TopK(q.libQuery())
		if err != nil {
			return nil, fmt.Errorf("query after recovery: %w", err)
		}
		got := toJSON(res)
		b, _ := json.Marshal(got)
		if !bytes.Equal(b, before[i]) {
			return nil, fmt.Errorf("query %d after recovery: %s, before close: %s", q.id, b, before[i])
		}
		if err := orc.answer(q.kw).check(got); err != nil {
			return nil, fmt.Errorf("query %d after recovery disagrees with the oracle over the final data: %v", q.id, err)
		}
	}
	if measureReplay {
		if r.replayS, err = timeReplay(e, rec); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
