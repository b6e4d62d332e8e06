package main

// env.go stands the system up the way cmd/stpqd does — a built stpq.DB
// behind the internal/serve worker pool, or cluster nodes behind the
// internal/cluster Coordinator — and serves its real HTTP handler on a
// loopback listener.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"stpq"
	"stpq/internal/cluster"
	"stpq/internal/serve"
	"stpq/internal/shard"
)

// serveConfig is stpqd's serve.Config at its flag defaults: GOMAXPROCS
// workers, a 64-deep queue, no deadline, a 256-entry result cache, and
// -plan auto.
func serveConfig() serve.Config {
	return serve.Config{QueueDepth: 64, CacheEntries: 256, DefaultAlgorithm: stpq.Auto}
}

// dbConfig is the stpq.Config stpqd -synthetic builds for a workload.
func dbConfig(w string, walDir string) stpq.Config {
	switch w {
	case "cold": // -index ir2 -signature-bits 64 -buffer-pages 32
		return stpq.Config{IndexKind: stpq.IR2, SignatureBits: 64, BufferPages: coldPoolPages}
	case "ingest": // -wal-dir <dir>, every write-path flag at its default
		return stpq.Config{WALDir: walDir}
	default: // hot: every flag at its default (SRT, exact bitmaps, 1024-page pools)
		return stpq.Config{}
	}
}

const coldPoolPages = 32

// env is one running system under test.
type env struct {
	url string
	srv *http.Server
	rec *recorder // spans recorded by the handler wrapper while tracing

	// Single-DB workloads (hot, cold, ingest).
	db  *stpq.DB
	svc *serve.Service

	// scatter: cluster nodes behind the coordinator.
	nodes []*clusterNode
	coord *cluster.Coordinator

	walDir, ckptDir string
}

type clusterNode struct {
	db   *stpq.DB
	svc  *serve.Service
	node *cluster.Node
}

// buildDB builds a DB over objs and every feature set, as stpqd's loadDB
// and loadCellDB do.
func buildDB(cfg stpq.Config, ds *dataset, objs []stpq.Object) (*stpq.DB, error) {
	db := stpq.New(cfg)
	db.AddObjects(objs)
	for s := range ds.sets {
		db.AddFeatureSet(setName(s), ds.stpqSet(s))
	}
	if err := db.Build(); err != nil {
		return nil, err
	}
	return db, nil
}

// startSingle builds the DB and its service and starts serving.
func startSingle(w string, ds *dataset, tmp string) (*env, error) {
	e := &env{rec: newRecorder()}
	var err error
	if w == "ingest" {
		if e.walDir, err = os.MkdirTemp(tmp, "wal-"); err != nil {
			return nil, err
		}
		if e.ckptDir, err = os.MkdirTemp(tmp, "ckpt-"); err != nil {
			return nil, err
		}
	}
	if e.db, err = buildDB(dbConfig(w, e.walDir), ds, ds.stpqObjects()); err != nil {
		e.close()
		return nil, err
	}
	if e.svc, err = serve.New(e.db, serveConfig()); err != nil {
		e.close()
		return nil, err
	}
	// As in stpqd: the background compactor (unused at the defaults) yields
	// to queued queries.
	e.db.SetCompactionGate(e.svc.Saturated)
	if err := e.listen(e.svc.Handler()); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// scatterNodes is the number of in-process cluster nodes.
const scatterNodes = 2

// startScatter partitions the objects over two cluster nodes with
// cluster.BuildMap (Hilbert runs), builds each node's DB as stpqd
// -cluster-node does (the cell's objects, every feature set in full), and
// serves the Coordinator's handler.
func startScatter(ds *dataset) (*env, error) {
	e := &env{rec: newRecorder()}
	objs := ds.stpqObjects()
	placeholders := make([]string, scatterNodes)
	for i := range placeholders {
		placeholders[i] = "pending"
	}
	m, err := cluster.BuildMap(objs, placeholders, shard.HilbertRuns)
	if err != nil {
		return nil, err
	}
	for i := range m.Nodes {
		cell := m.PartitionObjects(objs, i)
		db, err := buildDB(stpq.Config{WALRetainSegments: 4}, ds, cell)
		if err != nil {
			e.close()
			return nil, err
		}
		svc, err := serve.New(db, serveConfig())
		if err != nil {
			e.close()
			return nil, err
		}
		n := &clusterNode{db: db, svc: svc, node: cluster.NewNode(cluster.NodeConfig{NodeID: i, Service: svc, DB: db})}
		e.nodes = append(e.nodes, n)
		addr, err := n.node.Start("127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		m.Nodes[i].Leader = addr.String()
	}
	// stpqd -cluster-coordinator defaults: all nodes per wave, the default
	// RPC timeout, two retries, no hedging.
	e.coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{Map: m, RetryMax: 2})
	if err != nil {
		e.close()
		return nil, err
	}
	if err := e.listen(e.coord.Handler()); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// listen serves h (behind the span-recording wrapper) on a loopback port
// and waits until /readyz answers 200, as an orchestrator would.
func (e *env) listen(h http.Handler) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.url = "http://" + lis.Addr().String()
	e.srv = &http.Server{Handler: tracedHandler{next: h, rec: e.rec}}
	go func() { _ = e.srv.Serve(lis) }() // returns ErrServerClosed on close
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(e.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not ready after 10s (last error %v)", e.url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops serving and releases everything, waiting for every
// goroutine the system started.
func (e *env) close() error {
	var errs []error
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.srv.Shutdown(ctx))
		cancel()
	}
	if e.coord != nil {
		e.coord.Close()
	}
	for _, n := range e.nodes {
		n.node.Close()
		n.svc.Close()
	}
	if e.svc != nil {
		e.svc.Close()
	}
	if e.db != nil {
		errs = append(errs, e.db.CloseWAL())
	}
	return errors.Join(errs...)
}

// removeDirs deletes the WAL and checkpoint directories.
func (e *env) removeDirs() {
	for _, d := range []string{e.walDir, e.ckptDir} {
		if d != "" {
			_ = os.RemoveAll(d) // scratch space inside the build directory
		}
	}
}

// dirBytes maps each regular file under dir to its size.
func dirBytes(dir string) (map[string]int64, error) {
	out := map[string]int64{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out[path] = info.Size()
		return nil
	})
	return out, err
}
