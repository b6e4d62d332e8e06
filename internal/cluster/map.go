package cluster

// map.go is the cluster partition map: the serializable description of
// which cell of the spatial partition lives on which node, and who leads
// and follows each cell. The partition section is shard.PartitionMeta —
// JSON-identical to the "partition" section of a sharded DB's
// shards.json manifest — so the exact cell function that splits a sharded
// DB splits the cluster, and any process holding the map assigns any
// point to the same node.

import (
	"encoding/json"
	"fmt"
	"os"

	"stpq"
	"stpq/internal/geo"
	"stpq/internal/shard"
)

// MapVersion is the current partition-map format version.
const MapVersion = 1

// NodeSpec names the endpoints serving one partition cell.
type NodeSpec struct {
	// ID is the cell id the node serves (0 ≤ ID < Partition.Cells).
	ID int `json:"id"`
	// Leader is the RPC endpoint ("host:port") of the cell's writable
	// leader — the only endpoint whose WAL is the cell's log of record.
	Leader string `json:"leader"`
	// Followers are read replicas fed by WAL log shipping from the leader,
	// usable for query fan-out and failover.
	Followers []string `json:"followers,omitempty"`
}

// Map is the cluster partition map a coordinator loads at startup.
type Map struct {
	Version   int                 `json:"version"`
	Partition shard.PartitionMeta `json:"partition"`
	Nodes     []NodeSpec          `json:"nodes"`
}

// Validate checks structural invariants: version, one node per cell in
// cell order, and a leader endpoint on every node.
func (m Map) Validate() error {
	if m.Version != MapVersion {
		return fmt.Errorf("cluster: unsupported map version %d", m.Version)
	}
	if m.Partition.Cells < 1 {
		return fmt.Errorf("cluster: partition has %d cells", m.Partition.Cells)
	}
	if len(m.Nodes) != m.Partition.Cells {
		return fmt.Errorf("cluster: %d nodes for %d partition cells", len(m.Nodes), m.Partition.Cells)
	}
	for i, n := range m.Nodes {
		if n.ID != i {
			return fmt.Errorf("cluster: node %d has id %d (must be listed in cell order)", i, n.ID)
		}
		if n.Leader == "" {
			return fmt.Errorf("cluster: node %d has no leader endpoint", i)
		}
	}
	return nil
}

// LoadMap reads and validates a partition map file.
func LoadMap(path string) (Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Map{}, fmt.Errorf("cluster: load map: %w", err)
	}
	var m Map
	if err := json.Unmarshal(data, &m); err != nil {
		return Map{}, fmt.Errorf("cluster: parse map %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return Map{}, err
	}
	return m, nil
}

// Save writes the map as indented JSON.
func (m Map) Save(path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("cluster: save map: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// BuildMap derives a partition over the dataset's objects and assigns the
// given leader endpoints one per cell (followers start empty; edit the
// file to add them). Cells = len(leaders). The Hilbert strategy guarantees
// every cell receives objects; the grid strategy may leave border cells
// empty under skew — such nodes serve zero objects but stay correct.
func BuildMap(objects []stpq.Object, leaders []string, strategy shard.Strategy) (Map, error) {
	if len(leaders) < 1 {
		return Map{}, fmt.Errorf("cluster: need at least one leader endpoint")
	}
	points := make([]geo.Point, len(objects))
	for i, o := range objects {
		points[i] = geo.Point{X: o.X, Y: o.Y}
	}
	meta, err := shard.BuildPartition(points, len(leaders), strategy)
	if err != nil {
		return Map{}, err
	}
	m := Map{Version: MapVersion, Partition: meta, Nodes: make([]NodeSpec, len(leaders))}
	for i, ep := range leaders {
		m.Nodes[i] = NodeSpec{ID: i, Leader: ep}
	}
	return m, nil
}

// PartitionObjects returns the subset of objects assigned to cell under
// the map's partition, preserving input order — the slice a node loads as
// its local dataset. Feature sets are NOT partitioned: every node indexes
// every feature set in full, which is what makes per-node scores exact
// global scores (see internal/shard's package comment).
func (m Map) PartitionObjects(objects []stpq.Object, cell int) []stpq.Object {
	var out []stpq.Object
	for _, o := range objects {
		if m.Partition.Assign(geo.Point{X: o.X, Y: o.Y}) == cell {
			out = append(out, o)
		}
	}
	return out
}
