package shard

// persist.go makes sharded builds durable: Save dumps every per-cell object
// index and every feature part as page files plus a JSON manifest carrying
// the partitioning (Hilbert boundary keys or grid geometry) and per-cell
// metadata; Open reverses it. The partitioning round-trips exactly — it is
// pure data (see partition.go) — so an opened build assigns any future
// point to the same cell as the build that saved it.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"stpq/internal/index"
	"stpq/internal/storage"
)

// ManifestName is the sharded-build manifest file inside the save
// directory, distinct from the top-level DB manifest.
const ManifestName = "shards.json"

// shardMeta describes one persisted object part.
type shardMeta struct {
	cellMeta
	Objects index.Meta `json:"objects"`
}

// manifest is the on-disk description of a sharded build. The partition
// section is the exported PartitionMeta (partition.go), shared with the
// cluster partition map so both speak the same JSON.
type manifest struct {
	Version   int           `json:"version"`
	Total     int           `json:"total"`
	Partition PartitionMeta `json:"partition"`
	Shards    []shardMeta   `json:"shards"`
	// Features holds one meta per part, per feature set, in group order.
	Features [][]index.Meta `json:"features"`
}

// Save writes the build into dir (created if needed): one page dump per
// object part (objects_shardNN.pages), one per feature part
// (features_S_partNN.pages), and then the shard manifest, replaced
// atomically. Every page file is written before the manifest, so a
// failure partway leaves no new manifest pointing at missing pages.
func (s *Shards) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	man := manifest{
		Version:   1,
		Total:     s.Total,
		Partition: s.part.meta(),
	}
	for id, oidx := range s.Objects {
		meta, err := dumpIndex(filepath.Join(dir, objectsFile(id)), oidx.Save)
		if err != nil {
			return err
		}
		man.Shards = append(man.Shards, shardMeta{cellMeta: s.cells[id], Objects: meta})
	}
	for i, g := range s.Groups {
		metas := make([]index.Meta, len(g.Parts()))
		for j, p := range g.Parts() {
			meta, err := dumpIndex(filepath.Join(dir, featuresFile(i, j)), p.Save)
			if err != nil {
				return err
			}
			metas[j] = meta
		}
		man.Features = append(man.Features, metas)
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: save manifest: %w", err)
	}
	if err := storage.WriteFileAtomic(filepath.Join(dir, ManifestName), data); err != nil {
		return fmt.Errorf("shard: save manifest: %w", err)
	}
	return nil
}

// Open loads a build previously written by Save, giving every index a
// buffer pool of bufferPages pages; the structural options (partitioning,
// index geometry) come from the manifest and page dumps.
func Open(dir string, bufferPages int) (*Shards, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: open: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("shard: open manifest: %w", err)
	}
	if man.Version != 1 {
		return nil, fmt.Errorf("shard: unsupported shard manifest version %d", man.Version)
	}
	if len(man.Shards) == 0 {
		return nil, errors.New("shard: manifest has no shards")
	}

	s := &Shards{Groups: make([]*index.FeatureGroup, len(man.Features)), Total: man.Total, part: man.Partition.runtime()}
	for i, metas := range man.Features {
		parts := make([]*index.FeatureIndex, len(metas))
		for j, meta := range metas {
			parts[j], err = loadIndex(filepath.Join(dir, featuresFile(i, j)), meta, bufferPages, index.OpenFeatureIndex)
			if err != nil {
				return nil, err
			}
		}
		g, err := index.NewFeatureGroup(parts...)
		if err != nil {
			return nil, err
		}
		s.Groups[i] = g
	}
	for id, sm := range man.Shards {
		oidx, err := loadIndex(filepath.Join(dir, objectsFile(id)), sm.Objects, bufferPages, index.OpenObjectIndex)
		if err != nil {
			return nil, err
		}
		s.Objects = append(s.Objects, oidx)
		s.cells = append(s.cells, sm.cellMeta)
	}
	return s, nil
}

// objectsFile and featuresFile name the page dumps inside a save directory.
func objectsFile(id int) string         { return fmt.Sprintf("objects_shard%02d.pages", id) }
func featuresFile(set, part int) string { return fmt.Sprintf("features_%d_part%02d.pages", set, part) }

// dumpIndex writes one index's pages to a file.
func dumpIndex(path string, dump func(w io.Writer) (index.Meta, error)) (index.Meta, error) {
	f, err := os.Create(path)
	if err != nil {
		return index.Meta{}, fmt.Errorf("shard: save %s: %w", path, err)
	}
	meta, err := dump(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return index.Meta{}, fmt.Errorf("shard: save %s: %w", path, err)
	}
	return meta, nil
}

// loadIndex reads one index dump back.
func loadIndex[T any](path string, meta index.Meta, buffer int, open func(r io.Reader, meta index.Meta, buffer int) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, fmt.Errorf("shard: open %s: %w", path, err)
	}
	defer f.Close()
	idx, err := open(f, meta, buffer)
	if err != nil {
		return zero, fmt.Errorf("shard: open %s: %w", path, err)
	}
	return idx, nil
}
