package sciview

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"sciview/internal/metadata"
	"sciview/internal/simio"
)

// Dataset directory layout:
//
//	<dir>/catalog.gob    MetaData Service image
//	<dir>/node0/...      storage node 0's data files
//	<dir>/node1/...      ...
//
// SaveDataset writes a dataset (catalog and every node's objects) to dir,
// creating it if needed, so the command-line tools can operate on
// persistent datasets.
func SaveDataset(ds *Dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := ds.catalog.Save(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "catalog.gob"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	for n, store := range ds.stores {
		fs, err := simio.NewFileStore(filepath.Join(dir, fmt.Sprintf("node%d", n)))
		if err != nil {
			return err
		}
		names, err := store.List()
		if err != nil {
			return err
		}
		for _, name := range names {
			data, err := store.ReadRange(name, 0, -1, nil)
			if err != nil {
				return err
			}
			if err := fs.Put(name, data); err != nil {
				return err
			}
		}
	}
	return nil
}

// OpenDataset loads a dataset previously written by SaveDataset (or
// generated directly into a directory). Chunk bytes stay on disk; only the
// catalog is loaded.
func OpenDataset(dir string) (*Dataset, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "catalog.gob"))
	if err != nil {
		return nil, fmt.Errorf("sciview: reading catalog: %w", err)
	}
	catalog := metadata.NewCatalog()
	if err := catalog.Load(bytes.NewReader(raw)); err != nil {
		return nil, err
	}
	var stores []simio.Store
	for n := 0; ; n++ {
		p := filepath.Join(dir, fmt.Sprintf("node%d", n))
		if _, err := os.Stat(p); err != nil {
			break
		}
		fs, err := simio.NewFileStore(p)
		if err != nil {
			return nil, err
		}
		stores = append(stores, fs)
	}
	if len(stores) == 0 {
		return nil, fmt.Errorf("sciview: no node directories under %s", dir)
	}
	return &Dataset{catalog: catalog, stores: stores}, nil
}
