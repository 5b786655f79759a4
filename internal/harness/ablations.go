package harness

import (
	"context"
	"fmt"
	"io"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/ij"
	"sciview/internal/oilres"
)

// Ablations probe a design choice the paper argues for but does not sweep
// directly: the IJ memory assumption (Section 6.2's OPAS discussion).

// AblationRow is one point of an ablation sweep: IJ execution time plus
// the re-transfer behaviour that explains it.
type AblationRow struct {
	Label string
	// Seconds is the measured execution time.
	Seconds float64
	// NetBytes is the storage→compute volume (re-fetches inflate it).
	NetBytes int64
	// Fetches and Refetches count sub-table transfers: Refetches =
	// Fetches − distinct sub-tables.
	Fetches   int64
	Refetches int64
}

// Ablation is one ablation experiment.
type Ablation struct {
	ID    string
	Title string
	XName string
	Rows  []AblationRow
	Notes []string
}

// Print renders the ablation as an aligned text table.
func (a *Ablation) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", a.ID, a.Title)
	fmt.Fprintf(w, "%-16s %10s %14s %10s %10s\n", a.XName, "time(s)", "net bytes", "fetches", "refetches")
	for _, r := range a.Rows {
		fmt.Fprintf(w, "%-16s %10.3f %14d %10d %10d\n", r.Label, r.Seconds, r.NetBytes, r.Fetches, r.Refetches)
	}
	for _, n := range a.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// ablationDataset builds a dataset with genuinely overlapping (not
// nested) partitions: the left table is split in x and y, the right table
// in z, so each component couples a = 4 left with b = 2 right sub-tables
// and every pair overlaps (E_C = 8). Sub-bound caches then cause real
// re-fetches. It returns the dataset, the total sub-table count, and the
// paper's per-joiner memory bound 2·c_R·RS_R + b·c_S·RS_S in bytes.
func (c *Config) ablationDataset() (*oilres.Dataset, int64, int64, error) {
	base := c.basePart()
	p := splitPart(splitPart(base, 1), 1) // halve x then y
	q := base
	q.Z /= 2 // halve z only: overlaps, never nests
	ds, err := c.dataset(c.Grid, p, q, 1)
	if err != nil {
		return nil, 0, 0, err
	}
	subTables := c.Grid.Cells()/p.Cells() + c.Grid.Cells()/q.Cells()
	need := ij.CacheBytesFor(p.Cells(), 16, 2, q.Cells(), 16)
	return ds, subTables, need, nil
}

// runIJ runs the IJ engine on a cluster with the given per-joiner cache
// size and extracts the re-transfer counters.
func (c *Config) runIJ(ds *oilres.Dataset, subTables, cacheBytes int64) (AblationRow, error) {
	cl, err := cluster.New(cluster.Config{
		StorageNodes: c.StorageNodes,
		ComputeNodes: c.ComputeNodes,
		DiskReadBw:   c.DiskReadBw,
		DiskWriteBw:  c.DiskWriteBw,
		NetBw:        c.NICBw,
		CacheBytes:   cacheBytes,
		CPUSecPerOp:  c.CPUSecPerOp,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		return AblationRow{}, err
	}
	res, err := engine.RunRequest(context.Background(), ij.New(), cl, c.request())
	if err != nil {
		return AblationRow{}, err
	}
	fetches := res.Cache.Misses
	return AblationRow{
		Seconds:   res.Elapsed.Seconds(),
		NetBytes:  res.Traffic.NetBytesToCompute,
		Fetches:   fetches,
		Refetches: fetches - subTables,
	}, nil
}

// AblationCache sweeps the per-joiner cache size on a fixed dataset,
// demonstrating Section 6.2's discussion: once the cache drops below the
// memory assumption (2·c_R + b·c_S per component working set), IJ
// re-fetches sub-tables and its transfer cost is no longer T·(RS_R+RS_S).
func AblationCache(cfg Config) (*Ablation, error) {
	cfg.setDefaults()
	ds, subTables, need, err := cfg.ablationDataset()
	if err != nil {
		return nil, err
	}
	sweeps := []struct {
		label string
		bytes int64
	}{
		{"4x bound", 4 * need},
		{"1x bound", need},
		{"1/2 bound", need / 2},
		{"1/4 bound", need / 4},
		{"1/8 bound", need / 8},
	}
	if cfg.Quick {
		sweeps = []struct {
			label string
			bytes int64
		}{{"1x bound", need}, {"1/2 bound", need / 2}, {"1/4 bound", need / 4}}
	}
	a := &Ablation{
		ID:    "ablation-cache",
		Title: "IJ under shrinking compute-node cache (memory assumption violated)",
		XName: "cache size",
	}
	for _, s := range sweeps {
		row, err := cfg.runIJ(ds, subTables, s.bytes)
		if err != nil {
			return nil, err
		}
		row.Label = s.label
		a.Rows = append(a.Rows, row)
	}
	a.Notes = append(a.Notes,
		"expected shape: at >=1x the 2*c_R+b*c_S bound, zero refetches; below it, refetches and time climb")
	return a, nil
}

// RunAblations runs the ablation — the cache-size sweep — and prints it.
func RunAblations(cfg Config, w io.Writer) error {
	a, err := AblationCache(cfg)
	if err != nil {
		return err
	}
	a.Print(w)
	return nil
}
