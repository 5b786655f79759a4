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

// Ablations probe the design choices the paper argues for but does not
// sweep directly: the IJ memory assumption (Section 6.2's OPAS
// discussion), the two-stage scheduling strategy, and the block-cyclic
// chunk placement of the experimental setup.

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
// and every pair overlaps (E_C = 8). Locality-destroying schedules and
// sub-bound caches then cause real re-fetches. It returns the dataset, the
// total sub-table count, and the paper's per-joiner memory bound
// 2·c_R·RS_R + b·c_S·RS_S in bytes.
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

// runIJ runs the IJ engine variant on a cluster with the given per-joiner
// cache size and extracts the re-transfer counters.
func (c *Config) runIJ(e *ij.Engine, ds *oilres.Dataset, subTables, cacheBytes int64) (AblationRow, error) {
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
	res, err := engine.RunRequest(context.Background(), e, cl, c.request())
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
		row, err := cfg.runIJ(ij.New(), ds, subTables, s.bytes)
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

// AblationSchedule compares the paper's two-stage scheduling strategy with
// degraded variants under a cache sized exactly to the memory assumption:
// only component-local processing keeps the no-refetch guarantee.
func AblationSchedule(cfg Config) (*Ablation, error) {
	cfg.setDefaults()
	ds, subTables, need, err := cfg.ablationDataset()
	if err != nil {
		return nil, err
	}
	a := &Ablation{
		ID:    "ablation-schedule",
		Title: "IJ scheduling strategies at the exact memory bound",
		XName: "schedule",
	}
	for _, sched := range []ij.Schedule{ij.ScheduleComponent, ij.ScheduleOPAS, ij.ScheduleGlobalLex, ij.ScheduleRandom} {
		e := &ij.Engine{Schedule: sched}
		row, err := cfg.runIJ(e, ds, subTables, need)
		if err != nil {
			return nil, err
		}
		row.Label = sched.String()
		a.Rows = append(a.Rows, row)
	}
	a.Notes = append(a.Notes,
		"expected shape: the component schedule fetches each sub-table once; random re-fetches heavily",
		"global-lex matches component here because round-robin dealing keeps each joiner's components disjoint in id space — the guarantee, however, only holds by construction for the component schedule")
	return a, nil
}

// AblationPlacement compares block-cyclic chunk placement (the paper's
// setup) against contiguous placement: contiguous placement concentrates
// each component's chunks on one storage node, serializing IJ's transfers
// on a single disk.
func AblationPlacement(cfg Config) (*Ablation, error) {
	cfg.setDefaults()
	a := &Ablation{
		ID:    "ablation-placement",
		Title: "Chunk placement policy vs IJ transfer parallelism",
		XName: "placement",
	}
	q := cfg.basePart()
	for _, placement := range []string{"blockcyclic", "contiguous"} {
		ds, err := oilres.Generate(oilres.Config{
			Grid: cfg.Grid, LeftPart: q, RightPart: q,
			StorageNodes: cfg.StorageNodes,
			Placement:    placement,
			Seed:         cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		subTables := 2 * (cfg.Grid.Cells() / q.Cells())
		row, err := cfg.runIJ(ij.New(), ds, subTables, 64<<20)
		if err != nil {
			return nil, err
		}
		row.Label = placement
		a.Rows = append(a.Rows, row)
	}
	a.Notes = append(a.Notes,
		"expected shape: same bytes moved, but contiguous placement is slower (per-component transfers hit one disk)")
	return a, nil
}

// RunAblations runs every ablation, printing each as it completes.
func RunAblations(cfg Config, w io.Writer) error {
	for _, f := range []func(Config) (*Ablation, error){AblationCache, AblationSchedule, AblationPlacement} {
		a, err := f(cfg)
		if err != nil {
			return err
		}
		a.Print(w)
	}
	return nil
}
